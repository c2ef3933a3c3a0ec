package engine

// Block-parallel execution (DESIGN.md §11). The deterministic pipelined
// scheduler is decomposed into per-block shards that run concurrently on
// their own goroutines, plus a coordinator that serializes everything
// crossing a shard boundary. The scheme is conservative parallel
// discrete-event simulation specialized to the incoherent hierarchy's
// locality structure:
//
//   - Every thread belongs to exactly one shard (its core's block). A
//     shard owns the state only its cores can touch: their L1s, MEBs and
//     IEBs, the block's L2, and the block's counter/traffic slices.
//   - The hierarchy classifies each op as shard-LOCAL (provably touches
//     only shard-owned state) or GLOBAL (sync ops, anything reaching the
//     L3, backing memory, the sync controller, or another block).
//     Classification is conservative: when in doubt, GLOBAL.
//   - Each shard executes its own threads in (local clock, thread ID)
//     order — exactly the serial run-queue order restricted to the
//     shard, from a tournament tree of its own over the same keys. A
//     shard with NO blocked threads free-runs: it executes local ops
//     without looking at any sibling, because local ops of different
//     shards commute and nothing can be delivered into a shard whose
//     threads are all runnable (sync grants target blocked threads
//     only; cross-block DMA is checked separately, below). A shard WITH
//     a blocked thread is horizon-bounded: it may only execute a local
//     op whose key is strictly below every other shard's published
//     clock. Published clocks are lower bounds on the keys of any op a
//     shard could still produce, so the bound guarantees the shard
//     never runs past a global op that could wake its blocked thread —
//     the grant would have to interleave below the shard's frontier.
//     (Whether a shard has blocked threads only changes at the
//     coordinator, so the mode is fixed for a whole phase.)
//   - GLOBAL ops execute on the coordinator, one at a time, in global
//     (time, ID) key order, with every shard quiescent — the coordinator
//     is simply the serial engine applied to the frontier's minimum. Sync
//     grants produced there re-enter the woken threads' shard queues
//     before any shard resumes.
//
// Why results are byte-identical to the serial engine: within a shard the
// execution order equals the serial order restricted to the shard's
// threads; ops of different shards that commute (local/local on disjoint
// state, local/global on disjoint state) may reorder freely; every
// non-commuting pair is either two GLOBAL ops (totally ordered by the
// coordinator's frontier-minimum rule) or a wake interleaving below a
// shard's frontier (excluded by the horizon rule: when a thread blocks
// at key s, every shard's pending key is >= s, so the grant-producing
// global has key >= s and the blocked thread's shard stays bounded
// below it until the wake). Latencies, stalls, counters and traffic are
// functions of the state each op observes, which is therefore
// identical; per-block counter and traffic shards are merged in fixed
// block order at the end.
//
// The one op that deposits state into a FOREIGN shard is cross-block
// DMACopy. A free-running target may already have simulated past the
// transfer's key, which would reorder the deposit against the target's
// local ops; the coordinator detects that precisely (the target shard's
// max executed key exceeds the DMA's key) and fails the run loudly
// rather than return silently divergent results. DMA workloads that
// sync the target block before the transfer — the paper's programming
// model — never trip the check, because the target's threads are
// blocked and its shard horizon-bounded below the transfer.
//
// The executor engages only for the default pipelined protocol with no
// observer and no recorder attached (their event streams are defined by
// global call order, so those runs stay serial), and only when the
// hierarchy reports more than one shard.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/stats"
)

// ShardedHierarchy is implemented by hierarchies that can partition their
// state by block and vouch for which ops stay inside one shard. The
// engine detects it and switches to the block-parallel executor when
// ParallelShards returns more than one.
type ShardedHierarchy interface {
	Hierarchy
	// ParallelShards returns the number of independent shards (blocks),
	// or 1 to disable block parallelism.
	ParallelShards() int
	// ShardOf maps a core/thread id to its shard index.
	ShardOf(core int) int
	// OpLocal reports whether executing op on core provably touches only
	// shard-owned state. It must not mutate any state, and must be
	// conservative: false whenever the answer depends on state outside
	// the shard.
	OpLocal(core int, op *isa.Op) bool
}

// parPhaseBudget caps the ops one shard executes per phase, bounding the
// coordinator's control latency (ctx polls, watchdog) without affecting
// results: a budget quiesce just splits a phase in two.
const parPhaseBudget = 1 << 15

// parShard is one block's scheduler state.
type parShard struct {
	idx int
	// rq keys the shard's ready threads at shard-local slots; its root is
	// the shard's next op. A thread whose op waits across a quiesce stays
	// keyed there with the op unconsumed in its ring.
	rq runq

	// clock is the shard's published lower bound on the key of any op it
	// may still execute this phase; emptyKey when it has nothing pending.
	// quiet is set (after the final clock store) when the shard's phase
	// goroutine has gone quiescent. Both are read by sibling shards'
	// horizon checks.
	clock atomic.Uint64
	quiet atomic.Bool

	// parked marks a shard that quiesced because its minimum op is GLOBAL
	// and awaits the coordinator; the coordinator does not release it.
	// Cleared when the coordinator runs a shard op and when a wake lands
	// in the shard (the woken thread may order first).
	parked bool

	// blocked counts the shard's threads parked in the sync controller;
	// maintained by the coordinator (block/wake). freeRun is set at
	// phase release when blocked == 0: the shard may then ignore the
	// horizon entirely. maxExec is the largest key the shard has
	// executed, read by the coordinator (while the shard is quiescent)
	// for the cross-block DMA ordering check.
	blocked int
	freeRun bool
	maxExec uint64

	// Per-shard accumulators, merged by the coordinator: op counts by
	// kind, ops executed in the current phase, retirements/progress for
	// the watchdog, and the first guest error.
	ops        [isa.NumOpKinds]int64
	phaseSteps int64
	progressed bool
	err        error

	resume chan struct{}
}

// parGroup is the shared state of one block-parallel run.
type parGroup struct {
	e       *Engine
	sh      ShardedHierarchy
	shards  []*parShard
	shardOf []int // thread id -> shard index

	phase sync.WaitGroup // running shards in the current phase
	join  sync.WaitGroup // shard goroutine lifetimes
}

// runBlockParallel is the coordinator loop. Each round it executes
// GLOBAL ops serially while they are the global frontier minimum, then
// releases every shard whose next op is local for one concurrent phase,
// and waits for quiescence. See the file comment for the protocol.
func (e *Engine) runBlockParallel(ctx context.Context, sh ShardedHierarchy) (*Result, error) {
	n := sh.ParallelShards()
	g := &parGroup{e: e, sh: sh, shards: make([]*parShard, n), shardOf: make([]int, len(e.ts))}
	slots := make([]int, n)
	for _, t := range e.ts {
		s := sh.ShardOf(t.id)
		if s < 0 || s >= n {
			return nil, fmt.Errorf("engine: ShardOf(%d) = %d out of range [0,%d)", t.id, s, n)
		}
		g.shardOf[t.id] = s
		t.slot = slots[s]
		slots[s]++
	}
	for i := range g.shards {
		p := &parShard{idx: i, resume: make(chan struct{}, 1)}
		p.clock.Store(emptyKey)
		p.rq.init(slots[i])
		g.shards[i] = p
	}
	for _, t := range e.ts {
		g.shards[g.shardOf[t.id]].rq.set(t.slot, uint64(t.id)) // every clock starts at 0
	}
	e.par = g
	defer func() { e.par = nil }()

	for _, p := range g.shards {
		g.join.Add(1)
		go func(p *parShard) {
			defer g.join.Done()
			for range p.resume {
				p.runPhase(e, g)
				g.phase.Done()
			}
		}(p)
	}
	stopShards := func() {
		for _, p := range g.shards {
			close(p.resume)
		}
		g.join.Wait()
	}
	defer stopShards()

	res := &Result{PerThread: make([]stats.Stalls, len(e.ts))}
	stop := ctx.Done()
	var idle int64
	for {
		if stop != nil {
			select {
			case <-stop:
				e.shutdown()
				return nil, fmt.Errorf("engine: run canceled: %w", ctx.Err())
			default:
			}
		}

		// Serial frontier: execute the minimum pending op while it is
		// GLOBAL. The coordinator may peek and classify freely — every
		// shard is quiescent here.
		localFrontier := false
		for {
			var p *parShard
			min := emptyKey
			for _, s := range g.shards {
				if k := s.rq.min(); k < min {
					min, p = k, s
				}
			}
			if p == nil {
				if e.allDone() {
					return e.finishPar(g, res)
				}
				err := e.deadlockError()
				e.shutdown()
				return nil, err
			}
			t := e.ts[min&idMask]
			op, ok := e.peekOp(t)
			if !ok {
				t.state = done
				p.rq.remove(t)
				e.progressed = true
				idle = 0
				continue
			}
			p.parked = false
			if !op.Kind.IsSync() && sh.OpLocal(t.id, op) {
				localFrontier = true
				break
			}
			t.pipe.drop()
			if op.Kind == isa.OpDMACopy && op.Peer >= 0 && op.Peer < len(g.shards) &&
				op.Peer != g.shardOf[t.id] && g.shards[op.Peer].maxExec > min {
				err := fmt.Errorf("engine: block-parallel run reordered a cross-block DMA: "+
					"target block %d already simulated past cycle %d; sync the target "+
					"before the transfer or run serially", op.Peer, t.time)
				e.shutdown()
				return nil, err
			}
			runnable, err := e.stepPipelined(t, op, res)
			if err == nil && runnable {
				err = p.rq.update(t)
			}
			if err != nil {
				e.shutdown()
				return nil, err
			}
			if e.progressed {
				e.progressed = false
				idle = 0
			} else if idle++; idle >= e.limit {
				lerr := &LivelockError{Steps: idle, Blocked: e.blockedIDs()}
				e.shutdown()
				return nil, lerr
			}
		}
		if !localFrontier {
			continue
		}

		// Concurrent phase: release every shard with pending ops that is
		// not parked at a GLOBAL. Mark them running and publish their
		// clocks before any goroutine starts, so no shard can race past a
		// sibling's pending key.
		running := g.shards[:0:0]
		for _, p := range g.shards {
			k := p.rq.min()
			p.clock.Store(k)
			if p.parked || k == emptyKey {
				continue
			}
			p.freeRun = p.blocked == 0
			p.quiet.Store(false)
			running = append(running, p)
		}
		g.phase.Add(len(running))
		for _, p := range running {
			p.resume <- struct{}{}
		}
		g.phase.Wait()

		var steps int64
		prog := false
		for _, p := range running {
			if p.err != nil {
				e.shutdown()
				return nil, p.err
			}
			steps += p.phaseSteps
			p.phaseSteps = 0
			if p.progressed {
				p.progressed = false
				prog = true
			}
		}
		if prog {
			idle = 0
		} else if idle += steps; idle >= e.limit {
			lerr := &LivelockError{Steps: idle, Blocked: e.blockedIDs()}
			e.shutdown()
			return nil, lerr
		}
	}
}

// finishPar merges per-shard op counts and folds per-thread outcomes.
func (e *Engine) finishPar(g *parGroup, res *Result) (*Result, error) {
	for _, p := range g.shards {
		for k, n := range p.ops {
			res.Ops[k] += n
		}
	}
	return e.finish(res)
}

// runPhase executes shard-local ops until the shard parks at a GLOBAL
// op, is horizon-blocked by a quiescent sibling, drains, or exhausts its
// phase budget. Free-running shards (no blocked threads this phase) skip
// the horizon entirely and only stop at a global, the drain, or the
// budget. It runs on the shard's goroutine; everything it touches is
// shard-owned or read through the clock/quiet atomics.
func (p *parShard) runPhase(e *Engine, g *parGroup) {
	// horizon caches the last observed minimum of the sibling clocks;
	// within a phase sibling clocks only grow, so any key below it needs
	// no rescan.
	var horizon uint64
	quiesce := func(global bool) {
		p.parked = global
		p.clock.Store(p.rq.min())
		p.quiet.Store(true)
	}
	for {
		k := p.rq.min()
		if k == emptyKey {
			quiesce(false)
			return
		}
		t := e.ts[k&idMask]
		op, ok := e.peekOp(t)
		if !ok {
			t.state = done
			p.rq.remove(t)
			p.progressed = true
			continue
		}
		p.clock.Store(k)
		if op.Kind.IsSync() || !g.sh.OpLocal(t.id, op) {
			quiesce(true)
			return
		}
		if !p.freeRun && k >= horizon {
			var ok bool
			if horizon, ok = p.waitHorizon(g, k); !ok {
				quiesce(false)
				return
			}
		}
		t.pipe.drop()
		p.ops[op.Kind]++
		val, err := e.execOp(t, op)
		if err == nil {
			err = p.rq.update(t)
		}
		if err != nil {
			p.err = err
			quiesce(false)
			return
		}
		if k > p.maxExec {
			p.maxExec = k
		}
		if op.Kind == isa.OpLoad || op.Kind == isa.OpLoadU {
			t.loadVal = val
		}
		if p.phaseSteps++; p.phaseSteps >= parPhaseBudget {
			quiesce(false)
			return
		}
	}
}

// horizonSpinLimit bounds how many times a horizon-blocked shard yields
// before giving the phase back to the coordinator. Unbounded spinning is
// pathological when GOMAXPROCS is below the shard count; quiescing
// instead costs one extra coordinator round and nothing semantically.
const horizonSpinLimit = 64

// waitHorizon blocks until every sibling shard's published clock exceeds
// k, returning the observed minimum (ok=true). If the blocking sibling
// has itself gone quiescent, or the spin budget runs out, the shard must
// quiesce too (ok=false): the coordinator advances the frontier then.
func (p *parShard) waitHorizon(g *parGroup, k uint64) (uint64, bool) {
	for spins := 0; ; spins++ {
		min := emptyKey
		var owner *parShard
		for _, s := range g.shards {
			if s == p {
				continue
			}
			if c := s.clock.Load(); c < min {
				min, owner = c, s
			}
		}
		if k < min {
			return min, true
		}
		if owner.quiet.Load() || spins >= horizonSpinLimit {
			return 0, false
		}
		runtime.Gosched()
	}
}
