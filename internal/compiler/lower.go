package compiler

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/engine"
	"repro/internal/mem"
)

// reductionLock is the synchronization-table lock serializing reduction
// merges (one lock per reduction array would also work; contention is the
// point of the pattern).
const reductionLock = 31

// Lower compiles prog for the given thread count and instruments it per
// mode, returning one engine guest per thread. All modes execute the same
// computation; they differ only in the coherence-management instructions
// inserted (Section VI's Base / Addr / Addr+L, or nothing for HCC).
func Lower(prog *Program, threads int, mode Mode) []engine.Guest {
	plan := Analyze(prog, threads)
	guests := make([]engine.Guest, threads)
	for t := 0; t < threads; t++ {
		t := t
		guests[t] = func(p engine.Proc) {
			ex := &executor{prog: prog, plan: plan, mode: mode, p: p, me: t, threads: threads}
			ex.runStmts(prog.Stmts)
		}
	}
	return guests
}

// executor runs the IR for one thread.
type executor struct {
	prog    *Program
	plan    *Plan
	mode    Mode
	p       engine.Proc
	me      int
	threads int
	// conflicts caches inspector results per (loop, read): iteration ->
	// producing thread (-1 for own or unwritten elements). The inspector
	// loop that fills it runs once, through the cache hierarchy.
	conflicts map[*Loop]map[int][]int
	// invDone tracks (line, writer) pairs already self-invalidated in the
	// current epoch by inspector-guided INVs: hardware INV works at line
	// granularity, so one INV per line and producer per epoch suffices,
	// and the inspector knows the whole access pattern ahead of time
	// (Figure 8's conflict array lets the generated code coalesce). The
	// writer is part of the key because two INV_PROD of one line naming
	// producers in different blocks resolve to different invalidation
	// depths.
	invDone map[invKey]bool
}

// invKey identifies one already-performed inspector INV.
type invKey struct {
	line   mem.Addr
	writer int
}

func (ex *executor) runStmts(stmts []Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			ex.runLoop(s)
		case *TimeLoop:
			for it := 0; it < s.Iters; it++ {
				ex.runStmts(s.Body)
			}
		default:
			panic(fmt.Sprintf("compiler: unknown statement %T", s))
		}
	}
}

// runLoop executes one epoch: INV side, inspector, body, reduction merge,
// WB side, implicit barrier.
func (ex *executor) runLoop(l *Loop) {
	lp := ex.plan.Loops[l]
	lo, hi := iterRange(l, ex.me, ex.threads)
	ex.invDone = nil // fresh epoch: no lines invalidated yet

	// Epoch start: self-invalidate what this epoch may consume.
	switch ex.mode {
	case ModeBase:
		ex.p.INVAllGlobal()
	case ModeAddr:
		for _, ann := range lp.INVIn[ex.me] {
			for _, r := range ann.Ranges {
				ex.p.INVGlobal(r)
			}
		}
	case ModeAddrL:
		for _, ann := range lp.INVIn[ex.me] {
			for _, r := range ann.Ranges {
				if ann.Multi {
					ex.p.INVGlobal(r)
				} else {
					ex.p.InvProd(r, ann.Peer)
				}
			}
		}
	}

	// Run the inspector once per irregular read (the access pattern is
	// static across time-loop iterations, so the cost amortizes).
	if ex.mode == ModeAddr || ex.mode == ModeAddrL {
		ex.ensureInspected(l, lo, hi)
	}

	// Body.
	var redLocal map[int]mem.Word
	if l.Reduction != nil {
		redLocal = make(map[int]mem.Word)
	}
	for i := lo; i < hi; i++ {
		read := func(r int) mem.Word {
			rd := &l.Reads[r]
			elem := rd.At(i)
			if rd.Indirect {
				// The subscript itself is loaded through the hierarchy.
				idxArr := ex.prog.Arrays[rd.IndexArray]
				elem = int(ex.p.Load(idxArr.At(rd.IndexAt(i))))
				// Conditional inspector-guided INV before the read.
				if ex.mode == ModeAddr || ex.mode == ModeAddrL {
					ex.irregularINV(l, r, i, elem, rd)
				}
			}
			return ex.p.Load(ex.prog.Arrays[rd.Array].At(elem))
		}
		vals := l.Body(i, read)
		if l.WorkCycles > 0 {
			ex.p.Compute(l.WorkCycles)
		}
		if l.Reduction != nil {
			if len(vals) != 1 {
				panic("compiler: reduction body must produce one value")
			}
			redLocal[l.Reduction.At(i)] += vals[0]
		} else {
			if len(vals) != len(l.Writes) {
				panic(fmt.Sprintf("compiler: loop %q body produced %d values for %d writes", l.Name, len(vals), len(l.Writes)))
			}
			for w, v := range vals {
				ex.p.Store(ex.prog.Arrays[l.Writes[w].Array].At(l.Writes[w].At(i)), v)
			}
		}
	}

	// Reduction merge under the controller lock. The compiler knows the
	// reduction semantics, so the critical section gets exact WB/INV of
	// the touched elements (globally: reductions have no identifiable
	// producer-consumer pairs).
	if l.Reduction != nil && len(redLocal) > 0 {
		arr := ex.prog.Arrays[l.Reduction.Array]
		elems := slices.Sorted(maps.Keys(redLocal))
		ranges := elemsToRanges(arr, elems)
		// A hierarchical-reduction rewrite confines each element to one
		// block, so the merge uses a per-block lock and block-local
		// coherence operations; a plain reduction must assume any thread
		// consumes the result and goes global. The INV/WB pair brackets
		// the whole merged range once (batched, like any competent
		// instrumentation of a critical section over a known range).
		lock := reductionLock
		local := l.Reduction.BlockLocal && l.Reduction.BlockOf != nil
		if local {
			lock = reductionLock + 1 + l.Reduction.BlockOf(ex.me)
		}
		ex.p.Acquire(lock)
		if ex.mode != ModeHCC {
			for _, r := range ranges {
				if local {
					ex.p.INV(r)
				} else {
					ex.p.INVGlobal(r)
				}
			}
		}
		for _, e := range elems {
			v := ex.p.Load(arr.At(e))
			ex.p.Store(arr.At(e), v+redLocal[e])
		}
		if ex.mode != ModeHCC {
			for _, r := range ranges {
				if local {
					ex.p.WB(r)
				} else {
					ex.p.WBGlobal(r)
				}
			}
		}
		ex.p.Release(lock)
	}

	// Epoch end: post what later epochs may consume.
	switch ex.mode {
	case ModeBase:
		ex.p.WBAllGlobal()
	case ModeAddr:
		for _, ann := range lp.WBOut[ex.me] {
			for _, r := range ann.Ranges {
				ex.p.WBGlobal(r)
			}
		}
	case ModeAddrL:
		for _, ann := range lp.WBOut[ex.me] {
			for _, r := range ann.Ranges {
				if ann.Multi {
					ex.p.WBGlobal(r)
				} else {
					ex.p.WBCons(r, ann.Peer)
				}
			}
		}
	}

	// Implicit OpenMP barrier at loop end.
	ex.p.Barrier(0)
}

// ensureInspected runs the inspector loops for l once (Figure 8's lines
// 8-12): for every irregular read of every owned iteration, record the
// producing thread of the element that will be read.
func (ex *executor) ensureInspected(l *Loop, lo, hi int) {
	lp := ex.plan.Loops[l]
	if len(lp.Inspectors) == 0 {
		return
	}
	if ex.conflicts == nil {
		ex.conflicts = make(map[*Loop]map[int][]int)
	}
	if _, done := ex.conflicts[l]; done {
		return
	}
	per := make(map[int][]int)
	for _, insp := range lp.Inspectors {
		rd := &l.Reads[insp.ReadIdx]
		idxArr := ex.prog.Arrays[rd.IndexArray]
		conf := make([]int, hi-lo)
		for i := lo; i < hi; i++ {
			elem := int(ex.p.Load(idxArr.At(rd.IndexAt(i))))
			conf[i-lo] = insp.OwnerOf(elem)
		}
		per[insp.ReadIdx] = conf
	}
	ex.conflicts[l] = per
	// The inspector is its own epoch, closed by a barrier so all threads
	// agree it ran against the pre-loop state.
	ex.p.Barrier(0)
}

// irregularINV issues the inspector-guided conditional INV before an
// irregular read (Figure 8's lines 21-22): reads produced by this thread
// need no invalidation; others are invalidated at the level the producer's
// location requires (Addr: always global; Addr+L: INV_PROD).
func (ex *executor) irregularINV(l *Loop, readIdx, i, elem int, rd *Read) {
	lo, _ := iterRange(l, ex.me, ex.threads)
	conf := ex.conflicts[l][readIdx]
	writer := conf[i-lo]
	if writer == ex.me {
		return
	}
	r := ex.prog.Arrays[rd.Array].Slice(elem, 1)
	key := invKey{line: mem.LineAddr(r.Base), writer: writer}
	if ex.mode == ModeAddr {
		key.writer = -1 // Addr INVs are all global: the line alone keys
	}
	if ex.invDone[key] {
		return
	}
	if ex.invDone == nil {
		ex.invDone = make(map[invKey]bool)
	}
	ex.invDone[key] = true
	if ex.mode == ModeAddrL {
		ex.p.InvProd(r, writer)
	} else {
		ex.p.INVGlobal(r)
	}
}
