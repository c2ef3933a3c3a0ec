package main

// The layer ledger: host time split by layer, measured from outside the
// program. Spans mark every boundary the benchmark itself crosses (pass,
// op, and the calls an op makes into each module). Calls into the
// memory hierarchy and from guests into the engine are far too many for
// one span each, so timing wrappers around engine.Hierarchy and
// engine.Proc count them and sum their durations instead (see
// sampleMask for which are timed). Wrapping is transparent because the
// serial engine never type-asserts either interface for anything but
// block-parallel sharding, which no measured sweep enables, and because
// guests run as coroutines, one at a time, so summed intervals never
// overlap.

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stats"
)

// span is one timed interval; Parent is the enclosing span's ID (0 for
// a root). Times are nanoseconds since the tracer started.
type span struct {
	ID, Parent int
	Name       string
	Start, Dur int64
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base  time.Time
	spans []span
	// clockCost is the calibrated cost of one clock read.
	clockCost int64
}

func newTracer() *tracer { return &tracer{base: time.Now(), clockCost: clockCost()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.Dur = t.now() - s.Start
	return time.Duration(s.Dur)
}

// time runs f inside a span named name under parent. On a nil tracer it
// only times f.
func (t *tracer) time(parent int, name string, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := t.begin(parent, name)
	f()
	return t.end(id)
}

// childTime is the total duration of id's direct children, by name.
func (t *tracer) childTime(id int) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans[id:] {
		if s.Parent == id {
			out[s.Name] += time.Duration(s.Dur)
		}
	}
	return out
}

// write saves the spans as a Chrome trace_event file (viewable in
// Perfetto), one complete event per span.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			PID: 1, TID: 1, Args: map[string]int{"id": s.ID, "parent": s.Parent}}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// callClass groups hierarchy methods for the call counts.
type callClass int

const (
	cLoad callClass = iota
	cStore
	cWB
	cINV
	cWBAll
	cINVAll
	cWBCons
	cInvProd
	cSync
	cOther
	numClasses
)

// sampleMask sets the timing sample for the frequent, cheap events —
// word accesses and guest intervals between Proc calls: one in
// sampleMask+1 is timed (see timedProc for the intervals also timed for
// certain). A clock read costs tens of nanoseconds on a
// virtual machine, as much as an access itself, so timing every one
// would double the run and bury the split under probe cost. Every other
// hierarchy call is timed, and every call is counted.
const sampleMask = 15

// clockCost measures what one timed interval reads when it encloses
// nothing: the cost of a clock read, subtracted from every timed
// interval.
func clockCost() int64 {
	base := time.Now()
	ds := make([]float64, 1001)
	for i := range ds {
		a := int64(time.Since(base))
		ds[i] = float64(int64(time.Since(base)) - a)
	}
	return int64(median(ds))
}

// tally sums a sample of timed intervals.
type tally struct {
	n       int64
	sum, sq float64
}

func (t *tally) add(d int64) {
	t.n++
	t.sum += float64(d)
	t.sq += float64(d) * float64(d)
}

// estimate scales the sample up to all intervals, returning the total
// and the variance of that estimate (0 when every interval was timed).
func (t tally) estimate(all int64) (total, variance float64) {
	if t.n == 0 {
		return 0, 0
	}
	mean := t.sum / float64(t.n)
	total = mean * float64(all)
	if t.n < 2 || t.n >= all {
		return total, 0
	}
	s2 := (t.sq - float64(t.n)*mean*mean) / float64(t.n-1)
	return total, float64(all) * float64(all) * s2 / float64(t.n) * (1 - float64(t.n)/float64(all))
}

// htSum is a Horvitz-Thompson estimate of a total from intervals each
// timed with a probability known before it started.
type htSum struct {
	total, variance float64
}

func (h *htSum) add(d int64, p float64) {
	x := float64(d) / p
	h.total += x
	h.variance += (1 - p) * x * x
}

// longInterval is the guest interval beyond which a thread's next
// interval is timed for certain: long intervals come in runs (compute
// phases), and a clock read is cheap next to them.
const longInterval = 2 * time.Microsecond

// ledger accumulates one engine run's guest and hierarchy time.
type ledger struct {
	base time.Time
	bias int64
	rng  uint64
	// calls counts hierarchy calls by class; hier sums the timed ones.
	calls [numClasses]int64
	hier  [numClasses]tally
	// apps estimates guest time between Proc calls.
	apps htSum
}

func newLedger(bias int64) *ledger {
	return &ledger{base: time.Now(), bias: bias, rng: 0x9e3779b97f4a7c15}
}

func (l *ledger) now() int64 { return int64(time.Since(l.base)) }

// sampled draws the next timing decision (xorshift64).
func (l *ledger) sampled() bool {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	return l.rng&sampleMask == 0
}

// elapsed is the time since start, less the clock's own cost.
func (l *ledger) elapsed(start int64) int64 {
	return max(l.now()-start-l.bias, 0)
}

func (l *ledger) record(c callClass, start int64) { l.hier[c].add(l.elapsed(start)) }

// classTime estimates the hierarchy self time of each call class.
func (l *ledger) classTime() [numClasses]int64 {
	var out [numClasses]int64
	for c := range out {
		t, _ := l.hier[c].estimate(l.calls[c])
		out[c] = int64(t)
	}
	return out
}

// hierTime estimates the total hierarchy self time.
func (l *ledger) hierTime() int64 {
	var t int64
	for _, v := range l.classTime() {
		t += v
	}
	return t
}

// appsTime estimates guest self time, summed over threads.
func (l *ledger) appsTime() int64 { return int64(l.apps.total) }

// stdErr is the standard error of appsTime+hierTime due to sampling.
func (l *ledger) stdErr() time.Duration {
	v := l.apps.variance
	for c := range l.hier {
		_, cv := l.hier[c].estimate(l.calls[c])
		v += cv
	}
	return time.Duration(math.Sqrt(v))
}

// guests wraps each guest so the time it spends outside Proc calls is
// charged to apps.
func (l *ledger) guests(gs []engine.Guest) []engine.Guest {
	out := make([]engine.Guest, len(gs))
	for i, g := range gs {
		g := g
		out[i] = func(p engine.Proc) {
			tp := &timedProc{p: p, l: l}
			tp.exit()
			g(tp)
			tp.enter()
		}
	}
	return out
}

// all records a call that is always timed.
func (l *ledger) all(c callClass, start int64) {
	l.calls[c]++
	l.record(c, start)
}

// timedHier is an engine.Hierarchy that times every call into h.
type timedHier struct {
	h engine.Hierarchy
	l *ledger
}

func (t *timedHier) Load(core int, a mem.Addr) (mem.Word, int64) {
	t.l.calls[cLoad]++
	if !t.l.sampled() {
		return t.h.Load(core, a)
	}
	s := t.l.now()
	v, c := t.h.Load(core, a)
	t.l.record(cLoad, s)
	return v, c
}

func (t *timedHier) Store(core int, a mem.Addr, v mem.Word) int64 {
	t.l.calls[cStore]++
	if !t.l.sampled() {
		return t.h.Store(core, a, v)
	}
	s := t.l.now()
	c := t.h.Store(core, a, v)
	t.l.record(cStore, s)
	return c
}

func (t *timedHier) LoadUncached(core int, a mem.Addr) (mem.Word, int64) {
	t.l.calls[cLoad]++
	if !t.l.sampled() {
		return t.h.LoadUncached(core, a)
	}
	s := t.l.now()
	v, c := t.h.LoadUncached(core, a)
	t.l.record(cLoad, s)
	return v, c
}

func (t *timedHier) StoreUncached(core int, a mem.Addr, v mem.Word) int64 {
	t.l.calls[cStore]++
	if !t.l.sampled() {
		return t.h.StoreUncached(core, a, v)
	}
	s := t.l.now()
	c := t.h.StoreUncached(core, a, v)
	t.l.record(cStore, s)
	return c
}

func (t *timedHier) WB(core int, r mem.Range, lvl isa.Level) int64 {
	s := t.l.now()
	c := t.h.WB(core, r, lvl)
	t.l.all(cWB, s)
	return c
}

func (t *timedHier) INV(core int, r mem.Range, lvl isa.Level) int64 {
	s := t.l.now()
	c := t.h.INV(core, r, lvl)
	t.l.all(cINV, s)
	return c
}

func (t *timedHier) WBAll(core int, useMEB bool, lvl isa.Level) int64 {
	s := t.l.now()
	c := t.h.WBAll(core, useMEB, lvl)
	t.l.all(cWBAll, s)
	return c
}

func (t *timedHier) INVAll(core int, lazy bool, lvl isa.Level) int64 {
	s := t.l.now()
	c := t.h.INVAll(core, lazy, lvl)
	t.l.all(cINVAll, s)
	return c
}

func (t *timedHier) WBCons(core int, r mem.Range, cons int) int64 {
	s := t.l.now()
	c := t.h.WBCons(core, r, cons)
	t.l.all(cWBCons, s)
	return c
}

func (t *timedHier) InvProd(core int, r mem.Range, prod int) int64 {
	s := t.l.now()
	c := t.h.InvProd(core, r, prod)
	t.l.all(cInvProd, s)
	return c
}

func (t *timedHier) WBConsAll(core, cons int) int64 {
	s := t.l.now()
	c := t.h.WBConsAll(core, cons)
	t.l.all(cWBCons, s)
	return c
}

func (t *timedHier) InvProdAll(core, prod int) int64 {
	s := t.l.now()
	c := t.h.InvProdAll(core, prod)
	t.l.all(cInvProd, s)
	return c
}

func (t *timedHier) SigPublish(core, ch int) int64 {
	s := t.l.now()
	c := t.h.SigPublish(core, ch)
	t.l.all(cOther, s)
	return c
}

func (t *timedHier) INVSig(core, ch int) int64 {
	s := t.l.now()
	c := t.h.INVSig(core, ch)
	t.l.all(cOther, s)
	return c
}

func (t *timedHier) DMACopy(core int, dst mem.Addr, src mem.Range, toBlock int) int64 {
	s := t.l.now()
	c := t.h.DMACopy(core, dst, src, toBlock)
	t.l.all(cOther, s)
	return c
}

func (t *timedHier) EpochBoundary(core int) {
	s := t.l.now()
	t.h.EpochBoundary(core)
	t.l.all(cOther, s)
}

func (t *timedHier) SyncCost(core, id int) int64 {
	s := t.l.now()
	c := t.h.SyncCost(core, id)
	t.l.all(cSync, s)
	return c
}

func (t *timedHier) Drain() {
	s := t.l.now()
	t.h.Drain()
	t.l.all(cOther, s)
}

func (t *timedHier) Memory() *mem.Memory {
	s := t.l.now()
	m := t.h.Memory()
	t.l.all(cOther, s)
	return m
}

func (t *timedHier) Traffic() stats.Traffic {
	s := t.l.now()
	tr := t.h.Traffic()
	t.l.all(cOther, s)
	return tr
}

func (t *timedHier) Counters() *stats.Counters {
	s := t.l.now()
	c := t.h.Counters()
	t.l.all(cOther, s)
	return c
}

// timedProc is the engine.Proc a wrapped guest sees. A timed guest
// interval, from one Proc call's return to the next call, is charged to
// apps; the calls themselves (transport, scheduling, and any hierarchy
// work they trigger) are left to the engine and hierarchy accounts. An
// interval is timed for certain after a long one, else on the sample.
type timedProc struct {
	p       engine.Proc
	l       *ledger
	resumed int64
	// prob is the probability the current interval is timed (0: not
	// timed); hot marks a thread whose last timed interval was long.
	prob float64
	hot  bool
}

func (t *timedProc) enter() {
	if t.prob > 0 {
		d := t.l.elapsed(t.resumed)
		t.l.apps.add(d, t.prob)
		t.hot = d >= int64(longInterval)
	}
}

func (t *timedProc) exit() {
	switch {
	case t.hot:
		t.prob = 1
	case t.l.sampled():
		t.prob = 1.0 / (sampleMask + 1)
	default:
		t.prob = 0
		return
	}
	t.resumed = t.l.now()
}

func (t *timedProc) ID() int         { return t.p.ID() }
func (t *timedProc) NumThreads() int { return t.p.NumThreads() }

func (t *timedProc) Load(a mem.Addr) mem.Word {
	t.enter()
	v := t.p.Load(a)
	t.exit()
	return v
}

func (t *timedProc) Store(a mem.Addr, v mem.Word) { t.enter(); t.p.Store(a, v); t.exit() }

func (t *timedProc) LoadU(a mem.Addr) mem.Word {
	t.enter()
	v := t.p.LoadU(a)
	t.exit()
	return v
}

func (t *timedProc) StoreU(a mem.Addr, v mem.Word) { t.enter(); t.p.StoreU(a, v); t.exit() }
func (t *timedProc) Compute(cycles int64)          { t.enter(); t.p.Compute(cycles); t.exit() }
func (t *timedProc) WB(r mem.Range)                { t.enter(); t.p.WB(r); t.exit() }
func (t *timedProc) INV(r mem.Range)               { t.enter(); t.p.INV(r); t.exit() }
func (t *timedProc) WBGlobal(r mem.Range)          { t.enter(); t.p.WBGlobal(r); t.exit() }
func (t *timedProc) INVGlobal(r mem.Range)         { t.enter(); t.p.INVGlobal(r); t.exit() }
func (t *timedProc) WBAll()                        { t.enter(); t.p.WBAll(); t.exit() }
func (t *timedProc) WBAllMEB()                     { t.enter(); t.p.WBAllMEB(); t.exit() }
func (t *timedProc) WBAllGlobal()                  { t.enter(); t.p.WBAllGlobal(); t.exit() }
func (t *timedProc) INVAll()                       { t.enter(); t.p.INVAll(); t.exit() }
func (t *timedProc) INVAllLazy()                   { t.enter(); t.p.INVAllLazy(); t.exit() }
func (t *timedProc) INVAllGlobal()                 { t.enter(); t.p.INVAllGlobal(); t.exit() }
func (t *timedProc) WBCons(r mem.Range, cons int)  { t.enter(); t.p.WBCons(r, cons); t.exit() }
func (t *timedProc) InvProd(r mem.Range, prod int) { t.enter(); t.p.InvProd(r, prod); t.exit() }
func (t *timedProc) WBConsAll(cons int)            { t.enter(); t.p.WBConsAll(cons); t.exit() }
func (t *timedProc) InvProdAll(prod int)           { t.enter(); t.p.InvProdAll(prod); t.exit() }
func (t *timedProc) SigPublish(ch int)             { t.enter(); t.p.SigPublish(ch); t.exit() }
func (t *timedProc) INVSig(ch int)                 { t.enter(); t.p.INVSig(ch); t.exit() }
func (t *timedProc) DMACopy(dst mem.Addr, src mem.Range, toBlock int) {
	t.enter()
	t.p.DMACopy(dst, src, toBlock)
	t.exit()
}
func (t *timedProc) Acquire(lock int)        { t.enter(); t.p.Acquire(lock); t.exit() }
func (t *timedProc) Release(lock int)        { t.enter(); t.p.Release(lock); t.exit() }
func (t *timedProc) Barrier(id int)          { t.enter(); t.p.Barrier(id); t.exit() }
func (t *timedProc) FlagSet(id int, v int64) { t.enter(); t.p.FlagSet(id, v); t.exit() }
func (t *timedProc) FlagWait(id int, threshold int64) {
	t.enter()
	t.p.FlagWait(id, threshold)
	t.exit()
}
