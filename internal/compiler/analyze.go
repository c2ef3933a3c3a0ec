package compiler

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/workload"
)

// flatLoop is one loop occurrence in the flattened interprocedural control
// flow: its position in program order and whether it sits inside a time
// loop (whose back edge makes every loop in the region reach every other).
type flatLoop struct {
	loop   *Loop
	index  int
	region int // -1 outside any TimeLoop, else TimeLoop ordinal
}

// flatten linearizes the statement list.
func flatten(stmts []Stmt, region int, nextRegion *int, out *[]flatLoop) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			*out = append(*out, flatLoop{loop: s, index: len(*out), region: region})
		case *TimeLoop:
			r := *nextRegion
			*nextRegion++
			flatten(s.Body, r, nextRegion, out)
		default:
			panic(fmt.Sprintf("compiler: unknown statement %T", s))
		}
	}
}

// Annotation is one WB or INV insertion: a set of element ranges plus the
// peer thread for the level-adaptive instruction form. Multi marks pieces
// with more than one peer (or no identifiable peer, as after reductions),
// which lower to the conservative global instructions.
type Annotation struct {
	Ranges []mem.Range
	Peer   int
	Multi  bool
}

// InspectorPlan describes one irregular read requiring a runtime
// inspector: for each consumer iteration the lowered code computes the
// producing thread of the element it reads (from the producer's static
// schedule) and issues a conditional INV before the read.
type InspectorPlan struct {
	ReadIdx int
	// OwnerOf maps an element of the read array to the thread that
	// produces it (derived from the producer loop's chunk distribution).
	OwnerOf func(elem int) int
}

// LoopPlan is the instrumentation computed for one loop.
type LoopPlan struct {
	// WBOut[t] are the writebacks thread t issues at the loop's epoch
	// end; INVIn[t] are the invalidations it issues at epoch start. The
	// producer-consumer annotations are ordered by first range base, then
	// peer, ties in the order the analysis derived them; INVIn's
	// reduction fallbacks follow them.
	WBOut, INVIn [][]Annotation
	// Inspectors are the loop's irregular reads.
	Inspectors []InspectorPlan
	// ReductionElems, for reduction loops, is the set of target element
	// ranges a thread may touch (used by the lowering's locked merge).
	ReductionElems []mem.Range
}

// Plan is the full compilation result: one LoopPlan per loop.
type Plan struct {
	Prog    *Program
	Threads int
	Loops   map[*Loop]*LoopPlan
	flat    []flatLoop
	// wb indexes the writeback annotations by (loop, thread, range) while
	// Analyze builds them; nil afterwards.
	wb map[wbKey]wbEntry
}

// chunkOwner returns the owner of iteration i of loop l.
func chunkOwner(l *Loop, i, threads int) int {
	if !l.Parallel {
		return 0
	}
	return workload.OwnerOf(l.Hi-l.Lo, i-l.Lo, threads)
}

// iterRange returns thread t's iterations of loop l.
func iterRange(l *Loop, t, threads int) (lo, hi int) {
	if !l.Parallel {
		if t == 0 {
			return l.Lo, l.Hi
		}
		return l.Lo, l.Lo
	}
	clo, chi := workload.ChunkOf(l.Hi-l.Lo, t, threads)
	return l.Lo + clo, l.Lo + chi
}

// footprint is one loop's write footprint: for each array it writes, the
// writer thread of every element (-1 where the loop does not write it).
// Reduction targets are excluded (they are handled by the reduction
// fallback, not producer-consumer pairing).
type footprint map[string][]int32

// writeFoot returns loop l's write footprint. An element written by several
// iterations records the last writer in chunk order.
func writeFoot(prog *Program, l *Loop, threads int) footprint {
	foot := make(footprint)
	if l.Hi <= l.Lo {
		return foot
	}
	dst := make([][]int32, len(l.Writes))
	for k, w := range l.Writes {
		if _, ok := foot[w.Array]; !ok {
			ws := make([]int32, prog.Arrays[w.Array].Len)
			for e := range ws {
				ws[e] = -1
			}
			foot[w.Array] = ws
		}
		dst[k] = foot[w.Array]
	}
	for t := 0; t < threads; t++ {
		lo, hi := iterRange(l, t, threads)
		for i := lo; i < hi; i++ {
			for k, w := range l.Writes {
				dst[k][w.At(i)] = int32(t)
			}
		}
	}
	return foot
}

// Analyze compiles prog for the given thread count: it builds the control
// flow, extracts producer-consumer epoch pairs via DEF-USE over the
// numeric access footprints, plans inspectors for irregular reads, and
// records reduction fallbacks. Its cost is linear in the thread count plus
// the access footprints.
func Analyze(prog *Program, threads int) *Plan {
	var flat []flatLoop
	nextRegion := 0
	flatten(prog.Stmts, -1, &nextRegion, &flat)

	plan := &Plan{Prog: prog, Threads: threads, Loops: make(map[*Loop]*LoopPlan), flat: flat, wb: make(map[wbKey]wbEntry)}
	for _, fl := range flat {
		lp := &LoopPlan{
			WBOut: make([][]Annotation, threads),
			INVIn: make([][]Annotation, threads),
		}
		plan.Loops[fl.loop] = lp
		if r := fl.loop.Reduction; r != nil {
			var elems []int
			for i := fl.loop.Lo; i < fl.loop.Hi; i++ {
				elems = append(elems, r.At(i))
			}
			lp.ReductionElems = elemsToRanges(prog.Arrays[r.Array], sortedSet(elems))
		}
	}

	// Precompute write footprints.
	foots := make([]footprint, len(flat))
	for i, fl := range flat {
		foots[i] = writeFoot(prog, fl.loop, threads)
	}

	for ci, cf := range flat {
		cons := cf.loop
		for ri, rd := range cons.Reads {
			rp := plan.reachableProducers(ci, rd.Array, foots)
			if len(rp.sameIter)+len(rp.backEdge)+len(rp.outside) == 0 {
				continue
			}
			if rd.Indirect {
				// Inspector-executor: the compiler cannot see the
				// footprint; derive the element-owner function from the
				// producers' static schedules. When the steady-state
				// (back-edge) writer and the first-iteration writer of an
				// element belong to different threads, the owner is
				// reported as OwnerUnknown and the lowering invalidates
				// globally.
				lp := plan.Loops[cons]
				lp.Inspectors = append(lp.Inspectors, InspectorPlan{ReadIdx: ri, OwnerOf: rp.ownerOf})
				// Producer side: every reaching producer writes its whole
				// footprint to L3 (Section V-A.2: exact consumer analysis
				// of indirect reads is skipped).
				for _, group := range [][]producer{rp.sameIter, rp.backEdge, rp.outside} {
					for _, p := range group {
						plan.addProducerGlobalWB(flat[p.pi].loop, rd.Array, p.writers)
					}
				}
				continue
			}
			plan.pairDirect(cons, rd, rp)
		}
		// Reduction consumers: any loop reading an array that a reachable
		// reduction targets gets a conservative global INV of the read
		// footprint (no producer-consumer order exists).
		for _, rd := range cons.Reads {
			if rd.Indirect {
				continue
			}
			arr := prog.Arrays[rd.Array]
			for _, pf := range flat {
				if pf.loop.Reduction == nil || pf.loop == cons {
					continue
				}
				if pf.loop.Reduction.Array != rd.Array || !plan.reaches(pf.index, ci) {
					continue
				}
				reduced := make([]bool, arr.Len)
				for i := pf.loop.Lo; i < pf.loop.Hi; i++ {
					reduced[pf.loop.Reduction.At(i)] = true
				}
				var elems []int
				for u := 0; u < threads; u++ {
					lo, hi := iterRange(cons, u, threads)
					elems = elems[:0]
					for i := lo; i < hi; i++ {
						if e := rd.At(i); reduced[e] {
							elems = append(elems, e)
						}
					}
					if len(elems) == 0 {
						continue
					}
					plan.Loops[cons].INVIn[u] = append(plan.Loops[cons].INVIn[u], Annotation{
						Ranges: elemsToRanges(arr, sortedSet(elems)),
						Multi:  true,
					})
				}
			}
		}
	}

	// Writeback lists are ordered once, now that pairing is done: the
	// collapsed per-consumer annotations go, and the rest sort stably.
	for _, lp := range plan.Loops {
		for t, anns := range lp.WBOut {
			anns = slices.DeleteFunc(anns, func(a Annotation) bool { return a.Ranges == nil })
			slices.SortStableFunc(anns, annotationOrder)
			lp.WBOut[t] = anns
		}
	}
	plan.wb = nil
	return plan
}

// reaches reports whether loop at flat index p can feed loop at flat index
// c: program order, or both inside the same time-loop region (back edge).
func (pl *Plan) reaches(p, c int) bool {
	if p < c {
		return true
	}
	return pl.flat[p].region >= 0 && pl.flat[p].region == pl.flat[c].region
}

// producer is one loop writing the array a read consumes: its flat index
// and its writer thread per element of that array.
type producer struct {
	pi      int
	writers []int32
}

// reaching holds the producers of one array reaching one consumer, grouped
// by dependence distance, each group nearest-first:
//
//   - sameIter: producers earlier in the same time-loop iteration (or in
//     straight-line code before the consumer inside the same region) —
//     these kill everything older;
//   - backEdge: producers later in the region, feeding the consumer via
//     the time loop's back edge (steady-state source from iteration 2 on);
//   - outside: producers before the consumer's region (the source on the
//     first iteration when no sameIter producer writes the element).
type reaching struct {
	sameIter, backEdge, outside []producer
}

// reachableProducers classifies the producers of array reaching consumer ci.
func (pl *Plan) reachableProducers(ci int, array string, foots []footprint) *reaching {
	rp := &reaching{}
	creg := pl.flat[ci].region
	for pi, pf := range pl.flat {
		writers, writes := foots[pi][array]
		if pi == ci || !writes {
			continue
		}
		p := producer{pi, writers}
		switch {
		case pf.region == creg && pi < ci:
			rp.sameIter = append(rp.sameIter, p)
		case creg >= 0 && pf.region == creg:
			rp.backEdge = append(rp.backEdge, p)
		case pi < ci:
			rp.outside = append(rp.outside, p)
		}
	}
	slices.Reverse(rp.sameIter)
	slices.Reverse(rp.backEdge)
	slices.Reverse(rp.outside)
	return rp
}

// producerSrc identifies one producer occurrence.
type producerSrc struct{ pi, t int }

// candidates appends to buf the producer occurrences that can be the last
// writer of element e at some dynamic consumption: if a same-iteration
// producer writes e it is the unique candidate; otherwise the nearest
// back-edge writer (iterations ≥ 2) and the nearest preceding outside
// writer (iteration 1) are both candidates.
func (rp *reaching) candidates(buf []producerSrc, e int) []producerSrc {
	if out := nearestWriter(buf, rp.sameIter, e); len(out) > len(buf) {
		return out
	}
	return nearestWriter(nearestWriter(buf, rp.backEdge, e), rp.outside, e)
}

// nearestWriter appends the first producer in group that writes e.
func nearestWriter(out []producerSrc, group []producer, e int) []producerSrc {
	for _, p := range group {
		if t := p.writers[e]; t >= 0 {
			return append(out, producerSrc{p.pi, int(t)})
		}
	}
	return out
}

// OwnerUnknown is returned by an inspector's OwnerOf when an element's
// possible last writers belong to different threads; the lowering then
// invalidates globally.
const OwnerUnknown = -2

// ownerOf is the inspector's element-owner function.
func (rp *reaching) ownerOf(e int) int {
	var buf [2]producerSrc
	cands := rp.candidates(buf[:0], e)
	if len(cands) == 0 || !allSameThread(cands) {
		return OwnerUnknown
	}
	return cands[0].t
}

// srcElem is one element attributed to a producer occurrence.
type srcElem struct {
	src producerSrc
	e   int
}

func srcElemOrder(a, b srcElem) int {
	return cmp.Or(cmp.Compare(a.src.pi, b.src.pi), cmp.Compare(a.src.t, b.src.t), cmp.Compare(a.e, b.e))
}

// multiSrc groups the elements whose candidate writers span threads; its
// thread, 0, is the Peer every Multi annotation carries.
var multiSrc = producerSrc{pi: -1}

// pairDirect extracts producer-consumer pairs for a direct (affine) read:
// for each consumer thread, each element is attributed to its candidate
// last writers (DEF-USE with kills across the back edge), then grouped
// into per-(producer-thread, consumer-thread) ranges yielding WB_CONS at
// the producer and INV_PROD at the consumer. Elements whose candidate
// writers span several threads lower to conservative global instructions.
func (pl *Plan) pairDirect(cons *Loop, rd Read, rp *reaching) {
	arr := pl.Prog.Arrays[rd.Array]
	lp := pl.Loops[cons]
	var buf [2]producerSrc
	var inv, wb []srcElem
	for u := 0; u < pl.Threads; u++ {
		inv, wb = inv[:0], wb[:0]
		lo, hi := iterRange(cons, u, pl.Threads)
		for i := lo; i < hi; i++ {
			e := rd.At(i)
			cands := rp.candidates(buf[:0], e)
			switch {
			case len(cands) == 0:
				continue // never-written (initial) data: nothing to communicate
			case !allSameThread(cands):
				inv = append(inv, srcElem{multiSrc, e})
			case cands[0].t == u:
				continue // produced by this thread: no communication
			default:
				inv = append(inv, srcElem{cands[0], e})
			}
			// WB side: every candidate occurrence must write back the
			// elements this consumer reads from it (the outside producer
			// feeds the first iteration, the back-edge one the rest).
			for _, c := range cands {
				wb = append(wb, srcElem{c, e})
			}
		}
		if len(inv) == 0 {
			continue
		}
		for _, g := range groupBySrc(inv) {
			lp.INVIn[u] = append(lp.INVIn[u], Annotation{
				Ranges: elemsToRanges(arr, g.elems), Peer: g.src.t, Multi: g.src == multiSrc,
			})
		}
		slices.SortStableFunc(lp.INVIn[u], annotationOrder)
		for _, g := range groupBySrc(wb) {
			pl.addWB(pl.Loops[pl.flat[g.src.pi].loop], g.src.t, u, elemsToRanges(arr, g.elems))
		}
	}
}

// srcGroup is the sorted element set attributed to one producer occurrence.
type srcGroup struct {
	src   producerSrc
	elems []int
}

// groupBySrc sorts the attributions (in place) and returns one group per
// producer occurrence, in (flat index, thread) order.
func groupBySrc(attr []srcElem) []srcGroup {
	slices.SortFunc(attr, srcElemOrder)
	attr = slices.Compact(attr)
	var groups []srcGroup
	for len(attr) > 0 {
		n := 1
		for n < len(attr) && attr[n].src == attr[0].src {
			n++
		}
		elems := make([]int, n)
		for k := range elems {
			elems[k] = attr[k].e
		}
		groups = append(groups, srcGroup{attr[0].src, elems})
		attr = attr[n:]
	}
	return groups
}

func allSameThread(cands []producerSrc) bool {
	for _, c := range cands[1:] {
		if c.t != cands[0].t {
			return false
		}
	}
	return true
}

// wbKey names one range of one producer thread's writeback list.
type wbKey struct {
	lp *LoopPlan
	t  int
	r  mem.Range
}

// wbEntry is what the analysis has recorded for one wbKey: a global
// writeback covering the range, or up to two per-consumer annotations
// (their consumers and positions in the list).
type wbEntry struct {
	global bool
	n      int
	peer   [2]int
	at     [2]int
}

// addWB records that producer thread t must write back ranges for
// consumer thread u at the end of the loop lp plans. A range read by up to
// two distinct consumers gets one WB_CONS per consumer (the two-neighbor
// case of boundary exchange; the second WB finds the L1 line already clean
// and only moves data deeper if its consumer's level requires it). A range
// with more than two consumers is a broadcast and collapses into a single
// conservative global annotation, matching the paper's serial-section
// handling ("the producer writes back the data to the last level cache").
func (pl *Plan) addWB(lp *LoopPlan, t, u int, ranges []mem.Range) {
	for _, r := range ranges {
		k := wbKey{lp, t, r}
		ent := pl.wb[k]
		switch {
		case ent.global || slices.Contains(ent.peer[:ent.n], u):
			// Already covered (globally, or for this consumer).
			continue
		case ent.n == len(ent.peer):
			// Third distinct consumer: collapse to one global annotation.
			// The per-consumer ones are emptied here and dropped when
			// Analyze orders the lists.
			for _, at := range ent.at {
				lp.WBOut[t][at].Ranges = nil
			}
			ent.global = true
			lp.WBOut[t] = append(lp.WBOut[t], Annotation{Ranges: []mem.Range{r}, Multi: true})
		default:
			ent.peer[ent.n], ent.at[ent.n] = u, len(lp.WBOut[t])
			ent.n++
			lp.WBOut[t] = append(lp.WBOut[t], Annotation{Ranges: []mem.Range{r}, Peer: u})
		}
		pl.wb[k] = ent
	}
}

// addProducerGlobalWB records a whole-footprint global writeback for
// producer threads feeding an irregular consumer.
func (pl *Plan) addProducerGlobalWB(prod *Loop, array string, writers []int32) {
	perThread := make([][]int, pl.Threads)
	for e, t := range writers {
		if t >= 0 {
			perThread[t] = append(perThread[t], e)
		}
	}
	lp := pl.Loops[prod]
	arr := pl.Prog.Arrays[array]
	for t, elems := range perThread {
		if len(elems) == 0 {
			continue
		}
		ann := Annotation{Ranges: elemsToRanges(arr, elems), Multi: true}
		// Avoid duplicating an identical fallback annotation.
		if !slices.ContainsFunc(lp.WBOut[t], func(have Annotation) bool {
			return have.Multi && slices.Equal(have.Ranges, ann.Ranges)
		}) {
			lp.WBOut[t] = append(lp.WBOut[t], ann)
		}
		for _, r := range ann.Ranges {
			k := wbKey{lp, t, r}
			ent := pl.wb[k]
			ent.global = true
			pl.wb[k] = ent
		}
	}
}

// sortedSet sorts elems in place and drops duplicates.
func sortedSet(elems []int) []int {
	slices.Sort(elems)
	return slices.Compact(elems)
}

// elemsToRanges coalesces a sorted, duplicate-free element list into
// maximal consecutive byte ranges of the array.
func elemsToRanges(arr workload.Array, elems []int) []mem.Range {
	if len(elems) == 0 {
		return nil
	}
	var out []mem.Range
	start, prev := elems[0], elems[0]
	for _, e := range elems[1:] {
		if e == prev+1 {
			prev = e
			continue
		}
		out = append(out, arr.Slice(start, prev-start+1))
		start, prev = e, e
	}
	out = append(out, arr.Slice(start, prev-start+1))
	return out
}

// annotationOrder orders annotation lists by first range base, then peer.
func annotationOrder(a, b Annotation) int {
	return cmp.Or(cmp.Compare(a.Ranges[0].Base, b.Ranges[0].Base), cmp.Compare(a.Peer, b.Peer))
}
