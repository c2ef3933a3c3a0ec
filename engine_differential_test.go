package hic

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/mem"
)

// Kernel-scale engine differential. The default engine (tournament-tree
// run queue, guests executing their own ops while they are the minimum)
// and the synchronous rendezvous under MinTimeScheduler — the serial
// reference, one coroutine round trip per op — must execute the same op
// sequence on every paper kernel: an identical Result and an identical
// observer event stream (kind, thread, op, value, time), compared by
// hash. The fuzz differential covers at most four threads; this covers
// the 16- and 32-thread kernels of Figures 9-12 at test scale.

// streamHash folds every observer event into one FNV-style hash.
type streamHash struct {
	h uint64
	n int64
}

func (s *streamHash) OnEvent(ev engine.Event) {
	op := ev.Op
	flags := uint64(0)
	if op.UseMEB {
		flags |= 1
	}
	if op.Lazy {
		flags |= 2
	}
	for _, v := range [...]uint64{
		uint64(ev.Kind), uint64(ev.Thread), uint64(ev.Value), uint64(ev.Time),
		uint64(op.Kind), uint64(op.Addr), uint64(op.Range.Base), uint64(op.Range.Bytes),
		uint64(op.Value), uint64(op.Level), uint64(op.Peer), uint64(op.ID), flags, uint64(op.Cycles),
	} {
		s.h = mem.Mix64(s.h, v)
	}
	s.n++
}

// runBoth runs the guests built by mk on a fresh hierarchy from newH
// under each engine and fails on any difference.
func runBoth(t *testing.T, newH func() Hierarchy, mk func() []engine.Guest) {
	t.Helper()
	type run struct {
		res *engine.Result
		ev  streamHash
	}
	var runs [2]run
	for i := range runs {
		e := engine.New(newH(), mk())
		e.SetObserver(&runs[i].ev)
		if i == 1 {
			e.SetScheduler(engine.MinTimeScheduler{})
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		runs[i].res = res
	}
	def, ref := runs[0], runs[1]
	if def.ev != ref.ev {
		t.Errorf("event streams differ: default %d events (hash %#x), synchronous %d (hash %#x)",
			def.ev.n, def.ev.h, ref.ev.n, ref.ev.h)
	}
	if !reflect.DeepEqual(def.res, ref.res) {
		t.Errorf("results differ:\ndefault     %+v\nsynchronous %+v", def.res, ref.res)
	}
}

func TestDefaultEngineMatchesSynchronousOnKernels(t *testing.T) {
	for i, w := range IntraWorkloads(ScaleTest) {
		for _, cfg := range IntraConfigs {
			i, cfg := i, cfg
			t.Run("intra/"+w.Name+"/"+cfg.Name, func(t *testing.T) {
				t.Parallel()
				runBoth(t,
					func() Hierarchy { return NewHierarchy(NewIntraMachine(), cfg) },
					func() []engine.Guest { return IntraWorkloads(ScaleTest)[i].Guests(cfg) })
			})
		}
	}
	for i, w := range InterWorkloads(ScaleTest) {
		for _, mode := range InterModes {
			i, mode := i, mode
			t.Run("inter/"+w.Name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				runBoth(t,
					func() Hierarchy { return NewModeHierarchy(NewInterMachine(), mode) },
					func() []engine.Guest {
						wl := InterWorkloads(ScaleTest)[i]
						return LowerIR(wl.Prog, wl.Threads, mode)
					})
			})
		}
	}
}
