package hic

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md's per-experiment index):
//
//	BenchmarkTable1Patterns      — Table I census (E1)
//	BenchmarkStorageOverhead     — Section VII-A storage comparison (E2)
//	BenchmarkFigure9/...         — intra-block normalized execution time (E3)
//	BenchmarkFigure10/...        — intra-block normalized traffic (E4)
//	BenchmarkFigure11/...        — inter-block global WB/INV counts (E5)
//	BenchmarkFigure12/...        — inter-block normalized execution time (E6)
//
// plus the ablation and extension benches DESIGN.md §5 calls out. Paper-
// comparable quantities are emitted as benchmark metrics: simulated cycles
// (sim_cycles), execution time normalized to HCC (norm_vs_hcc), traffic
// normalized to HCC (traffic_vs_hcc), and remaining global-operation
// fractions (frac_vs_addr).

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/annotate"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/nas"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/topo"
)

// benchScale keeps `go test -bench` runs tractable while remaining far
// larger than the unit-test scale.
const benchScale = ScaleBench

var (
	hccCacheMu sync.Mutex
	hccCycles  = map[string]int64{} // app -> HCC cycles at bench scale
)

func hccBaseline(b *testing.B, name string, run func() (*Result, error)) int64 {
	hccCacheMu.Lock()
	defer hccCacheMu.Unlock()
	if c, ok := hccCycles[name]; ok {
		return c
	}
	r, err := run()
	if err != nil {
		b.Fatal(err)
	}
	hccCycles[name] = r.Cycles
	return r.Cycles
}

func BenchmarkTable1Patterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PatternTable(ScaleTest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorageOverhead(b *testing.B) {
	var kb float64
	for i := 0; i < b.N; i++ {
		kb = StorageReport().Savings().KB()
	}
	b.ReportMetric(kb, "saved_KB")
}

// BenchmarkFigure9 runs every (application, configuration) pair of the
// intra-block evaluation, reporting simulated cycles and the ratio to HCC.
func BenchmarkFigure9(b *testing.B) {
	for _, w := range IntraWorkloads(benchScale) {
		w := w
		base := hccBaseline(b, w.Name, func() (*Result, error) {
			return w.Run(NewHierarchy(NewIntraMachine(), HCC), HCC)
		})
		for _, cfg := range IntraConfigs {
			cfg := cfg
			b.Run(w.Name+"/"+cfg.Name, func(b *testing.B) {
				var r *Result
				for i := 0; i < b.N; i++ {
					var err error
					r, err = w.Run(NewHierarchy(NewIntraMachine(), cfg), cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Cycles), "sim_cycles")
				b.ReportMetric(float64(r.Cycles)/float64(base), "norm_vs_hcc")
			})
		}
	}
}

// BenchmarkFigure10 compares HCC and B+M+I network traffic per application.
func BenchmarkFigure10(b *testing.B) {
	for _, w := range IntraWorkloads(benchScale) {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				rh, err := w.Run(NewHierarchy(NewIntraMachine(), HCC), HCC)
				if err != nil {
					b.Fatal(err)
				}
				rb, err := w.Run(NewHierarchy(NewIntraMachine(), BMI), BMI)
				if err != nil {
					b.Fatal(err)
				}
				lf0, wb0, inv0, mem0 := rh.Traffic.Figure10()
				lf1, wb1, inv1, mem1 := rb.Traffic.Figure10()
				ratio = float64(lf1+wb1+inv1+mem1) / float64(lf0+wb0+inv0+mem0)
			}
			b.ReportMetric(ratio, "traffic_vs_hcc")
		})
	}
}

// BenchmarkFigure11 reports the remaining global WB/INV fractions of
// Addr+L relative to Addr per inter-block application.
func BenchmarkFigure11(b *testing.B) {
	for _, w := range InterWorkloads(benchScale) {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var fwb, finv float64
			for i := 0; i < b.N; i++ {
				ha := NewModeHierarchy(NewInterMachine(), ModeAddr).(*core.Hierarchy)
				if _, err := w.Run(ha, ModeAddr); err != nil {
					b.Fatal(err)
				}
				wbA, invA := ha.GlobalOps()
				hl := NewModeHierarchy(NewInterMachine(), ModeAddrL).(*core.Hierarchy)
				if _, err := w.Run(hl, ModeAddrL); err != nil {
					b.Fatal(err)
				}
				wbL, invL := hl.GlobalOps()
				fwb = ratio(float64(wbL), float64(wbA))
				finv = ratio(float64(invL), float64(invA))
			}
			b.ReportMetric(fwb, "wb_frac_vs_addr")
			b.ReportMetric(finv, "inv_frac_vs_addr")
		})
	}
}

// BenchmarkFigure12 runs every (application, mode) pair of the inter-block
// evaluation.
func BenchmarkFigure12(b *testing.B) {
	for _, w := range InterWorkloads(benchScale) {
		w := w
		base := hccBaseline(b, "inter/"+w.Name, func() (*Result, error) {
			return w.Run(NewModeHierarchy(NewInterMachine(), ModeHCC), ModeHCC)
		})
		for _, mode := range InterModes {
			mode := mode
			b.Run(w.Name+"/"+mode.String(), func(b *testing.B) {
				var r *Result
				for i := 0; i < b.N; i++ {
					var err error
					r, err = w.Run(NewModeHierarchy(NewInterMachine(), mode), mode)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Cycles), "sim_cycles")
				b.ReportMetric(float64(r.Cycles)/float64(base), "norm_vs_hcc")
			})
		}
	}
}

// BenchmarkRunIntraBlock measures the end-to-end Figure 9/10 sweep —
// the repo's hottest path — serially and fanned out across GOMAXPROCS
// workers. The two variants produce identical results (keyed assembly);
// on an N-core runner the parallel variant should approach N× the
// serial throughput.
func BenchmarkRunIntraBlock(b *testing.B) {
	variants := []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := runIntraOpts(context.Background(), benchScale, RunOptions{Parallel: v.parallel})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Figure9.Groups) != 11 {
					b.Fatalf("incomplete sweep: %d groups", len(res.Figure9.Groups))
				}
			}
			b.ReportMetric(float64(v.parallel), "workers")
		})
	}
}

// csWorkload is a synthetic critical-section microbenchmark for the
// entry-buffer sweeps: each thread repeatedly enters a critical section,
// reads rdLines shared lines and writes wrLines lines of its own slice,
// so the per-epoch read and write sets are controlled exactly.
func csWorkload(threads, iters, rdLines, wrLines int) []engine.Guest {
	shared := mem.Addr(0x10000)
	priv := func(t int) mem.Addr { return mem.Addr(0x100000 + t*0x4000) }
	app := func(p *annotate.P) {
		me := p.ID()
		for k := 0; k < iters; k++ {
			p.CSEnter(1)
			for l := 0; l < rdLines; l++ {
				p.Load(shared + mem.Addr(l*mem.LineBytes))
			}
			for l := 0; l < wrLines; l++ {
				p.Store(priv(me)+mem.Addr(l*mem.LineBytes), mem.Word(k))
			}
			p.Store(shared, mem.Word(k)) // one genuinely shared write
			p.CSExit(1)
			p.Compute(200)
		}
		p.Barrier(0)
	}
	return annotate.Guests(threads, annotate.BMI, annotate.Pattern{}, app)
}

// BenchmarkAblationMEBSize sweeps the MEB capacity against a critical
// section that writes 12 lines per epoch: buffers smaller than the
// epoch's write set overflow and fall back to full tag traversals, buffers
// at or above it serve every WB ALL (the paper picked 16 entries).
func BenchmarkAblationMEBSize(b *testing.B) {
	for _, size := range []int{2, 4, 8, 16, 32, 64} {
		size := size
		b.Run(benchName("entries", size), func(b *testing.B) {
			var r *Result
			var fallbacks, served int64
			for i := 0; i < b.N; i++ {
				m := NewIntraMachine()
				l1, l2, l3 := scaledCacheConfig(m)
				h := core.New(m, core.Config{L1: l1, L2: l2, L3: l3, MEBEntries: size, IEBEntries: 4})
				var err error
				r, err = Run(h, csWorkload(16, 8, 2, 12))
				if err != nil {
					b.Fatal(err)
				}
				fallbacks = h.Counters().Get("meb.fallback")
				served = h.Counters().Get("meb.served")
			}
			b.ReportMetric(float64(r.Cycles), "sim_cycles")
			b.ReportMetric(float64(fallbacks), "meb_fallbacks")
			b.ReportMetric(float64(served), "meb_served")
		})
	}
}

// BenchmarkAblationIEBSize sweeps the IEB capacity against a critical
// section that reads 6 shared lines per epoch: buffers smaller than the
// read set evict entries and pay an unnecessary invalidation plus miss on
// every re-read (the paper picked 4 entries for its small sections).
func BenchmarkAblationIEBSize(b *testing.B) {
	for _, size := range []int{1, 2, 4, 8, 16} {
		size := size
		b.Run(benchName("entries", size), func(b *testing.B) {
			var r *Result
			var evictions int64
			for i := 0; i < b.N; i++ {
				m := NewIntraMachine()
				l1, l2, l3 := scaledCacheConfig(m)
				h := core.New(m, core.Config{L1: l1, L2: l2, L3: l3, MEBEntries: 16, IEBEntries: size})
				guests := make([]engine.Guest, 16)
				app := func(p *annotate.P) {
					for k := 0; k < 8; k++ {
						p.CSEnter(1)
						// Read the 6-line shared region twice: the second
						// pass is where a too-small IEB re-invalidates.
						for pass := 0; pass < 2; pass++ {
							for l := 0; l < 6; l++ {
								p.Load(mem.Addr(0x10000 + l*mem.LineBytes))
							}
						}
						p.Store(0x10000, mem.Word(k))
						p.CSExit(1)
						p.Compute(200)
					}
					p.Barrier(0)
				}
				guests = annotate.Guests(16, annotate.BMI, annotate.Pattern{}, app)
				var err error
				r, err = Run(h, guests)
				if err != nil {
					b.Fatal(err)
				}
				evictions = h.Counters().Get("ieb.evictions")
			}
			b.ReportMetric(float64(r.Cycles), "sim_cycles")
			b.ReportMetric(float64(evictions), "ieb_evictions")
		})
	}
}

// BenchmarkAblationDirtyGranularity measures how much writeback volume the
// per-word dirty bits save versus hypothetical per-line dirty bits (one of
// the three traffic advantages of Section VII-B): the metric is the ratio
// of words actually written back to words a full-line writeback would
// move.
func BenchmarkAblationDirtyGranularity(b *testing.B) {
	pick := map[string]bool{"fft": true, "cholesky": true, "water-nsq": true, "barnes": true}
	for _, w := range IntraWorkloads(benchScale) {
		if !pick[w.Name] {
			continue
		}
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				h := NewHierarchy(NewIntraMachine(), BMI).(*core.Hierarchy)
				if _, err := w.Run(h, BMI); err != nil {
					b.Fatal(err)
				}
				words := h.Counters().Get("wb.words")
				lines := h.Counters().Get("wb.dirtylines")
				if lines > 0 {
					frac = float64(words) / float64(lines*mem.WordsPerLine)
				}
			}
			b.ReportMetric(frac, "words_per_line_frac")
		})
	}
}

// BenchmarkExtensionHierarchicalReduction compares flat EP with the
// hierarchical-reduction rewrite under Addr+L (the paper's Section VII-C
// suggestion).
func BenchmarkExtensionHierarchicalReduction(b *testing.B) {
	variants := []struct {
		name string
		mk   func() *IRWorkload
	}{
		{"flat", func() *IRWorkload { return nas.EP(nas.Bench, 32) }},
		{"hierarchical", func() *IRWorkload { return nas.EPHier(nas.Bench, 32, 4) }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var r *Result
			var wb, inv int64
			for i := 0; i < b.N; i++ {
				h := NewModeHierarchy(NewInterMachine(), ModeAddrL).(*core.Hierarchy)
				var err error
				r, err = v.mk().Run(h, ModeAddrL)
				if err != nil {
					b.Fatal(err)
				}
				wb, inv = h.GlobalOps()
			}
			b.ReportMetric(float64(r.Cycles), "sim_cycles")
			b.ReportMetric(float64(wb), "global_wbs")
			b.ReportMetric(float64(inv), "global_invs")
		})
	}
}

// BenchmarkEngineThroughput measures raw simulator speed: simulated
// operations per second for a memory-heavy guest.
func BenchmarkEngineThroughput(b *testing.B) {
	m := topo.NewIntraBlock()
	h := core.New(m, core.DefaultConfig(m))
	const opsPerGuest = 10000
	guests := make([]engine.Guest, 16)
	for i := range guests {
		i := i
		guests[i] = func(p engine.Proc) {
			base := mem.Addr(0x100000 + i*0x10000)
			for k := 0; k < opsPerGuest; k++ {
				p.Store(base+mem.Addr(k%512*64), mem.Word(k))
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.New(h, guests).Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(16*opsPerGuest*b.N)/b.Elapsed().Seconds(), "sim_ops/s")
}

func benchName(prefix string, n int) string {
	return prefix + "-" + strconv.Itoa(n)
}

// BenchmarkExtensionWriteThrough compares the paper's write-back design
// (with MEB/IEB) against a VIPS-style write-through/self-downgrade variant
// (Section VIII's most closely related simplified-coherence scheme): under
// write-through no WB instructions are needed at all, but every store pays
// word-granular network traffic.
func BenchmarkExtensionWriteThrough(b *testing.B) {
	apps := IntraWorkloads(benchScale)
	pick := map[string]bool{"cholesky": true, "raytrace": true, "ocean-cont": true}
	for _, w := range apps {
		if !pick[w.Name] {
			continue
		}
		w := w
		for _, cfg := range []Config{BMI, annotate.WT} {
			cfg := cfg
			b.Run(w.Name+"/"+cfg.Name, func(b *testing.B) {
				var r *Result
				for i := 0; i < b.N; i++ {
					var err error
					r, err = w.Run(NewHierarchy(NewIntraMachine(), cfg), cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Cycles), "sim_cycles")
				b.ReportMetric(float64(r.Traffic.Total()), "flits")
			})
		}
	}
}

// BenchmarkExtensionBloom compares the paper's MEB/IEB design against
// Ashby-style Bloom-signature selective self-invalidation (Section VIII):
// signatures make invalidation selective, but they ride every release,
// the acquirer still pays a full tag-match pass, and channel signatures
// saturate over time — the lock-intensive overhead the paper cites as the
// reason to prefer the MEB/IEB structures.
func BenchmarkExtensionBloom(b *testing.B) {
	pick := map[string]bool{"cholesky": true, "raytrace": true, "water-nsq": true}
	for _, w := range IntraWorkloads(benchScale) {
		if !pick[w.Name] {
			continue
		}
		w := w
		for _, cfg := range []Config{Base, BMI, annotate.BloomSig} {
			cfg := cfg
			b.Run(w.Name+"/"+cfg.Name, func(b *testing.B) {
				var r *Result
				var sat float64
				for i := 0; i < b.N; i++ {
					h := NewHierarchy(NewIntraMachine(), cfg)
					var err error
					r, err = w.Run(h, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if cfg.UseBloom {
						sat = h.(*core.Hierarchy).BloomMaxSaturation()
					}
				}
				b.ReportMetric(float64(r.Cycles), "sim_cycles")
				if cfg.UseBloom {
					b.ReportMetric(sat, "channel_saturation")
				}
			})
		}
	}
}

// BenchmarkExtensionDMA compares the paper's level-adaptive shared-memory
// communication against Runnemede's DMA-based inter-block communication
// (Section VIII) on a halo-exchange microbenchmark: each of 32 threads
// produces a 4-line chunk per iteration that its successor (one hop right,
// crossing a block every eighth thread) consumes.
func BenchmarkExtensionDMA(b *testing.B) {
	const (
		threads = 32
		lines   = 4
		iters   = 8
		chunkB  = lines * mem.LineBytes
	)
	base := mem.Addr(0x100000)
	haloBase := mem.Addr(0x400000) // DMA deposit area, per consumer
	chunk := func(t int) mem.Range { return mem.RangeOf(base+mem.Addr(t*chunkB), chunkB) }
	halo := func(t int) mem.Range { return mem.RangeOf(haloBase+mem.Addr(t*chunkB), chunkB) }

	variants := []struct {
		name   string
		guests func(m *Machine) []engine.Guest
	}{
		{"adaptive", func(m *Machine) []engine.Guest {
			gs := make([]engine.Guest, threads)
			for i := range gs {
				i := i
				succ, pred := (i+1)%threads, (i+threads-1)%threads
				gs[i] = func(p engine.Proc) {
					for it := 0; it < iters; it++ {
						for w := 0; w < lines*mem.WordsPerLine; w++ {
							p.Store(chunk(i).Base+mem.Addr(w*4), mem.Word(it*1000+w))
						}
						p.WBCons(chunk(i), succ)
						p.Barrier(0)
						p.InvProd(chunk(pred), pred)
						for w := 0; w < lines*mem.WordsPerLine; w++ {
							p.Load(chunk(pred).Base + mem.Addr(w*4))
						}
						p.Barrier(0)
					}
				}
			}
			return gs
		}},
		{"dma", func(m *Machine) []engine.Guest {
			gs := make([]engine.Guest, threads)
			for i := range gs {
				i := i
				succ := (i + 1) % threads
				succBlock := m.BlockOf(succ)
				gs[i] = func(p engine.Proc) {
					for it := 0; it < iters; it++ {
						for w := 0; w < lines*mem.WordsPerLine; w++ {
							p.Store(chunk(i).Base+mem.Addr(w*4), mem.Word(it*1000+w))
						}
						// Push the chunk globally and DMA it into the
						// consumer's halo area in its block's L2.
						p.WBGlobal(chunk(i))
						p.DMACopy(halo(succ).Base, chunk(i), succBlock)
						p.Barrier(0)
						p.INV(halo(i)) // L1-only: the DMA refreshed the L2
						for w := 0; w < lines*mem.WordsPerLine; w++ {
							p.Load(halo(i).Base + mem.Addr(w*4))
						}
						p.Barrier(0)
					}
				}
			}
			return gs
		}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var r *Result
			for i := 0; i < b.N; i++ {
				m := NewInterMachine()
				h := NewModeHierarchy(m, ModeAddrL)
				var err error
				r, err = Run(h, v.guests(m))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "sim_cycles")
			b.ReportMetric(float64(r.Traffic.Total()), "flits")
		})
	}
}

// BenchmarkExtensionBlockScaling measures how the level-adaptive benefit
// depends on cluster count: with more, smaller clusters a smaller fraction
// of Jacobi's neighbor exchanges stays intra-block, so more of Addr's
// global operations survive under Addr+L. The full sweep runs powers of
// two up to 128 blocks (1024 cores) on the block-parallel engine; -short
// keeps the original small machines.
func BenchmarkExtensionBlockScaling(b *testing.B) {
	blockCounts := []int{2, 4, 8, 16, 32, 64, 128}
	if testing.Short() {
		blockCounts = []int{2, 4, 8}
	}
	for _, blocks := range blockCounts {
		blocks := blocks
		b.Run(benchName("blocks", blocks), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				run := func(mode Mode) (int64, int64) {
					m := topo.NewCustom(blocks, 8, 4, topo.DefaultParams())
					m.Params.TraversalPerFrame = 4
					l1, l2, l3 := scaledCacheConfig(m)
					h := core.New(m, core.Config{L1: l1, L2: l2, L3: l3})
					h.SetBlockParallel(true)
					w := jacobi.New(jacobi.Bench, m.NumCores())
					if _, err := w.Run(h, compilerMode(mode)); err != nil {
						b.Fatal(err)
					}
					return h.GlobalOps()
				}
				wbA, invA := run(ModeAddr)
				wbL, invL := run(ModeAddrL)
				frac = ratio(float64(wbL+invL), float64(wbA+invA))
			}
			b.ReportMetric(frac, "global_frac_vs_addr")
		})
	}
}

// BenchmarkManycoreScaling is the wall-clock companion to the E9
// block-scaling experiment: one Jacobi cell per machine size, serial vs
// block-parallel engine, up to 128 blocks × 8 cores. The reported
// sim_cycles per size must be identical across the two engines; ns/op is
// the simulator-speed curve that feeds BENCH_manycore.json.
func BenchmarkManycoreScaling(b *testing.B) {
	blockCounts := ManycoreBlockCounts(128)
	if testing.Short() {
		blockCounts = ManycoreBlockCounts(8)
	}
	for _, eng := range []struct {
		name string
		par  bool
	}{{"serial", false}, {"block-parallel", true}} {
		eng := eng
		b.Run(eng.name, func(b *testing.B) {
			for _, blocks := range blockCounts {
				blocks := blocks
				b.Run(benchName("blocks", blocks), func(b *testing.B) {
					var r *Result
					for i := 0; i < b.N; i++ {
						m := NewManycoreMachine(blocks, DefaultManycoreCoresPerBlock)
						l1, l2, l3 := scaledCacheConfig(m)
						h := core.New(m, core.Config{L1: l1, L2: l2, L3: l3})
						h.SetBlockParallel(eng.par)
						w := jacobi.New(jacobi.Bench, m.NumCores())
						var err error
						r, err = w.Run(h, compilerMode(ModeAddrL))
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(r.Cycles), "sim_cycles")
				})
			}
		})
	}
}

// compilerMode converts the re-exported Mode back for direct IRWorkload
// use (identity; kept for readability at the call site).
func compilerMode(m Mode) Mode { return m }
