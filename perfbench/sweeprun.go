package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// sweepSetupReps is how many times a sweep run times its set-up before
// each pass. Set-ups are timed throughout the run, not only before the
// first pass, so that their median sees the same host as the passes;
// the median over all of them is reported.
const sweepSetupReps = 64

// timeSetup runs f reps times and appends each duration, in seconds, to
// ds.
func timeSetup(ds []float64, reps int, f func()) []float64 {
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		ds = append(ds, time.Since(start).Seconds())
	}
	return ds
}

// minSweepPasses is the fewest passes that give the hit percentiles
// (every op after the first pass) their minimum sample count.
func minSweepPasses(cells int) int {
	need := minSamples(0.9)
	return 1 + (need+cells-1)/cells
}

// runSweep is an untraced run: whole passes through the public sweep
// entry points until the time is up, every pass checked against the
// recorded digests.
func runSweep(ctx context.Context, spec *sweepSpec, o options) (*report, error) {
	want, err := readDigests(filepath.Join(dataDir, spec.digests))
	if err != nil {
		return nil, err
	}
	r := newReport(spec.name, false)
	b := &passBudget{deadline: time.Now().Add(o.seconds), min: minSweepPasses(len(want.cells))}
	var m stealMeter
	var setups, walls, lat, hits, rates []float64
	for pass := 0; b.another(); pass++ {
		if err := m.start(); err != nil {
			return nil, err
		}
		set := timeSetup(nil, sweepSetupReps, spec.setup)
		p, err := spec.pass(ctx)
		if err != nil {
			return nil, err
		}
		k, err := m.stop()
		if err != nil {
			return nil, err
		}
		b.done(p.wall)
		for _, e := range want.check(p.doc, p.records) {
			r.op(e)
		}
		var cells []float64
		for _, rec := range p.records {
			cells = append(cells, rec.WallMS)
		}
		scaled(cells, k)
		lat = append(lat, cells...)
		if pass > 0 {
			hits = append(hits, cells...)
		}
		setups = append(setups, scaled(set, k)...)
		walls = append(walls, p.wall.Seconds()*k)
		rates = append(rates, float64(p.ops())/(p.wall.Seconds()*k))
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["wall_s"] = median(walls)
	r.metrics["sim_ops_per_s"] = median(rates)
	r.latencies(lat, hits)
	r.note("%d passes of %d cells; hits are the cells of passes after the first; raw pass walls %.3f s", len(b.walls), len(want.cells), durationsS(b.walls))
	noteSteal(r, &m)
	return r, nil
}

// traceSweep is a traced run: one untraced pass through the public entry
// points for reference, then passes of the same cells, until the time is
// up, run from the benchmark's code, each cell once plain (its untraced
// twin) and once under spans and timing wrappers. Times and counts are
// reported per pass. Every traced cell must simulate exactly what the
// reference pass did, and its layer times must reconcile with its own
// wall and its twin's.
func traceSweep(ctx context.Context, spec *sweepSpec, o options, tr *tracer) (*report, error) {
	want, err := readDigests(filepath.Join(dataDir, spec.digests))
	if err != nil {
		return nil, err
	}
	r := newReport(spec.name, true)
	b := &passBudget{deadline: time.Now().Add(o.seconds), min: 1}
	id := tr.begin(0, "pass untraced")
	p, err := spec.pass(ctx)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, e := range want.check(p.doc, p.records) {
		r.op(e)
	}
	var untracedCells time.Duration
	for _, rec := range p.records {
		untracedCells += time.Duration(rec.WallMS * float64(time.Millisecond))
	}

	var (
		cells, irCells                 int
		twins                          time.Duration
		op, engineSelf, apps, unattrib time.Duration
		newT, hierNew, build, verify   time.Duration
		lower                          time.Duration
		famTime                        [2]time.Duration
		famCalls, famClassTime         [2][numClasses]int64
		seSq                           float64
		alloc                          uint64
		gcs                            uint32
	)
	plans := spec.cells()
	for b.another() {
		start := time.Now()
		id := tr.begin(0, "pass traced")
		var ledgers []*cellLedger
		var errs []error
		for _, plan := range plans {
			c, err := runTracedCell(tr, id, plan)
			key := cellKey(plan.workload, plan.config)
			switch {
			case err != nil:
			case !sameResult(c.result, p.results[key]):
				err = fmt.Errorf("%s: traced cell's cycles, stalls, traffic or op counts differ from the untraced run", key)
			default:
				err = c.reconcile()
				if err != nil {
					err = fmt.Errorf("%s: ledger does not reconcile: %w", key, err)
				}
			}
			ledgers = append(ledgers, c)
			errs = append(errs, err)
			fam := 0
			if plan.mesi {
				fam = 1
			}
			cells++
			twins += c.untraced
			op += c.op
			engineSelf += c.engineSelf()
			apps += c.apps
			seSq += float64(c.se) * float64(c.se)
			unattrib += c.unattributed()
			famTime[fam] += c.hier + c.drain
			for k := range c.calls {
				famCalls[fam][k] += c.calls[k]
				famClassTime[fam][k] += c.classTime[k]
			}
			newT += c.children["engine.new"]
			hierNew += c.children["hier.new"]
			build += c.children["apps.build"]
			verify += c.children["apps.verify"]
			if d, ok := c.children["compiler.lower"]; ok {
				lower += d
				irCells++
			}
			alloc += c.allocBytes
			gcs += c.gcCycles
		}
		passErr := reconcileTwins(ledgers)
		for _, err := range errs {
			if err == nil && passErr != nil {
				err = fmt.Errorf("pass ledger does not reconcile: %w", passErr)
			}
			r.op(err)
		}
		tr.end(id)
		b.done(time.Since(start))
	}
	passes := float64(len(b.walls))
	perPass := func(d time.Duration) time.Duration { return time.Duration(float64(d) / passes) }

	m := r.metrics
	// Shares are of the untraced twins' cell wall, which the layers
	// split between them.
	share := func(d time.Duration) ratio { return ratio{d.Seconds(), twins.Seconds()} }
	m["engine.self_s"] = perPass(engineSelf).Seconds()
	m["engine.share"] = share(engineSelf).Value()
	m["engine.ns_per_op"] = float64(perPass(twins).Nanoseconds()) / float64(p.ops())
	m["engine.new_us"] = us(newT) / float64(cells)
	m["engine.alloc_mb"] = float64(alloc) / (1 << 20) / passes
	m["engine.gc_cycles"] = float64(gcs) / passes
	m["core.self_s"], m["mesi.self_s"] = perPass(famTime[0]).Seconds(), perPass(famTime[1]).Seconds()
	m["core.share"], m["mesi.share"] = share(famTime[0]).Value(), share(famTime[1]).Value()
	for k, name := range hierClasses {
		m["core.calls."+name] = float64(famCalls[0][k]) / passes
	}
	perCall := func(fam int, classes ...callClass) ratio {
		var t, n int64
		for _, c := range classes {
			t += famClassTime[fam][c]
			n += famCalls[fam][c]
		}
		return ratio{float64(t), float64(n)}
	}
	m["core.ns_per_access"] = perCall(0, cLoad, cStore).Value()
	m["core.ns_per_wbinv"] = perCall(0, cWB, cINV, cWBAll, cINVAll, cWBCons, cInvProd).Value()
	m["mesi.ns_per_access"] = perCall(1, cLoad, cStore).Value()
	m["hier.new_us"] = us(hierNew) / float64(cells)
	m["apps.self_s"] = perPass(apps).Seconds()
	m["apps.share"] = share(apps).Value()
	m["apps.build_ms"] = ms(build) / float64(cells)
	m["apps.verify_ms"] = ms(verify) / float64(cells)
	if irCells > 0 {
		m["compiler.lower_ms"] = ms(lower) / float64(irCells)
	}
	m["runner.overhead_ms"] = ms(p.sweeps - untracedCells)
	m["envelope.encode_ms"] = ms(p.encode)
	m["ledger.unattributed_share"] = ratio{unattrib.Seconds(), op.Seconds()}.Value()
	m["trace.overhead"] = (perPass(op) - perPass(twins)).Seconds()

	r.note("%d traced passes of %d cells; per pass: traced cell wall %.3f s, untraced twins' cell wall %.3f s; reference pass cell wall %.3f s",
		len(b.walls), len(plans), perPass(op).Seconds(), perPass(twins).Seconds(), untracedCells.Seconds())
	r.note("engine.share %s vs core.share+mesi.share %s", share(engineSelf), share(famTime[0]+famTime[1]))
	r.note("apps.share %s; sampling standard error of guest+hierarchy time %.3f s per pass", share(apps), math.Sqrt(seSq)/1e9/passes)
	r.note("core.ns_per_access over %v calls, core.ns_per_wbinv over %v calls, mesi.ns_per_access over %v calls",
		perCall(0, cLoad, cStore).Den, perCall(0, cWB, cINV, cWBAll, cINVAll, cWBCons, cInvProd).Den, perCall(1, cLoad, cStore).Den)
	r.note("engine.ns_per_op over %d guest ops", p.ops())
	return r, nil
}
