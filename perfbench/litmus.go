package main

// The litmus workload: exhaustive DPOR exploration, under B+M+I, of a
// seed-chosen sample of the k=4 enumerated litmus programs. Each program
// is one op. Explorations are thousands of tiny engine runs on the
// synchronous rendezvous path with a Scheduler installed, so per-run
// set-up, state fingerprints and the oracle dominate, and the pipelined
// fast path the sweeps rely on does nothing.

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/litmus"
)

const (
	litmusK = 4
	// litmusSample is how many programs one pass explores: one from
	// each of that many equal strata of the enumeration order, so every
	// seed's sample spans the whole program space.
	litmusSample = 2000
	// litmusSetupReps is how many times a run enumerates the programs.
	litmusSetupReps = 3
	litmusCounts    = "litmus-k4-bmi.counts"
)

// exploreCounts are one program's exact exploration statistics.
type exploreCounts struct {
	Runs, Schedules, DedupCuts, StatesSeen int
}

func (c *exploreCounts) add(d exploreCounts) {
	c.Runs += d.Runs
	c.Schedules += d.Schedules
	c.DedupCuts += d.DedupCuts
	c.StatesSeen += d.StatesSeen
}

func countsOf(rep *litmus.Report) exploreCounts {
	return exploreCounts{rep.Runs, rep.Schedules, rep.DedupCuts, rep.StatesSeen}
}

// namesDigest pins the enumeration: program count and order.
func namesDigest(tests []litmus.Test) string {
	var b strings.Builder
	for _, t := range tests {
		b.WriteString(t.Name)
		b.WriteByte('\n')
	}
	return sha([]byte(b.String()))
}

// litmusRecord is the recorded enumeration digest and per-program counts.
type litmusRecord struct {
	names  string
	counts []exploreCounts
}

func (r *litmusRecord) encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "names %s\n", r.names)
	for _, c := range r.counts {
		fmt.Fprintf(&b, "%d %d %d %d\n", c.Runs, c.Schedules, c.DedupCuts, c.StatesSeen)
	}
	return []byte(b.String())
}

func readLitmusRecord(path string) (*litmusRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &litmusRecord{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "names "); ok {
			r.names = rest
			continue
		}
		var c exploreCounts
		if _, err := fmt.Sscanf(line, "%d %d %d %d", &c.Runs, &c.Schedules, &c.DedupCuts, &c.StatesSeen); err != nil {
			return nil, fmt.Errorf("%s: malformed line %q: %w", path, line, err)
		}
		r.counts = append(r.counts, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if r.names == "" || len(r.counts) == 0 {
		return nil, fmt.Errorf("%s: no counts", path)
	}
	return r, nil
}

// litmusSampleIndices picks one program index from each of n equal
// strata of [0, total).
func litmusSampleIndices(seed uint64, total, n int) []int {
	rng := rand.New(rand.NewPCG(seed, 0x6c69746d7573))
	idx := make([]int, n)
	for i := range idx {
		lo, hi := i*total/n, (i+1)*total/n
		idx[i] = lo + rng.IntN(hi-lo)
	}
	return idx
}

// checkExplore judges one exploration against the recorded counts.
func checkExplore(t litmus.Test, rep *litmus.Report, err error, want exploreCounts) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", t.Name, err)
	case rep.ErrorRuns > 0 || rep.Truncated > 0 || rep.Capped:
		return fmt.Errorf("%s: exploration not exhaustive (errors %d, truncated %d, capped %v)", t.Name, rep.ErrorRuns, rep.Truncated, rep.Capped)
	case rep.ViolationSchedules > 0:
		return fmt.Errorf("%s: %d schedules violate coherence", t.Name, rep.ViolationSchedules)
	case countsOf(rep) != want:
		return fmt.Errorf("%s: counts %+v, recorded %+v", t.Name, countsOf(rep), want)
	}
	return nil
}

// litmusSet is a run's programs, its seed's sample, and the record the
// explorations are checked against.
type litmusSet struct {
	tests  []litmus.Test
	sample []int
	rec    *litmusRecord
	// setup is the median enumeration time in seconds.
	setup float64
}

// litmusSetup enumerates the programs litmusSetupReps times, checks the
// enumeration against the record, and draws the seed's sample.
func litmusSetup(o options) (*litmusSet, error) {
	rec, err := readLitmusRecord(filepath.Join(dataDir, litmusCounts))
	if err != nil {
		return nil, err
	}
	ls := &litmusSet{rec: rec}
	ls.setup = median(timeSetup(nil, litmusSetupReps, func() { ls.tests = litmus.Enumerate(litmus.DefaultEnumOptions(litmusK)) }))
	if len(ls.tests) != len(rec.counts) || namesDigest(ls.tests) != rec.names {
		return nil, fmt.Errorf("enumeration of %d programs differs from the recorded %d", len(ls.tests), len(rec.counts))
	}
	ls.sample = litmusSampleIndices(o.seed, len(ls.tests), litmusSample)
	return ls, nil
}

// litmusPass is one exploration of the sample.
type litmusPass struct {
	wall    time.Duration
	lat     []float64
	totals  exploreCounts
	explore time.Duration
	errs    []error
}

// pass explores the sample once; with a tracer, each Explore call gets
// a span under parent.
func (ls *litmusSet) pass(tr *tracer, parent int) *litmusPass {
	p := &litmusPass{}
	start := time.Now()
	for _, i := range ls.sample {
		t := ls.tests[i]
		var rep *litmus.Report
		var err error
		explore := func() { rep, err = litmus.Explore(t, litmus.BMI, litmus.Options{}) }
		var d time.Duration
		if tr != nil {
			d = tr.time(parent, "explore", explore)
		} else {
			s := time.Now()
			explore()
			d = time.Since(s)
		}
		p.lat = append(p.lat, ms(d))
		p.explore += d
		if rep != nil {
			p.totals.add(countsOf(rep))
		}
		p.errs = append(p.errs, checkExplore(t, rep, err, ls.rec.counts[i]))
	}
	p.wall = time.Since(start)
	return p
}

// runLitmus is an untraced litmus run.
func runLitmus(o options) (*report, error) {
	var m stealMeter
	if err := m.start(); err != nil {
		return nil, err
	}
	ls, err := litmusSetup(o)
	if err != nil {
		return nil, err
	}
	k, err := m.stop()
	if err != nil {
		return nil, err
	}
	// One more enumeration is timed before each pass, so that the
	// set-up's median sees the same host as the passes.
	setups := []float64{ls.setup * k}
	r := newReport("litmus", false)
	b := &passBudget{deadline: time.Now().Add(o.seconds), min: 2}
	var walls, lat, hits, rates []float64
	var runs int
	for pass := 0; b.another(); pass++ {
		if err := m.start(); err != nil {
			return nil, err
		}
		set := timeSetup(nil, 1, func() { litmus.Enumerate(litmus.DefaultEnumOptions(litmusK)) })
		p := ls.pass(nil, 0)
		k, err := m.stop()
		if err != nil {
			return nil, err
		}
		b.done(p.wall)
		setups = append(setups, scaled(set, k)...)
		for _, e := range p.errs {
			r.op(e)
		}
		scaled(p.lat, k)
		lat = append(lat, p.lat...)
		if pass > 0 {
			hits = append(hits, p.lat...)
		}
		walls = append(walls, p.wall.Seconds()*k)
		rates = append(rates, float64(p.totals.Runs)/(p.wall.Seconds()*k))
		runs = p.totals.Runs
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["wall_s"] = median(walls)
	r.metrics["sim_ops_per_s"] = median(rates)
	r.latencies(lat, hits)
	r.note("%d passes of %d programs (%d engine runs each); sim_ops_per_s counts engine runs; raw pass walls %.3f s, raw set-up %.4f s",
		len(b.walls), len(ls.sample), runs, durationsS(b.walls), ls.setup)
	noteSteal(r, &m)
	return r, nil
}

// traceLitmus is a traced litmus run: one untraced pass for reference,
// then passes with a span per program until the time is up. Times and
// counts are reported per pass.
func traceLitmus(o options, tr *tracer) (*report, error) {
	var ls *litmusSet
	var err error
	tr.time(0, "setup", func() { ls, err = litmusSetup(o) })
	if err != nil {
		return nil, err
	}
	r := newReport("litmus", true)
	b := &passBudget{deadline: time.Now().Add(o.seconds), min: 1}
	id := tr.begin(0, "pass untraced")
	u := ls.pass(nil, 0)
	tr.end(id)
	for _, e := range u.errs {
		r.op(e)
	}
	var totals exploreCounts
	var explore, wall, inside time.Duration
	for b.another() {
		id := tr.begin(0, "pass traced")
		p := ls.pass(tr, id)
		tr.end(id)
		b.done(p.wall)
		for _, e := range p.errs {
			r.op(e)
		}
		totals.add(p.totals)
		explore += p.explore
		wall += p.wall
		for _, s := range tr.spans[id:] {
			if s.Parent == id {
				inside += time.Duration(s.Dur)
			}
		}
	}
	passes := float64(len(b.walls))
	m := r.metrics
	m["litmus.enumerate_s"] = ls.setup
	m["litmus.explore_s"] = explore.Seconds() / passes
	m["litmus.runs"] = float64(totals.Runs) / passes
	m["litmus.schedules"] = float64(totals.Schedules) / passes
	m["litmus.dedup_cuts"] = float64(totals.DedupCuts) / passes
	m["litmus.states_seen"] = float64(totals.StatesSeen) / passes
	useful := ratio{float64(totals.Schedules), float64(totals.Runs)}
	m["litmus.schedules_per_run"] = useful.Value()
	m["litmus.us_per_run"] = us(explore) / float64(totals.Runs)
	m["ledger.unattributed_share"] = ratio{(wall - inside).Seconds(), wall.Seconds()}.Value()
	m["trace.overhead"] = wall.Seconds()/passes - u.wall.Seconds()
	r.note("%d traced passes of %d programs; litmus.schedules_per_run %s", len(b.walls), len(ls.sample), useful)
	return r, nil
}
