package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	hic "repro"
	"repro/internal/runner"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {1, 10}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1..3 = %v, want 2", got)
	}
	if quantile(nil, 0.9) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

func TestHarrellDavis(t *testing.T) {
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3}, {2, 1, 0.5, 0.25}, {1, 2, 0.5, 0.75}, {50, 50, 0.5, 0.5}, {2000, 2000, 0.5, 0.5}, {3, 5, 0, 0}, {3, 5, 1, 1},
	} {
		if got := betaInc(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("I_%v(%v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
	for _, n := range []int{1, 2, 71, 213, 40000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1)
		}
		// By symmetry the median of 1..n is (n+1)/2.
		if got := hdQuantile(xs, 0.5); math.Abs(got-float64(n+1)/2) > 1e-6*float64(n) {
			t.Errorf("n=%d: median %v, want %v", n, got, float64(n+1)/2)
		}
		// The weights sum to 1: a constant sample estimates itself.
		for i := range xs {
			xs[i] = 7
		}
		if got := hdQuantile(xs, 0.9); math.Abs(got-7) > 1e-9 {
			t.Errorf("n=%d: p90 of a constant sample %v", n, got)
		}
	}
	if hdQuantile(nil, 0.5) != 0 {
		t.Error("no samples must read 0")
	}
	// Two op sizes, 10 and 20 ms, half each: a nearest-rank median jumps
	// between them as one sample moves; the estimate moves by a share.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 10
		if i >= 50 {
			xs[i] = 20
		}
	}
	lo := hdQuantile(xs, 0.5)
	xs[50] = 10
	hi := hdQuantile(xs, 0.5)
	if d := math.Abs(hi - lo); d > 2 || d == 0 {
		t.Errorf("one swapped sample moved the estimate by %v ms, want a share of the 10 ms gap", d)
	}
}

// A pass's times lose the share of wanted CPU time that was stolen.
func TestStealCorrection(t *testing.T) {
	from := cpuTimes{busy: 1000, steal: 50}
	for _, c := range []struct {
		to   cpuTimes
		want float64
	}{
		{cpuTimes{busy: 1300, steal: 150}, 0.25},
		{cpuTimes{busy: 1400, steal: 50}, 0},
		{cpuTimes{busy: 1000, steal: 50}, 0},
		{cpuTimes{busy: 1000, steal: 150}, 1},
	} {
		if got := stolenShare(from, c.to); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("stolenShare(%v, %v) = %v, want %v", from, c.to, got, c.want)
		}
	}
	xs := scaled([]float64{8, 4}, 0.75)
	if xs[0] != 6 || xs[1] != 3 {
		t.Errorf("scaled = %v, want [6 3]", xs)
	}
	var m stealMeter
	if err := m.start(); err != nil {
		t.Fatal(err)
	}
	k, err := m.stop()
	if err != nil || k <= 0 || k > 1 || len(m.shares) != 1 {
		t.Errorf("stop = %v, %v; shares %v", k, err, m.shares)
	}
}

// A p90 counts only when at least ten samples lie above it.
func TestP90SampleCountRule(t *testing.T) {
	if n := minSamples(0.9); n != 100 {
		t.Fatalf("minSamples(0.9) = %d, want 100", n)
	}
	for _, c := range []struct {
		n      int
		beyond int
		ok     bool
	}{{99, 9, false}, {100, 10, true}, {213, 21, true}, {10, 1, false}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		l := summarize(xs)
		if l.N != c.n || l.Beyond90 != c.beyond || l.p90OK() != c.ok {
			t.Errorf("n=%d: N %d beyond %d ok %v, want beyond %d ok %v", c.n, l.N, l.Beyond90, l.p90OK(), c.beyond, c.ok)
		}
		// Exactly Beyond90 samples lie above the nearest-rank p90, and
		// the reported (Harrell-Davis) p90 lies within one sample of it.
		nr := quantile(xs, 0.9)
		above := 0
		for _, x := range xs {
			if x > nr {
				above++
			}
		}
		if above != l.Beyond90 {
			t.Errorf("n=%d: %d samples above the nearest-rank p90, reported %d", c.n, above, l.Beyond90)
		}
		if math.Abs(l.P90-nr) > 1 {
			t.Errorf("n=%d: p90 %v is more than one sample from the nearest-rank p90 %v", c.n, l.P90, nr)
		}
	}
	if got := minSweepPasses(71); got != 3 {
		t.Errorf("paper needs %d passes, want 3 (two repeat passes give 142 hit samples)", got)
	}
	if got := minSweepPasses(16); got != 8 {
		t.Errorf("manycore needs %d passes, want 8", got)
	}
}

func TestRatioReportsItsBase(t *testing.T) {
	r := ratio{3, 4}
	if r.Value() != 0.75 {
		t.Errorf("value %v", r.Value())
	}
	if s := r.String(); !strings.Contains(s, "(3/4)") || !strings.HasPrefix(s, "0.7500") {
		t.Errorf("string %q lacks its base", s)
	}
	if (ratio{0, 0}).Value() != 0 {
		t.Error("an empty base must read 0")
	}
	var buf bytes.Buffer
	rep := newReport("paper", false)
	for _, m := range endToEnd {
		rep.metrics[m.Name] = 1
	}
	rep.op(nil)
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "error_rate") || !strings.Contains(buf.String(), "(0/1)") {
		t.Errorf("error rate printed without its counts:\n%s", buf.String())
	}
}

// testSweep is a small test-scale intra sweep with its canonical bytes.
func testSweep(t *testing.T) (*hic.IntraResult, []byte) {
	t.Helper()
	res, err := hic.RunIntra(context.Background(), hic.ScaleTest, hic.WithParallel(1), hic.WithOnly("fft", "cholesky"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Document(hic.ScaleTest).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// A corrupted document or record is a failed op; an intact one is not.
func TestCorruptedDocumentCountsAsFailedOp(t *testing.T) {
	res, doc := testSweep(t)
	recs := res.Runs
	want := makeDigests(doc, recs)
	parsed, err := parseDigests(bytes.NewReader(want.encode()))
	if err != nil {
		t.Fatal(err)
	}
	failed := func(doc []byte, recs []runner.RunRecord) int {
		rep := newReport("paper", false)
		for _, e := range parsed.check(doc, recs) {
			rep.op(e)
		}
		if rep.attempted != len(res.Runs) {
			t.Errorf("attempted %d, want %d", rep.attempted, len(res.Runs))
		}
		return rep.failed
	}
	if n := failed(doc, recs); n != 0 {
		t.Fatalf("intact sweep: %d failed ops", n)
	}

	changed := append([]runner.RunRecord(nil), recs...)
	changed[2].Cycles++
	if n := failed(doc, changed); n != 1 {
		t.Errorf("one altered record: %d failed ops, want 1", n)
	}
	errored := append([]runner.RunRecord(nil), recs...)
	errored[0].Error = "verification: wrong answer"
	if n := failed(doc, errored); n != 1 {
		t.Errorf("one errored cell: %d failed ops, want 1", n)
	}
	if n := failed(doc, recs[1:]); n != 1 {
		t.Errorf("one missing cell: %d failed ops, want 1", n)
	}
	corrupt := bytes.Replace(doc, []byte(`"figure9"`), []byte(`"figure0"`), 1)
	if bytes.Equal(corrupt, doc) {
		t.Fatal("corruption did not apply")
	}
	if n := failed(corrupt, recs); n != len(recs) {
		t.Errorf("corrupted figures: %d failed ops, want all %d", n, len(recs))
	}

	var buf bytes.Buffer
	rep := newReport("paper", false)
	for _, m := range endToEnd {
		rep.metrics[m.Name] = 1
	}
	for _, e := range parsed.check(corrupt, recs) {
		rep.op(e)
	}
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed != len(recs) || line.Attempted != len(recs) {
		t.Errorf("result line %+v for a corrupted document", line)
	}
}

// The traced twin of a test-scale cell simulates exactly what the
// untraced sweep did, and its layer times reconcile with its wall.
func TestLedgerReconcilesOnTestCell(t *testing.T) {
	ctx := context.Background()
	intra, err := hic.RunIntra(ctx, hic.ScaleTest, hic.WithParallel(1), hic.WithOnly("fft"))
	if err != nil {
		t.Fatal(err)
	}
	inter, err := hic.RunInter(ctx, hic.ScaleTest, hic.WithParallel(1), hic.WithOnly("jacobi"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		plan cellPlan
		want *hic.Result
	}{
		{intraCell(hic.ScaleTest, 0, "fft", hic.BMI), intra.Raw["fft"]["B+M+I"]},
		{intraCell(hic.ScaleTest, 0, "fft", hic.HCC), intra.Raw["fft"]["HCC"]},
		{interCell(hic.ScaleTest, "jacobi", hic.ModeAddrL), inter.Raw["jacobi"]["Addr+L"]},
	}
	tr := newTracer()
	for _, c := range cases {
		key := cellKey(c.plan.workload, c.plan.config)
		// A test-scale cell's phases last about as long as a GC cycle,
		// so the twin check is made over several runs, with the
		// collector held off.
		var ledgers []*cellLedger
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		for i := 0; i < 10; i++ {
			led, err := runTracedCell(tr, 0, c.plan)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			ledgers = append(ledgers, led)
		}
		debug.SetGCPercent(gc)
		if err := reconcileTwins(ledgers); err != nil {
			t.Errorf("%s: %v", key, err)
		}
		led := ledgers[0]
		if !sameResult(led.result, c.want) {
			t.Errorf("%s: traced result differs from the sweep's", key)
		}
		if err := led.reconcile(); err != nil {
			t.Errorf("%s: %v", key, err)
		}
		if led.untraced <= 0 || led.apps <= 0 || led.hier <= 0 || led.calls[cLoad] == 0 || led.calls[cStore] == 0 {
			t.Errorf("%s: empty ledger: twin %v apps %v hier %v calls %v", key, led.untraced, led.apps, led.hier, led.calls)
		}
		var ops int64
		for _, n := range c.want.Ops {
			ops += n
		}
		if accesses := led.calls[cLoad] + led.calls[cStore]; accesses > ops {
			t.Errorf("%s: %d hierarchy accesses for %d guest ops", key, accesses, ops)
		}
		if _, ok := led.children["compiler.lower"]; ok != (c.plan.config == "Addr+L") {
			t.Errorf("%s: compiler.lower span present = %v", key, ok)
		}
	}
}

// A ledger whose layers overrun its walls does not reconcile.
func TestReconcileRejectsOverruns(t *testing.T) {
	ms := time.Millisecond
	good := func() *cellLedger {
		return &cellLedger{untraced: 10 * ms, op: 14 * ms, apps: 3 * ms, hier: 2 * ms,
			children: map[string]time.Duration{"hier.new": ms, "engine.new": ms, "engine.run": 12 * ms}}
	}
	if err := good().reconcile(); err != nil {
		t.Fatalf("consistent ledger: %v", err)
	}
	if err := reconcileTwins([]*cellLedger{good(), good()}); err != nil {
		t.Fatalf("consistent twins: %v", err)
	}
	for name, mutate := range map[string]func(*cellLedger){
		"guests and hierarchy exceed engine.Run": func(c *cellLedger) { c.apps = 12 * ms },
		"spans leave the op unattributed":        func(c *cellLedger) { c.op = 20 * ms },
	} {
		c := good()
		mutate(c)
		if c.reconcile() == nil {
			t.Errorf("%s: reconcile passed", name)
		}
	}
	short := good()
	short.untraced = 4 * ms
	if reconcileTwins([]*cellLedger{short}) == nil {
		t.Error("layers exceeding the untraced twins' wall: reconcileTwins passed")
	}
}

// A sampled tally estimates its population's total, with a variance
// that vanishes when every interval was timed.
func TestSampledEstimate(t *testing.T) {
	var all, sample tally
	for i := int64(0); i < 80; i++ {
		all.add(i)
		if i%4 == 0 {
			sample.add(i)
		}
	}
	if total, v := all.estimate(80); total != 3160 || v != 0 {
		t.Errorf("full tally: total %v variance %v, want 3160 and 0", total, v)
	}
	total, v := sample.estimate(80)
	if total != 3040 || v <= 0 || math.Abs(total-3160) > 3*math.Sqrt(v) {
		t.Errorf("1-in-4 sample: total %v variance %v, want 3040 within three standard errors of 3160", total, v)
	}
	if total, v := (tally{}).estimate(80); total != 0 || v != 0 {
		t.Error("an empty sample must estimate 0")
	}
	var h htSum
	h.add(100, 1)
	h.add(10, 0.25)
	if h.total != 140 || h.variance != 1200 {
		t.Errorf("Horvitz-Thompson sum %+v, want total 140 (100 + 10/0.25) and variance 1200 (0.75 * 40^2)", h)
	}
	l := newLedger(0)
	n := 0
	for i := 0; i < 16000; i++ {
		if l.sampled() {
			n++
		}
	}
	if math.Abs(float64(n)-1000) > 100 {
		t.Errorf("sampled %d of 16000, want about 1000", n)
	}
}

func TestServeStream(t *testing.T) {
	a, b := serveStream(7), serveStream(7)
	if len(a) != len(b) {
		t.Fatal("stream is not deterministic")
	}
	for i := range a {
		if a[i].id() != b[i].id() || a[i].class != b[i].class {
			t.Fatalf("request %d differs between two generations of one seed", i)
		}
	}
	same := true
	for i, s := range serveStream(8) {
		if s.id() != a[i].id() {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 give the same stream")
	}
	for _, seed := range []uint64{1, 2, 3, 99} {
		stream := serveStream(seed)
		reqs, cells := streamMix(stream)
		colds := serveRounds * 15
		if reqs[classCold] != colds || reqs[classCellHit] != colds || reqs[classStoreHit] != colds {
			t.Errorf("seed %d: mix %v", seed, reqs)
		}
		perRound := 11*len(hic.IntraConfigs) + 4*len(hic.InterModes)
		if cells[classCold] != serveRounds*perRound {
			t.Errorf("seed %d: %d cold cells, want %d", seed, cells[classCold], serveRounds*perRound)
		}
		if want := serveRounds * (6*2*len(hic.IntraConfigs) + 5*3*len(hic.IntraConfigs) + 2*2*len(hic.InterModes) + 2*3*len(hic.InterModes)); cells[classCellHit] != want {
			t.Errorf("seed %d: %d cell-hit cells, want %d", seed, cells[classCellHit], want)
		}
		seen := map[string]bool{}
		computed := map[string]bool{} // suite|salt|workload
		for i, s := range stream {
			key := func(w string) string { return fmt.Sprintf("%s|%s|%d", s.req.Suite, w, s.req.Seed) }
			switch s.class {
			case classStoreHit:
				if !seen[s.id()] {
					t.Fatalf("seed %d request %d: store hit %s repeats nothing", seed, i, s.id())
				}
			case classCellHit:
				if seen[s.id()] {
					t.Fatalf("seed %d request %d: cell hit %s repeats an address", seed, i, s.id())
				}
				for _, w := range s.req.Workloads {
					if !computed[key(w)] {
						t.Fatalf("seed %d request %d: cell hit %s reuses an uncomputed cell", seed, i, s.id())
					}
				}
			case classCold:
				if seen[s.id()] {
					t.Fatalf("seed %d request %d: cold request %s repeats an address", seed, i, s.id())
				}
				for _, w := range s.req.Workloads {
					if computed[key(w)] {
						t.Fatalf("seed %d request %d: cold request %s has a computed cell", seed, i, s.id())
					}
					computed[key(w)] = true
				}
			}
			seen[s.id()] = true
		}
	}
}

func TestLitmusSampleIsStratified(t *testing.T) {
	idx := litmusSampleIndices(5, 17851, 2000)
	for i, x := range idx {
		if lo, hi := i*17851/2000, (i+1)*17851/2000; x < lo || x >= hi {
			t.Fatalf("sample %d = %d outside stratum [%d, %d)", i, x, lo, hi)
		}
	}
	again := litmusSampleIndices(5, 17851, 2000)
	other := litmusSampleIndices(6, 17851, 2000)
	differs := false
	for i := range idx {
		if idx[i] != again[i] {
			t.Fatal("sample is not deterministic")
		}
		differs = differs || idx[i] != other[i]
	}
	if !differs {
		t.Error("seeds 5 and 6 draw the same sample")
	}
}

// BENCHMARK.json declares exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics declared, %d measured", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: declared %+v, measured %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
