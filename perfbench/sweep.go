package main

// The sweep workloads, paper and manycore. An untraced pass calls the
// public sweep entry points exactly as `hicsim -json` does, with one
// runner worker, and encodes the canonical document; each cell is one
// op, timed by the runner's own per-cell wall clock. A traced pass runs
// the same cells one by one from the benchmark's own code, with timing
// wrappers around the hierarchy and the guests, so each cell's host time
// splits into layers.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	hic "repro"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/runner"
)

// benchScale is the scale `hicsim -scale bench` runs at.
const benchScale = hic.ScaleBench

// sweepPass is the outcome of one untraced pass.
type sweepPass struct {
	doc     []byte
	records []runner.RunRecord
	// results holds each successful cell's engine result by cellKey.
	results map[string]*engine.Result
	// sweeps is the time inside the hic.Run* calls, encode the time
	// spent building and encoding the document, wall the whole pass.
	sweeps, encode, wall time.Duration
}

func cellKey(workload, config string) string { return workload + "/" + config }

// ops is the simulated guest operation count of the pass.
func (p *sweepPass) ops() int64 {
	var n int64
	for _, r := range p.results {
		for _, c := range r.Ops {
			n += c
		}
	}
	return n
}

// cellPlan is one cell of a traced pass: prepare builds its workload,
// machine, hierarchy and guests under spans of the op (a nil tracer
// records none), and returns the hierarchy, the guests and the
// workload's self-check.
type cellPlan struct {
	workload, config string
	mesi             bool
	prepare          func(tr *tracer, op int) (engine.Hierarchy, []engine.Guest, func(*mem.Memory) error)
}

// sweepSpec describes one sweep workload.
type sweepSpec struct {
	name string
	// digests names the recorded canonical digests under testdata/.
	digests string
	// setup is the work the sweep's entry point does before its first
	// cell: building the workload list its task list is made from.
	// Machines and hierarchies are built inside each cell, so their time
	// is part of the cell's latency (and of hier.new_us), not of set-up.
	setup func()
	// pass runs the sweep through the public entry points.
	pass func(ctx context.Context) (*sweepPass, error)
	// cells lists the cells in sweep order for a traced pass.
	cells func() []cellPlan
}

func paperSpec() *sweepSpec {
	return &sweepSpec{
		name:    "paper",
		digests: "paper.digest",
		setup: func() {
			hic.IntraWorkloads(benchScale)
			hic.InterWorkloads(benchScale)
		},
		pass:  paperPass,
		cells: paperCells,
	}
}

func manycoreSpec() *sweepSpec {
	return &sweepSpec{
		name:    "manycore",
		digests: "manycore.digest",
		setup: func() {
			hic.ManycoreBlockCounts(128)
			hic.ManycoreWorkloads(benchScale, hic.DefaultManycoreCoresPerBlock)
		},
		pass:  manycorePass,
		cells: manycoreCells,
	}
}

func paperPass(ctx context.Context) (*sweepPass, error) {
	start := time.Now()
	intra, _ := hic.RunIntra(ctx, benchScale, hic.WithParallel(1))
	inter, _ := hic.RunInter(ctx, benchScale, hic.WithParallel(1))
	swept := time.Now()
	doc := runner.Merge(intra.Document(benchScale), inter.Document(benchScale))
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		return nil, fmt.Errorf("encoding paper document: %w", err)
	}
	end := time.Now()
	p := &sweepPass{doc: buf.Bytes(), records: doc.Runs, results: map[string]*engine.Result{},
		sweeps: swept.Sub(start), encode: end.Sub(swept), wall: end.Sub(start)}
	for _, raw := range []map[string]map[string]*hic.Result{intra.Raw, inter.Raw} {
		for w, byCfg := range raw {
			for c, r := range byCfg {
				p.results[cellKey(w, c)] = r
			}
		}
	}
	return p, nil
}

func manycorePass(ctx context.Context) (*sweepPass, error) {
	start := time.Now()
	res, _ := hic.RunManycore(ctx, benchScale, nil, hic.DefaultManycoreCoresPerBlock, hic.WithParallel(1))
	swept := time.Now()
	doc := res.Document(benchScale)
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		return nil, fmt.Errorf("encoding manycore document: %w", err)
	}
	end := time.Now()
	p := &sweepPass{doc: buf.Bytes(), records: doc.Runs, results: map[string]*engine.Result{},
		sweeps: swept.Sub(start), encode: end.Sub(swept), wall: end.Sub(start)}
	for w, byBlocks := range res.Raw {
		for b, r := range byBlocks {
			p.results[cellKey(w, fmt.Sprintf("blocks-%d", b))] = r
		}
	}
	return p, nil
}

// irCell plans a Model 2 cell: the workload is picked by name from
// build, the machine and hierarchy come from hier, and the guests are
// lowered by the compiler under mode.
func irCell(workload, config string, mode hic.Mode, build func() []*hic.IRWorkload, hier func() hic.Hierarchy) cellPlan {
	return cellPlan{
		workload: workload, config: config, mesi: mode == hic.ModeHCC,
		prepare: func(tr *tracer, op int) (engine.Hierarchy, []engine.Guest, func(*mem.Memory) error) {
			var wl *hic.IRWorkload
			tr.time(op, "apps.build", func() {
				for _, w := range build() {
					if w.Name == workload {
						wl = w
					}
				}
			})
			var h hic.Hierarchy
			tr.time(op, "hier.new", func() { h = hier() })
			var gs []engine.Guest
			tr.time(op, "compiler.lower", func() { gs = hic.LowerIR(wl.Prog, wl.Threads, mode) })
			return h, gs, wl.VerifyMemory
		},
	}
}

// intraCell plans a Model 1 cell, built the way the sweep's own task
// builds it.
func intraCell(s hic.Scale, i int, workload string, cfg hic.Config) cellPlan {
	return cellPlan{
		workload: workload, config: cfg.Name, mesi: cfg.HCC,
		prepare: func(tr *tracer, op int) (engine.Hierarchy, []engine.Guest, func(*mem.Memory) error) {
			var wl *hic.Workload
			tr.time(op, "apps.build", func() { wl = hic.IntraWorkloads(s)[i] })
			var h hic.Hierarchy
			tr.time(op, "hier.new", func() { h = hic.NewHierarchy(hic.NewIntraMachine(), cfg) })
			var gs []engine.Guest
			tr.time(op, "apps.build", func() { gs = wl.Guests(cfg) })
			return h, gs, wl.Verify
		},
	}
}

// interCell plans one cell of the inter-block sweep.
func interCell(s hic.Scale, workload string, mode hic.Mode) cellPlan {
	return irCell(workload, mode.String(), mode,
		func() []*hic.IRWorkload { return hic.InterWorkloads(s) },
		func() hic.Hierarchy { return hic.NewModeHierarchy(hic.NewInterMachine(), mode) })
}

// paperCells lists the 71 cells of the paper sweep in document order.
func paperCells() []cellPlan {
	var cells []cellPlan
	for i, w := range hic.IntraWorkloads(benchScale) {
		for _, cfg := range hic.IntraConfigs {
			cells = append(cells, intraCell(benchScale, i, w.Name, cfg))
		}
	}
	for _, w := range hic.InterWorkloads(benchScale) {
		for _, mode := range hic.InterModes {
			cells = append(cells, interCell(benchScale, w.Name, mode))
		}
	}
	return cells
}

// manycoreCells lists the 16 block-scaling cells in document order
// (workload, then block count as a string, as the sweep sorts them).
func manycoreCells() []cellPlan {
	var cells []cellPlan
	names := []string{}
	for _, w := range hic.ManycoreWorkloads(benchScale, hic.DefaultManycoreCoresPerBlock) {
		names = append(names, w.Name)
	}
	for _, name := range sortedCopy(names) {
		var configs []string
		blocksOf := map[string]int{}
		for _, b := range hic.ManycoreBlockCounts(128) {
			c := fmt.Sprintf("blocks-%d", b)
			configs = append(configs, c)
			blocksOf[c] = b
		}
		for _, c := range sortedCopy(configs) {
			blocks := blocksOf[c]
			cores := blocks * hic.DefaultManycoreCoresPerBlock
			cells = append(cells, irCell(name, c, hic.ModeAddrL,
				func() []*hic.IRWorkload { return hic.ManycoreWorkloads(benchScale, cores) },
				func() hic.Hierarchy {
					return hic.NewModeHierarchy(hic.NewManycoreMachine(blocks, hic.DefaultManycoreCoresPerBlock), hic.ModeAddrL)
				}))
		}
	}
	return cells
}

// cellLedger is one traced cell's layer split.
type cellLedger struct {
	result *engine.Result
	// untraced is the wall time of the cell's untraced twin: the same
	// cell run just before, without spans or timing wrappers.
	untraced time.Duration
	// op is the whole traced cell; children its direct child spans by
	// name.
	op       time.Duration
	children map[string]time.Duration
	// apps and hier are guest and hierarchy self time inside
	// engine.Run; drain is the hierarchy's post-run drain.
	apps, hier, drain time.Duration
	// se is the standard error of apps+hier from timing a sample.
	se         time.Duration
	calls      [numClasses]int64
	classTime  [numClasses]int64
	allocBytes uint64
	gcCycles   uint32
}

// outsideEngine is the traced time of the layers around the engine:
// guests, the hierarchy (its calls, its drain and its construction),
// and workload building, lowering and verification.
func (c *cellLedger) outsideEngine() time.Duration {
	return c.apps + c.hier + c.drain + c.children["hier.new"] + c.children["apps.build"] +
		c.children["compiler.lower"] + c.children["apps.verify"]
}

// engineSelf is the engine's share of the cell (engine.New plus the part
// of engine.Run not spent in guests or the hierarchy): the untraced
// twin's wall less every other layer. Measuring it against the twin
// keeps the timing wrappers' own cost out of it.
func (c *cellLedger) engineSelf() time.Duration {
	return c.untraced - c.outsideEngine()
}

// tracedEngineSelf is the same residual inside the traced run: what of
// engine.New+Run the guests and the hierarchy do not account for,
// probe cost included.
func (c *cellLedger) tracedEngineSelf() time.Duration {
	return c.children["engine.new"] + c.children["engine.run"] - c.apps - c.hier
}

// unattributed is the part of the op outside every child span: the
// benchmark's own bookkeeping between calls.
func (c *cellLedger) unattributed() time.Duration {
	var sum time.Duration
	for _, d := range c.children {
		sum += d
	}
	return c.op - sum
}

// reconcile checks a traced cell's ledger adds up: guest and hierarchy
// time fit inside engine.Run, up to three standard errors of their
// sampled estimate, and the child spans cover all but a sliver of the
// op.
func (c *cellLedger) reconcile() error {
	if c.tracedEngineSelf()+3*c.se < 0 {
		return fmt.Errorf("guest %v + hierarchy %v (standard error %v) exceed engine.Run %v",
			c.apps, c.hier, c.se, c.children["engine.run"])
	}
	if u := c.unattributed(); u < 0 || u > c.op/20+50*time.Microsecond {
		return fmt.Errorf("child spans leave %v of the %v op unattributed", u, c.op)
	}
	return nil
}

// twinJitter is how far the untraced twins' wall may fall short of the
// traced layers outside the engine from host timing noise alone, as a
// share of the twins' wall. One cell's allocation-heavy phases (building
// the hierarchy, lowering) vary by more than that between two runs when
// a GC cycle lands in one of them, so the check is made over a pass.
const twinJitter = 0.10

// reconcileTwins checks that the layers outside the engine, summed over
// cells, fit inside their untraced twins' wall, up to three standard
// errors of the sampled estimate plus the twins' timing jitter: a
// negative engine residual means the wrappers inflate what they time.
func reconcileTwins(cells []*cellLedger) error {
	var twins, outside time.Duration
	var seSq float64
	for _, c := range cells {
		twins += c.untraced
		outside += c.outsideEngine()
		seSq += float64(c.se) * float64(c.se)
	}
	slack := 3*time.Duration(math.Sqrt(seSq)) + time.Duration(twinJitter*float64(twins))
	if twins-outside+slack < 0 {
		return fmt.Errorf("layers outside the engine take %v (standard error %v), more than the untraced twins' %v",
			outside, time.Duration(math.Sqrt(seSq)), twins)
	}
	return nil
}

// runUntracedCell runs a cell as the sweep's own task does (build,
// engine.New, Run, Drain, Verify), without spans or wrappers, and
// returns its wall time.
func runUntracedCell(plan cellPlan) (time.Duration, error) {
	start := time.Now()
	h, gs, verify := plan.prepare(nil, 0)
	_, err := engine.New(h, gs).Run()
	if err == nil {
		h.Drain()
		err = verify(h.Memory())
	}
	return time.Since(start), err
}

// runTracedCell executes one cell's untraced twin and then the cell
// itself under spans and the timing wrappers.
func runTracedCell(tr *tracer, parent int, plan cellPlan) (*cellLedger, error) {
	key := cellKey(plan.workload, plan.config)
	var untraced time.Duration
	var err error
	tr.time(parent, "twin "+key, func() { untraced, err = runUntracedCell(plan) })
	if err != nil {
		return &cellLedger{}, fmt.Errorf("%s: untraced twin: %w", key, err)
	}
	op := tr.begin(parent, "op "+key)
	h, gs, verify := plan.prepare(tr, op)
	led := newLedger(tr.clockCost)
	th := &timedHier{h: h, l: led}
	var e *engine.Engine
	tr.time(op, "engine.new", func() { e = engine.New(th, led.guests(gs)) })
	var before, after runtime.MemStats
	tr.time(op, "bench.memstats", func() { runtime.ReadMemStats(&before) })
	var res *engine.Result
	tr.time(op, "engine.run", func() { res, err = e.Run() })
	tr.time(op, "bench.memstats", func() { runtime.ReadMemStats(&after) })
	c := &cellLedger{result: res, untraced: untraced, apps: time.Duration(led.appsTime()), hier: time.Duration(led.hierTime()),
		se: led.stdErr(), calls: led.calls, classTime: led.classTime(),
		allocBytes: after.TotalAlloc - before.TotalAlloc, gcCycles: after.NumGC - before.NumGC}
	if err == nil {
		c.drain = tr.time(op, "hier.drain", func() { h.Drain() })
		tr.time(op, "apps.verify", func() { err = verify(h.Memory()) })
	}
	c.op = tr.end(op)
	c.children = tr.childTime(op)
	if err != nil {
		return c, fmt.Errorf("%s: %w", key, err)
	}
	return c, nil
}

// sameResult reports whether a traced cell simulated exactly what the
// untraced pass did: cycles, per-category stalls, traffic and op counts.
func sameResult(a, b *engine.Result) bool {
	return a != nil && b != nil && a.Cycles == b.Cycles && a.Stalls == b.Stalls &&
		a.Traffic == b.Traffic && a.Ops == b.Ops
}

// digestSet is the recorded canonical output of a sweep: the document's
// SHA-256 and each run record's, in document order.
type digestSet struct {
	doc   string
	cells []string
	rec   map[string]string
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// recordDigest hashes a run record's canonical JSON (wall time removed).
func recordDigest(r runner.RunRecord) string {
	r.WallMS = 0
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a RunRecord always marshals
	}
	return sha(b)
}

func makeDigests(doc []byte, recs []runner.RunRecord) *digestSet {
	d := &digestSet{doc: sha(doc), rec: map[string]string{}}
	for _, r := range recs {
		k := cellKey(r.Workload, r.Config)
		d.cells = append(d.cells, k)
		d.rec[k] = recordDigest(r)
	}
	return d
}

func (d *digestSet) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "doc %s\n", d.doc)
	for _, k := range d.cells {
		fmt.Fprintf(&b, "%s %s\n", k, d.rec[k])
	}
	return b.Bytes()
}

func readDigests(path string) (*digestSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := parseDigests(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func parseDigests(r io.Reader) (*digestSet, error) {
	d := &digestSet{rec: map[string]string{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			return nil, fmt.Errorf("malformed line %q", sc.Text())
		}
		if k == "doc" {
			d.doc = v
			continue
		}
		d.cells = append(d.cells, k)
		d.rec[k] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if d.doc == "" || len(d.cells) == 0 {
		return nil, fmt.Errorf("no digests")
	}
	return d, nil
}

// check compares a pass's document and records with the recorded
// digests. It returns one verdict per expected cell, in recorded order:
// a cell fails when it is missing, errored, or its record differs. A
// document that differs while every record matches (figures or encoding
// broke) fails every cell.
func (d *digestSet) check(doc []byte, recs []runner.RunRecord) []error {
	got := map[string]runner.RunRecord{}
	for _, r := range recs {
		got[cellKey(r.Workload, r.Config)] = r
	}
	errs := make([]error, len(d.cells))
	bad := 0
	for i, k := range d.cells {
		r, ok := got[k]
		switch {
		case !ok:
			errs[i] = fmt.Errorf("%s: cell missing from the document", k)
		case r.Error != "":
			errs[i] = fmt.Errorf("%s: %s", k, r.Error)
		case recordDigest(r) != d.rec[k]:
			errs[i] = fmt.Errorf("%s: run record differs from the recorded one", k)
		}
		if errs[i] != nil {
			bad++
		}
	}
	if bad == 0 && sha(doc) != d.doc {
		for i, k := range d.cells {
			errs[i] = fmt.Errorf("%s: document digest differs from the recorded one", k)
		}
	}
	return errs
}
