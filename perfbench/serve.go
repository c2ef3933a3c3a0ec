package main

// The serve workload: an in-process hicserve behind httptest, driven by
// one closed-loop client that waits for each result before sending the
// next request. The request stream is generated from the seed (see
// serveStream): test-scale intra and inter sweeps with varying workload
// subsets and seed salts. Each pass replays the stream on a fresh
// memory-only server, so every pass sees the same sequence.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	hic "repro"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
)

// Request classes, by what the server can reuse.
const (
	classStoreHit = "store-hit" // identical to an earlier request
	classCellHit  = "cell-hit"  // new address, every cell already simulated
	classCold     = "cold"      // fresh salt: every cell simulates
)

const (
	// serveRounds is how many rounds one pass of the stream holds.
	serveRounds = 4
	// servePoll is the client's status poll interval: short enough that
	// latency measures the server, not the poll cadence (the thin
	// client's default is 50 ms).
	servePoll = time.Millisecond
	// serveMinPasses gives the store-hit percentiles their sample count.
	serveMinPasses = 2
	// serveSetupReps is how many times a run times a server start before
	// each pass (see sweepSetupReps).
	serveSetupReps = 16
)

type serveReq struct {
	req   serve.Request
	class string
	// cells is how many simulation cells the request covers.
	cells int
}

// id identifies a request's content (what the server's address covers).
func (s serveReq) id() string {
	return fmt.Sprintf("%s|%s|%d|%s", s.req.Suite, strings.Join(s.req.Workloads, ","), s.req.Seed, s.req.Version)
}

// refKey identifies a request's document bytes: the seed salt changes
// the address but not the document.
func (s serveReq) refKey() string {
	return fmt.Sprintf("%s|%s|%s", s.req.Suite, strings.Join(s.req.Workloads, ","), s.req.Version)
}

func suiteConfigs(suite string) int {
	if suite == "intra" {
		return len(hic.IntraConfigs)
	}
	return len(hic.InterModes)
}

// subsets lists the k-element subsets of xs, in order.
func subsets(xs []string, k int) [][]string {
	if k == 0 {
		return [][]string{nil}
	}
	var out [][]string
	for i := 0; i+k <= len(xs); i++ {
		for _, rest := range subsets(xs[i+1:], k-1) {
			out = append(out, append([]string{xs[i]}, rest...))
		}
	}
	return out
}

// reuseSlot is a cell-hit or store-hit request waiting for its place in
// a round.
type reuseSlot struct {
	class string
	// suite and size shape a cell-hit request; target is the class a
	// store hit repeats.
	suite  string
	size   int
	target string
}

// serveStream generates the seed's request stream. It is made of
// rounds. Each round draws a fresh seed salt and sends every test-scale
// workload once as a cold single-workload request under it, so every
// seed simulates the same cells. Between them come as many cell-hit
// requests — a new address covering a 2- or 3-workload subset of the
// round's already simulated workloads of one suite, under the v2 or v1
// envelope — and as many store-hit requests, each an exact repeat of an
// earlier cold or cell-hit request of the round. The seed picks the
// order, the subsets and the repeats; the class counts and request sizes
// are the same for every seed, and so is the latency mix. The equal
// split between the classes is an assumption: the repository holds no
// request log to draw it from.
func serveStream(seed uint64) []serveReq {
	rng := rand.New(rand.NewPCG(seed, 0x7365727665))
	suites := map[string][]string{}
	for _, w := range hic.IntraWorkloads(hic.ScaleTest) {
		suites["intra"] = append(suites["intra"], w.Name)
	}
	for _, w := range hic.InterWorkloads(hic.ScaleTest) {
		suites["inter"] = append(suites["inter"], w.Name)
	}
	type cold struct{ suite, workload string }
	var colds []cold
	for _, suite := range []string{"intra", "inter"} {
		for _, w := range suites[suite] {
			colds = append(colds, cold{suite, w})
		}
	}

	var out []serveReq
	issued := map[string]bool{}
	salt := 1 + rng.Int64N(1<<40)
	for round := 0; round < serveRounds; round++ {
		salt++
		computed := map[string][]string{}
		emitted := map[string][]serveReq{}
		emit := func(s serveReq) {
			issued[s.id()] = true
			emitted[s.class] = append(emitted[s.class], s)
			out = append(out, s)
		}
		// place emits a reuse slot, or reports that nothing it could
		// reuse has been simulated yet.
		place := func(r reuseSlot) bool {
			if r.class == classStoreHit {
				from := emitted[r.target]
				if len(from) == 0 {
					return false
				}
				s := from[rng.IntN(len(from))]
				s.class = classStoreHit
				emit(s)
				return true
			}
			var cands []serveReq
			for _, ws := range subsets(computed[r.suite], r.size) {
				for _, v := range []string{"v2", "v1"} {
					s := serveReq{req: serve.Request{Suite: r.suite, Workloads: ws, Seed: salt, Version: v},
						class: classCellHit, cells: len(ws) * suiteConfigs(r.suite)}
					if !issued[s.id()] {
						cands = append(cands, s)
					}
				}
			}
			if len(cands) == 0 {
				return false
			}
			emit(cands[rng.IntN(len(cands))])
			return true
		}

		order := rng.Perm(len(colds))
		var slots []reuseSlot
		for i := range colds {
			suite := "intra"
			if i >= len(suites["intra"]) {
				suite = "inter"
			}
			target := classCold
			if i%2 == 1 {
				target = classCellHit
			}
			slots = append(slots, reuseSlot{class: classCellHit, suite: suite, size: 2 + i%2},
				reuseSlot{class: classStoreHit, target: target})
		}
		for range colds {
			slots = append(slots, reuseSlot{class: classCold})
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		// A reuse slot with nothing to reuse yet waits for the next cold
		// request.
		var deferred []reuseSlot
		for _, slot := range slots {
			if slot.class != classCold {
				if !place(slot) {
					deferred = append(deferred, slot)
				}
				continue
			}
			c := colds[order[0]]
			order = order[1:]
			computed[c.suite] = sortedCopy(append(computed[c.suite], c.workload))
			emit(serveReq{req: serve.Request{Suite: c.suite, Workloads: []string{c.workload}, Seed: salt, Version: "v2"},
				class: classCold, cells: suiteConfigs(c.suite)})
			var still []reuseSlot
			for _, d := range deferred {
				if !place(d) {
					still = append(still, d)
				}
			}
			deferred = still
		}
		if len(deferred) > 0 {
			panic(fmt.Sprintf("serve stream: %d reuse requests could not be placed", len(deferred)))
		}
	}
	return out
}

// streamMix counts the stream's requests and cells by class.
func streamMix(stream []serveReq) (reqs, cells map[string]int) {
	reqs, cells = map[string]int{}, map[string]int{}
	for _, s := range stream {
		reqs[s.class]++
		if s.class != classStoreHit {
			cells[s.class] += s.cells
		}
	}
	return reqs, cells
}

// serveRef is the locally computed document for a request.
type serveRef struct {
	digest string
	// ops is the simulated guest op count of the request's cells.
	ops    int64
	encode time.Duration
}

// localDoc computes a request's document in this process, without any
// cache, exactly as the equivalent CLI run would.
func localDoc(ctx context.Context, req serve.Request) (*serveRef, error) {
	opts := []hic.Option{hic.WithParallel(1), hic.WithOnly(req.Workloads...)}
	var document func(hic.Scale) *runner.Document
	var raw map[string]map[string]*hic.Result
	if req.Suite == "intra" {
		res, err := hic.RunIntra(ctx, hic.ScaleTest, opts...)
		if err != nil {
			return nil, fmt.Errorf("local intra sweep of %v: %w", req.Workloads, err)
		}
		document, raw = res.Document, res.Raw
	} else {
		res, err := hic.RunInter(ctx, hic.ScaleTest, opts...)
		if err != nil {
			return nil, fmt.Errorf("local inter sweep of %v: %w", req.Workloads, err)
		}
		document, raw = res.Document, res.Raw
	}
	start := time.Now()
	doc := document(hic.ScaleTest)
	if req.Version == "v1" {
		doc = doc.LegacyV1()
	}
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		return nil, err
	}
	ref := &serveRef{digest: sha(buf.Bytes()), encode: time.Since(start)}
	for _, byCfg := range raw {
		for _, r := range byCfg {
			for _, n := range r.Ops {
				ref.ops += n
			}
		}
	}
	return ref, nil
}

// serveOp is one request's client-side outcome.
type serveOp struct {
	submit, wait, result, normalize time.Duration
	digest                          string
	hit                             bool
	rejected                        bool
	err                             error
}

func (o *serveOp) total() time.Duration { return o.submit + o.wait + o.result }

// servePass is one replay of the stream on a fresh server.
type servePass struct {
	wall     time.Duration
	ops      []serveOp
	counters map[string]int64
}

// startServer starts a memory-only server with one job worker and one
// sweep worker behind httptest, and waits for its first answer.
func startServer() (*serve.Server, *httptest.Server, error) {
	srv, err := serve.New(serve.Config{Workers: 1, Parallel: 1})
	if err != nil {
		return nil, nil, fmt.Errorf("starting server: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		ts.Close()
		srv.Close()
		return nil, nil, fmt.Errorf("server health check: %w", err)
	}
	return srv, ts, nil
}

// timeServerStart starts and stops a server reps times and appends each
// start time, in seconds, to ds.
func timeServerStart(ds []float64, reps int) ([]float64, error) {
	for i := 0; i < reps; i++ {
		start := time.Now()
		srv, ts, err := startServer()
		if err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(start).Seconds())
		ts.Close()
		srv.Close()
	}
	return ds, nil
}

// runServePass starts a server, replays the stream through one
// closed-loop client, reads the server's counters and stops the server.
// With a tracer it also times request normalization and records a span
// per request and phase.
func runServePass(ctx context.Context, stream []serveReq, tr *tracer, parent int) (*servePass, error) {
	srv, ts, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	defer ts.Close()
	c := &serve.Client{BaseURL: ts.URL, HTTP: ts.Client(), PollInterval: servePoll}

	p := &servePass{}
	start := time.Now()
	for _, s := range stream {
		p.ops = append(p.ops, serveOne(ctx, c, s, tr, parent))
	}
	p.wall = time.Since(start)

	resp, err := ts.Client().Get(ts.URL + "/v2/metrics")
	if err != nil {
		return nil, fmt.Errorf("reading server metrics: %w", err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding server metrics: %w", err)
	}
	p.counters = snap.Counters
	return p, nil
}

// serveOne runs one submit, wait, result cycle.
func serveOne(ctx context.Context, c *serve.Client, s serveReq, tr *tracer, parent int) serveOp {
	var o serveOp
	phase := func(name string, f func()) time.Duration {
		if tr != nil {
			return tr.time(parent, name, f)
		}
		t := time.Now()
		f()
		return time.Since(t)
	}
	if tr != nil {
		id := tr.begin(parent, "request "+s.class)
		defer tr.end(id)
		parent = id
		o.normalize = phase("serve.normalize", func() {
			r := s.req
			if err := r.Normalize(); err == nil {
				r.Key()
			}
		})
	}
	var reply serve.SubmitReply
	var err error
	o.submit = phase("serve.submit", func() { reply, err = c.Submit(ctx, s.req) })
	if err != nil {
		var se *serve.StatusError
		o.rejected = errors.As(err, &se) && se.Code == http.StatusTooManyRequests
		o.err = fmt.Errorf("%s request %s: submit: %w", s.class, s.id(), err)
		return o
	}
	o.hit = reply.Cache == "hit"
	var st serve.Status
	o.wait = phase("serve.wait", func() { st, err = c.Wait(ctx, reply.ID) })
	if err == nil && st.State != serve.JobDone {
		err = fmt.Errorf("job %s: %s", st.State, st.Error)
	}
	if err != nil {
		o.err = fmt.Errorf("%s request %s: wait: %w", s.class, s.id(), err)
		return o
	}
	var data []byte
	o.result = phase("serve.result", func() { data, err = c.Result(ctx, reply.ID) })
	if err != nil {
		o.err = fmt.Errorf("%s request %s: result: %w", s.class, s.id(), err)
		return o
	}
	o.digest = sha(data)
	return o
}

// serveChecker verifies passes against locally computed documents,
// computing each distinct document once.
type serveChecker struct {
	refs map[string]*serveRef
}

func (c *serveChecker) ref(ctx context.Context, s serveReq) (*serveRef, error) {
	if r, ok := c.refs[s.refKey()]; ok {
		return r, nil
	}
	r, err := localDoc(ctx, s.req)
	if err != nil {
		return nil, err
	}
	c.refs[s.refKey()] = r
	return r, nil
}

// check returns one verdict per request: its own outcome, its bytes
// against the local document, whether the server's store answered
// exactly the requests that repeat an earlier one, and whether the
// server's counters match the stream's mix.
func (c *serveChecker) check(ctx context.Context, stream []serveReq, p *servePass) ([]error, error) {
	reqs, cells := streamMix(stream)
	var passErr error
	want := map[string]int64{
		"serve.store.hits":   int64(reqs[classStoreHit]),
		"serve.cells.hits":   int64(cells[classCellHit]),
		"serve.cells.misses": int64(cells[classCold]),
	}
	for k, v := range want {
		if p.counters[k] != v {
			passErr = fmt.Errorf("server counter %s = %d, stream predicts %d", k, p.counters[k], v)
		}
	}
	errs := make([]error, len(stream))
	for i, s := range stream {
		o := p.ops[i]
		ref, err := c.ref(ctx, s)
		if err != nil {
			return nil, err
		}
		switch {
		case o.err != nil:
			errs[i] = o.err
		case o.digest != ref.digest:
			errs[i] = fmt.Errorf("%s request %s: served document differs from the local one", s.class, s.id())
		case o.hit != (s.class == classStoreHit):
			errs[i] = fmt.Errorf("%s request %s: server answered with cache %v", s.class, s.id(), o.hit)
		default:
			errs[i] = passErr
		}
	}
	return errs, nil
}

// simulatedOps is the guest op count the server simulates per pass: the
// cells of cold requests (every other request is served from a cache).
func (c *serveChecker) simulatedOps(stream []serveReq) int64 {
	var n int64
	for _, s := range stream {
		if s.class == classCold {
			n += c.refs[s.refKey()].ops
		}
	}
	return n
}

func noteMix(r *report, stream []serveReq) {
	reqs, cells := streamMix(stream)
	n := len(stream)
	r.note("request mix per pass: %d store-hit (%.0f%%), %d cell-hit-only (%.0f%%, %d cells), %d cold (%.0f%%, %d cells) of %d",
		reqs[classStoreHit], 100*float64(reqs[classStoreHit])/float64(n),
		reqs[classCellHit], 100*float64(reqs[classCellHit])/float64(n), cells[classCellHit],
		reqs[classCold], 100*float64(reqs[classCold])/float64(n), cells[classCold], n)
}

// runServe is an untraced serve run. The class mix of the stream is an
// assumption (no request log exists to draw it from), so the latency
// metrics are per class and do not depend on it: op_* are cold
// requests, hit_* store hits, and sim_ops_per_s is the cold requests'
// guest ops over their own latency. Only wall_s weighs the classes, by
// their counts in the stream.
func runServe(ctx context.Context, o options) (*report, error) {
	stream := serveStream(o.seed)
	chk := &serveChecker{refs: map[string]*serveRef{}}
	r := newReport("serve", false)
	b := &passBudget{deadline: time.Now().Add(o.seconds), min: serveMinPasses}
	var m stealMeter
	var setups, walls, cold, cellHits, hits, rates []float64
	for b.another() {
		if err := m.start(); err != nil {
			return nil, err
		}
		set, err := timeServerStart(nil, serveSetupReps)
		if err != nil {
			return nil, err
		}
		p, err := runServePass(ctx, stream, nil, 0)
		if err != nil {
			return nil, err
		}
		k, err := m.stop()
		if err != nil {
			return nil, err
		}
		b.done(p.wall)
		errs, err := chk.check(ctx, stream, p)
		if err != nil {
			return nil, err
		}
		var coldTime time.Duration
		for i, e := range errs {
			r.op(e)
			d := ms(p.ops[i].total()) * k
			switch stream[i].class {
			case classCold:
				cold = append(cold, d)
				coldTime += p.ops[i].total()
			case classCellHit:
				cellHits = append(cellHits, d)
			case classStoreHit:
				hits = append(hits, d)
			}
		}
		setups = append(setups, scaled(set, k)...)
		walls = append(walls, p.wall.Seconds()*k)
		rates = append(rates, float64(chk.simulatedOps(stream))/(coldTime.Seconds()*k))
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["wall_s"] = median(walls)
	r.metrics["sim_ops_per_s"] = median(rates)
	r.latencies(cold, hits)
	c := summarize(cellHits)
	r.note("cell-hit-only latency (not a metric): p50 %.4f ms, p90 %.4f ms over %d samples", c.P50, c.P90, c.N)
	r.note("%d passes of %d requests; ops are cold requests, hits store-hit requests; sim_ops_per_s is the cold requests' guest ops over their latency; raw pass walls %.3f s",
		len(b.walls), len(stream), durationsS(b.walls))
	noteMix(r, stream)
	noteSteal(r, &m)
	return r, nil
}

// traceServe is a traced serve run: one untraced pass for reference,
// then passes with spans per request and phase until the time is up.
// Times are reported per request or per pass.
func traceServe(ctx context.Context, o options, tr *tracer) (*report, error) {
	stream := serveStream(o.seed)
	chk := &serveChecker{refs: map[string]*serveRef{}}
	r := newReport("serve", true)
	b := &passBudget{deadline: time.Now().Add(o.seconds), min: 1}
	var passes []*servePass
	var ids []int
	for len(passes) == 0 || b.another() {
		name, t := "pass untraced", (*tracer)(nil)
		if len(passes) > 0 {
			name, t = "pass traced", tr
		}
		id := tr.begin(0, name)
		p, err := runServePass(ctx, stream, t, id)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		errs, err := chk.check(ctx, stream, p)
		if err != nil {
			return nil, err
		}
		for _, e := range errs {
			r.op(e)
		}
		if len(passes) > 0 {
			b.done(p.wall)
			ids = append(ids, id)
		}
		passes = append(passes, p)
	}
	u, traced := passes[0], passes[1:]

	var norm, submit, wait, result, wall, reqs, inside time.Duration
	var rejected, n int
	for i, p := range traced {
		wall += p.wall
		for _, op := range p.ops {
			norm += op.normalize
			submit += op.submit
			wait += op.wait
			result += op.result
			if op.rejected {
				rejected++
			}
			n++
		}
		for _, s := range tr.spans[ids[i]:] {
			switch {
			case s.Parent == ids[i]:
				reqs += time.Duration(s.Dur)
			case s.Parent > ids[i] && tr.spans[s.Parent-1].Parent == ids[i]:
				inside += time.Duration(s.Dur)
			}
		}
	}
	var encode time.Duration
	for _, ref := range chk.refs {
		encode += ref.encode
	}
	m := r.metrics
	ctr := traced[len(traced)-1].counters
	store := ratio{float64(ctr["serve.store.hits"]), float64(ctr["serve.store.hits"] + ctr["serve.store.misses"])}
	cellHits := ratio{float64(ctr["serve.cells.hits"]), float64(ctr["serve.cells.hits"] + ctr["serve.cells.misses"])}
	m["serve.normalize_us"] = us(norm) / float64(n)
	m["serve.submit_ms"] = ms(submit) / float64(n)
	m["serve.wait_ms"] = ms(wait) / float64(n)
	m["serve.result_ms"] = ms(result) / float64(n)
	m["serve.store_hit_ratio"] = store.Value()
	m["serve.store_entries"] = float64(ctr["serve.store.entries"])
	m["serve.rejected"] = float64(ctr["serve.rejected.queue_full"] + ctr["serve.rejected.tenant_limit"])
	m["runner.cell_hits"] = float64(ctr["serve.cells.hits"])
	m["runner.cell_misses"] = float64(ctr["serve.cells.misses"])
	m["runner.cell_hit_ratio"] = cellHits.Value()
	m["envelope.encode_ms"] = ms(encode) / float64(len(chk.refs))
	m["ledger.unattributed_share"] = ratio{(reqs - inside).Seconds(), reqs.Seconds()}.Value()
	m["trace.overhead"] = wall.Seconds()/float64(len(traced)) - u.wall.Seconds()
	r.note("%d traced passes; serve.store_hit_ratio %s; runner.cell_hit_ratio %s; client-side 429s %d",
		len(traced), store, cellHits, rejected)
	r.note("envelope.encode_ms is the mean local Document+Encode time over %d distinct documents", len(chk.refs))
	noteMix(r, stream)
	return r, nil
}
