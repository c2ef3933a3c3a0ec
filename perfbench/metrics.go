package main

// metricDef is one metric the benchmark reports, as declared in
// BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run, reported for every
// workload. The error rate is not among them: it is 0 on a correct
// tree, and the result line carries it as its attempted and failed
// counts instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"sim_ops_per_s", "1/s", "higher"},
	{"hit_p50_ms", "ms", "lower"},
	{"hit_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// hierClasses names the hierarchy call classes counted by the ledger, in
// the order of the callClass constants.
var hierClasses = []string{"load", "store", "wb", "inv", "wball", "invall", "wbcons", "invprod", "sync", "other"}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"engine.self_s", "s", "lower"},
		{"engine.share", "ratio", "lower"},
		{"engine.ns_per_op", "ns", "lower"},
		{"engine.new_us", "us", "lower"},
		{"engine.alloc_mb", "MB", "lower"},
		{"engine.gc_cycles", "count", "lower"},
		{"core.self_s", "s", "lower"},
		{"mesi.self_s", "s", "lower"},
		{"core.share", "ratio", "lower"},
		{"mesi.share", "ratio", "lower"},
	}
	for _, c := range hierClasses {
		defs = append(defs, metricDef{"core.calls." + c, "count", "lower"})
	}
	return append(defs, []metricDef{
		{"core.ns_per_access", "ns", "lower"},
		{"core.ns_per_wbinv", "ns", "lower"},
		{"mesi.ns_per_access", "ns", "lower"},
		{"hier.new_us", "us", "lower"},
		{"apps.self_s", "s", "lower"},
		{"apps.share", "ratio", "lower"},
		{"apps.build_ms", "ms", "lower"},
		{"apps.verify_ms", "ms", "lower"},
		{"compiler.lower_ms", "ms", "lower"},
		{"runner.overhead_ms", "ms", "lower"},
		{"runner.cell_hits", "count", "higher"},
		{"runner.cell_misses", "count", "lower"},
		{"runner.cell_hit_ratio", "ratio", "higher"},
		{"envelope.encode_ms", "ms", "lower"},
		{"litmus.enumerate_s", "s", "lower"},
		{"litmus.explore_s", "s", "lower"},
		{"litmus.runs", "count", "lower"},
		{"litmus.schedules", "count", "lower"},
		{"litmus.dedup_cuts", "count", "lower"},
		{"litmus.states_seen", "count", "lower"},
		{"litmus.schedules_per_run", "ratio", "higher"},
		{"litmus.us_per_run", "us", "lower"},
		{"serve.normalize_us", "us", "lower"},
		{"serve.submit_ms", "ms", "lower"},
		{"serve.wait_ms", "ms", "lower"},
		{"serve.result_ms", "ms", "lower"},
		{"serve.store_hit_ratio", "ratio", "higher"},
		{"serve.store_entries", "count", "lower"},
		{"serve.rejected", "count", "lower"},
		{"ledger.unattributed_share", "ratio", "lower"},
		{"trace.overhead", "s", "lower"},
	}...)
}()
