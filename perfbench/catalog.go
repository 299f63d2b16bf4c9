package main

// metricDef names one reported metric. Moves and On record, for a
// per-layer metric, which end-to-end metric a change to that layer
// should move and on which workload — the prediction a later change is
// judged against. BENCHMARK.json lists the same names (catalog_test.go
// keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Moves  string
	On     string
}

// Tail percentiles, fixed per workload: the highest percentile that the
// workload's minimum sample count leaves at least tailMin samples beyond.
var tailQ = map[string]float64{
	"explore-buck": 0.90,
	"scale-filter": 0.90,
	"serve-mixed":  0.99,
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

var perLayer = []metricDef{
	{"explore.eval_busy_s", "s", "lower", "ops_per_s", "explore-buck"},
	{"explore.wave_efficiency", "frac", "higher", "ops_per_s", "explore-buck"},
	{"place.calls", "count", "higher", "ops_per_s", "explore-buck, serve-mixed"},
	{"place.self_s", "s", "lower", "ops_per_s, op_p50_ms / job_tail_ms", "explore-buck / serve-mixed"},
	{"place.self_frac", "frac", "lower", "ops_per_s, op_p50_ms", "explore-buck"},
	{"place.feasible_frac", "frac", "higher", "ops_per_s", "explore-buck"},
	{"drc.check_calls", "count", "higher", "op_p50_ms", "explore-buck"},
	{"drc.self_s", "s", "lower", "op_p50_ms", "explore-buck"},
	{"peec.calls", "count", "higher", "op_p50_ms, ops_per_s", "scale-filter (small on explore-buck)"},
	{"peec.self_s", "s", "lower", "op_p50_ms, ops_per_s", "scale-filter (small on explore-buck)"},
	{"peec.neumann_integrals", "count", "lower", "op_p50_ms, ops_per_s", "scale-filter"},
	{"engine.cache_hit_frac", "frac", "higher", "op_p50_ms, ops_per_s", "scale-filter, explore-buck"},
	{"mna.calls", "count", "higher", "op_p50_ms / job_p50_ms", "scale-filter / serve-mixed"},
	{"mna.self_s", "s", "lower", "op_p50_ms / job_p50_ms", "scale-filter / serve-mixed"},
	{"linalg.factorizations", "count", "lower", "op_p50_ms / job_p50_ms", "scale-filter / serve-mixed"},
	{"linalg.resolves", "count", "higher", "op_p50_ms / job_p50_ms", "scale-filter / serve-mixed"},
	{"linalg.sparse_factor_frac", "frac", "higher", "op_p50_ms", "scale-filter"},
	{"engine.pool_batches", "count", "lower", "ops_per_s", "explore-buck, scale-filter"},
	{"engine.pool_tasks", "count", "higher", "ops_per_s", "explore-buck, scale-filter"},
	{"serve.queue_wait_ms_p50", "ms", "lower", "job_p50_ms", "serve-mixed"},
	{"serve.queue_wait_ms_tail", "ms", "lower", "job_tail_ms", "serve-mixed"},
	{"serve.run_ms_p50", "ms", "lower", "job_p50_ms", "serve-mixed"},
	{"serve.dedup_frac", "frac", "higher", "job_p50_ms", "serve-mixed"},
	{"serve.rejected", "count", "lower", "failed_frac", "serve-mixed"},
	{"serve.edit_p50_ms", "ms", "lower", "(end-to-end edit latency)", "serve-mixed"},
	{"serve.edit_tail_ms", "ms", "lower", "(end-to-end edit latency)", "serve-mixed"},
	{"serve.job_p50_ms", "ms", "lower", "(end-to-end job latency)", "serve-mixed"},
	{"serve.job_tail_ms", "ms", "lower", "(end-to-end job latency)", "serve-mixed"},
	{"session.edit_ms_mean", "ms", "lower", "edit_p50_ms", "serve-mixed"},
	{"session.recheck_ms_mean", "ms", "lower", "edit_p50_ms", "serve-mixed"},
	{"store.append_edit_ms_p50", "ms", "lower", "edit_p50_ms", "serve-mixed"},
	{"store.append_edit_ms_tail", "ms", "lower", "edit_tail_ms", "serve-mixed"},
	{"store.append_job_ms_p50", "ms", "lower", "job_p50_ms", "serve-mixed"},
	{"store.appends", "count", "higher", "edit_p50_ms, edit_tail_ms", "serve-mixed"},
	{"store.busy_s", "s", "lower", "edit_p50_ms, edit_tail_ms", "serve-mixed"},
	{"cluster.forward_overhead_ms_p50", "ms", "lower", "op_p50_ms, op_tail_ms", "serve-mixed"},
	{"cluster.replica_skew", "ratio", "lower", "op_p50_ms, op_tail_ms", "serve-mixed"},
	{"loadgen.late_ms_tail", "ms", "lower", "(validity of the run)", "serve-mixed"},
	{"trace.overhead_frac", "frac", "lower", "(validity of the run)", "all"},
	{"trace.unaccounted_frac", "frac", "lower", "(validity of the run)", "all"},
	{"trace.dropped_spans", "count", "lower", "(validity of the run)", "all"},
	{"failed_frac", "frac", "lower", "(correctness)", "all"},
}
