package main

// metricDef names one metric of BENCHMARK.json; the tests check the two
// lists below against that file.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median a metric may worsen by; end-to-end only
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them; README.md says what each
// means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"topk_p50_ms", "ms", "lower", 0.25},
	{"topk_p99_ms", "ms", "lower", 0.25},
	{"first_query_ms", "ms", "lower", 0.25},
	{"precision_at_10", "fraction", "higher", 0.02},
	{"heap_bytes_per_entity", "B", "lower", 0.05},
}

// workloadOnly are end-to-end metrics one workload alone has. The driver's
// contract wants every end-to-end metric from every workload, so these stay
// out of BENCHMARK.json; the program prints them and -aa holds them to
// their bounds.
var workloadOnly = map[string][]metricDef{
	wlHTTPMixed: {{"http_agg_p50_ms", "ms", "lower", 0.25}},
	wlUpdateWAL: {{"upd_write_p50_ms", "ms", "lower", 0.25}},
}

// perLayer are the metrics of single layers, from the traced run (-trace 1).
// They carry no bound. A layer a workload does not enter reports 0: serve
// and wire outside http-mixed, persist and the write metrics outside
// update-wal.
var perLayer = []metricDef{
	// rtree walk: should move topk_p50_ms and ops_per_s on topk-large.
	{Name: "rtree.gather_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "rtree.walk_warm_us", Unit: "us", Better: "lower"},
	{Name: "rtree.walk_nodes_per_query", Unit: "count", Better: "lower"},
	{Name: "rtree.walk_points_per_query", Unit: "count", Better: "lower"},
	// rtree crack: should move first_query_ms and ops_per_s on cold-crack.
	{Name: "rtree.crack_first_ms", Unit: "ms", Better: "lower"},
	{Name: "rtree.crack_us_per_split", Unit: "us", Better: "lower"},
	{Name: "rtree.splits", Unit: "count", Better: "lower"},
	{Name: "rtree.nodes_created", Unit: "count", Better: "lower"},
	{Name: "jl.apply_ns", Unit: "ns", Better: "lower"},
	// core top-k and allocation.
	{Name: "core.do_topk_us", Unit: "us", Better: "lower"},
	{Name: "core.self_us", Unit: "us", Better: "lower"},
	{Name: "core.examined_per_query", Unit: "count", Better: "lower"},
	{Name: "core.pruned_per_query", Unit: "count", Better: "higher"},
	{Name: "core.node_access_per_query", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_query", Unit: "B", Better: "lower"},
	// core cache and coalescing.
	{Name: "core.do_cachehit_us", Unit: "us", Better: "lower"},
	{Name: "core.cache_hit_rate", Unit: "fraction", Better: "higher"},
	{Name: "core.coalesced", Unit: "count", Better: "higher"},
	// core aggregates.
	{Name: "core.agg_us", Unit: "us", Better: "lower"},
	{Name: "core.agg_points_accessed_per_query", Unit: "count", Better: "lower"},
	{Name: "core.agg_ball_points_per_query", Unit: "count", Better: "lower"},
	// core writes and locks.
	{Name: "core.insert_entity_us", Unit: "us", Better: "lower"},
	{Name: "core.add_fact_us", Unit: "us", Better: "lower"},
	{Name: "core.crack_write_lock_ms_total", Unit: "ms", Better: "lower"},
	{Name: "core.write_lock_wait_ms_total", Unit: "ms", Better: "lower"},
	{Name: "core.wal_bytes_per_mutation", Unit: "B", Better: "lower"},
	{Name: "core.wal_appended_records", Unit: "count", Better: "lower"},
	{Name: "vkg.do_topk_us", Unit: "us", Better: "lower"},
	{Name: "vkg.self_us", Unit: "us", Better: "lower"},
	{Name: "vkg.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_topk_us", Unit: "us", Better: "lower"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "wire.self_us", Unit: "us", Better: "lower"},
	{Name: "wire.request_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.response_bytes", Unit: "B", Better: "lower"},
	{Name: "persist.save_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.snapshot_bytes_per_entity", Unit: "B", Better: "lower"},
	{Name: "persist.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.replayed_records", Unit: "count", Better: "lower"},
	{Name: "persist.wal_bytes", Unit: "B", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}
