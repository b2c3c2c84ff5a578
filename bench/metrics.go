package main

// metricDef describes one reported metric. The tables below and
// BENCHMARK.json list the same metrics; a test keeps them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the system sees, each measured with
// tracing off on every workload. Bound is the share of the parent's median by
// which the metric may worsen before a change counts as a regression. One
// bound serves all four workloads and the two-core sandbox's speed moves with
// its neighbours (a fixed spin loop on an otherwise idle host varied by 15 %,
// a fixed memory walk by 80 %), so every metric but the byte count takes the
// largest bound the contract allows: over ten seeds on a quiet host the quartile spread of
// the timed metrics is 2 to 4 % (query_p95_ms up to 9 % on fed_map), and in
// a noisy stretch they all move together by 10 to 30 %. README.md has the
// sets measured.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"io_bytes_per_query", "B", "lower", 0.03},
}

// perLayer are the metrics of single layers, measured by the traced pass.
// The part of a name before the dot is the module the number belongs to. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"gmql.parse_ms", "ms", "lower", 0},
	{"gmql.plan_ms", "ms", "lower", 0},
	{"gmql.materialize_overhead_ms", "ms", "lower", 0},
	{"gmql.process_start_ms", "ms", "lower", 0},
	{"engine.optimize_ms", "ms", "lower", 0},
	{"engine.eval_ms", "ms", "lower", 0},
	{"engine.eval_serial_ms", "ms", "lower", 0},
	{"engine.eval_batch_ms", "ms", "lower", 0},
	{"engine.eval_allocs", "count", "lower", 0},
	{"engine.eval_alloc_bytes", "B", "lower", 0},
	{"engine.select_ms", "ms", "lower", 0},
	{"engine.map_ms", "ms", "lower", 0},
	{"engine.join_ms", "ms", "lower", 0},
	{"engine.cover_ms", "ms", "lower", 0},
	{"engine.map_allocs", "count", "lower", 0},
	{"engine.join_allocs", "count", "lower", 0},
	{"engine.cover_allocs", "count", "lower", 0},
	{"engine.regions_in", "count", "lower", 0},
	{"engine.regions_out", "count", "higher", 0},
	{"intervals.sweep_ms", "ms", "lower", 0},
	{"obs.profiled_overhead_frac", "frac", "lower", 0},
	{"gdm.clone_ms", "ms", "lower", 0},
	{"formats.encode_ms", "ms", "lower", 0},
	{"formats.decode_ms", "ms", "lower", 0},
	{"formats.encode_bytes", "B", "lower", 0},
	{"formats.load_columnar_ms", "ms", "lower", 0},
	{"formats.load_text_ms", "ms", "lower", 0},
	{"formats.load_allocs", "count", "lower", 0},
	{"formats.pruned_read_ms", "ms", "lower", 0},
	{"formats.write_columnar_ms", "ms", "lower", 0},
	{"formats.write_text_ms", "ms", "lower", 0},
	{"formats.write_bytes", "B", "lower", 0},
	{"formats.bytes_per_region", "B", "lower", 0},
	{"catalog.parts_consulted", "count", "lower", 0},
	{"catalog.parts_skipped", "count", "higher", 0},
	{"catalog.regions_skipped", "count", "higher", 0},
	{"catalog.skip_ratio", "frac", "higher", 0},
	{"federation.execute_ms", "ms", "lower", 0},
	{"federation.fetch_ms", "ms", "lower", 0},
	{"federation.release_ms", "ms", "lower", 0},
	{"federation.server_query_ms", "ms", "lower", 0},
	{"federation.server_results_ms", "ms", "lower", 0},
	{"federation.request_overhead_ms", "ms", "lower", 0},
	{"federation.wire_overhead_ms", "ms", "lower", 0},
	{"federation.chunks_per_query", "count", "lower", 0},
	{"federation.leg_max_ms", "ms", "lower", 0},
	{"federation.leg_skew_frac", "frac", "lower", 0},
	{"federation.merge_ms", "ms", "lower", 0},
	{"federation.bytes_moved", "B", "lower", 0},
	{"gmqld.boot_ms", "ms", "lower", 0},
	{"gmqld.boot_rss_mb", "MB", "lower", 0},
	{"synth.generate_ms", "ms", "lower", 0},
	{"synth.regions", "count", "higher", 0},
	{"op.select_meta_p50_ms", "ms", "lower", 0},
	{"op.select_chr_p50_ms", "ms", "lower", 0},
	{"op.join_dle_p50_ms", "ms", "lower", 0},
	{"op.cover_hist_p50_ms", "ms", "lower", 0},
	{"op.map_user_p50_ms", "ms", "lower", 0},
	{"bench.traced_op_ms", "ms", "lower", 0},
	{"bench.trace_overhead_frac", "frac", "lower", 0},
	{"bench.unattributed_ms", "ms", "lower", 0},
}
