package main

// metricDecl declares one reported metric.  BENCHMARK.json carries the same
// list (bench_test.go keeps the two equal); bench/README.md says which
// end-to-end metric each per-layer metric should move, and on which workload.
type metricDecl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// Times are in reference-speed units (see refkernel.go) unless named raw.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"round_ms", "ms", "lower", 0.20},
	{"advance_ms", "ms", "lower", 0.20},
	{"query_pass_ms", "ms", "lower", 0.20},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"alloc_mb_per_round", "MB", "lower", 0.20},
	{"result_f1", "ratio", "higher", 0.05},
}

var perLayer = []metricDecl{
	// core build: BuildInfo durations of the cold build.
	{name: "core.build_ms", unit: "ms", better: "lower"},
	{name: "core.build_cluster_ms", unit: "ms", better: "lower"},
	{name: "core.build_symex_ms", unit: "ms", better: "lower"},
	{name: "core.build_summary_ms", unit: "ms", better: "lower"},
	{name: "core.build_index_ms", unit: "ms", better: "lower"},
	// core advance: spans around Append/Advance and StreamStats.Last*Phase.
	{name: "core.append_us", unit: "us", better: "lower"},
	{name: "core.advance_slide_ms", unit: "ms", better: "lower"},
	{name: "core.advance_refit_ms", unit: "ms", better: "lower"},
	{name: "core.advance_index_ms", unit: "ms", better: "lower"},
	{name: "core.advance_planner_ms", unit: "ms", better: "lower"},
	{name: "core.advance_other_ms", unit: "ms", better: "lower"},
	{name: "core.advance_p90_ms", unit: "ms", better: "lower"},
	// core query: one span per call of the pass, bucketed by what served it.
	{name: "core.query_index_interval_ms", unit: "ms", better: "lower"},
	{name: "core.query_index_topk_ms", unit: "ms", better: "lower"},
	{name: "core.query_index_location_ms", unit: "ms", better: "lower"},
	{name: "core.query_affine_interval_ms", unit: "ms", better: "lower"},
	{name: "core.query_naive_interval_ms", unit: "ms", better: "lower"},
	{name: "core.query_naive_topk_ms", unit: "ms", better: "lower"},
	{name: "core.query_compute_ms", unit: "ms", better: "lower"},
	{name: "core.query_auto_ms", unit: "ms", better: "lower"},
	{name: "core.query_batch_ms", unit: "ms", better: "lower"},
	{name: "core.query_call_p90_ms", unit: "ms", better: "lower"},
	{name: "core.explain_overhead_ratio", unit: "ratio", better: "lower"},
	// core snapshot.
	{name: "core.snapshot_write_ms", unit: "ms", better: "lower"},
	{name: "core.snapshot_restore_ms", unit: "ms", better: "lower"},
	{name: "core.restore_vs_build_ratio", unit: "ratio", better: "lower"},
	// dataset, workload.
	{name: "dataset.generate_ms", unit: "ms", better: "lower"},
	{name: "workload.ticks_ms", unit: "ms", better: "lower"},
	// timeseries.
	{name: "timeseries.slide_copy_ms", unit: "ms", better: "lower"},
	// cluster.
	{name: "cluster.run_ms", unit: "ms", better: "lower"},
	{name: "cluster.iterations_count", unit: "count", better: "lower"},
	// symex, affine, lsfd.
	{name: "symex.compute_ms", unit: "ms", better: "lower"},
	{name: "symex.refit_full_ms", unit: "ms", better: "lower"},
	{name: "symex.refit_stale_ms", unit: "ms", better: "lower"},
	{name: "symex.refit_ratio", unit: "ratio", better: "lower"},
	{name: "symex.pinv_hit_ratio", unit: "ratio", better: "higher"},
	{name: "affine.fit_us", unit: "us", better: "lower"},
	{name: "affine.propagate_ns", unit: "ns", better: "lower"},
	{name: "lsfd.distance_us", unit: "us", better: "lower"},
	// scape.
	{name: "scape.build_ms", unit: "ms", better: "lower"},
	{name: "scape.update_ms", unit: "ms", better: "lower"},
	{name: "scape.update_fallback_ratio", unit: "ratio", better: "lower"},
	{name: "scape.entries_mutated_per_epoch", unit: "count", better: "lower"},
	{name: "scape.stores_shared_ratio", unit: "ratio", better: "higher"},
	{name: "scape.scratch_hit_ratio", unit: "ratio", better: "higher"},
	{name: "scape.pair_interval_ms", unit: "ms", better: "lower"},
	{name: "scape.pair_topk_ms", unit: "ms", better: "lower"},
	{name: "scape.topk_examined_per_result", unit: "count", better: "lower"},
	{name: "scape.estimate_selectivity_us", unit: "us", better: "lower"},
	// btree.
	{name: "btree.from_sorted_ns_per_key", unit: "ns", better: "lower"},
	{name: "btree.insert_ns", unit: "ns", better: "lower"},
	{name: "btree.delete_ns", unit: "ns", better: "lower"},
	{name: "btree.clone_mutate_ns", unit: "ns", better: "lower"},
	{name: "btree.rank_ns", unit: "ns", better: "lower"},
	// kernel, baseline.
	{name: "kernel.from_data_ms", unit: "ms", better: "lower"},
	{name: "kernel.moments_ms", unit: "ms", better: "lower"},
	{name: "kernel.cov_block_ns_per_pair", unit: "ns", better: "lower"},
	{name: "kernel.dot_block_ns_per_pair", unit: "ns", better: "lower"},
	{name: "kernel.compact_ns_per_pair", unit: "ns", better: "lower"},
	{name: "baseline.pair_interval_ms", unit: "ms", better: "lower"},
	// sketch, dft.
	{name: "sketch.build_ms", unit: "ms", better: "lower"},
	{name: "sketch.advance_ms", unit: "ms", better: "lower"},
	{name: "sketch.bound_block_ns_per_pair", unit: "ns", better: "lower"},
	{name: "sketch.slid_ratio", unit: "ratio", better: "higher"},
	{name: "sketch.ambiguous_ratio", unit: "ratio", better: "lower"},
	{name: "sketch.definite_ratio", unit: "ratio", better: "higher"},
	{name: "sketch.topk_skipped_ratio", unit: "ratio", better: "higher"},
	{name: "dft.transform_us", unit: "us", better: "lower"},
	// plan.
	{name: "plan.plan_us", unit: "us", better: "lower"},
	{name: "plan.estimate_error_ratio", unit: "ratio", better: "lower"},
	{name: "plan.auto_regret_ratio", unit: "ratio", better: "lower"},
	// qcache.
	{name: "qcache.exact_ratio", unit: "ratio", better: "higher"},
	{name: "qcache.contained_ratio", unit: "ratio", better: "higher"},
	{name: "qcache.repair_ratio", unit: "ratio", better: "higher"},
	{name: "qcache.miss_ratio", unit: "ratio", better: "lower"},
	{name: "qcache.repair_fallback_ratio", unit: "ratio", better: "lower"},
	{name: "qcache.repaired_pairs_per_hit", unit: "count", better: "lower"},
	{name: "qcache.lookup_ns", unit: "ns", better: "lower"},
	{name: "qcache.put_us", unit: "us", better: "lower"},
	{name: "qcache.on_advance_us", unit: "us", better: "lower"},
	{name: "qcache.bytes_mb", unit: "MB", better: "lower"},
	// shard, par.
	{name: "shard.build_ms", unit: "ms", better: "lower"},
	{name: "shard.placement_ms", unit: "ms", better: "lower"},
	{name: "shard.imbalance_ratio", unit: "ratio", better: "lower"},
	{name: "shard.query_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "shard.advance_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "par.do_overhead_us", unit: "us", better: "lower"},
	// yardstick: how much to trust the rest.
	{name: "raw.machine_speed", unit: "ratio", better: "higher"},
	{name: "raw.ref_kernel_ms", unit: "ms", better: "lower"},
	{name: "raw.wall_s", unit: "s", better: "lower"},
	{name: "raw.round_wall_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.spans_count", unit: "count", better: "lower"},
}
