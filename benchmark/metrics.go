package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names (a test keeps the two in step); README.md says which
// end-to-end metric each per-layer metric is expected to move.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by a gated run (-trace 0), on every workload.
var endToEndMetrics = []metricDef{
	{"txn_tps", "txn/s"},
	{"txn_p50_us", "us"},
	{"txn_p90_us", "us"},
	{"allocs_per_txn", "count"},
	{"setup_s", "s"},
}

// perLayerMetrics are reported by a traced run (-trace 1). A metric whose
// layer the workload does not have (wal.* without a WAL, wire.* without a
// wire) reads 0.
var perLayerMetrics = []metricDef{
	{"client.txn_p99_us", "us"},

	{"wire.rpcs_per_txn", "count"},
	{"wire.bytes_per_txn", "bytes"},
	{"wire.frames_per_flush", "count"},
	{"wire.ping_rtt_us_p50", "us"},
	{"wire.vs_inproc_tps_ratio", "ratio"},

	{"op.start_us_p50", "us"},
	{"op.get_us_p50", "us"},
	{"op.multiget_us_p50", "us"},
	{"op.put_us_p50", "us"},
	{"op.commit_us_p50", "us"},
	{"op.commit_us_p90", "us"},

	{"core.cache_hit_ratio", "ratio"},
	{"core.commits_per_flush", "count"},
	{"core.metadata_records_end", "count"},
	{"core.shed_total", "count"},
	{"shim.self_us_per_txn", "us"},

	{"records.marshal_ns", "ns"},
	{"records.unmarshal_ns", "ns"},
	{"records.marshal_allocs", "count"},

	{"storage.calls_per_txn", "count"},
	{"storage.get_calls_per_txn", "count"},
	{"storage.put_calls_per_txn", "count"},
	{"storage.batchput_calls_per_txn", "count"},
	{"storage.batchget_calls_per_txn", "count"},
	{"storage.list_calls_per_txn", "count"},
	{"storage.delete_calls_per_txn", "count"},
	{"storage.items_per_batchput", "count"},
	{"storage.items_per_batchget", "count"},
	{"storage.busy_us_per_txn", "us"},
	{"storage.batchput_us_p50", "us"},
	{"storage.batchput_us_p90", "us"},
	{"storage.get_us_p50", "us"},
	{"storage.bytes_written_per_user_byte", "ratio"},
	{"storage.live_keys_end", "count"},

	{"wal.appends_per_fsync", "count"},
	{"wal.fsyncs_per_txn", "count"},
	{"wal.disk_bytes_per_user_byte", "ratio"},
	{"wal.compactions", "count"},
	{"wal.reopen_s", "s"},

	{"multicast.deliveries_per_commit", "count"},
	{"multicast.pruned_ratio", "ratio"},
	{"faultmgr.versions_deleted_per_commit", "count"},
	{"lb.txns_per_node_cv", "ratio"},

	{"proc.cpu_us_per_txn", "us"},
	{"proc.bytes_alloc_per_txn", "bytes"},
	{"proc.gc_cycles_per_s", "1/s"},
	{"proc.heap_end_mb", "MB"},
	{"proc.heap_growth_bytes_per_txn", "bytes"},

	{"harness.trace_overhead_ratio", "ratio"},
	{"harness.drift_ratio", "ratio"},
	{"harness.rep_spread", "ratio"},
	{"harness.self_us_per_txn", "us"},
}
