package main

// This file is the benchmark's declaration: the names below are the ones
// BENCHMARK.json lists, and smoke_test.go holds the two to each other.

type workloadDecl struct {
	name string
	run  func(*bench) error
}

var workloads = []workloadDecl{
	{"batch-exact", (*bench).batchExact},
	{"serve-cold", (*bench).serveCold},
	{"serve-hot", (*bench).serveHot},
	{"serve-live", (*bench).serveLive},
	{"cluster-scatter", (*bench).clusterScatter},
}

type metricDecl struct{ name, unit string }

// endToEnd are the metrics of record, from untraced runs against real
// processes. Every workload reports every one of them.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"ops_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single modules, from traced runs. A traced
// run measures the modules on its workload's path; the others read 0
// there (README.md has the table).
var perLayer = []metricDecl{
	{"temporal.parse_medges_s", "Medges/s"},
	{"temporal.parse_seq_medges_s", "Medges/s"},
	{"temporal.build_medges_s", "Medges/s"},
	{"temporal.load_allocs_per_edge", "count"},
	{"temporal.snapshot_load_ms", "ms"},
	{"fast.seq_count_ms", "ms"},
	{"fast.allocs_per_center", "count"},
	{"engine.par_count_ms", "ms"},
	{"engine.hub_count_ms", "ms"},
	{"engine.scaling_eff", "ratio"},
	{"engine.count_ms_e2e", "ms"},
	{"higher.star4_ms", "ms"},
	{"higher.path4_ms", "ms"},
	{"query.compile_us", "us"},
	{"query.exec_edge_ms", "ms"},
	{"query.exec_center_ms", "ms"},
	{"approx.plan_ms", "ms"},
	{"approx.path4_ms", "ms"},
	{"approx.star4_ms", "ms"},
	{"approx.draws", "count"},
	{"approx.speedup_vs_exact", "ratio"},
	{"approx.cover_ratio", "ratio"},
	{"nullmodel.draw_ms", "ms"},
	{"nullmodel.ensemble_ms", "ms"},
	{"stream.addbatch_kedges_s", "kedges/s"},
	{"live.ingest_batch_ms", "ms"},
	{"live.snapshot_ms_100k", "ms"},
	{"live.snapshot_ms_200k", "ms"},
	{"server.parse_us", "us"},
	{"server.cache_hit_us", "us"},
	{"server.handle_hit_us", "us"},
	{"server.allocs_per_hit", "count"},
	{"server.resp_bytes", "bytes"},
	{"server.self_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.coalesced", "count"},
	{"server.admission_waits", "count"},
	{"server.dataset_loads", "count"},
	{"server.hot_p99_ms", "ms"},
	{"shard.scatter_self_ms_p50", "ms"},
	{"shard.worker_skew_ratio", "ratio"},
	{"shard.partial_bytes", "bytes"},
	{"shard.codec_us", "us"},
	{"shard.speedup_vs_local", "ratio"},
	{"shard.peer_rtt_ms_mean", "ms"},
	{"shard.retries", "count"},
	{"shard.hedges", "count"},
	{"shard.failed_shards", "count"},
	{"ingest_p50_ms", "ms"},
	{"loadgen.late_ratio", "ratio"},
	{"host.steal_pct", "%"},
	{"host.nproc", "count"},
	{"trace.ops_s", "1/s"},
}
