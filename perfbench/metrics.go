package main

// metricDef describes one metric of BENCHMARK.json. Moves names, for a
// per-layer metric, the end-to-end metric (and workload) it should move;
// it is documentation, checked against BENCHMARK.json by the tests.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	Moves  string  // per-layer only
}

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them. An "op" is the workload's foreground operation:
// one core.Build on construct, one completed open-loop request on
// serve-*. ingest_cpu_us_per_edge and snapshot_p50_ms come from the
// store loads every workload makes (one at scale 15 on construct,
// several at scale 12 on serve-*). Times are scaled to the reference
// speed (refspeed.go). These are the metrics that repeat within their
// bound on a shared two-core virtual machine; latencies from the
// intended send, peak rates and fsync-bound write times, which did
// not, are per-layer metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ingest_cpu_us_per_edge", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "snapshot_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "disk_bytes_per_edge", Unit: "B", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// call reports 0.
var perLayer = []metricDef{
	{Name: "gen.offered_frac", Unit: "frac", Better: "higher", Moves: "none; a run is valid only at >= 0.95"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower", Moves: "none; how late the generator sent"},
	{Name: "gen.peak_ops_per_s", Unit: "1/s", Better: "higher", Moves: "none bounded; closed-loop builds (construct) or requests (serve-*) per second"},
	{Name: "serve.read_mean_ms", Unit: "ms", Better: "lower", Moves: "none bounded; open-loop read latency from the intended send, serve-read"},
	{Name: "serve.read_p95_ms", Unit: "ms", Better: "lower", Moves: "none bounded; open-loop read tail from the intended send, serve-mixed"},
	{Name: "serve.ingest_p50_ms", Unit: "ms", Better: "lower", Moves: "none bounded; POST /ingest latency from the intended send, serve-mixed"},
	{Name: "serve.handler_p50_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on serve-read"},
	{Name: "serve.handler_p99_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on serve-read"},
	{Name: "serve.queue_wait_p99_ms", Unit: "ms", Better: "lower", Moves: "serve.read_p95_ms on serve-read and serve-mixed"},
	{Name: "serve.self_ms_per_req", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on serve-read"},
	{Name: "serve.graph_cache_hit_frac", Unit: "frac", Better: "higher", Moves: "cpu_ms_per_op on serve-mixed"},
	{Name: "serve.shed_frac", Unit: "frac", Better: "lower", Moves: "failed/attempted on serve-mixed"},
	{Name: "stream.pending_entries_p50", Unit: "count", Better: "lower", Moves: "cpu_ms_per_op on serve-mixed"},
	{Name: "algo.graph_build_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on serve-mixed"},
	{Name: "algo.bfs_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on serve-read"},
	{Name: "algo.pagerank_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on serve-read"},
	{Name: "core.build_mean_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on construct"},
	{Name: "core.build_p95_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on construct"},
	{Name: "graph.adjacency_ms.plus_times", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on construct"},
	{Name: "graph.adjacency_ms.max_min", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on construct"},
	{Name: "graph.allocs_per_build", Unit: "count", Better: "lower", Moves: "cpu_ms_per_op on construct"},
	{Name: "graph.bytes_per_build", Unit: "B", Better: "lower", Moves: "cpu_ms_per_op and peak_rss_mb on construct"},
	{Name: "core.build_self_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on construct"},
	{Name: "core.append_p50_ms", Unit: "ms", Better: "lower", Moves: "none bounded; the AppendBatch ack, construct"},
	{Name: "core.ingest_edges_per_s", Unit: "1/s", Better: "higher", Moves: "none bounded; the load's acknowledged edges per second, construct"},
	{Name: "core.append_self_ms_per_batch", Unit: "ms", Better: "lower", Moves: "ingest_cpu_us_per_edge on construct"},
	{Name: "core.recover_ms", Unit: "ms", Better: "lower", Moves: "none bounded; the store reopen time, construct"},
	{Name: "wal.log_bytes_per_edge", Unit: "B", Better: "lower", Moves: "disk_bytes_per_edge on construct"},
	{Name: "wal.ckpt_bytes_per_edge", Unit: "B", Better: "lower", Moves: "disk_bytes_per_edge and ingest_cpu_us_per_edge on construct"},
	{Name: "wal.syncs_per_batch", Unit: "count", Better: "lower", Moves: "core.append_p50_ms on construct"},
	{Name: "wal.sync_p99_ms", Unit: "ms", Better: "lower", Moves: "serve.ingest_p50_ms on serve-mixed"},
	{Name: "wal.fg_io_ms_per_batch", Unit: "ms", Better: "lower", Moves: "core.append_p50_ms on construct"},
	{Name: "wal.ckpt_busy_frac", Unit: "frac", Better: "lower", Moves: "ingest_cpu_us_per_edge and snapshot_p50_ms on construct"},
	{Name: "wal.recover_read_bytes_per_edge", Unit: "B", Better: "lower", Moves: "core.recover_ms on construct"},
	{Name: "keys.slab_bytes_per_key", Unit: "B", Better: "lower", Moves: "peak_rss_mb on serve-mixed"},
	{Name: "keys.table_slots_per_key", Unit: "count", Better: "lower", Moves: "peak_rss_mb on serve-mixed"},
	{Name: "go.gc_cpu_frac", Unit: "frac", Better: "lower", Moves: "cpu_ms_per_op on serve-read and serve-mixed"},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower", Moves: "cpu_ms_per_op and peak_rss_mb on every workload"},
	{Name: "go.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb on every workload"},
	{Name: "bench.error_frac", Unit: "frac", Better: "lower", Moves: "failed/attempted of the result line"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower", Moves: "none; mean op latency traced over untraced, minus 1"},
	{Name: "bench.ref_unit_ms", Unit: "ms", Better: "lower", Moves: "none; the host's speed: the median reference unit, which end-to-end times are scaled by"},
}

// zeroLayers fills every per-layer metric with 0, for the layers a
// workload does not call.
func zeroLayers(r *report) {
	for _, d := range perLayer {
		r.set(d.Name, d.Unit, 0)
	}
}

// setLayer sets a per-layer metric by name, taking its unit from the
// table.
func setLayer(r *report, name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			r.set(name, d.Unit, v)
			return
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// setE2E sets an end-to-end metric by name.
func setE2E(r *report, name string, v float64) {
	for _, d := range endToEnd {
		if d.Name == name {
			r.set(name, d.Unit, v)
			return
		}
	}
	panic("perfbench: unknown end-to-end metric " + name)
}
