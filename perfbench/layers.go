package main

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and on which workload. Every traced
// run reports all of them; 0 means the workload does not cross that
// layer.
type layerMetric struct {
	name, unit, moves string
}

var layerMetrics = []layerMetric{
	// serve wire codec, replayed on the workload's own frames.
	{"serve.wire.req_bytes", "bytes", "cpu_us_per_query, queries_per_s on scalar-hot most, less on batch-k128"},
	{"serve.wire.resp_bytes", "bytes", "cpu_us_per_query, queries_per_s on scalar-hot most, less on batch-k128"},
	{"serve.client.encode_req_ns", "ns", "cpu_us_per_query, queries_per_s on scalar-hot most, less on batch-k128"},
	{"serve.wire.decode_req_ns", "ns", "cpu_us_per_query, queries_per_s on scalar-hot most, less on batch-k128"},
	{"serve.wire.encode_resp_ns", "ns", "cpu_us_per_query, queries_per_s on scalar-hot most, less on batch-k128"},
	{"serve.client.decode_resp_ns", "ns", "cpu_us_per_query, queries_per_s on scalar-hot most, less on batch-k128"},
	{"serve.wire.allocs_per_frame", "count", "allocs_per_query, cpu_us_per_query on scalar-hot"},
	// serve server, from dn_serve_* registry diffs of the traced phase.
	{"serve.server.latency_p50_us", "us", "latency_p50_us on every serve workload"},
	{"serve.server.latency_p99_us", "us", "latency_p95_us on every serve workload"},
	{"serve.handoff_us", "us", "latency_p50_us, queries_per_s on scalar-hot"},
	{"serve.queue.depth_mean", "count", "latency_p95_us on cluster-forward"},
	{"serve.queue.depth_max", "count", "latency_p95_us on cluster-forward"},
	{"serve.cache.hit_ratio", "frac", "workload property: 1.0 on scalar-hot, about 0 on batch-k128"},
	{"serve.cache.evictions", "count", "workload property"},
	{"serve.cache.warmup_misses", "count", "workload property: exactly 3072 on scalar-hot"},
	{"serve.shed_frac", "frac", "failed on every workload"},
	{"serve.degraded_frac", "frac", "failed on every workload"},
	// serve.Engine, replayed with a cache of the server's size.
	{"serve.engine.ns_per_query", "ns", "queries_per_s on batch-k128"},
	// core kernels on the workload's pairs.
	{"core.kernels.distance_ns", "ns", "queries_per_s, cpu_us_per_query on batch-k128 and cluster-forward; nothing on scalar-hot"},
	{"core.kernels.route_ns", "ns", "queries_per_s, cpu_us_per_query on batch-k128 and cluster-forward; nothing on scalar-hot"},
	{"core.kernels.nexthop_ns", "ns", "queries_per_s, cpu_us_per_query on batch-k128 and cluster-forward; nothing on scalar-hot"},
	{"core.kernels.allocs_per_query", "count", "allocs_per_query on batch-k128 and cluster-forward"},
	{"core.kernels.tier", "index", "workload property: 0 scratch, 1 packed, 2 table"},
	{"core.cpu_frac", "frac", "cpu_us_per_query: the kernels' share of process CPU per query"},
	{"core.alg4.route_ns", "ns", "queries_per_s on sim"},
	// cluster, from the nodes' registry diffs.
	{"cluster.forwarded_frac", "frac", "workload property: 2/3 on cluster-forward"},
	{"cluster.peer_frames_per_query", "count", "latency_p50_us, queries_per_s, cpu_us_per_query on cluster-forward"},
	{"cluster.forward_extra_us", "us", "latency_p50_us, queries_per_s, cpu_us_per_query on cluster-forward"},
	// simulators.
	{"network.ns_per_msg", "ns", "queries_per_s on sim"},
	{"deflect.ns_per_msg", "ns", "queries_per_s on sim"},
	{"deflect.layers_ns", "ns", "queries_per_s on sim"},
	{"network.mean_latency_rounds", "rounds", "none: simulated output; a move means behaviour changed"},
	{"deflect.deflection_rate", "frac", "none: simulated output; a move means behaviour changed"},
	{"sim.network_time_frac", "frac", "workload property: the network engine's share of sim time"},
	// runtime and the benchmark itself.
	{"runtime.gc_cpu_frac", "frac", "cpu_us_per_query everywhere"},
	{"bench.trace_overhead_frac", "frac", "none: the traced run's throughput loss against the untraced half"},
	{"bench.unattributed_frac", "frac", "none: the share of end-to-end time no layer span covers"},
}

// layerMetricNames and layerUnits index layerMetrics, plus the ledger
// shares setLedger reports.
var (
	layerMetricNames []string
	layerUnits       = map[string]string{}
)

func init() {
	for _, m := range layerMetrics {
		layerMetricNames = append(layerMetricNames, m.name)
		layerUnits[m.name] = m.unit
	}
	for _, l := range ledgerLayers {
		layerMetricNames = append(layerMetricNames, "ledger."+l)
		layerUnits["ledger."+l] = "frac"
	}
}
