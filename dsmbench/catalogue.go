package main

// def declares one metric: its unit and how its value is taken. Units that
// start with sim_ count simulated cycles; ns, us, ms and s are host
// wall-clock time.
type def struct {
	name  string
	unit  string
	layer bool // per-layer (traced run) rather than end-to-end
	how   string
}

// defs is the metric catalogue, in BENCHMARK.json order. A test holds the
// two in step.
var defs = []def{
	{"ops_per_s", "1/s", false, "host; ops per pass / sum of per-segment median times"},
	{"lat_ms.p50", "ms", false, "host; median op latency"},
	{"lat_ms.p90", "ms", false, "host; 90th percentile op latency (>= 10 samples beyond)"},
	{"setup_s", "s", false, "host; median of 5 set-ups (inputs, build, warm-up)"},
	{"max_rss_mb", "MB", false, "host; peak resident set of the run"},

	{"grouping.groups_ns", "ns", true, "host; median ns per grouping.Groups call on the run's sharer sets"},
	{"grouping.groups_allocs", "allocs/call", true, "heap allocations per Groups call (MemStats delta)"},
	{"grouping.worms_per_txn", "worms/txn", true, "exact; request worms per invalidation"},
	{"routing.path_through_ns", "ns", true, "host; median ns per Base.PathThrough on the run's groups"},
	{"routing.path_through_allocs", "allocs/call", true, "heap allocations per PathThrough call (MemStats delta)"},
	{"routing.unicast_path_ns", "ns", true, "host; median ns per Base.UnicastPathInto"},
	{"sim.events_per_op", "events/op", true, "exact; engine events per op"},
	{"sim.cycles_per_op", "sim_cycles/op", true, "exact; simulated cycles per op"},
	{"network.flit_hops_per_op", "flit_hops/op", true, "exact; flit-hops per op"},
	{"network.worms_per_op", "worms/op", true, "exact; worms injected per op"},
	{"network.copies_per_op", "copies/op", true, "exact; absorb copies per op"},
	{"network.gather_wait_per_op", "waits/op", true, "exact; gather worms that waited for an ack, per op"},
	{"coherence.write_txn_us", "us", true, "host; median Write+Run"},
	{"coherence.read_us", "us", true, "host; median Read+Run"},
	{"coherence.inval_cycles", "sim_cycles", true, "exact; mean invalidation latency"},
	{"coherence.home_msgs_per_txn", "msgs/txn", true, "exact; home messages per invalidation"},
	{"cache.hit_frac", "frac", true, "exact; cache hits / lookups"},
	{"cache.misses_per_op", "misses/op", true, "exact; cache misses per op"},
	{"apps.replay_ms.barnes", "ms", true, "host; median Barnes-Hut replay"},
	{"apps.replay_ms.lu", "ms", true, "host; median LU replay"},
	{"apps.replay_ms.apsp", "ms", true, "host; median APSP replay"},
	{"runtime.allocs_per_op", "allocs/op", true, "runtime/metrics delta over the traced phase"},
	{"runtime.bytes_per_op", "bytes/op", true, "runtime/metrics delta over the traced phase"},
	{"runtime.gc_cycles_per_kop", "gc/kop", true, "runtime/metrics delta over the traced phase"},
	{"runtime.gc_cpu_frac", "frac", true, "GC CPU seconds / total CPU seconds"},
	{"cpu_share.sim", "frac", true, "CPU profile flat share of repro/internal/sim"},
	{"cpu_share.network", "frac", true, "CPU profile flat share of repro/internal/network"},
	{"cpu_share.topology", "frac", true, "CPU profile flat share of repro/internal/topology"},
	{"cpu_share.routing", "frac", true, "CPU profile flat share of repro/internal/routing"},
	{"cpu_share.grouping", "frac", true, "CPU profile flat share of repro/internal/grouping"},
	{"cpu_share.coherence", "frac", true, "CPU profile flat share of repro/internal/coherence"},
	{"cpu_share.cache", "frac", true, "CPU profile flat share of repro/internal/cache"},
	{"cpu_share.directory", "frac", true, "CPU profile flat share of repro/internal/directory"},
	{"cpu_share.runtime", "frac", true, "CPU profile flat share of the Go runtime"},
	{"cpu_share.other", "frac", true, "CPU profile flat share of everything else"},
	{"service.hit_frac", "frac", true, "cache hits / resolved points (/v1/stats deltas)"},
	{"service.coalesced_frac", "frac", true, "coalesced / resolved points"},
	{"service.runs_per_op", "runs/op", true, "engine runs per request"},
	{"service.shed_frac", "frac", true, "shed / resolved points"},
	{"service.batch_size_mean", "reqs/batch", true, "batched requests / batches"},
	{"service.queue_wait_ms.p50", "ms", true, "host; /v1/metrics queue_wait median"},
	{"service.queue_wait_ms.p99", "ms", true, "host; /v1/metrics queue_wait p99"},
	{"service.run_ms.p50", "ms", true, "host; /v1/metrics run_micros median over engine runs"},
	{"service.run_path_share", "frac", true, "host; share of client request time spent in requests that ran the engine"},
	{"service.resolve_us.p50", "us", true, "host; median in-process Service.Resolve of a cached point"},
	{"service.http_overhead_us", "us", true, "host; median cached HTTP round trip minus Resolve"},
	{"service.store_get_us", "us", true, "host; median MemoryStore.Get"},
	{"service.store_put_us", "us", true, "host; median MemoryStore.Put"},
	{"sweep.fingerprint_us", "us", true, "host; median Point.Fingerprint"},
	{"sweep.run_point_ms", "ms", true, "host; median sweep.RunPointDirect"},
	{"trace.ops_per_s", "1/s", true, "host; ops_per_s with tracing on"},
	{"trace.overhead_frac", "frac", true, "1 - traced ops_per_s / untraced ops_per_s in the same run"},
}

// catalogue indexes defs by name.
var catalogue = func() map[string]def {
	m := make(map[string]def, len(defs))
	for _, d := range defs {
		m[d.name] = d
	}
	return m
}()

// tier returns the end-to-end metrics, or the per-layer ones when layer.
func tier(layer bool) []def {
	var out []def
	for _, d := range defs {
		if d.layer == layer {
			out = append(out, d)
		}
	}
	return out
}
