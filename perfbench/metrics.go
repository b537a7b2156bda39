package main

// metricDef names one reported metric. The lists here are the contract
// BENCHMARK.json declares (the package's tests hold them equal): every
// untraced run reports every end-to-end metric, every traced run every
// per-layer one.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// The mechanisms of the paper's comparison, the five of them that
// migrate, and the experiments paper-quick runs cells for.
var (
	mechanisms    = []string{"MemPod", "HMA", "THM", "CAMEO", "Migrant", "TLM"}
	migrating     = mechanisms[:5]
	cellExpIDs    = []string{"fig1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "specgrid"}
	lower, higher = "lower", "higher"
)

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off, on every workload:
//   - setup_s: median set-up time per workload (see each workload's doc);
//   - cells_per_s: simulation cells delivered per host second (served from
//     the result store on paper-quick-warm);
//   - sim_mreq_per_s: trace requests covered by those cells per host
//     second, in millions — comparable across workloads whose cells differ
//     in length;
//   - peak_rss_mb: the workload process's peak resident set.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"cells_per_s", "1/s", higher},
	{"sim_mreq_per_s", "Mreq/s", higher},
	{"peak_rss_mb", "MB", lower},
}

// perLayer lists the traced run's metrics, named <module>.<what>.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	each := func(prefix string, names []string, unit, better string) {
		for _, n := range names {
			add(prefix+n, unit, better)
		}
	}

	add("workload.generate_ns_per_req", "ns", lower)
	add("trace.merge_ns_per_req", "ns", lower)
	add("trace.record_ns_per_req", "ns", lower)
	add("trace.snapshot_bytes_per_req", "B", lower)
	add("trace.write_ms", "ms", lower)
	add("trace.open_mapped_ms", "ms", lower)
	add("trace.open_copy_ms", "ms", lower)
	add("trace.plane_ns_per_req", "ns", lower)
	add("trace.timecol_ns_per_req", "ns", lower)
	add("trace.replay_ns_per_req", "ns", lower)

	add("tracecache.generated", "count", lower)
	add("tracecache.hits", "count", higher)
	add("tracecache.peak_resident", "count", lower)

	add("dram.kernel_ns_per_access", "ns", lower)
	add("dram.access_ns_per_access", "ns", lower)
	each("memsys.accesses_per_req.", mechanisms, "count", lower)

	add("mea.observe_ns_per_req", "ns", lower)
	add("mea.hot_us_per_interval", "us", lower)
	add("mea.fc_observe_ns_per_req", "ns", lower)

	each("mech.build_us.", mechanisms, "us", lower)
	each("mech.decide_ns_per_req.", migrating, "ns", lower)
	each("mech.migrations.", migrating, "count", lower)
	each("mech.dropped_frac.", migrating, "frac", lower)

	each("sim.engine_ns_per_req.", mechanisms, "ns", lower)
	add("sim.engine_auto_ns_per_req.MemPod", "ns", lower)
	add("sim.podparallel_speedup.MemPod", "x", higher)
	add("sim.parallel_blocks.MemPod", "count", higher)
	add("sim.column_spans.MemPod", "count", higher)
	add("sim.leftover_frac.MemPod", "frac", lower)
	add("sim.leftover_frac.TLM", "frac", lower)

	add("stats.note_ns_per_req", "ns", lower)

	each("mempod.cell_ms.", mechanisms, "ms", lower)
	each("mempod.cell_alloc_mb.", mechanisms, "MB", lower)

	add("resultcache.put_us", "us", lower)
	add("resultcache.probe_us", "us", lower)
	add("resultcache.load_us", "us", lower)
	add("resultcache.codec_ns", "ns", lower)
	add("resultcache.hits", "count", higher)
	add("resultcache.misses", "count", lower)
	add("resultcache.disk_loads", "count", higher)
	add("resultcache.stale", "count", lower)
	add("resultcache.bytes_read", "B", lower)
	add("resultcache.bytes_written", "B", lower)
	add("resultcache.hit_frac", "frac", higher)

	each("exp.experiment_s.", cellExpIDs, "s", lower)
	add("exp.assemble_ms", "ms", lower)
	add("runner.tail_ms", "ms", lower)
	add("report.render_us", "us", lower)

	add("distrib.plan_ms", "ms", lower)
	add("distrib.checkpoint_ms", "ms", lower)
	add("distrib.merge_ms", "ms", lower)
	add("distrib.lease_us", "us", lower)
	add("distrib.renew_us", "us", lower)
	add("distrib.complete_us", "us", lower)
	add("distrib.idle_frac", "frac", lower)
	add("distrib.requeued", "count", lower)
	add("distrib.duplicates", "count", lower)
	add("distrib.rejected", "count", lower)

	add("bench.tracing_overhead_frac", "frac", lower)
	return defs
}
