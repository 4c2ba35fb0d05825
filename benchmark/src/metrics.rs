//! The names, units and directions of every metric the benchmark prints,
//! and the workloads it runs: the same list `BENCHMARK.json` declares (a
//! unit test holds the two together).

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "wall_ref_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "events_per_ref_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "procs_per_ref_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", higher_is_better: false, bound: 0.15 },
];

/// One per-layer metric: `layer` is the crate it describes, `moves` the
/// end-to-end metric and workload a change to it should show up in.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub layer: &'static str,
    pub moves: &'static str,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        layer,
        moves,
    }
}

/// Host-time metrics first, then simulated-time and exact counts (units
/// `sim_ms`, `sim_us` and `count`).
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    host("trafficgen.gen_ns_per_arrival", "ns", "trafficgen", "wall_ref_s@sim_steady"),
    host("core.build_s", "s", "neutrino-core", "wall_ref_s@sim_*"),
    host("core.results_s", "s", "neutrino-core", "wall_ref_s@sim_*"),
    host("core.drop_s", "s", "neutrino-core", "wall_ref_s@sim_burst"),
    host("core.audit_s", "s", "neutrino-core", "wall_ref_s@sim_failover_faults"),
    host("core.audit_passes", "count", "neutrino-core", "wall_ref_s@sim_failover_faults"),
    host("core.service_time_ns", "ns", "neutrino-core", "events_per_ref_s@sim_steady"),
    host("netsim.run_s", "s", "netsim", "events_per_ref_s@sim_*,engine_ring"),
    host("netsim.ns_per_event", "ns", "netsim", "events_per_ref_s@sim_*,engine_ring"),
    host("netsim.max_sched_depth", "count", "netsim", "events_per_ref_s@sim_burst"),
    host("netsim.ring_shallow_ns_per_event", "ns", "netsim", "events_per_ref_s@engine_ring"),
    host("netsim.ring_deep_ns_per_event", "ns", "netsim", "events_per_ref_s@engine_ring"),
    host("netsim.wheel_ns_per_op.d64", "ns", "netsim", "events_per_ref_s@engine_ring"),
    host("netsim.wheel_ns_per_op.d4096", "ns", "netsim", "events_per_ref_s@engine_ring,sim_burst"),
    host("netsim.wheel_ns_per_op.at_depth", "ns", "netsim", "events_per_ref_s@this workload"),
    host("netsim.heap_ns_per_op.d64", "ns", "netsim", "events_per_ref_s@engine_ring"),
    host("netsim.heap_ns_per_op.d4096", "ns", "netsim", "events_per_ref_s@engine_ring,sim_burst"),
    host("netsim.heap_ns_per_op.at_depth", "ns", "netsim", "events_per_ref_s@this workload"),
    host("cta.handle_ns", "ns", "cta", "procs_per_ref_s@live_pump"),
    host("cpf.handle_ns", "ns", "cpf", "procs_per_ref_s@live_pump"),
    host("upf.handle_ns", "ns", "upf", "procs_per_ref_s@live_pump"),
    host("cta.handle_calls", "count", "cta", "procs_per_ref_s@live_pump"),
    host("cpf.handle_calls", "count", "cpf", "procs_per_ref_s@live_pump"),
    host("upf.handle_calls", "count", "upf", "procs_per_ref_s@live_pump"),
    host("framing.encode_ns.per", "ns", "neutrino-net", "procs_per_ref_s@live_pump"),
    host("framing.encode_ns.fastbuf", "ns", "neutrino-net", "procs_per_ref_s@live_pump"),
    host("framing.decode_ns.per", "ns", "neutrino-net", "procs_per_ref_s@live_pump"),
    host("framing.decode_ns.fastbuf", "ns", "neutrino-net", "procs_per_ref_s@live_pump"),
    host("framing.bytes_per_msg.per", "B", "neutrino-net", "procs_per_ref_s@live_pump"),
    host("framing.bytes_per_msg.fastbuf", "B", "neutrino-net", "procs_per_ref_s@live_pump"),
    host("codec.per.encode_ns", "ns", "codec", "procs_per_ref_s@live_pump"),
    host("codec.per.decode_ns", "ns", "codec", "procs_per_ref_s@live_pump"),
    host("codec.fastbuf.encode_ns", "ns", "codec", "procs_per_ref_s@live_pump"),
    host("codec.fastbuf.decode_ns", "ns", "codec", "procs_per_ref_s@live_pump"),
    host("common.percentiles_push_ns", "ns", "common", "wall_ref_s@sim_steady"),
    host("common.percentiles_summary_ns_per_sample", "ns", "common", "wall_ref_s@sim_steady"),
    host("pump.dispatch_self_ns", "ns", "benchmark", "-"),
    host("pump.proc_p50_us", "us", "benchmark", "procs_per_ref_s@live_pump"),
    host("pump.proc_p99_us", "us", "benchmark", "procs_per_ref_s@live_pump"),
    host("pump.msgs_per_proc.attach", "count", "benchmark", "procs_per_ref_s@live_pump"),
    host("pump.msgs_per_proc.sr", "count", "benchmark", "procs_per_ref_s@live_pump"),
    host("pump.msgs_per_proc.tau", "count", "benchmark", "procs_per_ref_s@live_pump"),
    host("pump.msgs_per_proc.detach", "count", "benchmark", "procs_per_ref_s@live_pump"),
    host("pump.allocs_per_msg", "count", "all", "procs_per_ref_s@live_pump"),
    host("sim.allocs_per_event", "count", "all", "events_per_ref_s@sim_burst"),
    host("sim.est_engine_frac", "frac", "derived", "-"),
    host("sim.est_handler_frac", "frac", "derived", "-"),
    host("sim.est_costing_frac", "frac", "derived", "-"),
    host("sim.unattributed_frac", "frac", "derived", "-"),
    PerLayer { name: "net.mesh.procs_per_s", unit: "1/s", higher_is_better: true, layer: "neutrino-net", moves: "informational" },
    host("net.mesh.rtt_p50_us", "us", "neutrino-net", "informational"),
    host("net.udp.rtt_p50_us", "us", "neutrino-net", "informational"),
    PerLayer { name: "net.udp.msgs_per_s", unit: "1/s", higher_is_better: true, layer: "neutrino-net", moves: "informational" },
    host("bench.wall_s", "s", "benchmark", "wall_ref_s before scaling"),
    host("bench.setup_first_s", "s", "benchmark", "setup_s@all"),
    host("bench.trace_overhead_frac", "frac", "benchmark", "-"),
    host("bench.span_coverage_frac", "frac", "benchmark", "-"),
    host("sim.pct_p50_ms", "sim_ms", "neutrino-core", "behaviour, not speed"),
    host("sim.pct_p99_ms", "sim_ms", "neutrino-core", "behaviour, not speed"),
    host("sim.digest32", "count", "neutrino-core", "behaviour, not speed"),
    host("cta.sim_busy_ms", "sim_ms", "cta", "sim.pct_*@sim_steady,sim_burst"),
    host("cpf.sim_busy_max_ms", "sim_ms", "cpf", "sim.pct_*@sim_steady,sim_burst"),
    host("upf.sim_busy_ms", "sim_ms", "upf", "sim.pct_*@sim_steady,sim_burst"),
    host("cta.sim_mean_wait_us", "sim_us", "cta", "sim.pct_*@sim_steady,sim_burst"),
    host("cpf.sim_mean_wait_us", "sim_us", "cpf", "sim.pct_*@sim_steady,sim_burst"),
    host("cta.max_queue_depth", "count", "cta", "sim.pct_*@sim_burst"),
    host("cpf.max_queue_depth", "count", "cpf", "sim.pct_*@sim_burst"),
    host("cta.log_peak_bytes", "B", "cta", "peak_rss_mb@sim_burst"),
    host("cta.failover_replayed", "count", "cta", "sim.pct_p99_ms@sim_failover_faults"),
    host("cta.resyncs_requested", "count", "cta", "sim.pct_p99_ms@sim_failover_faults"),
    host("cpf.syncs_sent", "count", "cpf", "events_per_ref_s@sim_*"),
    host("cpf.replayed", "count", "cpf", "sim.pct_p99_ms@sim_failover_faults"),
    host("uepop.retransmissions", "count", "neutrino-core", "sim.pct_p99_ms@sim_failover_faults"),
    host("uepop.re_attached", "count", "neutrino-core", "sim.pct_p99_ms@sim_failover_faults"),
    host("links.dropped_loss", "count", "netsim", "sim.pct_p99_ms@sim_failover_faults"),
    host("links.duplicated", "count", "netsim", "sim.pct_p99_ms@sim_failover_faults"),
    host("links.reordered", "count", "netsim", "sim.pct_p99_ms@sim_failover_faults"),
    host("core.audit_divergences", "count", "neutrino-core", "correctness@sim_failover_faults"),
];

/// One workload and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sim_steady",
        why: "Figure path at uniform rates below the knee, shallow queues: role handlers, uepop, service_time costing and the engine share the work; codecs do nothing.",
    },
    WorkloadDef {
        name: "sim_burst",
        why: "Same layers under a 40k-UE Neutrino attach burst: node queues thousands deep, 120k pending scheduler entries, a large live-procedure map.",
    },
    WorkloadDef {
        name: "sim_failover_faults",
        why: "CPF crash mid-handover on lossy links: fault draws, retry timers, CTA log replay and audit pauses do real work.",
    },
    WorkloadDef {
        name: "engine_ring",
        why: "Bare netsim rings, shallow and deep, no protocol: scheduler and dispatch loop do all the work, every other layer none.",
    },
    WorkloadDef {
        name: "live_pump",
        why: "Closed-loop single-thread pump of the sans-IO cores with wire framing on every hop: codec, framing and role cores, no netsim.",
    },
];
