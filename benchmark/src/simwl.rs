//! The three simulator-path workloads: `sim_steady`, `sim_burst` and
//! `sim_failover_faults`.
//!
//! An untraced repeat calls `run_experiment` per cell, the path the figures
//! take. A traced repeat performs the same steps itself, a span around each,
//! and must arrive at the same `sim_digest`.

use crate::trace::Tracer;
use crate::workload::{first_ue, Clock, Layers, Repeat, Workload};
use neutrino_bench::failure::paper_fault_profile;
use neutrino_common::stats::{Percentiles, Summary};
use neutrino_common::time::{Duration, Instant};
use neutrino_common::UeId;
use neutrino_core::experiment::{
    adapt_workload, primary_cpf_for, run_experiment, ExperimentSpec, FailureSpec, RunResults,
};
use neutrino_core::simnode::{cpf_node, cta_node, upf_node};
use neutrino_core::uepop::Arrival;
use neutrino_core::{audit_cluster, AuditReport, Cluster, SystemConfig};
use neutrino_geo::RegionLayout;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_netsim::{NodeStats, SimConfig};
use neutrino_trafficgen::{bursty_attach, uniform, uniform_with_pool, BurstParams, UniformParams};
use std::time::Instant as HostInstant;

/// Probe UEs of the failover cell (as Fig. 10).
const PROBES: usize = 100;

/// `sim_steady`: simulated milliseconds per cell and the two rates, both
/// below the knee of either system so that no queue builds.
const STEADY_MS: u64 = 160;
const STEADY_ATTACH_PPS: u64 = 30_000;
const STEADY_SR_PPS: u64 = 60_000;

/// `sim_burst`: UEs attaching within 100 ms, enough for queues thousands
/// deep and a scheduler population past a hundred thousand.
const BURST_USERS: u64 = 40_000;

/// How one cell's arrivals are generated.
#[derive(Clone, Copy)]
enum Plan {
    /// Uniform arrivals of `kind`; non-attach kinds attach a pool first.
    Uniform {
        kind: ProcedureKind,
        rate_pps: u64,
        duration: Duration,
    },
    /// A synchronized attach burst (Fig. 9 shape).
    Burst { users: u64 },
    /// Background handovers, probes on a victim CPF that crashes
    /// mid-procedure, lossy links (Fig. 10 shape under `--faults`).
    Failover { rate_pps: u64, duration: Duration },
}

struct Cell {
    config: SystemConfig,
    plan: Plan,
}

/// The UE pool a uniform non-attach cell cycles through. Smaller than the
/// figures' `pool_for_rate` so the measured kind, not the attach phase that
/// registers the pool, is most of the cell.
const UNIFORM_POOL: u64 = 4_000;

impl Cell {
    /// Builds the cell's spec as the figure modules do; the workload is a
    /// lazy iterator, drained by the UE population during the run.
    fn spec(&self, seed: u64) -> ExperimentSpec {
        let first_ue = first_ue(seed);
        let config = self.config.clone();
        let mut spec;
        match self.plan {
            Plan::Uniform {
                kind,
                rate_pps,
                duration,
            } => {
                let mut p = UniformParams {
                    rate_pps,
                    duration,
                    kind,
                    ues: UNIFORM_POOL,
                    first_ue,
                    start: Instant::ZERO,
                };
                let workload = if kind == ProcedureKind::InitialAttach {
                    p.ues = (rate_pps * duration.as_nanos() / 1_000_000_000).max(1_000);
                    uniform(p)
                } else {
                    uniform_with_pool(p, 40_000).0
                };
                spec = ExperimentSpec::new(config, workload);
                spec.horizon = duration + Duration::from_secs(8);
            }
            Plan::Burst { users } => {
                let workload = bursty_attach(BurstParams {
                    active_users: users,
                    window: Duration::from_millis(100),
                    kind: ProcedureKind::InitialAttach,
                    first_ue,
                    start: Instant::from_millis(10),
                });
                spec = ExperimentSpec::new(config, workload);
                spec.horizon = Duration::from_secs(600);
                spec.uecfg.retry_timeout = Duration::from_secs(120);
            }
            Plan::Failover { rate_pps, duration } => {
                let layout = RegionLayout::default();
                let pool = UniformParams::pool_for_rate(rate_pps);
                let victim = primary_cpf_for(&config, layout, UeId::new(first_ue))
                    .expect("deployment has CPFs");
                let probes: Vec<UeId> = (first_ue..first_ue + pool)
                    .map(UeId::new)
                    .filter(|&ue| primary_cpf_for(&config, layout, ue) == Some(victim))
                    .take(PROBES)
                    .collect();
                let (background, measured_start) = uniform_with_pool(
                    UniformParams {
                        rate_pps,
                        duration,
                        kind: ProcedureKind::HandoverWithCpfChange,
                        ues: pool,
                        first_ue,
                        start: Instant::ZERO,
                    },
                    40_000,
                );
                // The crash lands mid-procedure for every probe.
                let fail_at = measured_start + duration.mul_f64(0.25);
                let mut arrivals: Vec<Arrival> = background.into_arrivals().collect();
                arrivals.extend(probes.iter().enumerate().map(|(i, &ue)| Arrival {
                    at: fail_at - Duration::from_micros(40 + (i as u64 % 50) * 20),
                    ue,
                    kind: ProcedureKind::HandoverWithCpfChange,
                }));
                spec = ExperimentSpec::new(config, neutrino_core::Workload::from_vec(arrivals));
                spec.layout = layout;
                spec.failures.push(FailureSpec {
                    at: fail_at,
                    cpf: victim,
                });
                spec.uecfg.record_windows_for.extend(probes);
                spec.horizon = duration + Duration::from_secs(10);
                spec.links.faults = paper_fault_profile();
                spec.seed = seed;
            }
        }
        // One engine, one thread: the benchmark's load comes from a single
        // generating thread whatever `set_shards` default is in force.
        spec.shards = 1;
        spec
    }

    /// The procedure kind whose PCT the cell reports.
    fn measured_kind(&self) -> ProcedureKind {
        match self.plan {
            Plan::Uniform { kind, .. } => kind,
            Plan::Burst { .. } => ProcedureKind::InitialAttach,
            Plan::Failover { .. } => {
                if self.config.handover == neutrino_core::HandoverPolicy::Proactive {
                    ProcedureKind::FastHandover
                } else {
                    ProcedureKind::HandoverWithCpfChange
                }
            }
        }
    }

    /// Adds a Neutrino cell's PCT samples of its measured kind to `into`.
    fn merge_measured(&self, r: &RunResults, into: &mut Percentiles) {
        if let (true, Some(p)) = (self.is_neutrino(), r.pct.get(&self.measured_kind())) {
            into.merge(p);
        }
    }

    fn is_neutrino(&self) -> bool {
        self.config.kind == neutrino_core::SystemKind::Neutrino
    }
}

/// Procedures that did not finish: incomplete at the end, abandoned after
/// the retry budget, or pruned by the CTA's ACK-timeout scan.
fn failed_procedures(r: &RunResults) -> u64 {
    r.incomplete + r.retries_exhausted + r.cta.timeout_pruned
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn summary(&mut self, s: &Summary) {
        self.word(s.count);
        for x in [s.min, s.p25, s.p50, s.p75, s.p95, s.p99, s.max, s.mean] {
            self.word(x.to_bits());
        }
    }
}

/// Folds every simulated statistic of one cell into the digest: events
/// processed, all counters, every PCT summary. Host time is left out.
fn fold_results(d: &mut Digest, r: &mut RunResults) {
    d.word(r.sim.events_processed);
    for w in [
        r.started,
        r.completed,
        r.re_attached,
        r.skipped_busy,
        r.retransmissions,
        r.retries_exhausted,
        r.rejected,
        r.max_queue_depth as u64,
        r.incomplete,
        r.failed_procedures,
        r.max_log_bytes as u64,
        r.windows.len() as u64,
        r.sim.dropped_loss,
        r.sim.dropped_partition,
        r.sim.duplicated,
        r.sim.reordered,
        r.sim.dropped_unroutable,
        r.sim.max_sched_depth,
    ] {
        d.word(w);
    }
    let c = &r.cta;
    for w in [
        c.forwarded_uplink,
        c.forwarded_downlink,
        c.failover_up_to_date,
        c.failover_replayed,
        c.failover_re_attach,
        c.outdated_notices,
        c.timeout_pruned,
        c.resyncs_requested,
        c.resyncs_replayed,
        c.rejects_sent,
        c.unexpected_msgs,
    ] {
        d.word(w);
    }
    let c = &r.cpf;
    for w in [
        c.processed,
        c.replayed,
        c.completed,
        c.syncs_sent,
        c.syncs_applied,
        c.syncs_ignored,
        c.re_attach_asked,
        c.migrations,
        c.pages_sent,
        c.pages_failed,
        c.resyncs_answered,
        c.dup_uplink_nudges,
        c.unexpected_msgs,
    ] {
        d.word(w);
    }
    if let Some(a) = &r.audit {
        for w in [
            a.passes,
            a.ues_checked,
            a.sessions_checked,
            a.divergences.len() as u64,
        ] {
            d.word(w);
        }
    }
    for (kind, pct) in r.pct.iter_mut() {
        d.word(*kind as u64);
        d.summary(&pct.summary());
    }
}

/// Per-role engine statistics of region 0, read before the cluster drops.
struct RoleStats {
    cta: NodeStats,
    cpfs: Vec<NodeStats>,
    upf: NodeStats,
    uepop_unexpected: u64,
}

/// Performs `run_experiment`'s steps itself, each one a timed span.
fn run_cell(
    cell: &Cell,
    seed: u64,
    clock: &mut Clock,
    layers: &mut Layers,
) -> (RunResults, RoleStats) {
    let ((spec, arrivals), gen_s) = clock.step("trafficgen.generate", || {
        let mut spec = cell.spec(seed);
        let workload = std::mem::replace(
            &mut spec.workload,
            neutrino_core::Workload::new(std::iter::empty()),
        );
        let arrivals: Vec<Arrival> = adapt_workload(&spec.config, workload)
            .into_arrivals()
            .collect();
        (spec, arrivals)
    });
    layers.add("trafficgen.arrivals", arrivals.len() as f64);
    layers.add("trafficgen.gen_s", gen_s);

    let horizon_end = Instant::ZERO + spec.horizon;
    let (mut cluster, build_s) = clock.step("core.build", || {
        let mut cluster = Cluster::build_with_sim(
            spec.config,
            spec.layout,
            neutrino_core::Workload::new(arrivals.into_iter()),
            spec.uecfg,
            spec.links,
            SimConfig::for_horizon(spec.horizon),
            spec.seed,
            spec.shards,
        );
        for f in &spec.failures {
            cluster.fail_cpf_at(f.at, f.cpf);
        }
        cluster
    });
    layers.add("core.build_s", build_s);

    // One `run_until` segment up to each audit pause, as `run_experiment`.
    let mut pauses: Vec<Instant> = spec
        .failures
        .iter()
        .map(|f| f.at + Duration::from_millis(2))
        .filter(|&p| p < horizon_end)
        .collect();
    pauses.sort_unstable();
    pauses.push(horizon_end);
    let mut report = AuditReport::default();
    for pause in pauses {
        let ((), run_s) = clock.step("netsim.run", || cluster.run_until(pause));
        layers.add("netsim.run_s", run_s);
        if !spec.failures.is_empty() {
            let (pass, audit_s) = clock.step("core.audit", || audit_cluster(&mut cluster));
            layers.add("core.audit_s", audit_s);
            report.merge(pass);
        }
    }
    let audit = (!spec.failures.is_empty()).then_some(report);

    let ((results, roles), results_s) = clock.step("core.results", || {
        let sim = cluster.sim.sim_stats();
        let mut pop = cluster.take_results();
        // The sort behind every summary belongs to result extraction; the
        // digest reads the sorted samples afterwards.
        for pct in pop.pct.values_mut() {
            pct.summary();
        }
        let cta = cluster.cta_metrics();
        let results = RunResults {
            pct: pop.pct,
            windows: pop.windows,
            started: pop.started,
            completed: pop.completed,
            re_attached: pop.re_attached,
            skipped_busy: pop.skipped_busy,
            retransmissions: pop.retransmissions,
            retries_exhausted: pop.retries_exhausted,
            rejected: pop.rejected,
            max_queue_depth: cluster.max_control_queue_depth(),
            incomplete: pop.incomplete,
            failed_procedures: pop.incomplete + cta.timeout_pruned,
            max_log_bytes: cluster.max_log_bytes(),
            cta,
            cpf: cluster.cpf_metrics(),
            sim,
            audit,
        };
        let region = &cluster.deployment.regions()[0];
        let stats = |id| cluster.sim.stats(id).cloned().unwrap_or_default();
        let roles = RoleStats {
            cta: stats(cta_node(region.cta)),
            cpfs: region.cpfs.iter().map(|&c| stats(cpf_node(c))).collect(),
            upf: stats(upf_node(region.upfs[0])),
            uepop_unexpected: pop.unexpected_msgs,
        };
        (results, roles)
    });
    layers.add("core.results_s", results_s);

    let ((), drop_s) = clock.step("core.drop", || drop(cluster));
    layers.add("core.drop_s", drop_s);
    (results, roles)
}

/// Which side of the queueing knee a workload's cells must stay on. The two
/// limits are a factor of four apart on both axes, so a later resize cannot
/// merge `sim_steady` and `sim_burst` into one regime unnoticed.
#[derive(Clone, Copy)]
enum Regime {
    /// Every control queue stays below [`SHALLOW_QUEUE`] and the scheduler
    /// below [`SHALLOW_SCHED`] pending events, and every cell drains.
    Shallow,
    /// Some control queue passes `4 * SHALLOW_QUEUE` and the scheduler
    /// `4 * SHALLOW_SCHED`, and every cell drains.
    Deep,
    /// Whatever the failure makes of it.
    Unchecked,
}

const SHALLOW_QUEUE: usize = 256;
const SHALLOW_SCHED: u64 = 25_000;

/// A simulator-path workload: a fixed list of cells run back to back.
pub struct SimWorkload {
    cells: Vec<Cell>,
    seed: u64,
    regime: Regime,
}

impl SimWorkload {
    pub fn steady(seed: u64) -> Self {
        let duration = Duration::from_millis(STEADY_MS);
        let mut cells = Vec::new();
        for (kind, rate_pps) in [
            (ProcedureKind::InitialAttach, STEADY_ATTACH_PPS),
            (ProcedureKind::ServiceRequest, STEADY_SR_PPS),
        ] {
            for config in [SystemConfig::existing_epc(), SystemConfig::neutrino()] {
                cells.push(Cell {
                    config,
                    plan: Plan::Uniform {
                        kind,
                        rate_pps,
                        duration,
                    },
                });
            }
        }
        SimWorkload {
            cells,
            seed,
            regime: Regime::Shallow,
        }
    }

    pub fn burst(seed: u64) -> Self {
        SimWorkload {
            cells: vec![Cell {
                config: SystemConfig::neutrino(),
                plan: Plan::Burst { users: BURST_USERS },
            }],
            seed,
            regime: Regime::Deep,
        }
    }

    pub fn failover_faults(seed: u64) -> Self {
        SimWorkload {
            cells: [SystemConfig::existing_epc(), SystemConfig::neutrino()]
                .into_iter()
                .map(|config| Cell {
                    config,
                    plan: Plan::Failover {
                        rate_pps: 40_000,
                        duration: Duration::from_millis(300),
                    },
                })
                .collect(),
            seed,
            regime: Regime::Unchecked,
        }
    }

    /// The checks of the issue's satellite list that apply to one cell.
    fn check_cell(&self, cell: &Cell, r: &RunResults, uepop_unexpected: u64) -> Result<(), String> {
        let name = cell.config.name;
        let unexpected = r.cta.unexpected_msgs + r.cpf.unexpected_msgs + uepop_unexpected;
        if unexpected != 0 || r.sim.dropped_unroutable != 0 {
            return Err(format!(
                "{name}: {unexpected} unexpected, {} unroutable messages",
                r.sim.dropped_unroutable
            ));
        }
        let drains = !matches!(self.regime, Regime::Unchecked);
        if drains && r.incomplete != 0 {
            return Err(format!(
                "{name}: {} procedures incomplete in a cell that must drain",
                r.incomplete
            ));
        }
        if let (true, Some(audit)) = (cell.is_neutrino(), &r.audit) {
            if !audit.is_clean() || failed_procedures(r) != 0 {
                return Err(format!(
                    "{name}: {} audit divergences, {} failed procedures under failover",
                    audit.divergences.len(),
                    failed_procedures(r)
                ));
            }
        }
        let (queue, sched) = (r.max_queue_depth, r.sim.max_sched_depth);
        let in_regime = match self.regime {
            Regime::Shallow => queue < SHALLOW_QUEUE && sched < SHALLOW_SCHED,
            Regime::Deep => queue > 4 * SHALLOW_QUEUE && sched > 4 * SHALLOW_SCHED,
            Regime::Unchecked => true,
        };
        if !in_regime {
            return Err(format!(
                "{name}: deepest control queue {queue}, scheduler depth {sched}: \
                 outside the regime this workload stands for"
            ));
        }
        Ok(())
    }

    /// What one cell's results add to the repeat, whichever path ran it.
    fn account(
        &self,
        cell: &Cell,
        results: &mut RunResults,
        uepop_unexpected: u64,
        digest: &mut Digest,
        repeat: &mut Repeat,
    ) -> Result<(), String> {
        self.check_cell(cell, results, uepop_unexpected)?;
        fold_results(digest, results);
        repeat.events += results.sim.events_processed;
        repeat.procs += results.completed;
        repeat.attempted += results.started;
        repeat.failed += failed_procedures(results);
        Ok(())
    }

    /// The traced repeat: `run_cell` per cell, and everything the per-layer
    /// table reads from the public statistics.
    fn run_traced(&self, tracer: &mut Tracer) -> Result<Repeat, String> {
        let start = HostInstant::now();
        let mut digest = Digest::new();
        let mut repeat = Repeat::default();
        let mut clock = Clock::new(Some(tracer));
        let root = clock.open("repeat");
        let mut measured = Percentiles::new();
        let mut cpf_max_busy = Duration::ZERO;
        let mut cpf_wait = NodeStats::default();
        for cell in &self.cells {
            let (mut results, roles) = run_cell(cell, self.seed, &mut clock, &mut repeat.layers);
            self.account(
                cell,
                &mut results,
                roles.uepop_unexpected,
                &mut digest,
                &mut repeat,
            )?;
            cell.merge_measured(&results, &mut measured);
            let l = &mut repeat.layers;
            l.add("netsim.events", results.sim.events_processed as f64);
            l.add("sim.allocs", results.sim.allocs as f64);
            l.max("netsim.max_sched_depth", results.sim.max_sched_depth as f64);
            l.add("links.dropped_loss", results.sim.dropped_loss as f64);
            l.add("links.duplicated", results.sim.duplicated as f64);
            l.add("links.reordered", results.sim.reordered as f64);
            l.add("uepop.retransmissions", results.retransmissions as f64);
            l.add("uepop.re_attached", results.re_attached as f64);
            l.add("cta.log_peak_bytes", results.max_log_bytes as f64);
            l.add(
                "cta.failover_replayed",
                results.cta.failover_replayed as f64,
            );
            l.add(
                "cta.resyncs_requested",
                results.cta.resyncs_requested as f64,
            );
            l.add("cpf.syncs_sent", results.cpf.syncs_sent as f64);
            l.add("cpf.replayed", results.cpf.replayed as f64);
            if let Some(a) = &results.audit {
                l.add("core.audit_passes", a.passes as f64);
                l.add("core.audit_divergences", a.divergences.len() as f64);
            }
            l.add("cta.sim_busy_ms", roles.cta.busy.as_millis_f64());
            l.add("upf.sim_busy_ms", roles.upf.busy.as_millis_f64());
            l.add("cta.processed", roles.cta.processed as f64);
            l.add("upf.processed", roles.upf.processed as f64);
            l.add(
                "cta.sim_wait_total_us",
                roles.cta.total_wait.as_micros_f64(),
            );
            l.max("cta.max_queue_depth", roles.cta.max_queue_depth as f64);
            for c in &roles.cpfs {
                cpf_max_busy = cpf_max_busy.max(c.busy);
                cpf_wait.processed += c.processed;
                cpf_wait.total_wait += c.total_wait;
                l.max("cpf.max_queue_depth", c.max_queue_depth as f64);
            }
        }
        clock.close(root);
        repeat.wall_s = start.elapsed().as_secs_f64();
        repeat.digest = digest.0;
        set_pct(&mut repeat.layers, &mut measured);
        let l = &mut repeat.layers;
        l.set("cpf.sim_busy_max_ms", cpf_max_busy.as_millis_f64());
        l.set("cpf.processed", cpf_wait.processed as f64);
        l.set("cpf.sim_mean_wait_us", cpf_wait.mean_wait().as_micros_f64());
        Ok(repeat)
    }
}

/// The Neutrino cells' PCT of the measured kind (simulated time).
fn set_pct(layers: &mut Layers, measured: &mut Percentiles) {
    let pct = measured.summary();
    layers.set("sim.pct_samples", pct.count as f64);
    layers.set("sim.pct_p50_ms", pct.p50);
    layers.set("sim.pct_p99_ms", pct.p99);
}

impl Workload for SimWorkload {
    fn run(&mut self, tracer: Option<&mut Tracer>) -> Result<Repeat, String> {
        let Some(tracer) = tracer else {
            // The path the figures take, timed as a whole.
            let start = HostInstant::now();
            let mut digest = Digest::new();
            let mut repeat = Repeat::default();
            let mut measured = Percentiles::new();
            for cell in &self.cells {
                let mut results = run_experiment(cell.spec(self.seed));
                self.account(cell, &mut results, 0, &mut digest, &mut repeat)?;
                cell.merge_measured(&results, &mut measured);
            }
            repeat.wall_s = start.elapsed().as_secs_f64();
            repeat.digest = digest.0;
            set_pct(&mut repeat.layers, &mut measured);
            return Ok(repeat);
        };
        self.run_traced(tracer)
    }
}
