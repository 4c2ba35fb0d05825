//! The one run path: build a cluster from an [`ExperimentSpec`], advance it
//! from pause to pause, finish into [`RunResults`].

use crate::audit::{audit_cluster, AuditReport};
use crate::cluster::{Cluster, LinkProfile};
use crate::config::{HandoverPolicy, SystemConfig};
use crate::uepop::{Arrival, ProcedureWindow, UePopConfig, Workload};
use neutrino_common::stats::{Percentiles, Summary};
use neutrino_common::time::{Duration, Instant};
use neutrino_common::CpfId;
use neutrino_cpf::CpfMetrics;
use neutrino_cta::CtaMetrics;
use neutrino_geo::RegionLayout;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_netsim::{SimConfig, SimStats};
use std::collections::BTreeMap;

/// A CPF failure injection.
#[derive(Debug, Clone, Copy)]
pub struct FailureSpec {
    /// When the CPF crashes.
    pub at: Instant,
    /// Which CPF.
    pub cpf: CpfId,
}

/// Everything one experiment run needs.
pub struct ExperimentSpec {
    /// The system under test.
    pub config: SystemConfig,
    /// Deployment shape.
    pub layout: RegionLayout,
    /// The control workload.
    pub workload: Workload,
    /// Virtual-time horizon: the run executes until the workload drains or
    /// this deadline, whichever is later... (the queue empties naturally).
    pub horizon: Duration,
    /// Failure injections.
    pub failures: Vec<FailureSpec>,
    /// UE-population tuning (PCT sampling, probe UEs, retry policy).
    pub uecfg: UePopConfig,
    /// Link latencies.
    pub links: LinkProfile,
    /// Jitter seed: re-rolls every link-delay draw when
    /// [`LinkProfile::jitter`] is non-zero. Two runs of the same spec and
    /// seed are bit-identical; seed 0 (the default) reproduces the historic
    /// unseeded stream, so existing figures are unchanged.
    pub seed: u64,
    /// Always 1: shim for the frozen `benchmark/` crate; a later `benchmark` PR deletes it.
    pub shards: usize,
}

impl ExperimentSpec {
    /// A spec with defaults for everything but the system and workload.
    pub fn new(config: SystemConfig, workload: Workload) -> Self {
        ExperimentSpec {
            config,
            layout: RegionLayout::default(),
            workload,
            horizon: Duration::from_secs(120),
            failures: Vec::new(),
            uecfg: UePopConfig::default(),
            links: LinkProfile::default(),
            seed: 0,
            shards: 1,
        }
    }
}

/// Results of one run.
#[derive(Debug)]
pub struct RunResults {
    /// PCT distributions (milliseconds) per executed procedure kind.
    pub pct: BTreeMap<ProcedureKind, Percentiles>,
    /// Probe-UE interruption windows.
    pub windows: Vec<ProcedureWindow>,
    /// Procedures started / completed.
    pub started: u64,
    /// Critical paths completed.
    pub completed: u64,
    /// Re-attaches performed.
    pub re_attached: u64,
    /// Arrivals skipped because the UE was mid-procedure.
    pub skipped_busy: u64,
    /// S1AP retransmissions the UE population sent.
    pub retransmissions: u64,
    /// Procedures UEs abandoned after exhausting their retry budget.
    pub retries_exhausted: u64,
    /// Admission `Reject` frames UEs received.
    pub rejected: u64,
    /// Largest engine queue depth across control-plane nodes (CTAs, CPFs,
    /// UPFs) over the whole run.
    pub max_queue_depth: usize,
    /// Procedures still in flight when the run ended (0 after a fully
    /// drained run).
    pub incomplete: u64,
    /// Explicit procedure failures: procedures still incomplete at the end
    /// of the run, plus procedures the CTA's ACK-timeout scan pruned from
    /// the log (their replication never converged — previously these
    /// silently vanished from all accounting).
    pub failed_procedures: u64,
    /// Peak total CTA log bytes (Fig. 17).
    pub max_log_bytes: usize,
    /// Aggregated CTA counters.
    pub cta: CtaMetrics,
    /// Aggregated CPF counters.
    pub cpf: CpfMetrics,
    /// Engine counters for this run (events processed, fault draws,
    /// scheduler depth).
    pub sim: SimStats,
    /// Cross-node consistency audit: one pass shortly after each injected
    /// failure plus a final pass at the end of the run. `None` when the run
    /// injected no failures.
    pub audit: Option<AuditReport>,
}

impl RunResults {
    /// Summary of one procedure kind's PCT (NaN-filled when absent).
    pub fn summary(&mut self, kind: ProcedureKind) -> Summary {
        self.pct.entry(kind).or_default().summary()
    }
}

/// The CPF the deployment's rings make primary for a UE (victim selection
/// in failure experiments; mirrors the UE population's region routing).
/// Every system's CTA routes by the level-1 ring, so the answer depends on
/// the layout alone; probe searches call this once per pool UE, so it scans
/// the one pool's points instead of building a deployment.
pub fn primary_cpf_for(
    _config: &SystemConfig,
    layout: RegionLayout,
    ue: neutrino_common::UeId,
) -> Option<CpfId> {
    // All workload traffic enters region 0 (see `Cluster::build_with_sim`).
    neutrino_geo::ConsistentRing::primary_among(layout.pool(0), ue)
}

/// Rewrites generic handover arrivals to the system's handover flavor:
/// proactive geo-replication turns a handover-with-CPF-change into a fast
/// handover (§4.3).
pub fn adapt_workload(config: &SystemConfig, workload: Workload) -> Workload {
    let proactive = config.handover == HandoverPolicy::Proactive;
    Workload::new(workload.into_arrivals().map(move |mut a: Arrival| {
        if proactive && a.kind == ProcedureKind::HandoverWithCpfChange {
            a.kind = ProcedureKind::FastHandover;
        }
        a
    }))
}

/// Builds the cluster a spec describes: adapts the workload to the
/// system's handover flavor, builds the deployment and schedules every
/// [`FailureSpec`]. The first of the three steps every run takes (build →
/// [`advance`] → [`finish`]); `neutrino-check` installs its partitions
/// and delivery tap between build and the first advance.
pub fn build(spec: ExperimentSpec) -> Cluster {
    let workload = adapt_workload(&spec.config, spec.workload);
    // Runaway-loop budget scales with the horizon: a genuine feedback loop
    // trips it with a descriptive panic (virtual time, heap size, deepest
    // backlog) instead of the old silent 2B-event stop.
    let mut cluster = Cluster::build_with_sim(
        spec.config,
        spec.layout,
        workload,
        spec.uecfg,
        spec.links,
        SimConfig::for_horizon(spec.horizon),
        spec.seed,
        1,
    );
    for f in &spec.failures {
        cluster.fail_cpf_at(f.at, f.cpf);
    }
    cluster
}

/// Runs the cluster to the pause instant `until`. Segmented runs process
/// the identical event stream, so a read-only look between two advances
/// (the figures' audit, `check`'s oracles) leaves the run byte-identical.
pub fn advance(cluster: &mut Cluster, until: Instant) {
    cluster.sim.run_until(until);
}

/// Extracts everything the figures need from a finished run.
pub fn finish(mut cluster: Cluster, audit: Option<AuditReport>) -> RunResults {
    let sim = cluster.sim.sim_stats();
    let results = cluster.take_results();
    let cta = cluster.cta_metrics();
    RunResults {
        pct: results.pct,
        windows: results.windows,
        started: results.started,
        completed: results.completed,
        re_attached: results.re_attached,
        skipped_busy: results.skipped_busy,
        retransmissions: results.retransmissions,
        retries_exhausted: results.retries_exhausted,
        rejected: results.rejected,
        max_queue_depth: cluster.max_control_queue_depth(),
        incomplete: results.incomplete,
        failed_procedures: results.incomplete + cta.timeout_pruned,
        max_log_bytes: cluster.max_log_bytes(),
        cta,
        cpf: cluster.cpf_metrics(),
        sim,
        audit,
    }
}

/// Runs one experiment to completion and extracts everything the figures
/// need.
///
/// The horizon bounds stragglers (retry loops after unrecoverable
/// failures); the workload itself ends the run in the common case. Failure
/// runs pause shortly after each injected failure so the consistency audit
/// can observe the cluster inside each post-failure window, then once more
/// at the horizon.
pub fn run_experiment(spec: ExperimentSpec) -> RunResults {
    let horizon_end = Instant::ZERO + spec.horizon;
    let audited = !spec.failures.is_empty();
    let mut pauses: Vec<Instant> = spec
        .failures
        .iter()
        .map(|f| f.at + Duration::from_millis(2))
        .filter(|&p| p < horizon_end)
        .collect();
    pauses.sort_unstable();
    let mut cluster = build(spec);
    let mut report = AuditReport::default();
    for pause in pauses {
        advance(&mut cluster, pause);
        report.merge(audit_cluster(&mut cluster));
    }
    advance(&mut cluster, horizon_end);
    let audit = audited.then(|| {
        report.merge(audit_cluster(&mut cluster));
        report
    });
    finish(cluster, audit)
}
