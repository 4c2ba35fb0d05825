//! Executes one [`CasePlan`] with in-run oracle passes.
//!
//! A plan maps to an [`ExperimentSpec`] and runs on
//! `neutrino_core::experiment`'s one run path (build → advance → finish),
//! the same path every figure takes. The oracle loop pauses the simulation
//! at interval-aligned instants and evaluates every requested invariant
//! against the paused cluster. Pauses are read-only and a segmented run
//! processes the identical event stream, so a checked run is byte-for-byte
//! the run the plan's seed would have produced unchecked (the
//! `checked_run_is_the_figure_run` test pins this). Between two events the
//! cluster cannot change, so the loop uses the engine's next-event time to
//! skip pause points where nothing happened — a 10 s drain tail costs a
//! handful of passes, not hundreds.

use crate::flowcov::{self, Edge, FLOW_CONTRACT};
use crate::invariants;
use crate::oracle::{Finding, Invariant, OracleCtx};
use crate::scenario::{CasePlan, CrashPlan, EndpointPlan, NS_PER_MS};
use neutrino_core::experiment::{self, ExperimentSpec, FailureSpec, RunResults};
use neutrino_core::simnode::{cpf_node, cta_node};
use neutrino_core::{Cluster, LinkProfile, SystemConfig, Workload};
use neutrino_common::time::{Duration, Instant};
use neutrino_common::CpfId;
use neutrino_cta::AdmissionParams;
use neutrino_messages::flow::NodeAddr;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_netsim::FaultSpec;
use neutrino_trafficgen::patterns::{
    flash_crowd_reattach, iot_burst_storm, uniform_with_pool, FlashCrowdParams, IotStormParams,
    UniformParams,
};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Attach-phase rate used for every checked run (fast enough that the
/// pool registers in tens of milliseconds, slow enough not to overload).
const ATTACH_RATE_PPS: u64 = 40_000;

/// Violations kept verbatim in a report; the rest are counted only (a
/// badly broken build can emit one violation per UE per pass).
const MAX_RECORDED_VIOLATIONS: usize = 256;

/// One observed violation: an invariant's [`Finding`], stamped with the
/// invariant's catalog name and the pass time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViolationRecord {
    /// Invariant catalog name.
    pub invariant: String,
    /// Virtual time of the observing pass, microseconds since origin.
    pub at_us: u64,
    /// The UE concerned (raw id), when per-UE.
    pub ue: Option<u64>,
    /// Human-readable specifics.
    pub detail: String,
}

impl ViolationRecord {
    /// Stamps `finding` with the name of the invariant that reported it and
    /// the time of the pass that observed it.
    pub fn stamp(invariant: &str, at: Instant, finding: Finding) -> ViolationRecord {
        ViolationRecord {
            invariant: invariant.to_string(),
            at_us: at.as_nanos() / 1_000,
            ue: finding.ue.map(|u| u.raw()),
            detail: finding.detail,
        }
    }
}

/// Counters that must replay bit-identically for the same plan: the
/// replay-equality witness (wall-clock numbers are deliberately absent).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Events the engine processed.
    pub events_processed: u64,
    /// Procedures started.
    pub started: u64,
    /// Procedures completed.
    pub completed: u64,
    /// Re-attaches performed.
    pub re_attached: u64,
    /// UE retransmissions sent.
    pub retransmissions: u64,
    /// Fault-layer loss drops.
    pub dropped_loss: u64,
    /// Partition-window drops.
    pub dropped_partition: u64,
    /// Fault-layer duplicate deliveries.
    pub duplicated: u64,
    /// Fault-layer reorder hold-backs.
    pub reordered: u64,
    /// Procedures the CTA's ACK-timeout scan pruned.
    pub timeout_pruned: u64,
    /// Procedures the CTA admission gate admitted, by class (priority
    /// order: handover, service-request, attach, detach). All zero when the
    /// gate is off.
    #[serde(default)]
    pub admitted: Vec<u64>,
    /// Procedures the gate shed, by class (same order).
    #[serde(default)]
    pub shed: Vec<u64>,
    /// `Reject` frames the UE population received.
    #[serde(default)]
    pub rejected: u64,
    /// Procedures UEs abandoned after exhausting the retry budget.
    #[serde(default)]
    pub retries_exhausted: u64,
    /// Largest engine queue depth across control-plane nodes.
    #[serde(default)]
    pub max_queue_depth: u64,
    /// Total violations, flow-contract breaches and ones past the cap included.
    pub violations: u64,
}

impl Fingerprint {
    /// The replay counters of a finished run, plus the violation count its
    /// oracles reported.
    pub fn of(r: &RunResults, violations: u64) -> Fingerprint {
        Fingerprint {
            events_processed: r.sim.events_processed,
            started: r.started,
            completed: r.completed,
            re_attached: r.re_attached,
            retransmissions: r.retransmissions,
            dropped_loss: r.sim.dropped_loss,
            dropped_partition: r.sim.dropped_partition,
            duplicated: r.sim.duplicated,
            reordered: r.sim.reordered,
            timeout_pruned: r.cta.timeout_pruned,
            admitted: r.cta.admitted_by_class.to_vec(),
            shed: r.cta.shed_by_class.to_vec(),
            rejected: r.rejected,
            retries_exhausted: r.retries_exhausted,
            max_queue_depth: r.max_queue_depth as u64,
            violations,
        }
    }
}

/// Outcome of one checked run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckReport {
    /// Recorded violations, in pass order (capped; see
    /// [`Fingerprint::violations`] for the full count).
    pub violations: Vec<ViolationRecord>,
    /// Oracle passes executed (including the final pass).
    pub passes: u64,
    /// Replay-equality witness.
    pub fingerprint: Fingerprint,
    /// The protocol-flow edges the run delivered (a sweep merges them into
    /// its coverage report). Not part of the JSON.
    #[serde(skip)]
    pub witnessed: BTreeSet<Edge>,
}

impl CheckReport {
    /// True when no invariant fired and the flow contract held.
    pub fn is_clean(&self) -> bool {
        self.fingerprint.violations == 0
    }

    /// Canonical JSON form; two runs of the same plan must produce equal
    /// strings.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// Resolves a [`SystemConfig`] constructor name from a plan.
pub fn config_by_name(name: &str) -> Option<SystemConfig> {
    Some(match name {
        "neutrino" => SystemConfig::neutrino(),
        "neutrino_default_handover" => SystemConfig::neutrino_default_handover(),
        "neutrino_no_replication" => SystemConfig::neutrino_no_replication(),
        "neutrino_per_message" => SystemConfig::neutrino_per_message(),
        "neutrino_no_logging" => SystemConfig::neutrino_no_logging(),
        "existing_epc" => SystemConfig::existing_epc(),
        "dpcm" => SystemConfig::dpcm(),
        "skycore" => SystemConfig::skycore(),
        _ => return None,
    })
}

/// Resolves a [`ProcedureKind`] by its stable name.
pub fn kind_by_name(name: &str) -> Option<ProcedureKind> {
    ProcedureKind::ALL.iter().copied().find(|k| k.name() == name)
}

/// Maps a plan to the [`ExperimentSpec`] it runs, plus the instant its
/// chaos schedule is relative to (the start of the measured phase, so
/// shrinking the attach pool keeps crash and partition times meaningful).
///
/// A crash names its victim by raw `CpfId`, in any region. Partitions have
/// no spec field: [`run_case`] installs them on the built cluster.
///
/// Panics on a malformed plan (unknown system, procedure kind or storm
/// shape) — plans come from [`Scenario::plans`](crate::scenario::Scenario::plans)
/// or a pinned corpus file, and a typo
/// there should fail loudly, not skip silently.
pub fn experiment_spec(plan: &CasePlan) -> (ExperimentSpec, Instant) {
    let mut config = config_by_name(&plan.system)
        .unwrap_or_else(|| panic!("unknown system `{}`", plan.system));
    let kind =
        kind_by_name(&plan.kind).unwrap_or_else(|| panic!("unknown procedure `{}`", plan.kind));
    if let Some(storm) = &plan.storm {
        if storm.admission_rate_pps > 0 {
            config = config.with_admission(AdmissionParams::for_rate(storm.admission_rate_pps));
        }
    }
    #[cfg(feature = "test-support")]
    {
        config.mutant = plan.mutant;
    }
    // The workload: uniform-with-pool by default, or the plan's storm
    // shape. `measured_start` anchors the chaos schedule (crash/partition
    // times are relative to it) and `horizon` covers the traffic plus the
    // drain margin.
    let (workload, measured_start, horizon): (Workload, Instant, Duration) = match &plan.storm {
        None => {
            let (w, measured_start) = uniform_with_pool(
                UniformParams {
                    rate_pps: plan.rate_pps,
                    duration: Duration::from_millis(plan.duration_ms),
                    kind,
                    ues: plan.ues,
                    first_ue: 0,
                    start: Instant::ZERO,
                },
                ATTACH_RATE_PPS,
            );
            let horizon = measured_start.saturating_since(Instant::ZERO)
                + Duration::from_millis(plan.duration_ms + plan.drain_ms);
            (w, measured_start, horizon)
        }
        Some(storm) if storm.shape == "flash-crowd" => {
            let (w, sched) = flash_crowd_reattach(FlashCrowdParams {
                ues: plan.ues,
                first_ue: 0,
                steady_pps: plan.rate_pps,
                // Under the gate, pace the pool attach at half the
                // admission rate so the pre-storm phase registers without
                // tripping the gate itself.
                attach_pps: storm.admission_rate_pps / 2,
                steady: Duration::from_millis(storm.steady_ms),
                surge_delay: Duration::from_millis(storm.surge_delay_ms),
                surge_rate_pps: storm.surge_rate_pps,
                tail: Duration::from_millis(storm.tail_ms),
                start: Instant::ZERO,
            });
            let horizon = sched.end.saturating_since(Instant::ZERO)
                + Duration::from_millis(plan.drain_ms);
            (w, sched.steady_start, horizon)
        }
        Some(storm) if storm.shape == "iot-burst" => {
            let w = iot_burst_storm(IotStormParams {
                devices: plan.ues,
                first_ue: 0,
                pulses: storm.pulses,
                period: Duration::from_millis(storm.period_ms),
                window: Duration::from_millis(storm.window_ms),
                kind,
                start: Instant::ZERO,
            });
            let horizon = Duration::from_millis(
                storm.pulses * storm.period_ms + storm.window_ms + plan.drain_ms,
            );
            (w, Instant::ZERO, horizon)
        }
        Some(storm) => panic!("unknown storm shape `{}`", storm.shape),
    };
    let mut spec = ExperimentSpec::new(config, workload);
    spec.failures = plan
        .crashes
        .iter()
        .map(|c| FailureSpec {
            at: measured_start + Duration::from_nanos(c.at_ns),
            cpf: CpfId::new(c.cpf),
        })
        .collect();
    spec.horizon = horizon;
    spec.links = LinkProfile {
        jitter: Duration::from_micros(plan.jitter_us),
        faults: FaultSpec {
            loss: plan.loss_ppm as f64 / 1e6,
            duplicate: plan.duplicate_ppm as f64 / 1e6,
            reorder: plan.reorder_ppm as f64 / 1e6,
            reorder_window: Duration::from_micros(plan.reorder_window_us),
        },
        ..LinkProfile::default()
    };
    spec.seed = plan.seed;
    (spec, measured_start)
}

/// Builds the cluster a plan runs on: [`experiment_spec`]'s spec with the
/// plan's partitions installed. Also returns the measured-phase start and
/// the horizon. Panics on a malformed plan, as [`experiment_spec`] does,
/// or on an unknown partition endpoint or crash victim.
fn build_case(plan: &CasePlan) -> (Cluster, Instant, Instant) {
    let (spec, measured_start) = experiment_spec(plan);
    let horizon_end = Instant::ZERO + spec.horizon;
    let mut cluster = experiment::build(spec);
    let cpf_count = cluster.deployment.all_cpfs().len() as u64;
    if let Some(c) = plan.crashes.iter().find(|c| c.cpf >= cpf_count) {
        panic!(
            "crash victim cpf {} is not one of the {cpf_count} CPFs",
            c.cpf
        );
    }
    let region0 = &cluster.deployment.regions()[0];
    let (cta0, cpfs) = (region0.cta, region0.cpfs.clone());
    for p in &plan.partitions {
        let resolve = |e: &EndpointPlan| match e.kind.as_str() {
            "cta" => cta_node(cta0),
            "cpf" => cpf_node(cpfs[e.index as usize % cpfs.len()]),
            other => panic!("unknown partition endpoint kind `{other}`"),
        };
        cluster.sim.links_mut().add_partition(
            resolve(&p.a),
            resolve(&p.b),
            measured_start + Duration::from_millis(p.from_ms),
            measured_start + Duration::from_millis(p.until_ms),
        );
    }
    (cluster, measured_start, horizon_end)
}

/// The crash points of a crash-free `base` plan: one plan per delivery to
/// a CPF during or after `base`'s measured phase, crashing that CPF at
/// that delivery's instant. Deliveries sharing an instant and a victim
/// are one point. A crash scheduled at build time wins the same-instant
/// tie ([`Sim::crash_at`](neutrino_netsim::Sim::crash_at)) and the run is
/// `base`'s run until then, so the victim loses exactly that delivery and
/// everything after it. Each point's plan keeps `base`'s drain after its
/// crash: a crash late in the drain must still leave the UEs their time
/// to recover.
pub fn crash_points(base: &CasePlan) -> Vec<CasePlan> {
    let (mut cluster, measured_start, horizon_end) = build_case(base);
    let points: Rc<RefCell<BTreeSet<(Instant, CpfId)>>> = Rc::default();
    let sink = Rc::clone(&points);
    cluster.sim.set_delivery_tap(Box::new(move |at, _, to, _| {
        if let Some(NodeAddr::Cpf(cpf)) = NodeAddr::from_node_raw(to.raw()) {
            if at >= measured_start {
                sink.borrow_mut().insert((at, cpf));
            }
        }
    }));
    experiment::advance(&mut cluster, horizon_end);
    let measured_end_ns = base.duration_ms * NS_PER_MS;
    let points = points.take();
    points
        .into_iter()
        .map(|(at, cpf)| {
            let at_ns = at.saturating_since(measured_start).as_nanos();
            let past_end_ms = at_ns.saturating_sub(measured_end_ns).div_ceil(NS_PER_MS);
            CasePlan {
                crashes: vec![CrashPlan {
                    at_ns,
                    cpf: cpf.raw(),
                }],
                drain_ms: base.drain_ms + past_end_ms,
                ..base.clone()
            }
        })
        .collect()
}

/// Runs one plan to its horizon with oracle passes every
/// `check_interval_ms`, plus a final pass after the drain. A delivery tap
/// installed on the built cluster records every delivered protocol-flow
/// edge without perturbing the event stream; the final pass adds the flow
/// verdict ([`flowcov::verdict`]) to the invariants' findings.
///
/// The run is [`experiment_spec`]'s spec on `experiment`'s one run path
/// (build → advance → finish); only the pause points differ from a figure
/// run. Panics on a malformed plan, as [`experiment_spec`] does, on an
/// unknown partition endpoint or crash victim, or on an unknown invariant.
pub fn run_case(plan: &CasePlan) -> CheckReport {
    let (mut cluster, _, horizon_end) = build_case(plan);
    let seen: Rc<RefCell<BTreeSet<Edge>>> = Rc::default();
    cluster.sim.set_delivery_tap(flowcov::tap(Rc::clone(&seen)));

    let mut invariants: Vec<(&str, Box<dyn Invariant>)> = plan
        .invariants
        .iter()
        .map(|n| {
            let row = invariants::row(n).unwrap_or_else(|| panic!("unknown invariant `{n}`"));
            (row.name, (row.build)(plan))
        })
        .collect();

    // The oracle loop. Each pause lands on a multiple of the check
    // interval, but only when at least one event occurred since the last
    // pause — the next-event peek makes empty stretches free.
    let interval = Duration::from_millis(plan.check_interval_ms.max(1));
    let mut passes = 0u64;
    let mut recorded: Vec<ViolationRecord> = Vec::new();
    let mut total_violations = 0u64;
    let mut run_pass = |cluster: &mut Cluster, now: Instant, final_pass: bool| {
        let mut batch: Vec<ViolationRecord> = Vec::new();
        for (name, inv) in invariants.iter_mut() {
            let mut ctx = OracleCtx {
                cluster,
                now,
                final_pass,
            };
            let findings = inv.check(&mut ctx);
            batch.extend(findings.into_iter().map(|f| ViolationRecord::stamp(name, now, f)));
        }
        if final_pass {
            let misrouted = flowcov::misrouted(cluster);
            let findings = flowcov::verdict(&seen.borrow(), &misrouted);
            let flow = findings.into_iter().map(|f| ViolationRecord::stamp(FLOW_CONTRACT, now, f));
            batch.extend(flow);
        }
        // One stable order over several invariants' findings and the flow
        // verdict: the report, and which records the cap keeps, do not
        // depend on the order the checks ran in.
        batch.sort_by(|a, b| (&a.invariant, a.ue, &a.detail).cmp(&(&b.invariant, b.ue, &b.detail)));
        total_violations += batch.len() as u64;
        let room = MAX_RECORDED_VIOLATIONS - recorded.len();
        recorded.extend(batch.into_iter().take(room));
    };
    loop {
        let next = match cluster.sim.next_event_at() {
            Some(t) if t < horizon_end => t,
            _ => break,
        };
        let k = next.as_nanos() / interval.as_nanos() + 1;
        let pause = Instant::from_nanos(k * interval.as_nanos());
        if pause >= horizon_end {
            break;
        }
        experiment::advance(&mut cluster, pause);
        passes += 1;
        run_pass(&mut cluster, pause, false);
    }
    experiment::advance(&mut cluster, horizon_end);
    passes += 1;
    run_pass(&mut cluster, horizon_end, true);

    let results = experiment::finish(cluster, None);
    CheckReport {
        violations: recorded,
        passes,
        fingerprint: Fingerprint::of(&results, total_violations),
        witnessed: seen.take(),
    }
}
