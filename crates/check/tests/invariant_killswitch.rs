//! Kill switches: one lever per catalog invariant.
//!
//! Each lever builds a small healthy cluster, shows the invariant is
//! silent on it, then manufactures exactly the state the invariant guards
//! against and asserts it fires *by name* (stamped as the runner stamps
//! it). This is the oracle suite's own
//! oracle — an invariant whose kill switch cannot make it fire is dead
//! code wearing a checkmark. The one test walks `CATALOG` and picks the
//! lever by name with a panicking default, so a catalog row without a
//! lever fails the suite.
//!
//! Levers go through test-support mutators (`results_mut`, `log_mut`,
//! `force_priority_evidence`) or raw engine actions (`crash_at` without
//! failover notices) precisely because the production paths are built
//! to *never* produce these states.

use neutrino_check::invariants::{CatalogRow, CATALOG};
use neutrino_check::oracle::{Invariant, OracleCtx};
use neutrino_check::{CasePlan, Scenario, ViolationRecord};
use neutrino_common::time::{Duration, Instant};
use neutrino_common::{ProcedureId, UeId};
use neutrino_core::experiment::{self, ExperimentSpec};
use neutrino_core::simnode::{cpf_node, cta_node, upf_node, CtaNode, UpfNode};
use neutrino_core::{Arrival, Cluster, SimMsg, SystemConfig, Workload};
use neutrino_cta::AdmissionParams;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::sysmsg::{S11Request, SessionOp};
use neutrino_messages::{AdmissionClass, SysMsg};

/// Four UEs attaching 100 µs apart — enough traffic for every oracle to
/// have something to look at, small enough to drain in milliseconds.
fn small_cluster(config: SystemConfig) -> Cluster {
    let arrivals: Vec<Arrival> = (0..4)
        .map(|u| Arrival {
            at: Instant::ZERO + Duration::from_micros(u * 100),
            ue: UeId::new(u),
            kind: ProcedureKind::InitialAttach,
        })
        .collect();
    let mut spec = ExperimentSpec::new(config, Workload::from_vec(arrivals));
    spec.horizon = Duration::from_millis(200);
    spec.seed = 7;
    experiment::build(spec)
}

/// One pass of `inv`, its findings stamped with the row's name as the
/// runner stamps them.
fn check_at(
    row: &CatalogRow,
    cluster: &mut Cluster,
    inv: &mut dyn Invariant,
    now: Instant,
    final_pass: bool,
) -> Vec<ViolationRecord> {
    let mut ctx = OracleCtx {
        cluster,
        now,
        final_pass,
    };
    let findings = inv.check(&mut ctx);
    findings.into_iter().map(|f| ViolationRecord::stamp(row.name, now, f)).collect()
}

fn at_ms(ms: u64) -> Instant {
    Instant::ZERO + Duration::from_millis(ms)
}

/// A storm-free plan: every invariant gets its default configuration.
fn plain_plan() -> CasePlan {
    Scenario::by_name("chaos").unwrap().plan(0)
}

fn assert_fired(row: &CatalogRow, fired: &[ViolationRecord], why: &str) {
    assert!(!fired.is_empty(), "{why}");
    assert!(fired.iter().all(|v| v.invariant == row.name), "{fired:?}");
}

#[test]
fn every_catalog_invariant_has_a_kill_switch_that_fires() {
    for row in CATALOG {
        match row.name {
            "consistency" => kill_switch_consistency(row),
            "no-lost-procedure" => kill_switch_no_lost_procedure(row),
            "bounded-stall" => kill_switch_bounded_stall(row),
            "session-ownership" => kill_switch_session_ownership(row),
            "bounded-retry" => kill_switch_bounded_retry(row),
            "monotonic-checkpoint" => kill_switch_monotonic_checkpoint(row),
            "bounded-queue" => kill_switch_bounded_queue(row),
            "shed-priority-order" => kill_switch_shed_priority_order(row),
            "no-retry-amplification" => kill_switch_no_retry_amplification(row),
            other => panic!("invariant `{other}` has no kill switch — add a lever for it"),
        }
    }
}

fn kill_switch_consistency(row: &CatalogRow) {
    // EPC keeps one state copy and no log: raw-crashing the serving CPF
    // (no failover notice, so nothing recovers) leaves the CTA expecting
    // procedures no live node can serve.
    let mut cluster = small_cluster(SystemConfig::existing_epc());
    cluster.run_until(at_ms(50));
    let mut inv = (row.build)(&plain_plan());
    assert!(
        check_at(row, &mut cluster, &mut *inv, at_ms(50), false).is_empty(),
        "healthy EPC cluster must audit clean"
    );
    let victim = cluster.serving_cpf(UeId::new(0)).expect("ue 0 attached");
    cluster.sim.crash_at(at_ms(51), cpf_node(victim));
    cluster.run_until(at_ms(60));
    let fired = check_at(row, &mut cluster, &mut *inv, at_ms(60), false);
    assert_fired(row, &fired, "lost state copy must fire");
}

fn kill_switch_no_lost_procedure(row: &CatalogRow) {
    // Stop mid-flight: the final pass then sees procedures still active.
    let mut cluster = small_cluster(SystemConfig::neutrino());
    cluster.run_until(Instant::ZERO + Duration::from_micros(150));
    let mut inv = (row.build)(&plain_plan());
    assert!(
        check_at(row, &mut cluster, &mut *inv, at_ms(0), false).is_empty(),
        "mid-run passes must stay silent (procedures are always in flight)"
    );
    let fired = check_at(row, &mut cluster, &mut *inv, at_ms(0), true);
    assert_fired(row, &fired, "in-flight procedure at final pass must fire");
}

fn kill_switch_bounded_stall(row: &CatalogRow) {
    // A procedure is legitimately in flight; pretending an hour passed
    // with no progress puts it far beyond the retry machinery's bound.
    let mut cluster = small_cluster(SystemConfig::neutrino());
    cluster.run_until(Instant::ZERO + Duration::from_micros(150));
    let mut inv = (row.build)(&plain_plan());
    assert!(
        check_at(row, &mut cluster, &mut *inv, Instant::ZERO + Duration::from_micros(150), false)
            .is_empty(),
        "a fresh in-flight procedure is not a stall"
    );
    let fired = check_at(row, &mut cluster, &mut *inv, at_ms(3_600_000), false);
    assert_fired(row, &fired, "hour-long no-progress window must fire");
}

fn kill_switch_session_ownership(row: &CatalogRow) {
    // Plant a session at a UPF for a UE no CTA has ever heard of.
    let mut cluster = small_cluster(SystemConfig::neutrino());
    cluster.run_until(at_ms(100));
    let mut inv = (row.build)(&plain_plan());
    assert!(
        check_at(row, &mut cluster, &mut *inv, at_ms(100), false).is_empty(),
        "every session in a healthy run has an owner"
    );
    let upf = cluster.deployment.regions()[0].upfs[0];
    let cpf = cluster.deployment.regions()[0].cpfs[0];
    cluster
        .sim
        .node_as::<UpfNode>(upf_node(upf))
        .expect("upf exists")
        .core_mut()
        .on_s11(S11Request {
            ue: UeId::new(999_999),
            cpf,
            op: SessionOp::Create,
            session: None,
        });
    let fired = check_at(row, &mut cluster, &mut *inv, at_ms(100), false);
    assert_fired(row, &fired, "orphaned session must fire");
    assert_eq!(fired[0].ue, Some(999_999));
}

fn kill_switch_bounded_retry(row: &CatalogRow) {
    // Forge a retransmission counter with no drops to justify it.
    let mut cluster = small_cluster(SystemConfig::neutrino());
    cluster.run_until(at_ms(100));
    let mut inv = (row.build)(&plain_plan());
    assert!(
        check_at(row, &mut cluster, &mut *inv, at_ms(100), false).is_empty(),
        "fault-free run retransmits within budget"
    );
    cluster.population().unwrap().results_mut().retransmissions = 10_000;
    let fired = check_at(row, &mut cluster, &mut *inv, at_ms(100), false);
    assert_fired(row, &fired, "unexplained retransmissions must fire");
}

fn kill_switch_monotonic_checkpoint(row: &CatalogRow) {
    // Record watermarks on one pass, then rewind a UE's completed-
    // procedure watermark at the CTA before the next.
    let mut cluster = small_cluster(SystemConfig::neutrino());
    cluster.run_until(at_ms(100));
    let mut inv = (row.build)(&plain_plan());
    assert!(
        check_at(row, &mut cluster, &mut *inv, at_ms(100), false).is_empty(),
        "first pass only records watermarks"
    );
    let cta = cluster.deployment.regions()[0].cta;
    let node = cluster
        .sim
        .node_as::<CtaNode>(cta_node(cta))
        .expect("cta exists");
    let log = node.core_mut().log_mut();
    assert!(
        log.ue(UeId::new(0)).map(|l| l.last_completed.raw()).unwrap_or(0) > 0,
        "ue 0 must have completed procedures for the rewind to regress"
    );
    log.ue_mut(UeId::new(0)).last_completed = ProcedureId(0);
    let fired = check_at(row, &mut cluster, &mut *inv, at_ms(101), false);
    assert_fired(row, &fired, "regressed watermark must fire");
}

fn kill_switch_bounded_queue(row: &CatalogRow) {
    // Burst eight simultaneous deliveries into one UPF so its engine
    // queue provably exceeds a cap of one.
    let mut cluster = small_cluster(SystemConfig::neutrino());
    cluster.run_until(at_ms(100));
    let mut healthy = (row.build)(&plain_plan());
    assert!(
        check_at(row, &mut cluster, &mut *healthy, at_ms(100), false).is_empty(),
        "attach traffic stays under the default cap"
    );
    let upf = cluster.deployment.regions()[0].upfs[0];
    for _ in 0..8 {
        cluster
            .sim
            .inject_at(at_ms(101), upf_node(upf), SimMsg::Sys(SysMsg::DownlinkData {
                ue: UeId::new(0),
            }));
    }
    cluster.run_until(at_ms(110));
    let mut storm_plan = Scenario::by_name("iot-burst-storm").unwrap().plan(0);
    storm_plan.storm.as_mut().expect("storm family").queue_cap = 1;
    let mut inv = (row.build)(&storm_plan);
    let fired = check_at(row, &mut cluster, &mut *inv, at_ms(110), false);
    assert_fired(row, &fired, "queue depth past the cap must fire");
}

fn kill_switch_shed_priority_order(row: &CatalogRow) {
    // Forge inverted gate evidence: a handover shed at a token level
    // where a detach was still admitted. `decide` itself can never
    // produce this — that is the property under test.
    let config = SystemConfig::neutrino().with_admission(AdmissionParams::for_rate(1_000));
    let mut cluster = small_cluster(config);
    cluster.run_until(at_ms(100));
    let mut inv = (row.build)(&plain_plan());
    assert!(
        check_at(row, &mut cluster, &mut *inv, at_ms(100), true).is_empty(),
        "an untouched gate keeps the priority ladder"
    );
    let cta = cluster.deployment.regions()[0].cta;
    let gate = cluster
        .sim
        .node_as::<CtaNode>(cta_node(cta))
        .expect("cta exists")
        .core_mut()
        .admission_mut()
        .expect("admission gate configured");
    gate.force_priority_evidence(AdmissionClass::Detach, Some(400), None);
    gate.force_priority_evidence(AdmissionClass::Handover, None, Some(500));
    assert!(
        check_at(row, &mut cluster, &mut *inv, at_ms(100), false).is_empty(),
        "evidence is cumulative; only the final pass judges it"
    );
    let fired = check_at(row, &mut cluster, &mut *inv, at_ms(100), true);
    assert_fired(row, &fired, "inverted shed ladder must fire");
}

fn kill_switch_no_retry_amplification(row: &CatalogRow) {
    // Retransmissions far beyond what drops and rejects license.
    let mut cluster = small_cluster(SystemConfig::neutrino());
    cluster.run_until(at_ms(100));
    let mut inv = (row.build)(&plain_plan());
    assert!(
        check_at(row, &mut cluster, &mut *inv, at_ms(100), true).is_empty(),
        "fault-free run has no amplification"
    );
    let results = cluster.population().unwrap().results_mut();
    results.retransmissions = 10_000;
    results.rejected = 10;
    assert!(
        check_at(row, &mut cluster, &mut *inv, at_ms(100), false).is_empty(),
        "amplification is judged at the final pass only"
    );
    let fired = check_at(row, &mut cluster, &mut *inv, at_ms(100), true);
    assert_fired(row, &fired, "storm-feeding retries must fire");
}
