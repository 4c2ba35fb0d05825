//! The §3.1 / Figure 2 scenario, end to end: downlink reachability when a
//! CPF fails right after attach.
//!
//! "UE attaches ... the CPF fails [before updating the replica] ... if the
//! user receives a voice call or downlink data, the core network will not
//! be able to send it to the UE."
//!
//! The disruption is about *paging*: an idle UE can only be reached if the
//! control plane still holds its state. Neutrino's per-procedure checkpoint
//! means a backup has the state and pages the UE; the EPC's only recourse
//! is waking the UE through a re-attach (after which the session is
//! recreated).

use neutrino::prelude::*;
use neutrino_core::experiment;
use neutrino_geo::RegionLayout;

struct Outcome {
    delivered_at: Option<Instant>,
    paged: u64,
    re_attached: u64,
}

/// Runs the Figure-2 timeline for one system and reports when the downlink
/// data finally reached the UE.
fn figure2(config: SystemConfig) -> Outcome {
    let ue = UeId::new(0);
    let victim =
        neutrino_core::experiment::primary_cpf_for(&config, RegionLayout::default(), ue).unwrap();

    // A small population attaches; UE 0 is the subject.
    let arrivals: Vec<Arrival> = (0..30u64)
        .map(|u| Arrival {
            at: Instant::from_micros(u * 300),
            ue: UeId::new(u),
            kind: ProcedureKind::InitialAttach,
        })
        .collect();
    let mut cluster = experiment::build(ExperimentSpec::new(config, Workload::from_vec(arrivals)));

    // Let every attach complete, then the UE goes idle (inactivity).
    cluster.run_until(Instant::from_millis(100));
    cluster.release_ue_to_idle(ue);

    // The UE's primary CPF dies before serving anything else.
    cluster.fail_cpf_at(Instant::from_millis(120), victim);

    // Downlink data (a voice call, a push message) arrives for the idle UE.
    cluster.inject_downlink_data_at(Instant::from_millis(150), ue);
    // And again periodically until connectivity returns (the caller
    // retries).
    for k in 1..40u64 {
        cluster.inject_downlink_data_at(Instant::from_millis(150 + k * 50), ue);
    }
    cluster.run_until(Instant::from_secs(30));

    let delivered_at = cluster
        .downlink_log()
        .iter()
        .find(|(_, u, delivered)| *u == ue && *delivered)
        .map(|(t, _, _)| *t);
    let results = cluster.take_results();
    Outcome {
        delivered_at,
        paged: results.paged,
        re_attached: results.re_attached,
    }
}

#[test]
fn neutrino_pages_the_ue_from_a_replica() {
    let o = figure2(SystemConfig::neutrino());
    let t = o
        .delivered_at
        .expect("downlink data must eventually reach the UE");
    assert!(o.paged > 0, "the backup CPF must have paged the UE");
    assert_eq!(o.re_attached, 0, "no re-attach needed: the replica serves");
    // Recovery is one page + one service request after the first retry.
    assert!(
        t < Instant::from_millis(400),
        "Neutrino reachability restored late: {t:?}"
    );
}

#[test]
fn epc_reaches_the_ue_only_after_re_attach() {
    let o = figure2(SystemConfig::existing_epc());
    o.delivered_at
        .expect("the EPC eventually restores reachability too");
    assert!(
        o.re_attached > 0,
        "without replicas the UE must be re-attached"
    );
    assert_eq!(o.paged, 0, "no CPF held state to page from");
}

#[test]
fn neutrino_restores_reachability_faster_than_epc() {
    let n = figure2(SystemConfig::neutrino())
        .delivered_at
        .expect("neutrino delivers");
    let e = figure2(SystemConfig::existing_epc())
        .delivered_at
        .expect("epc delivers");
    assert!(
        n <= e,
        "Neutrino ({n:?}) must not be slower than the EPC ({e:?}) at \
         restoring downlink reachability"
    );
}

#[test]
fn active_sessions_deliver_without_control_plane_help() {
    // Control-plane failure does not break the data plane for connected
    // UEs: deliveries succeed with no paging at all.
    let config = SystemConfig::neutrino();
    let ue = UeId::new(0);
    let victim =
        neutrino_core::experiment::primary_cpf_for(&config, RegionLayout::default(), ue).unwrap();
    let arrivals = vec![Arrival {
        at: Instant::ZERO,
        ue,
        kind: ProcedureKind::InitialAttach,
    }];
    let mut cluster = experiment::build(ExperimentSpec::new(config, Workload::from_vec(arrivals)));
    cluster.run_until(Instant::from_millis(50));
    cluster.fail_cpf_at(Instant::from_millis(60), victim);
    cluster.inject_downlink_data_at(Instant::from_millis(80), ue);
    cluster.run_until(Instant::from_secs(2));
    let log = cluster.downlink_log();
    assert!(
        log.iter().any(|(_, u, d)| *u == ue && *d),
        "active session must keep forwarding: {log:?}"
    );
    assert_eq!(cluster.take_results().paged, 0);
}
