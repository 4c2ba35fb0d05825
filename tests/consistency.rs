//! Cross-crate consistency tests: the Read-your-Writes contract of §4.2
//! checked over the whole assembled system, including under randomized
//! fault schedules (proptest).
//!
//! The observable contract (DESIGN.md §7): after a UE completes a control
//! procedure, the CPF that serves its next message holds state reflecting
//! that procedure — or the UE is explicitly re-attached, never silently
//! served from stale state. We check it two ways:
//!
//! 1. after a run fully drains, the serving CPF's state version equals the
//!    last procedure the UE completed (captured via probe windows);
//! 2. every procedure eventually completes (liveness) despite crashes.

use neutrino::prelude::*;
use neutrino_core::experiment;
use neutrino_core::Cluster;
use neutrino_geo::RegionLayout;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Builds a mixed workload: every UE attaches, then runs `extra` more
/// procedures drawn from the mix, spaced `spacing_us` apart.
fn mixed_workload(ues: u64, extra: usize, spacing_us: u64, mix_seed: u64) -> Vec<Arrival> {
    let kinds = [
        ProcedureKind::ServiceRequest,
        ProcedureKind::TrackingAreaUpdate,
        ProcedureKind::HandoverWithCpfChange,
        ProcedureKind::ServiceRequest,
    ];
    let mut v = Vec::new();
    for u in 0..ues {
        v.push(Arrival {
            at: Instant::from_micros(u * spacing_us),
            ue: UeId::new(u),
            kind: ProcedureKind::InitialAttach,
        });
        for k in 0..extra {
            let kind = kinds[((mix_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u * 31 + k as u64))
                % kinds.len() as u64) as usize];
            v.push(Arrival {
                at: Instant::from_millis(60 + k as u64 * 40)
                    + Duration::from_micros(u * spacing_us),
                ue: UeId::new(u),
                kind,
            });
        }
    }
    v
}

/// Runs a cluster to completion with optional failures; returns the cluster
/// (for state inspection) and the UE population results.
fn run_cluster(
    config: SystemConfig,
    arrivals: Vec<Arrival>,
    failures: Vec<(Instant, neutrino::common::CpfId)>,
    probe_all_up_to: u64,
) -> (Cluster, neutrino_core::uepop::UePopResults) {
    let mut spec = ExperimentSpec::new(config, Workload::from_vec(arrivals));
    for u in 0..probe_all_up_to {
        spec.uecfg.record_windows_for.insert(UeId::new(u));
    }
    let mut cluster = experiment::build(spec);
    for (at, cpf) in failures {
        cluster.fail_cpf_at(at, cpf);
    }
    cluster.run_until(Instant::from_secs(600));
    let results = cluster.take_results();
    (cluster, results)
}

/// The core RYW check: each probed UE's serving CPF holds exactly the state
/// version of the UE's last completed procedure.
fn assert_ryw(cluster: &mut Cluster, results: &neutrino_core::uepop::UePopResults, ues: u64) {
    let mut last_completed: HashMap<UeId, neutrino::common::ProcedureId> = HashMap::new();
    for w in &results.windows {
        let e = last_completed.entry(w.ue).or_insert(w.procedure);
        if w.procedure > *e {
            *e = w.procedure;
        }
    }
    assert!(!last_completed.is_empty(), "probes recorded completions");
    for u in 0..ues {
        let ue = UeId::new(u);
        let expected = match last_completed.get(&ue) {
            Some(p) => *p,
            None => continue,
        };
        assert!(
            cluster.ue_servable(ue),
            "{ue}: serving CPF must hold fresh (not outdated) state"
        );
        let version = cluster
            .ue_state_version(ue)
            .unwrap_or_else(|| panic!("{ue}: serving CPF holds no state"));
        assert_eq!(
            version.procedure, expected,
            "{ue}: serving CPF's state must reflect the last completed \
             procedure (Read-your-Writes)"
        );
    }
}

#[test]
fn ryw_holds_without_failures() {
    let (mut cluster, results) = run_cluster(
        SystemConfig::neutrino(),
        mixed_workload(40, 3, 700, 1),
        vec![],
        40,
    );
    assert_eq!(results.started, 40 * 4);
    assert_eq!(results.completed, 40 * 4);
    assert_ryw(&mut cluster, &results, 40);
}

#[test]
fn ryw_holds_across_a_cpf_failure() {
    let config = SystemConfig::neutrino();
    let victim =
        neutrino_core::experiment::primary_cpf_for(&config, RegionLayout::default(), UeId::new(0))
            .unwrap();
    let (mut cluster, results) = run_cluster(
        config,
        mixed_workload(40, 3, 700, 2),
        vec![(Instant::from_millis(80), victim)],
        40,
    );
    assert_eq!(
        results.incomplete, 0,
        "liveness despite the crash: {results:?}"
    );
    assert!(results.completed >= 160 - results.skipped_busy);
    assert_ryw(&mut cluster, &results, 40);
}

#[test]
fn ryw_holds_for_epc_via_re_attach() {
    // The EPC maintains RYW the expensive way: re-attach recreates state.
    let config = SystemConfig::existing_epc();
    let victim =
        neutrino_core::experiment::primary_cpf_for(&config, RegionLayout::default(), UeId::new(0))
            .unwrap();
    let (mut cluster, results) = run_cluster(
        config,
        mixed_workload(40, 3, 700, 3),
        vec![(Instant::from_millis(80), victim)],
        40,
    );
    assert_eq!(results.incomplete, 0, "liveness: {results:?}");
    assert!(results.completed >= 160 - results.skipped_busy);
    assert!(results.re_attached > 0, "the crash must force re-attaches");
    assert_ryw(&mut cluster, &results, 40);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Randomized fault schedules: one or two CPFs crash at arbitrary times
    /// while a mixed workload runs. Liveness and RYW must hold for both the
    /// replicated system and (via re-attach) the EPC baseline.
    #[test]
    fn ryw_under_randomized_faults(
        mix_seed in 0u64..1_000,
        fail_ms in 20u64..300,
        second_failure in proptest::option::of(320u64..500),
        epc in proptest::bool::ANY,
    ) {
        let config = if epc {
            SystemConfig::existing_epc()
        } else {
            SystemConfig::neutrino()
        };
        // Victims: the CPFs serving UE 0 and UE 1 (usually distinct).
        let layout = RegionLayout::default();
        let v0 = neutrino_core::experiment::primary_cpf_for(&config, layout, UeId::new(0)).unwrap();
        let mut failures = vec![(Instant::from_millis(fail_ms), v0)];
        if let Some(ms2) = second_failure {
            let v1 = neutrino_core::experiment::primary_cpf_for(&config, layout, UeId::new(1)).unwrap();
            if v1 != v0 {
                failures.push((Instant::from_millis(ms2), v1));
            }
        }
        let (mut cluster, results) = run_cluster(
            config,
            mixed_workload(30, 3, 900, mix_seed),
            failures,
            30,
        );
        prop_assert_eq!(
            results.incomplete,
            0,
            "liveness under faults: re_attached={} retrans={}",
            results.re_attached,
            results.retransmissions
        );
        // RYW on every probed UE.
        let mut last_completed: HashMap<UeId, neutrino::common::ProcedureId> = HashMap::new();
        for w in &results.windows {
            let e = last_completed.entry(w.ue).or_insert(w.procedure);
            if w.procedure > *e {
                *e = w.procedure;
            }
        }
        for (&ue, &expected) in &last_completed {
            prop_assert!(cluster.ue_servable(ue), "{} not servable", ue);
            let version = cluster.ue_state_version(ue).expect("state exists");
            prop_assert_eq!(version.procedure, expected, "{} state lags", ue);
        }
    }
}

#[test]
fn all_four_systems_survive_the_same_trace() {
    // The same mixed workload through every baseline: everything completes,
    // and the serving CPFs end fresh.
    let mut medians: HashMap<&'static str, f64> = HashMap::new();
    for config in SystemConfig::comparison_set() {
        let name = config.name;
        let (_cluster, results) = run_cluster(config, mixed_workload(60, 2, 400, 9), vec![], 0);
        assert_eq!(results.incomplete, 0, "{name}");
        let mut all = neutrino::common::stats::Percentiles::new();
        for p in results.pct.values() {
            all.merge(p);
        }
        medians.insert(name, all.median());
    }
    // Neutrino must be the fastest of the four.
    let neutrino = medians["Neutrino"];
    for (name, m) in &medians {
        assert!(
            neutrino <= *m + 1e-9,
            "Neutrino ({neutrino} ms) must not lose to {name} ({m} ms)"
        );
    }
}

#[test]
fn skycore_generates_the_most_sync_traffic() {
    // §6.2/§8: SkyCore broadcasts state on every message — the sync traffic
    // that makes it unscalable.
    let mut syncs = HashMap::new();
    for config in [
        SystemConfig::skycore(),
        SystemConfig::neutrino(),
        SystemConfig::existing_epc(),
    ] {
        let name = config.name;
        let (mut cluster, _results) = run_cluster(config, mixed_workload(50, 2, 500, 4), vec![], 0);
        syncs.insert(name, cluster.cpf_metrics().syncs_sent);
    }
    assert_eq!(syncs["ExistingEPC"], 0);
    assert!(
        syncs["SkyCore"] > 3 * syncs["Neutrino"],
        "SkyCore {} vs Neutrino {}",
        syncs["SkyCore"],
        syncs["Neutrino"]
    );
    assert!(syncs["Neutrino"] > 0);
}

#[test]
fn distinct_ues_never_share_sessions() {
    // Cross-crate sanity: each attached UE ends with its own session id.
    let (mut cluster, results) = run_cluster(
        SystemConfig::neutrino(),
        mixed_workload(30, 1, 600, 5),
        vec![],
        30,
    );
    assert_eq!(results.incomplete, 0);
    let mut seen = HashSet::new();
    for u in 0..30 {
        let ue = UeId::new(u);
        if let Some(cpf) = cluster.serving_cpf(ue) {
            let node = cluster
                .sim
                .node_as::<neutrino_core::simnode::CpfNode>(neutrino_core::simnode::cpf_node(cpf))
                .unwrap();
            if let Some(rec) = node.core().store().get(ue) {
                if let Some(session) = rec.state.get().expect("built decoded").session {
                    assert!(seen.insert(session), "duplicate session {session}");
                }
            }
        }
    }
    assert!(!seen.is_empty());
}
