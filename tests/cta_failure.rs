//! Failure scenario 4 (§4.2.5): the CTA itself fails.
//!
//! "As we do not backup CTA state, recovery in failure scenario 4 is
//! exactly similar to that of scenario 3. When a CTA fails, the UE executes
//! the Re-Attach procedure, through a new CTA, creating (i) fresh state for
//! the UE at new CPF(s) and (ii) a mapping of the UE to a specific CPF on
//! the new CTA."

use neutrino::prelude::*;
use neutrino_core::experiment;
use neutrino_core::{Cluster, UePopConfig};

fn build(config: SystemConfig, ues: u64, retry_ms: u64) -> Cluster {
    let mut arrivals = Vec::new();
    for u in 0..ues {
        arrivals.push(Arrival {
            at: Instant::from_micros(u * 400),
            ue: UeId::new(u),
            kind: ProcedureKind::InitialAttach,
        });
        // A service request scheduled after the CTA will be dead.
        arrivals.push(Arrival {
            at: Instant::from_millis(200) + Duration::from_micros(u * 400),
            ue: UeId::new(u),
            kind: ProcedureKind::ServiceRequest,
        });
    }
    let mut uecfg = UePopConfig {
        retry_timeout: Duration::from_millis(retry_ms),
        ..Default::default()
    };
    for u in 0..ues {
        uecfg.record_windows_for.insert(UeId::new(u));
    }
    let mut spec = ExperimentSpec::new(config, Workload::from_vec(arrivals));
    spec.uecfg = uecfg;
    experiment::build(spec)
}

#[test]
fn ues_recover_through_a_new_cta() {
    for config in [SystemConfig::neutrino(), SystemConfig::existing_epc()] {
        let name = config.name;
        let mut cluster = build(config, 20, 100);
        // Attaches complete by ~100 ms; the region-0 CTA dies before the
        // service requests start.
        cluster.fail_cta_at(Instant::from_millis(150), 0);
        cluster.run_until(Instant::from_secs(120));
        let results = cluster.take_results();
        assert_eq!(
            results.incomplete, 0,
            "{name}: every UE must eventually recover: {results:?}"
        );
        assert!(
            results.re_attached >= 20,
            "{name}: recovery is by re-attach through the new CTA \
             (re_attached={})",
            results.re_attached
        );
        // The service requests completed — after the re-attach established
        // fresh state at the new region's CPFs.
        assert!(
            results.completed >= 40,
            "{name}: attaches + service requests all done ({})",
            results.completed
        );
    }
}

#[test]
fn scenario4_pct_includes_the_ue_side_timeout() {
    // Scenario-4 recovery is UE-driven: the PCT of an interrupted procedure
    // includes at least one retry timeout before the re-attach (unlike the
    // CPF-failure scenarios, where the CTA notice recovers proactively).
    let mut cluster = build(SystemConfig::neutrino(), 10, 80);
    cluster.fail_cta_at(Instant::from_millis(150), 0);
    cluster.run_until(Instant::from_secs(120));
    let results = cluster.take_results();
    let slow_srs = results
        .windows
        .iter()
        .filter(|w| {
            w.kind == ProcedureKind::ServiceRequest
                && w.end.saturating_since(w.start) >= Duration::from_millis(80)
        })
        .count();
    assert!(
        slow_srs >= 10,
        "interrupted service requests must carry the timeout: {} of {:?}",
        slow_srs,
        results.windows.len()
    );
}

#[test]
fn healthy_regions_are_unaffected_by_a_remote_cta_failure() {
    // Crash a *sibling* region's CTA: region 0 traffic must not notice.
    let mut cluster = build(SystemConfig::neutrino(), 20, 100);
    cluster.fail_cta_at(Instant::from_millis(50), 2);
    cluster.run_until(Instant::from_secs(60));
    let results = cluster.take_results();
    assert_eq!(results.incomplete, 0);
    assert_eq!(results.re_attached, 0, "nobody re-attaches: {results:?}");
    assert_eq!(results.retransmissions, 0);
}
