//! Fig. 9: attach PCT under bursty IoT traffic, by active-user count.

use super::{PctPoint, Profile};
use crate::sweep::Cell;
use neutrino_common::time::{Duration, Instant};
use neutrino_core::experiment::{run_experiment, ExperimentSpec};
use neutrino_core::SystemConfig;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_trafficgen::{bursty_attach, BurstParams};

/// One burst cell: N devices attach in a synchronized window; the PCT
/// distribution reflects the queue the burst builds.
pub fn burst_cell(config: SystemConfig, active_users: u64) -> neutrino_common::stats::Summary {
    let workload = bursty_attach(BurstParams {
        active_users,
        window: Duration::from_millis(100),
        kind: ProcedureKind::InitialAttach,
        first_ue: 0,
        start: Instant::from_millis(10),
    });
    let mut spec = ExperimentSpec::new(config, workload);
    // Draining a large burst takes a while; let it finish.
    spec.horizon = Duration::from_secs(600);
    spec.uecfg.pct_sample_every = (active_users / 50_000).max(1);
    // Burst retransmissions would only add load on a healthy system.
    spec.uecfg.retry_timeout = Duration::from_secs(120);
    let mut results = run_experiment(spec);
    results.summary(ProcedureKind::InitialAttach)
}

/// Fig. 9's active-user counts. The paper goes to 2M; the default full
/// profile stops at 500K to bound the harness's memory (the shape is linear
/// well before that); pass `--huge` to the repro binary for the full axis.
pub fn fig9_users(profile: Profile, huge: bool) -> Vec<u64> {
    match (profile, huge) {
        (Profile::Quick, _) => vec![10_000, 50_000],
        (Profile::Full, false) => vec![10_000, 50_000, 100_000, 500_000],
        (Profile::Full, true) => vec![10_000, 50_000, 100_000, 500_000, 1_000_000, 2_000_000],
    }
}

/// Fig. 9: attach PCT with bursty control traffic.
pub fn fig9(profile: Profile, huge: bool) -> Vec<Cell<PctPoint>> {
    let mut cells: Vec<Cell<PctPoint>> = Vec::new();
    for &users in &fig9_users(profile, huge) {
        for config in [SystemConfig::existing_epc(), SystemConfig::neutrino()] {
            cells.push(Box::new(move || PctPoint {
                x: users,
                system: config.name.to_string(),
                summary: burst_cell(config, users),
            }));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulation-scale test; run with --release"
    )]
    fn burst_pct_grows_with_users_and_epc_is_worse() {
        let neu_small = burst_cell(SystemConfig::neutrino(), 5_000);
        let neu_big = burst_cell(SystemConfig::neutrino(), 20_000);
        assert!(
            neu_big.p50 > neu_small.p50 * 2.0,
            "queueing must grow with the burst: {} vs {}",
            neu_big.p50,
            neu_small.p50
        );
        let epc_big = burst_cell(SystemConfig::existing_epc(), 20_000);
        assert!(
            epc_big.p50 > neu_big.p50 * 1.4,
            "EPC ({}) must drain the burst slower than Neutrino ({})",
            epc_big.p50,
            neu_big.p50
        );
        assert_eq!(neu_big.count, 20_000, "every attach completes");
    }
}
