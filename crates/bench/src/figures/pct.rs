//! Figures 7, 8, 15, 16: procedure completion time vs. uniform arrival rate.

use super::{PctPoint, Profile};
use crate::sweep::Cell;
use neutrino_common::stats::Summary;
use neutrino_common::time::{Duration, Instant};
use neutrino_core::experiment::{run_experiment, ExperimentSpec};
use neutrino_core::{SystemConfig, Workload};
use neutrino_messages::procedures::ProcedureKind;
use neutrino_trafficgen::{uniform, uniform_with_pool, UniformParams};

/// Runs one uniform-rate cell and summarizes the measured kind's PCT.
pub fn uniform_pct_cell(
    config: SystemConfig,
    kind: ProcedureKind,
    rate_pps: u64,
    duration: Duration,
) -> Summary {
    let (workload, measure_kind) = build_workload(kind, rate_pps, duration);
    let mut spec = ExperimentSpec::new(config, workload);
    // Saturated cells would otherwise drain for a long time; everything the
    // paper reports comes from procedures completing within the window.
    spec.horizon = duration + Duration::from_secs(8);
    spec.uecfg.pct_sample_every = if rate_pps > 60_000 { 4 } else { 1 };
    let mut results = run_experiment(spec);
    // The proactive policy may have rewritten the executed kind.
    let mut s = results.summary(measure_kind);
    if s.count == 0 && measure_kind == ProcedureKind::HandoverWithCpfChange {
        s = results.summary(ProcedureKind::FastHandover);
    }
    s
}

/// Builds the workload for a measured kind: attach procedures run directly
/// (each arrival is an attach); other kinds get an attach phase first.
fn build_workload(
    kind: ProcedureKind,
    rate_pps: u64,
    duration: Duration,
) -> (Workload, ProcedureKind) {
    if kind == ProcedureKind::InitialAttach {
        let pool = (rate_pps * duration.as_nanos() / 1_000_000_000).max(1_000);
        let w = uniform(UniformParams {
            rate_pps,
            duration,
            kind,
            ues: pool,
            first_ue: 0,
            start: Instant::ZERO,
        });
        (w, kind)
    } else {
        let pool = UniformParams::pool_for_rate(rate_pps);
        let (w, _) = uniform_with_pool(
            UniformParams {
                rate_pps,
                duration,
                kind,
                ues: pool,
                first_ue: 0,
                start: Instant::ZERO,
            },
            40_000,
        );
        (w, kind)
    }
}

fn sweep(
    systems: Vec<SystemConfig>,
    kind: ProcedureKind,
    rates: &[u64],
    profile: Profile,
) -> Vec<Cell<PctPoint>> {
    let duration = Duration::from_millis(profile.duration_ms());
    let mut cells: Vec<Cell<PctPoint>> = Vec::new();
    for &rate in &profile.rates(rates) {
        for config in &systems {
            let config = config.clone();
            cells.push(Box::new(move || PctPoint {
                x: rate,
                system: config.name.to_string(),
                summary: uniform_pct_cell(config, kind, rate, duration),
            }));
        }
    }
    cells
}

/// Fig. 7: `service request` PCT, 100K–220K PPS, existing EPC / DPCM /
/// SkyCore / Neutrino.
pub fn fig7(profile: Profile) -> Vec<Cell<PctPoint>> {
    sweep(
        SystemConfig::comparison_set(),
        ProcedureKind::ServiceRequest,
        // The paper's axis starts at 100K; the 40–80K points expose the
        // pre-knee comparison region, which sits lower on our calibrated
        // substrate (see EXPERIMENTS.md).
        &[
            40_000, 60_000, 80_000, 100_000, 120_000, 140_000, 160_000, 180_000, 200_000, 220_000,
        ],
        profile,
    )
}

/// Fig. 8: `attach` PCT, 40K–160K PPS, existing EPC vs Neutrino.
pub fn fig8(profile: Profile) -> Vec<Cell<PctPoint>> {
    sweep(
        vec![SystemConfig::existing_epc(), SystemConfig::neutrino()],
        ProcedureKind::InitialAttach,
        &[40_000, 60_000, 80_000, 100_000, 120_000, 140_000, 160_000],
        profile,
    )
}

/// Fig. 15: state-synchronization ablation on `attach` PCT — No Rep /
/// Per Msg Rep / Per Proc Rep.
pub fn fig15(profile: Profile) -> Vec<Cell<PctPoint>> {
    sweep(
        vec![
            SystemConfig::neutrino_no_replication(),
            SystemConfig::neutrino_per_message(),
            SystemConfig::neutrino(),
        ],
        ProcedureKind::InitialAttach,
        &[20_000, 40_000, 60_000, 80_000, 100_000],
        profile,
    )
}

/// Fig. 16: CTA message logging on/off on `attach` PCT.
pub fn fig16(profile: Profile) -> Vec<Cell<PctPoint>> {
    sweep(
        vec![
            SystemConfig::neutrino(),
            SystemConfig::neutrino_no_logging(),
        ],
        ProcedureKind::InitialAttach,
        &[20_000, 40_000, 60_000, 80_000, 100_000, 120_000, 140_000],
        profile,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulation-scale test; run with --release"
    )]
    fn fig8_quick_shows_the_epc_gap() {
        let points = fig8(Profile::Quick)
            .into_iter()
            .map(|cell| cell())
            .collect::<Vec<_>>();
        assert_eq!(points.len(), 4); // 2 rates × 2 systems
        let epc = points
            .iter()
            .find(|p| p.system == "ExistingEPC" && p.x == 40_000)
            .unwrap();
        let neu = points
            .iter()
            .find(|p| p.system == "Neutrino" && p.x == 40_000)
            .unwrap();
        assert!(
            epc.summary.p50 > neu.summary.p50,
            "EPC {} vs Neutrino {}",
            epc.summary.p50,
            neu.summary.p50
        );
        assert!(neu.summary.count > 0);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulation-scale test; run with --release"
    )]
    fn fig16_quick_logging_is_nearly_free() {
        let points = fig16(Profile::Quick)
            .into_iter()
            .map(|cell| cell())
            .collect::<Vec<_>>();
        let on = points
            .iter()
            .find(|p| p.system == "Neutrino" && p.x == 20_000)
            .unwrap();
        let off = points
            .iter()
            .find(|p| p.system == "Neutrino-NoLog" && p.x == 20_000)
            .unwrap();
        let diff = (on.summary.p50 - off.summary.p50).abs();
        assert!(
            diff < on.summary.p50 * 0.25 + 0.05,
            "logging overhead too visible: {} vs {}",
            on.summary.p50,
            off.summary.p50
        );
    }
}
