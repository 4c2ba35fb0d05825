//! Fig. 10: handover PCT under CPF failure.
//!
//! Method (matching §6.4): a cohort of probe UEs — all mapped to one victim
//! CPF — are mid-handover when the victim crashes. Their PCT then includes
//! the pre-failure work plus recovery: log replay at a backup for Neutrino,
//! re-attach for existing EPC. Failure *detection* time is excluded in both
//! systems (the notice is delivered immediately). Background handover load
//! at the figure's x-axis rate provides the queueing context.

use super::{PctPoint, Profile};
use crate::sweep::Cell;
use neutrino_common::stats::Percentiles;
use neutrino_common::time::{Duration, Instant};
use neutrino_common::UeId;
use neutrino_core::experiment::{primary_cpf_for, run_experiment, ExperimentSpec, FailureSpec};
use neutrino_core::uepop::Arrival;
use neutrino_core::{SystemConfig, Workload};
use neutrino_geo::RegionLayout;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_trafficgen::{uniform_with_pool, UniformParams};

/// Number of probe UEs whose failure-inclusive PCT is measured per cell.
const PROBES: usize = 100;

/// Finds `count` pool UEs whose primary is the victim CPF.
fn probes_on_victim(
    config: &SystemConfig,
    layout: RegionLayout,
    pool: u64,
    count: usize,
) -> (neutrino_common::CpfId, Vec<UeId>) {
    let victim = primary_cpf_for(config, layout, UeId::new(0)).expect("deployment has CPFs");
    let mut probes = Vec::new();
    for u in 0..pool {
        let ue = UeId::new(u);
        if primary_cpf_for(config, layout, ue) == Some(victim) {
            probes.push(ue);
            if probes.len() == count {
                break;
            }
        }
    }
    (victim, probes)
}

/// The fault profile failure figures run under `repro --faults`: the
/// paper's failover experiments assume a lossy edge WAN, so every link
/// drops 1% of messages, duplicates 0.5%, and reorders 2% within 200 µs.
pub fn paper_fault_profile() -> neutrino_netsim::FaultSpec {
    neutrino_netsim::FaultSpec {
        loss: 0.01,
        duplicate: 0.005,
        reorder: 0.02,
        reorder_window: Duration::from_micros(200),
    }
}

/// One cell on an explicit link profile: the probes' handover PCT under
/// failure, with the cell's audit and retry counters.
pub fn failure_cell_outcome(
    config: SystemConfig,
    rate_pps: u64,
    duration: Duration,
    links: neutrino_core::LinkProfile,
) -> FailurePoint {
    let layout = RegionLayout::default();
    let pool = UniformParams::pool_for_rate(rate_pps);
    let (victim, probes) = probes_on_victim(&config, layout, pool, PROBES);

    // Background handovers at the figure's rate (attach phase included).
    let (background, measured_start) = uniform_with_pool(
        UniformParams {
            rate_pps,
            duration,
            kind: ProcedureKind::HandoverWithCpfChange,
            ues: pool,
            first_ue: 0,
            start: Instant::ZERO,
        },
        40_000,
    );
    // The probes start handovers shortly before the crash, so the failure
    // lands mid-procedure.
    let fail_at = measured_start + Duration::from_millis(200);
    let probe_arrivals: Vec<Arrival> = probes
        .iter()
        .enumerate()
        .map(|(i, &ue)| Arrival {
            at: fail_at - Duration::from_micros(40 + (i as u64 % 50) * 20),
            ue,
            kind: ProcedureKind::HandoverWithCpfChange,
        })
        .collect();

    let mut merged: Vec<Arrival> = background.into_arrivals().collect();
    merged.extend(probe_arrivals);
    let system = config.name.to_string();
    let mut spec = ExperimentSpec::new(config, Workload::from_vec(merged));
    spec.layout = layout;
    spec.failures.push(FailureSpec {
        at: fail_at,
        cpf: victim,
    });
    for &p in &probes {
        spec.uecfg.record_windows_for.insert(p);
    }
    spec.uecfg.pct_sample_every = 64; // probe windows carry the result
    spec.horizon = duration + Duration::from_secs(10);
    spec.links = links;
    let results = run_experiment(spec);

    // Probe PCTs: the window whose start is just before the failure.
    let mut pct = Percentiles::new();
    for w in &results.windows {
        if w.start < fail_at && w.end >= fail_at {
            pct.push(w.end.saturating_since(w.start).as_millis_f64());
        }
    }
    let audit = results.audit.as_ref();
    FailurePoint {
        x: rate_pps,
        system,
        summary: pct.summary(),
        audit_passes: audit.map(|a| a.passes).unwrap_or(0),
        audit_divergences: audit.map(|a| a.divergences.len() as u64).unwrap_or(0),
        audit_ues_checked: audit.map(|a| a.ues_checked).unwrap_or(0),
        retransmissions: results.retransmissions,
        resyncs_requested: results.cta.resyncs_requested,
        failed_procedures: results.failed_procedures,
    }
}

/// Fig. 10: handover PCT under failure, 40K–160K PPS, EPC vs Neutrino — the
/// per-cell PCT projection of [`fig10_with`] on fault-free links.
pub fn fig10(profile: Profile) -> Vec<Cell<PctPoint>> {
    fig10_with(profile, neutrino_netsim::FaultSpec::NONE)
        .into_iter()
        .map(|cell| {
            Box::new(move || {
                let p = cell();
                PctPoint {
                    x: p.x,
                    system: p.system,
                    summary: p.summary,
                }
            }) as Cell<PctPoint>
        })
        .collect()
}

/// One point of the fault-injected failure figure: the PCT summary plus the
/// consistency-audit outcome and retry activity of the cell.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FailurePoint {
    /// Background handover rate (procedures/second).
    pub x: u64,
    /// System name.
    pub system: String,
    /// Probe PCT summary (milliseconds).
    pub summary: neutrino_common::stats::Summary,
    /// Audit passes executed for the cell.
    pub audit_passes: u64,
    /// Divergences across all audit passes (0 = consistent throughout).
    pub audit_divergences: u64,
    /// UE records checked across all audit passes.
    pub audit_ues_checked: u64,
    /// S1AP retransmissions the UE population sent.
    pub retransmissions: u64,
    /// Checkpoint resends the CTA requested.
    pub resyncs_requested: u64,
    /// Procedures that never finished (incomplete + ACK-timeout pruned).
    pub failed_procedures: u64,
}

/// The failure grid under seeded link faults: every link additionally
/// drops, duplicates, and reorders messages per `faults` (none under
/// [`FaultSpec::NONE`](neutrino_netsim::FaultSpec::NONE), which is
/// [`fig10`]). Neutrino cells must audit clean; re-attach baselines report
/// their inconsistency windows as nonzero divergence counts.
pub fn fig10_with(profile: Profile, faults: neutrino_netsim::FaultSpec) -> Vec<Cell<FailurePoint>> {
    let rates = profile.rates(&[40_000, 60_000, 80_000, 100_000, 120_000, 140_000, 160_000]);
    let duration = Duration::from_millis(profile.duration_ms());
    let links = neutrino_core::LinkProfile {
        faults,
        ..neutrino_core::LinkProfile::default()
    };
    let mut cells: Vec<Cell<FailurePoint>> = Vec::new();
    for &rate in &rates {
        for config in [SystemConfig::existing_epc(), SystemConfig::neutrino()] {
            cells.push(Box::new(move || {
                failure_cell_outcome(config, rate, duration, links)
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
    fn failure_recovery_gap_appears_under_load() {
        // The §6.4 gap (≤5.6x) comes from re-attach re-entering loaded ASN.1
        // queues; measure at a rate where the EPC pool is busy.
        let cell = |config| {
            let links = neutrino_core::LinkProfile::default();
            failure_cell_outcome(config, 50_000, Duration::from_millis(400), links).summary
        };
        let epc = cell(SystemConfig::existing_epc());
        let neu = cell(SystemConfig::neutrino());
        assert!(epc.count > 10, "EPC probes measured: {}", epc.count);
        assert!(neu.count > 10, "Neutrino probes measured: {}", neu.count);
        let (e, n) = (epc.p50, neu.p50);
        assert!(
            e > n * 1.5,
            "EPC failure PCT ({e} ms) must clearly exceed Neutrino ({n} ms)"
        );
    }
}
