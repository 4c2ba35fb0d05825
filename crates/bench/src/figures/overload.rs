//! Overload figure: admitted-vs-offered throughput and per-class latency
//! percentiles under a flash-crowd storm, admission gated vs ungated.
//!
//! Method: a region of UEs attaches, idles through a steady service-request
//! phase, then a CPF blackout hits and the whole region re-attaches at once
//! at the x-axis surge rate. The gated rows run the CTA ingress admission
//! layer (DESIGN.md §7b) at [`ADMISSION_RATE_PPS`]; the ungated rows run
//! the identical storm with admission off — their queue depths demonstrate
//! the overflow the gate prevents. CI asserts the contrast (gated depth ≤
//! cap and audit clean; some ungated depth > cap).

use super::Profile;
use crate::sweep::Cell;
use neutrino_common::stats::Summary;
use neutrino_common::time::{Duration, Instant};
use neutrino_common::UeId;
use neutrino_core::experiment::{primary_cpf_for, run_experiment, ExperimentSpec, FailureSpec};
use neutrino_core::{SystemConfig, Workload};
use neutrino_cta::AdmissionParams;
use neutrino_geo::RegionLayout;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_trafficgen::{flash_crowd_reattach, FlashCrowdParams};
use serde::Serialize;

/// Admission rate every gated cell runs at (procedures/second). The bucket
/// sizing derives from it: burst = rate/8, queue cap = rate/4.
pub const ADMISSION_RATE_PPS: u64 = 4_000;

/// Steady-phase service-request rate between attach and blackout.
const STEADY_PPS: u64 = 600;

/// One cell of the overload figure.
#[derive(Debug, Clone, Serialize)]
pub struct OverloadPoint {
    /// Offered re-attach surge rate (procedures/second) — the x-axis.
    pub x: u64,
    /// System label (`Neutrino (gated)` / `Neutrino (ungated)`).
    pub system: String,
    /// Whether the admission layer was enabled.
    pub gated: bool,
    /// Queue cap the admission sizing targets (binds gated rows only).
    pub queue_cap: u64,
    /// Largest control-plane engine queue depth observed.
    pub max_queue_depth: u64,
    /// Arrivals the workload offered (all classes).
    pub offered: u64,
    /// Procedures admitted through the gate, by class (HO, SR, Attach, Detach).
    pub admitted: Vec<u64>,
    /// Procedures shed at the gate, by class.
    pub shed: Vec<u64>,
    /// `Reject` frames UEs received.
    pub rejected: u64,
    /// S1AP retransmissions the UE population sent.
    pub retransmissions: u64,
    /// Procedures abandoned after exhausting the retry budget.
    pub retries_exhausted: u64,
    /// Procedures that never finished.
    pub failed_procedures: u64,
    /// Consistency-audit divergences (must be 0 — gated or not, shedding
    /// and overflow may cost latency but never consistency).
    pub audit_divergences: u64,
    /// Attach-class PCT summary (milliseconds) for admitted work.
    pub attach: Summary,
    /// Service-request-class PCT summary (milliseconds) for admitted work.
    pub service_request: Summary,
}

/// One storm cell: flash-crowd re-attach at `surge_rate_pps`, with or
/// without the admission gate.
fn overload_cell(gated: bool, surge_rate_pps: u64, ues: u64, steady: Duration) -> OverloadPoint {
    let params = AdmissionParams::for_rate(ADMISSION_RATE_PPS);
    let queue_cap = params.queue_cap();
    let mut config = SystemConfig::neutrino();
    if gated {
        config = config.with_admission(params);
    }
    let (workload, sched) = flash_crowd_reattach(FlashCrowdParams {
        ues,
        first_ue: 0,
        steady_pps: STEADY_PPS,
        // Pace the pre-storm attach at half the admission rate so the
        // setup phase registers without tripping the gate itself.
        attach_pps: ADMISSION_RATE_PPS / 2,
        steady,
        surge_delay: Duration::from_millis(300),
        surge_rate_pps,
        tail: Duration::from_millis(500),
        start: Instant::ZERO,
    });
    let arrivals: Vec<_> = workload.into_arrivals().collect();
    let offered = arrivals.len() as u64;

    let layout = RegionLayout::default();
    let victim =
        primary_cpf_for(&config, layout, UeId::new(0)).expect("deployment has CPFs");
    let mut spec = ExperimentSpec::new(config, Workload::from_vec(arrivals));
    spec.layout = layout;
    // The blackout that synchronizes the herd: a CPF crash at steady end.
    spec.failures.push(FailureSpec {
        at: sched.blackout_at,
        cpf: victim,
    });
    spec.horizon = sched.end.saturating_since(Instant::ZERO) + Duration::from_secs(5);
    let mut results = run_experiment(spec);

    OverloadPoint {
        x: surge_rate_pps,
        system: if gated {
            "Neutrino (gated)".to_string()
        } else {
            "Neutrino (ungated)".to_string()
        },
        gated,
        queue_cap,
        max_queue_depth: results.max_queue_depth as u64,
        offered,
        admitted: results.cta.admitted_by_class.to_vec(),
        shed: results.cta.shed_by_class.to_vec(),
        rejected: results.rejected,
        retransmissions: results.retransmissions,
        retries_exhausted: results.retries_exhausted,
        failed_procedures: results.failed_procedures,
        audit_divergences: results
            .audit
            .as_ref()
            .map(|a| a.divergences.len() as u64)
            .unwrap_or(0),
        attach: results.summary(ProcedureKind::InitialAttach),
        service_request: results.summary(ProcedureKind::ServiceRequest),
    }
}

/// The overload figure: gated vs ungated flash crowds across surge rates.
pub fn overload(profile: Profile) -> Vec<Cell<OverloadPoint>> {
    let surges = profile.rates(&[120_000, 240_000, 360_000]);
    let ues = match profile {
        Profile::Quick => 4_000,
        Profile::Full => 8_000,
    };
    let steady = Duration::from_millis(profile.duration_ms());
    let mut cells: Vec<Cell<OverloadPoint>> = Vec::new();
    for &surge in &surges {
        for gated in [true, false] {
            cells.push(Box::new(move || overload_cell(gated, surge, ues, steady)));
        }
    }
    cells
}
