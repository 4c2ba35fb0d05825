//! Fig. 17: CTA message-log size vs. active users, for attach and handover
//! procedures under per-procedure synchronization.

use super::Profile;
use crate::sweep::Cell;
use neutrino_common::time::{Duration, Instant};
use neutrino_core::experiment::{run_experiment, ExperimentSpec};
use neutrino_core::SystemConfig;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_trafficgen::{bursty_attach, BurstParams};
use serde::Serialize;

/// One point of Fig. 17.
#[derive(Debug, Clone, Serialize)]
pub struct LogSizePoint {
    /// Active users.
    pub users: u64,
    /// Procedure being performed.
    pub procedure: String,
    /// Peak log footprint in bytes across CTAs.
    pub max_log_bytes: usize,
}

/// One cell: N active users all run `kind`; report the peak log footprint.
pub fn log_cell(kind: ProcedureKind, users: u64) -> usize {
    let config = SystemConfig::neutrino();
    let workload = if kind == ProcedureKind::InitialAttach {
        bursty_attach(BurstParams {
            active_users: users,
            window: Duration::from_millis(500),
            kind,
            first_ue: 0,
            start: Instant::from_millis(10),
        })
    } else {
        // Handovers need attached UEs first: a paced attach phase (whose
        // log prunes as it goes), then every user hands over in one
        // synchronized window — the same burst shape as the attach series.
        let attach_spacing_ns = 1_000_000_000 / 50_000;
        let attach_end =
            Duration::from_nanos(users * attach_spacing_ns) + Duration::from_millis(300);
        let attaches = (0..users).map(move |i| neutrino_core::uepop::Arrival {
            at: Instant::ZERO + Duration::from_nanos(i * attach_spacing_ns),
            ue: neutrino_common::UeId::new(i),
            kind: ProcedureKind::InitialAttach,
        });
        let hos = bursty_attach(BurstParams {
            active_users: users,
            window: Duration::from_millis(500),
            kind,
            first_ue: 0,
            start: Instant::ZERO + attach_end,
        });
        neutrino_core::Workload::new(attaches.chain(hos.into_arrivals()))
    };
    let mut spec = ExperimentSpec::new(config, workload);
    spec.horizon = Duration::from_secs(600);
    spec.uecfg.pct_sample_every = 64;
    spec.uecfg.retry_timeout = Duration::from_secs(120);
    let results = run_experiment(spec);
    results.max_log_bytes
}

/// Fig. 17's user counts.
pub fn fig17_users(profile: Profile) -> Vec<u64> {
    match profile {
        Profile::Quick => vec![5_000, 20_000],
        Profile::Full => vec![10_000, 50_000, 100_000, 200_000],
    }
}

/// Fig. 17: peak log size for attach and handover bursts.
pub fn fig17(profile: Profile) -> Vec<Cell<LogSizePoint>> {
    let mut cells: Vec<Cell<LogSizePoint>> = Vec::new();
    for &users in &fig17_users(profile) {
        for kind in [
            ProcedureKind::InitialAttach,
            ProcedureKind::HandoverWithCpfChange,
        ] {
            cells.push(Box::new(move || LogSizePoint {
                users,
                procedure: kind.name().to_string(),
                max_log_bytes: log_cell(kind, users),
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
    fn log_grows_with_users_and_stays_bounded() {
        let small = log_cell(ProcedureKind::InitialAttach, 2_000);
        let big = log_cell(ProcedureKind::InitialAttach, 10_000);
        assert!(small > 0);
        assert!(
            big > small * 2,
            "peak log must grow with the burst: {small} vs {big}"
        );
        // The paper's bound: even 200K users stay under 400 MB. Our 10K
        // burst must be well under proportionally (≤ 20 MB).
        assert!(big < 20_000_000, "log too large: {big} bytes");
    }
}
