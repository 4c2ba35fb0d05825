//! Figures 3, 13, 14: application-level impact.

use super::Profile;
use crate::sweep::Cell;
use neutrino_apps::experiments::{drive_experiment, startup_experiment, StartupOutcome};
use neutrino_common::time::Duration;
use neutrino_core::SystemConfig;
use serde::Serialize;

/// One Fig. 3 row.
#[derive(Debug, Clone, Serialize)]
pub struct StartupPoint {
    /// Active users per second (service-request rate).
    pub rate: u64,
    /// System name.
    pub system: String,
    /// Outcomes (milliseconds).
    pub video_startup_ms: f64,
    /// Page load time (milliseconds).
    pub page_load_ms: f64,
    /// The underlying service-request PCT (milliseconds).
    pub pct_ms: f64,
}

/// Fig. 3's x-axis.
pub fn fig3_rates(profile: Profile) -> Vec<u64> {
    match profile {
        Profile::Quick => vec![180_000, 260_000],
        Profile::Full => vec![
            180_000, 200_000, 220_000, 240_000, 260_000, 280_000, 300_000,
        ],
    }
}

/// Fig. 3: video startup delay and page load time vs. active users/second.
pub fn fig3(profile: Profile) -> Vec<Cell<StartupPoint>> {
    let mut cells: Vec<Cell<StartupPoint>> = Vec::new();
    for &rate in &fig3_rates(profile) {
        for config in [SystemConfig::existing_epc(), SystemConfig::neutrino()] {
            cells.push(Box::new(move || {
                let name = config.name.to_string();
                let o: StartupOutcome = startup_experiment(config, rate);
                StartupPoint {
                    rate,
                    system: name,
                    video_startup_ms: o.video_startup_ms,
                    page_load_ms: o.page_load_ms,
                    pct_ms: o.service_request_pct_ms,
                }
            }));
        }
    }
    cells
}

/// One Fig. 13/14 row.
#[derive(Debug, Clone, Serialize)]
pub struct DrivePoint {
    /// Active users generating background signaling.
    pub active_users: u64,
    /// System name.
    pub system: String,
    /// Single- or multiple-handover scenario.
    pub single_handover: bool,
    /// Packets missing their deadline, extrapolated to the full 5-minute
    /// drive.
    pub missed_deadlines: u64,
}

/// User counts of Figs. 13/14.
pub fn drive_users(profile: Profile) -> Vec<u64> {
    match profile {
        Profile::Quick => vec![50_000],
        Profile::Full => vec![50_000, 100_000, 200_000, 500_000],
    }
}

fn drive_fig(profile: Profile, rate_hz: u64, deadline: Duration) -> Vec<Cell<DrivePoint>> {
    let mut cells: Vec<Cell<DrivePoint>> = Vec::new();
    for &users in &drive_users(profile) {
        for single in [true, false] {
            if profile == Profile::Quick && !single {
                continue;
            }
            for config in [SystemConfig::existing_epc(), SystemConfig::neutrino()] {
                cells.push(Box::new(move || {
                    let name = config.name.to_string();
                    let o = drive_experiment(config, users, single, rate_hz, deadline);
                    DrivePoint {
                        active_users: users,
                        system: name,
                        single_handover: single,
                        missed_deadlines: o.missed_full_drive,
                    }
                }));
            }
        }
    }
    cells
}

/// Fig. 13: the self-driving car (1 kHz sensors, 100 ms budget \[55\]).
pub fn fig13(profile: Profile) -> Vec<Cell<DrivePoint>> {
    drive_fig(profile, 1_000, Duration::from_millis(100))
}

/// Fig. 14: the VR stream (16 ms perceptual budget \[53\]).
pub fn fig14(profile: Profile) -> Vec<Cell<DrivePoint>> {
    drive_fig(profile, 1_000, Duration::from_millis(16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulation-scale test; run with --release"
    )]
    fn fig13_quick_epc_misses_more() {
        let points = fig13(Profile::Quick)
            .into_iter()
            .map(|cell| cell())
            .collect::<Vec<_>>();
        let epc = points
            .iter()
            .find(|p| p.system == "ExistingEPC")
            .unwrap()
            .missed_deadlines;
        let neu = points
            .iter()
            .find(|p| p.system == "Neutrino")
            .unwrap()
            .missed_deadlines;
        assert!(epc > neu, "EPC must miss more deadlines: {epc} vs {neu}");
    }
}
