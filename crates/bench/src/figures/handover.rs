//! Fig. 11: fast handover — existing EPC vs Neutrino-Default (on-demand
//! migration) vs Neutrino-Proactive (level-2 replica already in place).

use super::{PctPoint, Profile};
use crate::figures::pct::uniform_pct_cell;
use crate::sweep::Cell;
use neutrino_common::time::Duration;
use neutrino_core::SystemConfig;
use neutrino_messages::procedures::ProcedureKind;

/// Fig. 11's three systems.
pub fn systems() -> Vec<SystemConfig> {
    vec![
        SystemConfig::existing_epc(),
        SystemConfig::neutrino_default_handover(),
        SystemConfig::neutrino(), // proactive
    ]
}

/// Fig. 11: handover PCT, 40K–160K PPS.
pub fn fig11(profile: Profile) -> Vec<Cell<PctPoint>> {
    let rates = profile.rates(&[40_000, 60_000, 80_000, 100_000, 120_000, 140_000, 160_000]);
    let duration = Duration::from_millis(profile.duration_ms());
    let mut cells: Vec<Cell<PctPoint>> = Vec::new();
    for &rate in &rates {
        for config in systems() {
            cells.push(Box::new(move || {
                let name = match config.name {
                    "Neutrino" => "Neutrino-Proactive".to_string(),
                    other => other.to_string(),
                };
                PctPoint {
                    x: rate,
                    system: name,
                    summary: uniform_pct_cell(
                        config,
                        ProcedureKind::HandoverWithCpfChange,
                        rate,
                        duration,
                    ),
                }
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
    fn fig11_quick_ordering_holds() {
        let points = fig11(Profile::Quick)
            .into_iter()
            .map(|cell| cell())
            .collect::<Vec<_>>();
        let rate = points[0].x;
        let get = |name: &str| {
            points
                .iter()
                .find(|p| p.system == name && p.x == rate)
                .map(|p| p.summary.p50)
                .unwrap()
        };
        let epc = get("ExistingEPC");
        let default = get("Neutrino-Default");
        let proactive = get("Neutrino-Proactive");
        assert!(
            epc > default && default > proactive,
            "Fig. 11 ordering: EPC ({epc}) > Default ({default}) > Proactive ({proactive})"
        );
        // The paper reports ≤7x proactive-vs-EPC and ≤3.1x default-vs-EPC.
        assert!(
            epc / proactive > 2.0,
            "proactive advantage too small: {:.2}x",
            epc / proactive
        );
    }
}
