//! The parallel sweep must be invisible in the results: the same figure
//! run with 1 worker and with 8 workers serializes to byte-identical JSON.
//! The `--jobs` sweep over independent cells is the repo's only parallelism,
//! so these two tests are the whole parallel-identity contract. cargo runs
//! them on parallel threads, so only the first may write the process-global
//! `sweep::JOBS`; the second hands its worker counts to `run_cells_with`.

use neutrino_bench::figures::{failure, pct, Profile};
use neutrino_bench::sweep::{self, Cell};
use neutrino_common::time::Duration;
use neutrino_core::SystemConfig;

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn jobs_1_and_jobs_8_serialize_byte_identically() {
    // `fig8` reads the process-global worker count; no other test in this
    // binary may write it, or the "sequential" run could get 8 workers.
    sweep::set_jobs(1);
    let sequential = serde_json::to_string_pretty(&pct::fig8(Profile::Quick)).expect("ser");
    sweep::set_jobs(8);
    let parallel = serde_json::to_string_pretty(&pct::fig8(Profile::Quick)).expect("ser");
    sweep::set_jobs(0);
    assert_eq!(
        sequential, parallel,
        "figure JSON must not depend on the worker count"
    );
}

/// A miniature fault-injected failure grid (the `--faults` fig10 shape at a
/// fraction of the load), so the worker pool runs more cells than workers.
fn fault_grid(jobs: usize) -> Vec<failure::FailurePoint> {
    let links = neutrino_core::LinkProfile {
        faults: failure::paper_fault_profile(),
        ..neutrino_core::LinkProfile::default()
    };
    let duration = Duration::from_millis(40);
    let mut cells: Vec<Cell<failure::FailurePoint>> = Vec::new();
    for &rate in &[20_000u64, 40_000] {
        for config in [SystemConfig::existing_epc(), SystemConfig::neutrino()] {
            cells.push(Box::new(move || {
                failure::failure_cell_outcome(config, rate, duration, links)
            }));
        }
    }
    sweep::run_cells_with(jobs, cells)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn fault_injected_cells_are_worker_count_independent() {
    let sequential = serde_json::to_string_pretty(&fault_grid(1)).expect("ser");
    let parallel = serde_json::to_string_pretty(&fault_grid(8)).expect("ser");
    assert_eq!(
        sequential, parallel,
        "fault-injected figure JSON must not depend on the worker count"
    );
}
