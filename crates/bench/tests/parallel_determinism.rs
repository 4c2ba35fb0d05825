//! The parallel sweep must be invisible in the results: the fault-injected
//! failure grid run with 1 worker and with 8 workers serializes to
//! byte-identical JSON. `golden_repro.rs` holds the fault-free figures to
//! the same contract and pins their bytes.

use neutrino_bench::figures::{failure, Profile};
use neutrino_bench::sweep::run_cells;

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn fault_injected_cells_are_worker_count_independent() {
    let render = |jobs| {
        let grid = failure::fig10_with(Profile::Quick, failure::paper_fault_profile());
        serde_json::to_string_pretty(&run_cells(jobs, grid)).expect("ser")
    };
    assert_eq!(
        render(1),
        render(8),
        "fault-injected figure JSON must not depend on the worker count"
    );
}
