//! Golden-file snapshots of the quick-profile repro figures.
//!
//! Each test runs its figure's grid at 1 and at 8 workers, asserts the two
//! serialize identically, and pins the bytes, so a silent behavior change
//! that shifts both runs equally still fails. Tolerance-free: the
//! simulator is deterministic, so the JSON must match to the byte. To
//! re-bless after an intended change:
//!
//! ```text
//! BLESS=1 cargo test --release -p neutrino-bench --test golden_repro
//! ```

use neutrino_bench::figures::{failure, pct, PctPoint, Profile};
use neutrino_bench::sweep::{run_cells, Cell};
use std::path::Path;

/// Runs `grid` at 1 and at 8 workers and checks its JSON against the
/// golden file `name` (or, under `BLESS`, writes it).
fn assert_golden(name: &str, grid: fn() -> Vec<Cell<PctPoint>>) {
    let render = |jobs| serde_json::to_string_pretty(&run_cells(jobs, grid())).expect("ser");
    let sequential = render(1);
    assert_eq!(
        sequential,
        render(8),
        "{name}: figure JSON must not depend on the worker count"
    );
    let snapshot = sequential + "\n";
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = dir.join(name);
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(&dir).expect("golden dir");
        std::fs::write(&path, &snapshot).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; generate it with BLESS=1 cargo test --release \
             -p neutrino-bench --test golden_repro",
            path.display()
        )
    });
    assert_eq!(
        snapshot, golden,
        "{name} drifted from its golden snapshot; if the change is \
         intended, re-bless with BLESS=1"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn fig8_quick_matches_its_golden() {
    assert_golden("fig8_quick.json", || pct::fig8(Profile::Quick));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn fig10_quick_matches_its_golden() {
    assert_golden("fig10_quick.json", || failure::fig10(Profile::Quick));
}
