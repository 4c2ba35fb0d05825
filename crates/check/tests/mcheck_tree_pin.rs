//! Pins the exhaustive search tree of a healthy small model.
//!
//! `mcheck-attach-failover` seed 0 is clean under every interleaving the
//! checker reaches, so the counters below describe the tree itself: how
//! many root-to-leaf paths the two prunes leave, how many alternatives the
//! independence rule cuts, how deep the depth-first frontier grows and how
//! many choice points the identity path consults. A change to the chooser
//! interface or to the search that moves any of them has changed which
//! schedules are explored.

use neutrino_check::scenario::small_model_plan;
use neutrino_check::{explore_exhaustive, McheckOptions, McheckStats};

/// Explores the plan at `bound` and returns its counters, asserting the
/// run finished the tree and found nothing.
fn explore_healthy(bound: usize) -> McheckStats {
    let plan = small_model_plan("mcheck-attach-failover", 0).expect("registered small model");
    let outcome = explore_exhaustive(
        &plan,
        &McheckOptions {
            bound,
            ..McheckOptions::default()
        },
    );
    assert!(
        outcome.violation.is_none(),
        "bound {bound}: a healthy tree has no violating interleaving: {:?}",
        outcome.violation.map(|v| v.report.violations)
    );
    assert!(
        !outcome.stats.truncated,
        "bound {bound}: the tree must be walked to its end"
    );
    outcome.stats
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn attach_failover_tree_is_pinned_at_bounds_6_and_12() {
    // (bound, paths_explored, pruned_independent, max_frontier, identity_choice_points)
    for (bound, paths, pruned, frontier, identity) in
        [(6, 1_998, 3_153, 7, 33), (12, 3_072, 4_100, 12, 33)]
    {
        let s = explore_healthy(bound);
        assert_eq!(s.paths_explored, paths, "bound {bound}: paths_explored");
        assert_eq!(
            s.pruned_independent, pruned,
            "bound {bound}: pruned_independent"
        );
        assert_eq!(s.max_frontier, frontier, "bound {bound}: max_frontier");
        assert_eq!(
            s.identity_choice_points, identity,
            "bound {bound}: identity_choice_points"
        );
    }
}
