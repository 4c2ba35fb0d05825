//! Seeded bug re-introduction: a real, historical bug is caught by the
//! seeded run of a small model, shrinks, and pins in the corpus format.
//!
//! The lever re-enables the pre-fix `replay_covers` contiguity scan (a
//! phantom procedure id then reads as a permanent replay gap, so failover
//! wrongly re-attaches and strands state). `mcheck-replay-floor` seed 0
//! is the witness: under loss + a CPF crash the buggy floor logic fires
//! `consistency` violations, while the fixed logic runs clean.
//!
//! The bug needs no interleaving search: the unchosen (identity) run of
//! the plan already violates, so the exhaustive checker stops on its
//! first path with an empty choice trace. What this test shows is the
//! seeded run, the shrinker and the corpus format; it does not show that
//! the exhaustive mode can catch a bug only a reordering reaches.
//!
//! This file holds a single test: the lever is a process-global flag, and
//! sibling tests in the same binary would race it.

use neutrino_check::corpus::{self, CorpusCase};
use neutrino_check::scenario::small_model_plan;
use neutrino_check::shrink::shrink;
use neutrino_check::{explore_exhaustive, run_case, McheckOptions};
use neutrino_cta::set_replay_floor_bug;

/// Clears the bug flag even when an assertion unwinds mid-test.
struct FlagGuard;

impl Drop for FlagGuard {
    fn drop(&mut self) {
        set_replay_floor_bug(false);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn reintroduced_replay_floor_bug_is_caught_and_pins() {
    let plan = small_model_plan("mcheck-replay-floor", 0).expect("registered small model");
    let opts = McheckOptions {
        bound: 2,
        max_paths: 5_000,
    };

    // Fixed code: the whole bounded exploration is clean.
    let healthy = explore_exhaustive(&plan, &opts);
    assert!(
        healthy.violation.is_none(),
        "fixed replay floor must survive exhaustive checking: {:?}",
        healthy.violation.map(|v| v.report.violations)
    );
    assert!(healthy.stats.paths_explored > 0);

    // Re-introduce the bug; the same exploration must catch it.
    let _guard = FlagGuard;
    set_replay_floor_bug(true);
    let caught = explore_exhaustive(&plan, &opts);
    let violation = caught
        .violation
        .expect("exhaustive checker must catch the re-introduced bug within the bound");
    assert!(
        violation.report.violations.iter().any(|v| v.invariant == "consistency"),
        "the replay-floor bug manifests as a consistency violation: {:?}",
        violation.report.violations
    );
    // The first (identity) path already violates: no reordering is needed
    // to reach this bug.
    assert_eq!(caught.stats.paths_explored, 1, "caught on the unchosen path");
    assert!(
        violation.trace.is_empty(),
        "the counterexample needs no non-identity choice: {:?}",
        violation.trace
    );

    // The counterexample flows through the shrinker unchanged.
    let mut failing = plan.clone();
    failing.choice_trace = violation.trace;
    let outcome = shrink(&failing, 80);
    assert!(!outcome.report.is_clean());

    // Pinned corpus format, byte-identical replay while the bug is in.
    let dir = std::env::temp_dir().join(format!("mcheck-bug-reintro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp corpus dir");
    let case = CorpusCase {
        violation: outcome.report.violations.first().cloned(),
        fingerprint: outcome.report.fingerprint.clone(),
        plan: outcome.plan,
    };
    let path = corpus::save(&dir, &case).expect("case pins");
    let loaded = corpus::load(&path).expect("case loads");
    assert_eq!(loaded.plan, case.plan, "plan round-trips through the corpus format");
    let first = run_case(&loaded.plan);
    let second = run_case(&loaded.plan);
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "pinned counterexample must replay byte-identically"
    );
    assert!(!first.is_clean(), "the pinned case still reproduces the bug");
    assert_eq!(first.fingerprint, loaded.fingerprint, "pinned fingerprint matches replay");

    // Flip the lever off: the very same case runs clean — the fix, not
    // the plan, is what the corpus case is testing.
    set_replay_floor_bug(false);
    let fixed = run_case(&loaded.plan);
    assert!(
        fixed.is_clean(),
        "with the fix restored the counterexample must pass: {:?}",
        fixed.violations
    );
    let _ = std::fs::remove_dir_all(&dir);
}
