//! Seeded bug re-introduction: a real, historical bug is caught by the
//! seeded run of a pinned plan, shrinks, and pins in the corpus format.
//!
//! The plan's `ReplayFloor` mutant re-enables the pre-fix `replay_covers`
//! contiguity scan (a phantom procedure id then reads as a permanent replay
//! gap, so failover wrongly re-attaches and strands state). The plan of the
//! pinned `mcheck-replay-floor-seed0.json` case is the witness: under loss
//! and a CPF crash the buggy floor logic fires `consistency` violations,
//! while the fixed logic runs clean.

use neutrino_check::corpus::{self, CorpusCase};
use neutrino_check::shrink::shrink;
use neutrino_check::{run_case, CasePlan};
use neutrino_common::Mutant;

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn reintroduced_replay_floor_bug_is_caught_and_pins() {
    let pinned = corpus::corpus_dir().join("mcheck-replay-floor-seed0.json");
    let mut plan = corpus::load(&pinned).expect("pinned replay-floor case").plan;

    // Fixed code: the seeded run is clean.
    let healthy = run_case(&plan);
    assert!(
        healthy.is_clean(),
        "fixed replay floor must run clean: {:?}",
        healthy.violations
    );

    // Re-introduce the bug; the same run must catch it.
    plan.mutant = Some(Mutant::ReplayFloor);
    let caught = run_case(&plan);
    assert!(!caught.is_clean(), "the seeded run must catch the re-introduced bug");
    assert!(
        caught.violations.iter().any(|v| v.invariant == "consistency"),
        "the replay-floor bug manifests as a consistency violation: {:?}",
        caught.violations
    );

    // The failing plan flows through the shrinker.
    let outcome = shrink(&plan, 80);
    assert!(!outcome.report.is_clean());

    // Pinned corpus format, byte-identical replay while the bug is in.
    let dir = std::env::temp_dir().join(format!("replay-floor-bug-reintro-{}", std::process::id()));
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

    // Take the mutant out: the very same case runs clean — the fix, not
    // the plan, is what the corpus case is testing.
    assert_eq!(
        loaded.plan.mutant,
        Some(Mutant::ReplayFloor),
        "the pin names its mutant"
    );
    let fixed = run_case(&CasePlan {
        mutant: None,
        ..loaded.plan
    });
    assert!(
        fixed.is_clean(),
        "with the fix restored the counterexample must pass: {:?}",
        fixed.violations
    );
    let _ = std::fs::remove_dir_all(&dir);
}
