//! Generators for the small-model corpus cases committed under
//! `crates/check/corpus/`.
//!
//! Run manually (never in CI — `check-long` skips `regen_`):
//!
//! ```text
//! cargo test -p neutrino-check --release regen_seed_mcheck_corpus -- --ignored --nocapture
//! ```
//!
//! Two cases are produced:
//!
//! * `mcheck-replay-floor-seed0.json` — the shrunk counterexample of the
//!   seeded run when the pre-fix replay-floor bug is re-introduced (see
//!   `tests/bug_reintroduction.rs`). The exhaustive checker reports it on
//!   its first, unchosen path, so its choice trace is empty. On the
//!   healthy tree it replays clean; the recorded violation documents what
//!   the buggy build did.
//! * `mcheck-attach-failover-seed0.json` — a clean case carrying a
//!   non-identity choice trace, pinning that scripted interleaving
//!   replay stays byte-stable (and sequential) forever.

use neutrino_check::corpus::{self, CorpusCase};
use neutrino_check::scenario::small_model_plan;
use neutrino_check::shrink::shrink;
use neutrino_check::{explore_exhaustive, run_case, McheckOptions};
use neutrino_cta::set_replay_floor_bug;

#[test]
#[ignore = "generator, run manually to refresh the mcheck corpus cases"]
fn regen_seed_mcheck_corpus() {
    let dir = corpus::corpus_dir();

    // Case 1: the replay-floor counterexample, shrunk under the bug.
    let plan = small_model_plan("mcheck-replay-floor", 0).unwrap();
    set_replay_floor_bug(true);
    let caught = explore_exhaustive(
        &plan,
        &McheckOptions {
            bound: 2,
            max_paths: 5_000,
        },
    );
    let violation = caught.violation.expect("seed 0 reproduces under the bug");
    let mut failing = plan.clone();
    failing.choice_trace = violation.trace;
    let outcome = shrink(&failing, 80);
    let case = CorpusCase {
        violation: outcome.report.violations.first().cloned(),
        fingerprint: outcome.report.fingerprint.clone(),
        plan: outcome.plan,
    };
    set_replay_floor_bug(false);
    assert!(
        run_case(&case.plan).is_clean(),
        "corpus contract: the case must replay clean on the fixed tree"
    );
    let path = corpus::save(&dir, &case).unwrap();
    println!("pinned {}", path.display());

    // Case 2: a clean attach+failover run under a scripted non-identity
    // schedule (reorder the first contended delivery pair).
    let mut traced = small_model_plan("mcheck-attach-failover", 0).unwrap();
    traced.choice_trace = vec![1];
    let report = run_case(&traced);
    assert!(
        report.is_clean(),
        "the scripted interleaving must be clean: {}",
        report.to_json()
    );
    let case = CorpusCase {
        violation: None,
        fingerprint: report.fingerprint.clone(),
        plan: traced,
    };
    let path = corpus::save(&dir, &case).unwrap();
    println!("pinned {}", path.display());
}
