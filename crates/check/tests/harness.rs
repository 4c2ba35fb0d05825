//! End-to-end tests of the checking harness itself.
//!
//! Simulation-scale cases are release-gated (`cargo test --release`), and
//! the explorer-scale sweep is `#[ignore]`d for the `check-long` CI job —
//! see TESTING.md.

use neutrino_bench::sweep::{run_cells, Cell};
use neutrino_check::corpus::{self, CorpusCase};
use neutrino_check::run::{crash_points, experiment_spec, run_case, CheckReport, Fingerprint};
use neutrino_check::scenario::{CasePlan, Scenario};
use neutrino_check::shrink::shrink;
use neutrino_common::Mutant;
use neutrino_core::experiment::run_experiment;

/// The pinned replay-floor case: a small plan (476 events).
fn replay_floor_case() -> (std::path::PathBuf, CorpusCase) {
    let path = corpus::corpus_dir().join("mcheck-replay-floor-seed0.json");
    let case = corpus::load(&path).expect("pinned replay-floor case");
    (path, case)
}

/// The crash-point family is data: a seed enumerates the same plans on
/// every call, each its base plan plus one crash whose base drain still
/// follows it, and a point's run is clean and replays byte-identically.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn crash_points_enumerate_deterministically_and_replay_byte_identically() {
    let family = Scenario::by_name("crash-points").unwrap();
    let base = family.plan(1);
    let plans = family.plans(1);
    assert_eq!(
        plans,
        family.plans(1),
        "the same seed enumerates the same points"
    );
    for p in &plans {
        let [crash] = p.crashes.as_slice() else {
            panic!("{} crashes once", p.label())
        };
        let end_ns = (p.duration_ms + p.drain_ms) * 1_000_000;
        assert!(
            crash.at_ns + base.drain_ms * 1_000_000 <= end_ns,
            "{}",
            p.label()
        );
    }
    assert!(
        plans.iter().any(|p| p.drain_ms > base.drain_ms),
        "test setup: some point lies in the drain"
    );
    let point = &plans[plans.len() / 2];
    let first = run_case(point);
    assert!(
        first.is_clean(),
        "{} must be clean on a healthy tree:\n{}",
        point.label(),
        first.to_json()
    );
    assert!(first.passes > 2, "oracle must actually pause the run");
    assert!(
        first.fingerprint.completed > 0,
        "the measured phase must complete procedures"
    );
    let second = run_case(point);
    assert_eq!(first.to_json(), second.to_json(), "replay must be byte-identical");
}

/// The first crash point of the existing EPC's first base.
fn epc_crash_point(seed: u64) -> CasePlan {
    let plans = Scenario::by_name("crash-points").unwrap().plans(seed);
    plans
        .into_iter()
        .find(|p| p.system == "existing_epc")
        .expect("an EPC base")
}

/// Self-test of the detect→shrink→pin pipeline, with no code sabotage
/// needed: the existing EPC *does* violate continuous consistency after a
/// CPF crash (the paper's motivating observation), so running it with the
/// `consistency` invariant forced on is a guaranteed, deterministic
/// failure.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn epc_violation_is_detected_shrunk_and_pinned() {
    let mut plan = epc_crash_point(3);
    assert!(!plan.invariants.contains(&"consistency".to_string()));
    plan.invariants.push("consistency".to_string());
    let report = run_case(&plan);
    assert!(
        !report.is_clean(),
        "EPC + crash must violate continuous consistency"
    );
    assert!(report
        .violations
        .iter()
        .any(|v| v.invariant == "consistency"));

    let outcome = shrink(&plan, 40);
    assert!(!outcome.report.is_clean());
    assert!(
        outcome.plan.ues <= plan.ues && outcome.plan.duration_ms <= plan.duration_ms,
        "shrinking must not grow the plan"
    );

    // Pin it, reload it, and prove byte-identical replay of the pin.
    let dir = std::env::temp_dir().join(format!("neutrino-check-pin-{}", std::process::id()));
    let case = CorpusCase {
        violation: outcome.report.violations.first().cloned(),
        fingerprint: outcome.report.fingerprint.clone(),
        plan: outcome.plan,
    };
    let path = corpus::save(&dir, &case).unwrap();
    let loaded = corpus::load(&path).unwrap();
    assert_eq!(loaded, case);
    let replayed = run_case(&loaded.plan);
    assert_eq!(
        replayed.to_json(),
        outcome.report.to_json(),
        "pinned case must replay byte-identically"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every pinned corpus case replays clean, byte-identically, and to the
/// fingerprint pinned in its file (the corpus contract). `violations` is
/// the one counter exempt from the pin: a case recorded under a
/// reintroduced bug pins the violations that bug caused.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn corpus_cases_replay_clean() {
    for (path, case) in corpus::load_dir(&corpus::corpus_dir()).unwrap() {
        let first = run_case(&case.plan);
        assert!(
            first.is_clean(),
            "{} must replay clean on a healthy tree:\n{}",
            path.display(),
            first.to_json()
        );
        let second = run_case(&case.plan);
        assert_eq!(
            first.to_json(),
            second.to_json(),
            "{} must replay byte-identically",
            path.display()
        );
        let replayed = Fingerprint {
            violations: case.fingerprint.violations,
            ..first.fingerprint
        };
        assert_eq!(
            replayed,
            case.fingerprint,
            "{} must replay to its pinned fingerprint",
            path.display()
        );
    }
}

/// A plan field the checker does not read fails the load, naming the
/// field: a pinned interleaving script must not replay in the engine's
/// own order as if it were an ordinary plan.
#[test]
fn a_plan_field_the_checker_does_not_read_fails_the_load() {
    let plan = Scenario::by_name("chaos").unwrap().plan(3);
    let json = serde_json::to_string_pretty(&plan)
        .unwrap()
        .replace("\n  \"storm\": null", "\n  \"storm\": null,\n  \"choice_trace\": [1]");
    assert!(json.contains("\"choice_trace\": [1]"), "test setup: key not added");
    let err = serde_json::from_str::<CasePlan>(&json).unwrap_err().to_string();
    assert!(err.contains("unknown field `choice_trace`"), "the error names the field: {err}");
}

/// A corpus file written before plans named a mutant has no `mutant` key:
/// it loads unedited as the healthy tree and replays to its pinned event
/// count, and with the mutant it was pinned under (the replay-floor bug)
/// to its whole pinned fingerprint, violations included.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn a_plan_without_a_mutant_key_is_the_healthy_tree() {
    let (path, case) = replay_floor_case();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        !text.contains("mutant"),
        "test setup: the pinned file names no mutant"
    );
    assert_eq!(case.plan.mutant, None);
    let healthy = run_case(&case.plan);
    assert!(healthy.is_clean(), "{}", healthy.to_json());
    assert_eq!(healthy.fingerprint.events_processed, 476);
    let mutated = run_case(&CasePlan {
        mutant: Some(Mutant::ReplayFloor),
        ..case.plan
    });
    assert_eq!(mutated.fingerprint, case.fingerprint, "the pin's own run");
}

/// A plan's mutant survives `corpus::save` and `corpus::load`, and a
/// healthy plan writes no `mutant` key at all.
#[test]
fn a_mutated_plan_round_trips_through_the_corpus() {
    let healthy = Scenario::by_name("chaos").unwrap().plan(3);
    assert!(!serde_json::to_string(&healthy).unwrap().contains("mutant"));
    let case = CorpusCase {
        plan: CasePlan {
            mutant: Some(Mutant::ServeOutdated),
            ..healthy
        },
        violation: None,
        fingerprint: Fingerprint::default(),
    };
    let dir = std::env::temp_dir().join(format!("neutrino-check-mutant-{}", std::process::id()));
    let path = corpus::save(&dir, &case).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"mutant\": \"serve_outdated\""), "{text}");
    assert_eq!(corpus::load(&path).unwrap(), case);
    std::fs::remove_dir_all(&dir).ok();
}

/// A plan naming a mutant this build does not know fails the load, and
/// the error names it.
#[test]
fn a_plan_naming_an_unknown_mutant_fails_the_load() {
    let plan = Scenario::by_name("chaos").unwrap().plan(3);
    let json = serde_json::to_string_pretty(&plan).unwrap().replace(
        "\n  \"storm\": null",
        "\n  \"storm\": null,\n  \"mutant\": \"no_such_mutant\"",
    );
    assert!(json.contains("no_such_mutant"), "test setup: key not added");
    let err = serde_json::from_str::<CasePlan>(&json)
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("`no_such_mutant`"),
        "the error names the mutant: {err}"
    );
}

/// A mutant is the data of its own run: a healthy plan and two mutated
/// ones, run side by side on two workers, each report what that plan
/// reports when it runs alone.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn a_mutant_changes_only_its_own_run() {
    let (_, case) = replay_floor_case();
    let plans: Vec<CasePlan> = [
        None,
        Some(Mutant::ReplayFloor),
        Some(Mutant::NoStuckRedrive),
    ]
    .into_iter()
    .map(|mutant| CasePlan {
        mutant,
        ..case.plan.clone()
    })
    .collect();
    let alone: Vec<String> = plans.iter().map(|p| run_case(p).to_json()).collect();
    assert!(
        alone[0] != alone[1] && alone[0] != alone[2] && alone[1] != alone[2],
        "test setup: the three runs must differ"
    );
    let cells = plans
        .into_iter()
        .map(|plan| Box::new(move || run_case(&plan).to_json()) as Cell<String>)
        .collect();
    assert_eq!(run_cells(2, cells), alone);
}

/// A checked run is the figure run: the plan's spec, run by
/// `run_experiment` (audit pauses at each crash), yields every counter the
/// oracle-paused `run_case` does. Pauses leave the event stream unchanged.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn checked_run_is_the_figure_run() {
    let plan = crash_points(&Scenario::by_name("crash-points").unwrap().plan(2)).swap_remove(5);
    assert!(!plan.crashes.is_empty() && plan.partitions.is_empty());
    let checked = run_case(&plan);
    assert!(checked.passes > 2, "the oracle must actually pause the run");
    let (spec, _) = experiment_spec(&plan);
    let figure = run_experiment(spec);
    assert!(figure.audit.is_some(), "the figure run must audit its crash");
    assert_eq!(
        checked.fingerprint,
        Fingerprint::of(&figure, checked.fingerprint.violations)
    );
}

/// The flash-crowd storm under admission control: clean, and not
/// vacuously — the gate must actually shed part of the herd, the UEs must
/// see `Reject`s, and the queue must stay under the plan's cap.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn flash_crowd_is_clean_and_actually_sheds() {
    let plan = Scenario::by_name("flash-crowd-reattach").unwrap().plan(1);
    let storm = plan.storm.as_ref().unwrap();
    let report = run_case(&plan);
    assert!(
        report.is_clean(),
        "flash-crowd seed 1 must be clean on a healthy tree:\n{}",
        report.to_json()
    );
    let f = &report.fingerprint;
    let shed: u64 = f.shed.iter().sum();
    let admitted: u64 = f.admitted.iter().sum();
    assert!(shed > 0, "the herd must overrun the gate (nothing was shed)");
    assert!(admitted > 0, "the gate must admit the paced retries");
    assert!(f.rejected > 0, "UEs must observe Reject frames");
    assert!(
        f.max_queue_depth <= storm.queue_cap,
        "queue depth {} exceeds cap {}",
        f.max_queue_depth,
        storm.queue_cap
    );
    assert!(
        f.completed > 0 && f.started > 0,
        "admitted work must complete"
    );
}

/// The same storm with the admission gate disabled must demonstrably
/// violate `bounded-queue` — the invariant is falsifiable, and admission
/// is what holds it.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn flash_crowd_without_admission_overflows_the_queue() {
    let mut plan = Scenario::by_name("flash-crowd-reattach").unwrap().plan(1);
    plan.storm.as_mut().unwrap().admission_rate_pps = 0;
    let report = run_case(&plan);
    assert!(
        !report.is_clean(),
        "an ungated flash crowd must violate at least bounded-queue"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "bounded-queue"),
        "bounded-queue must be among the violations:\n{}",
        report.to_json()
    );
    assert_eq!(
        report.fingerprint.rejected, 0,
        "no gate, no rejects — the overload is pure queue growth"
    );
}

/// The IoT pulse storm under admission control: clean, sheds, and every
/// pulse's retries drain before the run ends.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn iot_burst_storm_is_clean_and_actually_sheds() {
    let plan = Scenario::by_name("iot-burst-storm").unwrap().plan(1);
    let storm = plan.storm.as_ref().unwrap();
    let report = run_case(&plan);
    assert!(
        report.is_clean(),
        "iot-burst seed 1 must be clean on a healthy tree:\n{}",
        report.to_json()
    );
    let f = &report.fingerprint;
    assert!(f.shed.iter().sum::<u64>() > 0, "pulses must overrun the gate");
    assert!(f.rejected > 0, "UEs must observe Reject frames");
    assert!(f.max_queue_depth <= storm.queue_cap);
}

/// Same-seed replay across worker counts (the overload-control
/// determinism witness): identical plans produce byte-identical reports —
/// including the shed/admit class counters — whether the sweep runs on 1
/// or 8 jobs.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn storm_reports_are_independent_of_jobs() {
    let scenario = Scenario::by_name("flash-crowd-reattach").unwrap();
    let run_sweep = |jobs: usize| -> Vec<String> {
        let cells = (1..4u64)
            .map(|seed| {
                let plan = scenario.plan(seed);
                Box::new(move || run_case(&plan).to_json()) as Cell<String>
            })
            .collect();
        run_cells(jobs, cells)
    };
    let (one, eight) = (run_sweep(1), run_sweep(8));
    assert_eq!(one, eight, "storm reports must not depend on --jobs");
    for json in &one {
        assert!(
            json.contains("\"shed\""),
            "the replay witness must cover the shed/admit sequence"
        );
    }
}

/// Results are input-ordered regardless of worker count, so a sweep's
/// output is byte-identical for any `--jobs`.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn sweep_output_is_independent_of_jobs() {
    let scenario = Scenario::by_name("chaos").unwrap();
    let run_sweep = |jobs: usize| -> Vec<String> {
        let cells = (40..44u64)
            .map(|seed| {
                let plan = scenario.plan(seed);
                Box::new(move || run_case(&plan).to_json()) as Cell<String>
            })
            .collect();
        run_cells(jobs, cells)
    };
    assert_eq!(run_sweep(1), run_sweep(4));
}

/// Explorer-scale sweep: 50 seeds of two scenarios, all clean.
#[test]
#[ignore = "explorer-scale; run via the check-long CI job (cargo test --release -- --ignored)"]
fn explorer_sweep_stays_clean() {
    for name in ["crash-points", "chaos"] {
        let scenario = Scenario::by_name(name).unwrap();
        let plans: Vec<CasePlan> = (0..50).flat_map(|seed| scenario.plans(seed)).collect();
        let cells = plans
            .iter()
            .cloned()
            .map(|plan| Box::new(move || run_case(&plan)) as Cell<CheckReport>)
            .collect();
        let reports = run_cells(8, cells);
        for (plan, report) in plans.iter().zip(&reports) {
            assert!(
                report.is_clean(),
                "{} violated:\n{}",
                plan.label(),
                report.to_json()
            );
        }
    }
}
