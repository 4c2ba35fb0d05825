//! The mutant matrix: what the checker catches of each protocol mutant.
//!
//! Every [`Mutant`] is planted in two checks: the `lint` job's seed sweep
//! (every scenario family at seeds 0 and 1, as `explore --seeds 2` runs
//! it) and the plan of the pinned `mcheck-replay-floor-seed0.json`. A row
//! records the sweep's total event count — a mutant whose count equals the
//! healthy sweep's changed nothing the sweep ran, so it is not live — and
//! the first catcher: the invariant (a `CATALOG` row or `flow-contract`)
//! of the first failing sweep case in family-then-seed order, else of the
//! corpus plan, else `uncaught`. Runs are deterministic, so the table is
//! pinned as it stands; a change that makes the checker catch a mutant
//! moves that row here.

use neutrino_bench::sweep::{run_cells, workers, Cell};
use neutrino_check::corpus;
use neutrino_check::{run_case, CasePlan, CheckReport, Scenario};
use neutrino_common::Mutant::{self, *};

/// `(mutant, sweep events, first catcher)`, the healthy tree first, then
/// every mutant. Three mutants are not live (the healthy 4 861 136
/// events), eleven are live but uncaught, and the corpus plan's
/// `consistency` catches one.
const PINNED: [(Option<Mutant>, u64, &str); 16] = [
    (None, 4_861_136, "uncaught"),
    (Some(NoVersionGuard), 4_860_398, "uncaught"),
    (Some(AdoptBelowOutdatedMark), 4_861_020, "uncaught"),
    (Some(UnsortedAcks), 4_861_136, "uncaught"),
    (Some(StragglerInFlight), 4_933_806, "uncaught"),
    (Some(EndClearsAnyInFlight), 4_861_136, "uncaught"),
    (Some(FirstEligibleBackup), 4_862_209, "uncaught"),
    (Some(NoStuckRedrive), 4_842_495, "uncaught"),
    (Some(NoAckPurge), 4_861_136, "uncaught"),
    (Some(ServeOutdated), 4_860_584, "uncaught"),
    (Some(ReplayAndForward), 4_863_710, "uncaught"),
    (Some(AckRefusedSync), 4_860_398, "uncaught"),
    (Some(ReplayFloor), 4_861_098, CORPUS_CONSISTENCY),
    (Some(ForwardBeforeReplay), 4_861_186, "uncaught"),
    (Some(AckRaceFirstOnly), 5_244_572, "uncaught"),
    (Some(SyncedRaceFirstOnly), 4_862_150, "uncaught"),
];

const CORPUS_CONSISTENCY: &str = "consistency @ corpus mcheck-replay-floor-seed0";

/// Fails to compile when a variant is added: give it a `PINNED` row too.
fn _every_mutant_has_a_row(m: Mutant) {
    match m {
        NoVersionGuard
        | AdoptBelowOutdatedMark
        | UnsortedAcks
        | StragglerInFlight
        | EndClearsAnyInFlight
        | FirstEligibleBackup
        | NoStuckRedrive
        | NoAckPurge
        | ServeOutdated
        | ReplayAndForward
        | AckRefusedSync
        | ReplayFloor
        | ForwardBeforeReplay
        | AckRaceFirstOnly
        | SyncedRaceFirstOnly => {}
    }
}

/// One table line.
fn row(mutant: Option<Mutant>, events: u64, catcher: &str) -> String {
    let name = mutant.map_or("healthy".to_string(), |m| format!("{m:?}"));
    format!("{name:<22} {events:>9} {catcher}")
}

/// The first violation of the first failing report, named with where it
/// ran.
fn catcher(reports: &[(String, CheckReport)]) -> String {
    reports
        .iter()
        .find_map(|(at, r)| {
            r.violations
                .first()
                .map(|v| format!("{} @ {at}", v.invariant))
        })
        .unwrap_or_else(|| "uncaught".to_string())
}

#[test]
#[ignore = "16 sweeps of every family (≈ 2 min on 2 cores); run via the check-long CI job"]
fn mutant_matrix_matches_the_pinned_table() {
    let pinned = corpus::corpus_dir().join("mcheck-replay-floor-seed0.json");
    let corpus_plan = corpus::load(&pinned)
        .expect("pinned replay-floor case")
        .plan;
    let mut plans: Vec<(String, CasePlan)> = Scenario::all()
        .iter()
        .flat_map(|s| (0..2).map(move |seed| (format!("{} seed {seed}", s.name), s.plan(seed))))
        .collect();
    let sweep_len = plans.len();
    for (i, (m, _, _)) in PINNED.iter().enumerate() {
        assert!(PINNED[..i].iter().all(|r| r.0 != *m), "{m:?} has two rows");
    }
    plans.push(("corpus mcheck-replay-floor-seed0".to_string(), corpus_plan));

    let cells = PINNED
        .iter()
        .flat_map(|&(mutant, _, _)| {
            plans.iter().map(move |(_, plan)| {
                let plan = CasePlan {
                    mutant,
                    ..plan.clone()
                };
                Box::new(move || run_case(&plan)) as Cell<CheckReport>
            })
        })
        .collect();
    let reports = run_cells(workers(0), cells);

    let mut table = Vec::new();
    for (&(mutant, _, _), runs) in PINNED.iter().zip(reports.chunks(plans.len())) {
        let named: Vec<(String, CheckReport)> = plans
            .iter()
            .map(|(at, _)| at.clone())
            .zip(runs.iter().cloned())
            .collect();
        let events: u64 = runs[..sweep_len]
            .iter()
            .map(|r| r.fingerprint.events_processed)
            .sum();
        table.push(row(mutant, events, &catcher(&named)));
    }
    let expected: Vec<String> = PINNED.iter().map(|&(m, e, c)| row(m, e, c)).collect();
    assert_eq!(
        table.join("\n"),
        expected.join("\n"),
        "the mutant matrix moved"
    );
}
