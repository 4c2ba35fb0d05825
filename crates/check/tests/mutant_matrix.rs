//! The mutant matrix: what the checker catches of each protocol mutant.
//!
//! Every [`Mutant`] is planted in two checks: the `lint` job's seed sweep
//! (every plan of every scenario family at seeds 0 and 1, as `explore
//! --seeds 2` runs it, the crash points enumerated once on the healthy
//! tree) and the plan of the pinned `mcheck-replay-floor-seed0.json`. A
//! row records the sweep's total event count — a mutant whose count equals
//! the healthy sweep's changed nothing the sweep ran, so it is not live —
//! and the first catcher: the invariant (a `CATALOG` row or
//! `flow-contract`) of the first failing sweep case in family, seed, then
//! plan order, named by [`CasePlan::label`], else of the corpus plan, else
//! `uncaught`. Runs are deterministic, so the table is
//! pinned as it stands; a change that makes the checker catch a mutant
//! moves that row here.

use neutrino_bench::sweep::{run_cells, workers, Cell};
use neutrino_check::corpus;
use neutrino_check::{run_case, CasePlan, CheckReport, Scenario};
use neutrino_common::Mutant::{self, *};

/// `(mutant, sweep events, first catcher)`, the healthy tree first, then
/// every mutant. Two mutants are not live (the healthy 3 932 793 events),
/// twelve are live but uncaught, and a crash point's `consistency`
/// catches one.
const PINNED: [(Option<Mutant>, u64, &str); 16] = [
    (None, 3_932_793, "uncaught"),
    (Some(NoVersionGuard), 3_931_887, "uncaught"),
    (Some(AdoptBelowOutdatedMark), 3_932_668, "uncaught"),
    (Some(UnsortedAcks), 3_932_793, "uncaught"),
    (Some(StragglerInFlight), 3_994_287, "uncaught"),
    (Some(EndClearsAnyInFlight), 3_932_793, "uncaught"),
    (Some(FirstEligibleBackup), 3_934_891, "uncaught"),
    (Some(NoStuckRedrive), 3_912_294, "uncaught"),
    (Some(NoAckPurge), 3_932_720, "uncaught"),
    (Some(ServeOutdated), 3_931_635, "uncaught"),
    (Some(ReplayAndForward), 3_934_704, "uncaught"),
    (Some(AckRefusedSync), 3_931_882, "uncaught"),
    (Some(ReplayFloor), 3_932_315, DETACH_POINT_CONSISTENCY),
    (Some(ForwardBeforeReplay), 3_933_303, "uncaught"),
    (Some(AckRaceFirstOnly), 4_149_937, "uncaught"),
    (Some(SyncedRaceFirstOnly), 3_934_241, "uncaught"),
];

const DETACH_POINT_CONSISTENCY: &str =
    "consistency @ crash-points seed 0 (neutrino detach, cpf 0 down at +70.120225 ms)";

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
        .flat_map(|s| (0..2).flat_map(|seed| s.plans(seed)))
        .map(|plan| (plan.label(), plan))
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
