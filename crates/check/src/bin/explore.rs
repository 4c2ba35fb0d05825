//! The parallel seed explorer.
//!
//! ```text
//! explore --scenario chaos --seeds 500 --jobs 8
//! explore --scenario all --seeds 1000 --corpus corpus-out
//! explore --seeds 2 --json coverage.json
//! explore --replay crates/check/corpus/mcheck-replay-floor-seed0.json
//! explore --list
//! ```
//!
//! Expands the scenario into its plans per seed (one, or a crash-point
//! family's hundreds), runs them over the bench
//! crate's work-queue sweep runner (results are input-ordered, so output
//! is byte-identical for any `--jobs`), and reports every violation, flow
//! breaches included. On failure it shrinks the lowest failing seed, pins
//! the shrunk plan as a corpus case, double-runs it to prove byte-identical
//! replay, and exits non-zero. It then prints the declared flow edges no
//! case witnessed (advisory); `--json` writes that coverage report.
//!
//! Each mode reads its own flags ([`mode_flags`]); any other flag fails the
//! run rather than being silently ignored.

use neutrino_bench::sweep::{self, run_cells, Cell};
use neutrino_check::corpus::{self, CorpusCase};
use neutrino_check::flowcov::CoverageReport;
use neutrino_check::run::{run_case, CheckReport};
use neutrino_check::scenario::{CasePlan, Scenario};
use neutrino_check::shrink::shrink;
use neutrino_check::CATALOG;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Default)]
struct Args {
    scenario: String,
    seeds: u64,
    start_seed: u64,
    jobs: usize,
    corpus: Option<PathBuf>,
    shrink_budget: u64,
    replay: Option<PathBuf>,
    list: bool,
    json: Option<PathBuf>,
}

const USAGE: &str = "usage: explore [--scenario NAME|all] [--seeds N] [--start-seed S] \
[--jobs J] [--corpus DIR] [--shrink-budget R] [--replay FILE] [--list] [--json FILE]";

/// The mode the flags select, and the other flags that mode reads.
fn mode_flags(args: &Args) -> (&'static str, &'static str) {
    if args.list {
        ("--list", "")
    } else if args.replay.is_some() {
        ("--replay", "")
    } else {
        let reads = "--scenario --seeds --start-seed --jobs --corpus --shrink-budget --json";
        ("a seed sweep", reads)
    }
}

/// Parses the command line. A flag the selected mode does not read fails
/// the run rather than being silently ignored.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        scenario: "all".to_string(),
        seeds: 100,
        shrink_budget: 150,
        ..Args::default()
    };
    fn value<T: std::str::FromStr>(name: &str, v: Option<String>) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.ok_or_else(|| format!("{name} needs a value"))?
            .parse()
            .map_err(|e| format!("{name}: {e}"))
    }
    let mut given = Vec::new();
    while let Some(flag) = it.next() {
        let name = flag.as_str();
        match name {
            "--scenario" => args.scenario = value(name, it.next())?,
            "--seeds" => args.seeds = value(name, it.next())?,
            "--start-seed" => args.start_seed = value(name, it.next())?,
            "--jobs" => args.jobs = value(name, it.next())?,
            "--corpus" => args.corpus = Some(value(name, it.next())?),
            "--shrink-budget" => args.shrink_budget = value(name, it.next())?,
            "--replay" => args.replay = Some(value(name, it.next())?),
            "--list" => args.list = true,
            "--json" => args.json = Some(value(name, it.next())?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        given.push(flag);
    }
    let (mode, reads) = mode_flags(&args);
    if let Some(flag) = given.iter().find(|&f| f != mode && !reads.split(' ').any(|r| r == f)) {
        return Err(format!("{flag} does not apply to {mode}"));
    }
    Ok(args)
}

/// The scenario families a seed sweep covers: `all` is every family.
fn scenarios(args: &Args) -> Option<Vec<Scenario>> {
    match args.scenario.as_str() {
        "all" => Some(Scenario::all()),
        name => Scenario::by_name(name).map(|s| vec![s]),
    }
}

fn list() {
    println!("scenarios:");
    for s in Scenario::all() {
        let mut systems: Vec<&str> = s.bases.iter().map(|b| b.system).collect();
        systems.dedup();
        println!("  {:<20} {} [{}]", s.name, s.summary, systems.join(", "));
    }
    println!("invariants:");
    for row in CATALOG {
        println!("  {}", row.name);
    }
}

fn print_violations(report: &CheckReport) {
    for v in &report.violations {
        let ue = v.ue.map(|u| format!("ue {u}")).unwrap_or_else(|| "-".into());
        println!(
            "    [{}] t={:.3}ms {}: {}",
            v.invariant,
            v.at_us as f64 / 1e3,
            ue,
            v.detail
        );
    }
    let extra = report.fingerprint.violations - report.violations.len() as u64;
    if extra > 0 {
        println!("    ... and {extra} more violations beyond the record cap");
    }
}

/// Replays a pinned case twice; returns failure when violations appear or
/// the two runs diverge.
fn replay(path: &Path) -> ExitCode {
    let case = match corpus::load(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying {} (scenario {}, seed {})",
        path.display(),
        case.plan.scenario,
        case.plan.seed
    );
    let first = run_case(&case.plan);
    let second = run_case(&case.plan);
    if first.to_json() != second.to_json() {
        eprintln!("error: replay is not byte-identical — determinism regression");
        return ExitCode::FAILURE;
    }
    println!(
        "  deterministic: yes ({} events, {} oracle passes)",
        first.fingerprint.events_processed, first.passes
    );
    if first.is_clean() {
        println!("  clean: no invariant fired");
        ExitCode::SUCCESS
    } else {
        println!("  FAILED: {} violations", first.fingerprint.violations);
        print_violations(&first);
        ExitCode::FAILURE
    }
}

/// Shrinks the failing plan, pins it, and proves the pin replays
/// byte-identically. Returns the corpus path.
fn pin_failure(plan: &CasePlan, dir: &Path, budget: u64) -> PathBuf {
    println!("  shrinking {} (budget {budget} runs)...", plan.label());
    let outcome = shrink(plan, budget);
    println!(
        "    shrunk after {} runs: ues {} -> {}, duration {} -> {} ms, \
         {} -> {} crashes, {} -> {} partitions",
        outcome.runs,
        plan.ues,
        outcome.plan.ues,
        plan.duration_ms,
        outcome.plan.duration_ms,
        plan.crashes.len(),
        outcome.plan.crashes.len(),
        plan.partitions.len(),
        outcome.plan.partitions.len(),
    );
    let verify = run_case(&outcome.plan);
    assert_eq!(
        verify.to_json(),
        outcome.report.to_json(),
        "shrunk case must replay byte-identically"
    );
    let case = CorpusCase {
        violation: outcome.report.violations.first().cloned(),
        fingerprint: outcome.report.fingerprint.clone(),
        plan: outcome.plan,
    };
    let path = corpus::save(dir, &case).expect("corpus case writes");
    println!("    pinned {}", path.display());
    print_violations(&outcome.report);
    path
}

/// Sweeps `args.seeds` seeds of every scenario; on a failure, shrinks and
/// pins the lowest failing seed. Then diffs the merged flow witness
/// against the registry: dead declared edges are advisory.
fn run_sweep(args: &Args, scenarios: &[Scenario], corpus_dir: &Path) -> ExitCode {
    let jobs = sweep::workers(args.jobs);
    let mut failed = false;
    let mut witnessed = BTreeSet::new();
    for scenario in scenarios {
        let plans: Vec<CasePlan> = (args.start_seed..args.start_seed + args.seeds)
            .flat_map(|seed| scenario.plans(seed))
            .collect();
        let cells = plans
            .iter()
            .cloned()
            .map(|plan| Box::new(move || run_case(&plan)) as Cell<CheckReport>)
            .collect();
        let t0 = std::time::Instant::now();
        let reports = run_cells(jobs, cells);
        let elapsed = t0.elapsed();
        let events: u64 = reports.iter().map(|r| r.fingerprint.events_processed).sum();
        for r in &reports {
            witnessed.extend(&r.witnessed);
        }
        let failures: Vec<(&CasePlan, &CheckReport)> = plans
            .iter()
            .zip(&reports)
            .filter(|(_, r)| !r.is_clean())
            .collect();
        println!(
            "scenario {:<20} {} seeds, {} plans, {} events, {:.1}s wall, {} failing",
            scenario.name,
            args.seeds,
            plans.len(),
            events,
            elapsed.as_secs_f64(),
            failures.len()
        );
        if let Some((plan, report)) = failures.first() {
            failed = true;
            println!(
                "  {} FAILED ({} violations):",
                plan.label(),
                report.fingerprint.violations
            );
            print_violations(report);
            pin_failure(plan, corpus_dir, args.shrink_budget);
            for (plan, _) in failures.iter().skip(1) {
                println!("  {} also failed (not shrunk)", plan.label());
            }
        }
    }
    let names = scenarios.iter().map(|s| s.name.to_string()).collect();
    let report = CoverageReport::diff(names, args.seeds, &witnessed);
    println!(
        "flow coverage: {} declared, {} witnessed, {} dead declared",
        report.declared.len(),
        report.witnessed.len(),
        report.dead_declared.len()
    );
    for e in &report.dead_declared {
        println!("  dead declared (advisory): {} {} -> {}", e.variant, e.src, e.dst);
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.replay {
        return replay(path);
    }
    let corpus_dir = args.corpus.clone().unwrap_or_else(corpus::corpus_dir);
    let Some(scenarios) = scenarios(&args) else {
        eprintln!("error: unknown scenario `{}` (try --list)", args.scenario);
        return ExitCode::FAILURE;
    };
    run_sweep(&args, &scenarios, &corpus_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn every_ci_invocation_parses() {
        for line in [
            "--seeds 2 --jobs 1 --json sweep-j1.json",
            "--seeds 2 --jobs 2 --json sweep-j2.json",
            "--scenario chaos --seeds 1000 --jobs 8 --corpus corpus-out",
            "--scenario crash-points --seeds 100 --jobs 8 --corpus corpus-out",
            "--scenario iot-burst-storm --seeds 500 --jobs 8 --corpus corpus-out",
            "--replay crates/check/corpus/x.json",
            "--list",
        ] {
            assert!(parse(line).is_ok(), "`{line}` must parse: {:?}", parse(line).err());
        }
    }

    #[test]
    fn a_flag_that_does_not_apply_fails_the_run() {
        for line in [
            // `--list` and `--replay` read nothing else.
            "--list --scenario chaos",
            "--replay x.json --jobs 2",
            // Two modes.
            "--list --replay x.json",
            // Bad values.
            "--jobs many",
            "--seeds",
            // Unknown flags.
            "--frobnicate",
            "--exhaustive --scenario chaos",
            "--bound 6",
        ] {
            assert!(parse(line).is_err(), "`{line}` must be rejected");
        }
    }
}
