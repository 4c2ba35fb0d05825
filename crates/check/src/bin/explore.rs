//! The parallel seed explorer.
//!
//! ```text
//! explore --scenario failover --seeds 500 --jobs 8
//! explore --scenario all --seeds 1000 --corpus corpus-out
//! explore --exhaustive --scenario mcheck-attach-failover --bound 12
//! explore --flow-coverage --seeds 5 --json coverage.json
//! explore --replay crates/check/corpus/failover-seed17.json
//! explore --list
//! ```
//!
//! Expands the scenario into one plan per seed, runs them over the bench
//! crate's work-queue sweep runner (results are input-ordered, so output
//! is byte-identical for any `--jobs`), and reports every violation. On
//! failure it shrinks the lowest failing seed, pins the shrunk plan as a
//! corpus case, double-runs it to prove byte-identical replay, and exits
//! non-zero.
//!
//! `--exhaustive` switches from seed sweeping to small-model interleaving
//! checking: one plan (`--start-seed` picks the seed), every schedule of
//! its contended deliveries up to `--bound` branch points. The run is
//! single-threaded and fully deterministic — the report (and `--json`
//! output) is byte-identical across reruns and any `--jobs` value. A
//! violating interleaving is pinned to the corpus with its choice trace.

use neutrino_bench::sweep::run_cells_with;
use neutrino_check::corpus::{self, CorpusCase};
use neutrino_check::flowcov::{self, CoverageReport};
use neutrino_check::run::{run_case, CheckReport};
use neutrino_check::scenario::{plan_by_name, CasePlan, Scenario, SMALL_MODEL_NAMES};
use neutrino_check::shrink::shrink;
use neutrino_check::{explore_exhaustive, McheckOptions, CATALOG};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    scenario: String,
    seeds: u64,
    start_seed: u64,
    jobs: usize,
    corpus: Option<PathBuf>,
    shrink_budget: u64,
    replay: Option<PathBuf>,
    list: bool,
    exhaustive: bool,
    flow_coverage: bool,
    bound: usize,
    max_paths: u64,
    json: Option<PathBuf>,
}

const USAGE: &str = "usage: explore [--scenario NAME|all] [--seeds N] [--start-seed S] \
[--jobs J] [--corpus DIR] [--shrink-budget R] [--replay FILE] [--list] \
[--exhaustive] [--flow-coverage] [--bound B] [--max-paths P] [--json FILE]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: "all".to_string(),
        seeds: 100,
        start_seed: 0,
        jobs: 0,
        corpus: None,
        shrink_budget: 150,
        replay: None,
        list: false,
        exhaustive: false,
        flow_coverage: false,
        bound: McheckOptions::default().bound,
        max_paths: McheckOptions::default().max_paths,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--scenario" => args.scenario = value("--scenario")?,
            "--seeds" => {
                args.seeds = value("--seeds")?.parse().map_err(|e| format!("--seeds: {e}"))?
            }
            "--start-seed" => {
                args.start_seed = value("--start-seed")?
                    .parse()
                    .map_err(|e| format!("--start-seed: {e}"))?
            }
            "--jobs" => {
                args.jobs = value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?
            }
            "--corpus" => args.corpus = Some(PathBuf::from(value("--corpus")?)),
            "--shrink-budget" => {
                args.shrink_budget = value("--shrink-budget")?
                    .parse()
                    .map_err(|e| format!("--shrink-budget: {e}"))?
            }
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--list" => args.list = true,
            "--exhaustive" => args.exhaustive = true,
            "--flow-coverage" => args.flow_coverage = true,
            "--bound" => {
                args.bound = value("--bound")?.parse().map_err(|e| format!("--bound: {e}"))?
            }
            "--max-paths" => {
                args.max_paths = value("--max-paths")?
                    .parse()
                    .map_err(|e| format!("--max-paths: {e}"))?
            }
            "--json" => args.json = Some(PathBuf::from(value("--json")?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn list() {
    println!("scenarios:");
    for s in Scenario::all() {
        println!("  {:<18} {} [{}]", s.name, s.summary, s.system);
    }
    println!("small models (--exhaustive):");
    for name in SMALL_MODEL_NAMES {
        println!("  {name}");
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
fn replay(path: &std::path::Path) -> ExitCode {
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
fn pin_failure(plan: &CasePlan, dir: &std::path::Path, budget: u64) -> PathBuf {
    println!("  shrinking seed {} (budget {budget} runs)...", plan.seed);
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

/// Machine-readable exhaustive-run summary (`--json`); byte-identical
/// across reruns of the same invocation.
#[derive(serde::Serialize)]
struct ExhaustiveSummary {
    scenario: String,
    seed: u64,
    bound: usize,
    max_paths: u64,
    paths_explored: u64,
    states_deduped: u64,
    max_frontier: u64,
    pruned_independent: u64,
    identity_choice_points: u64,
    truncated: bool,
    violations: u64,
}

/// Runs the small-model exhaustive checker on one named plan.
fn run_exhaustive(args: &Args, corpus_dir: &std::path::Path) -> ExitCode {
    let Some(mut plan) = plan_by_name(&args.scenario, args.start_seed) else {
        eprintln!("error: unknown scenario `{}` (try --list)", args.scenario);
        return ExitCode::FAILURE;
    };
    let opts = McheckOptions {
        bound: args.bound,
        max_paths: args.max_paths,
    };
    println!(
        "exhaustive {} (seed {}, bound {}, max paths {})",
        plan.scenario, plan.seed, opts.bound, opts.max_paths
    );
    let outcome = explore_exhaustive(&plan, &opts);
    let s = &outcome.stats;
    println!(
        "  {} paths explored, {} states deduped, max frontier {}, \
         {} pruned independent, {} identity choice points{}",
        s.paths_explored,
        s.states_deduped,
        s.max_frontier,
        s.pruned_independent,
        s.identity_choice_points,
        if s.truncated { " (TRUNCATED at --max-paths)" } else { "" }
    );
    let summary = ExhaustiveSummary {
        scenario: plan.scenario.clone(),
        seed: plan.seed,
        bound: opts.bound,
        max_paths: opts.max_paths,
        paths_explored: s.paths_explored,
        states_deduped: s.states_deduped,
        max_frontier: s.max_frontier,
        pruned_independent: s.pruned_independent,
        identity_choice_points: s.identity_choice_points,
        truncated: s.truncated,
        violations: outcome
            .violation
            .as_ref()
            .map(|v| v.report.fingerprint.violations)
            .unwrap_or(0),
    };
    if let Some(path) = &args.json {
        let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match outcome.violation {
        None => {
            println!("  clean: no interleaving within the bound fires an invariant");
            ExitCode::SUCCESS
        }
        Some(v) => {
            println!(
                "  FAILED: interleaving {:?} fires {} violations",
                v.trace, v.report.fingerprint.violations
            );
            print_violations(&v.report);
            plan.choice_trace = v.trace;
            pin_failure(&plan, corpus_dir, args.shrink_budget);
            ExitCode::FAILURE
        }
    }
}

/// Sweeps scenario families with a delivery tap installed and diffs the
/// witnessed `(variant, src, dst)` edges against the declared flow
/// registry. Witness sets are unioned, so the report is byte-identical
/// across reruns and any `--jobs` value. Exit is non-zero only on
/// witnessed-but-undeclared edges (spec drift); dead declared edges are
/// advisory.
fn run_flow_coverage(args: &Args, jobs: usize) -> ExitCode {
    let scenarios: Vec<Scenario> = if args.scenario == "all" {
        flowcov::CORE_SCENARIOS
            .iter()
            .map(|n| Scenario::by_name(n).expect("core scenario exists"))
            .collect()
    } else {
        match Scenario::by_name(&args.scenario) {
            Some(s) => vec![s],
            None => {
                eprintln!("error: unknown scenario `{}` (try --list)", args.scenario);
                return ExitCode::FAILURE;
            }
        }
    };
    let names: Vec<String> = scenarios.iter().map(|s| s.name.to_string()).collect();
    println!(
        "flow coverage: {} scenario(s) x {} seed(s), {jobs} job(s)",
        names.len(),
        args.seeds
    );
    let cells = scenarios
        .iter()
        .flat_map(|s| {
            (args.start_seed..args.start_seed + args.seeds).map(|seed| {
                let s = s.clone();
                Box::new(move || flowcov::witness_case(&s, seed))
                    as Box<dyn FnOnce() -> std::collections::BTreeSet<flowcov::Edge> + Send>
            })
        })
        .collect();
    let t0 = std::time::Instant::now();
    let mut witnessed = std::collections::BTreeSet::new();
    for set in run_cells_with(jobs, cells) {
        witnessed.extend(set);
    }
    let report = CoverageReport::diff(names, args.seeds, &witnessed);
    println!(
        "  {} declared, {} witnessed, {} dead declared, {} undeclared witnessed, {:.1}s wall",
        report.declared.len(),
        report.witnessed.len(),
        report.dead_declared.len(),
        report.undeclared_witnessed.len(),
        t0.elapsed().as_secs_f64()
    );
    for e in &report.dead_declared {
        println!("  dead declared (advisory): {} {} -> {}", e.variant, e.src, e.dst);
    }
    for e in &report.undeclared_witnessed {
        println!("  UNDECLARED witnessed: {} {} -> {}", e.variant, e.src, e.dst);
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if report.is_clean() {
        println!("  clean: every witnessed edge is declared");
        ExitCode::SUCCESS
    } else {
        println!("  FAILED: witnessed edges missing from the flow registry");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
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
    if args.flow_coverage {
        let jobs = if args.jobs == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            args.jobs
        };
        return run_flow_coverage(&args, jobs);
    }
    if args.exhaustive {
        if args.scenario == "all" {
            eprintln!("error: --exhaustive needs a single --scenario (try --list)");
            return ExitCode::FAILURE;
        }
        let corpus_dir = args.corpus.clone().unwrap_or_else(corpus::corpus_dir);
        return run_exhaustive(&args, &corpus_dir);
    }
    let scenarios = if args.scenario == "all" {
        Scenario::all()
    } else {
        match Scenario::by_name(&args.scenario) {
            Some(s) => vec![s],
            None => {
                eprintln!("error: unknown scenario `{}` (try --list)", args.scenario);
                return ExitCode::FAILURE;
            }
        }
    };
    let jobs = if args.jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        args.jobs
    };
    let corpus_dir = args.corpus.clone().unwrap_or_else(corpus::corpus_dir);

    let mut failed = false;
    for scenario in scenarios {
        let plans: Vec<CasePlan> = (args.start_seed..args.start_seed + args.seeds)
            .map(|seed| scenario.plan(seed))
            .collect();
        let cells = plans
            .iter()
            .cloned()
            .map(|plan| {
                Box::new(move || run_case(&plan)) as Box<dyn FnOnce() -> CheckReport + Send>
            })
            .collect();
        let t0 = std::time::Instant::now();
        let reports = run_cells_with(jobs, cells);
        let elapsed = t0.elapsed();
        let events: u64 = reports.iter().map(|r| r.fingerprint.events_processed).sum();
        let failures: Vec<(&CasePlan, &CheckReport)> = plans
            .iter()
            .zip(&reports)
            .filter(|(_, r)| !r.is_clean())
            .collect();
        println!(
            "scenario {:<18} {} seeds, {} events, {:.1}s wall, {} failing",
            scenario.name,
            args.seeds,
            events,
            elapsed.as_secs_f64(),
            failures.len()
        );
        if let Some((plan, report)) = failures.first() {
            failed = true;
            println!(
                "  seed {} FAILED ({} violations):",
                plan.seed, report.fingerprint.violations
            );
            print_violations(report);
            pin_failure(plan, &corpus_dir, args.shrink_budget);
            for (plan, _) in failures.iter().skip(1) {
                println!("  seed {} also failed (not shrunk)", plan.seed);
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
