//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! cargo run -p neutrino-bench --bin repro --release -- all
//! cargo run -p neutrino-bench --bin repro --release -- fig8 fig10
//! cargo run -p neutrino-bench --bin repro --release -- fig9 --huge   # 2M-user burst
//! cargo run -p neutrino-bench --bin repro --release -- all --quick   # small sweep
//! cargo run -p neutrino-bench --bin repro --release -- all --json out.json
//! cargo run -p neutrino-bench --bin repro --release -- all --jobs 8  # worker count
//! cargo run -p neutrino-bench --bin repro --release -- fig10 --faults  # lossy links
//! ```
//!
//! Figure cells run across a worker pool (`--jobs N`, default: all host
//! cores); results are collected in input order, so the tables and the
//! `--json` file are byte-identical to a `--jobs 1` run. Performance
//! numbers come from `benchmark/`, not from here.
//!
//! Absolute latencies come from a calibrated simulator (DESIGN.md §3);
//! the reproduction target is each figure's *shape*.

use neutrino_bench::figures::{
    ablation, appsfig, burst, failure, handover, logsize, overload, pct, serialization,
};
use neutrino_bench::figures::{PctPoint, Profile};
use neutrino_bench::render;
use neutrino_bench::sweep::{self, run_cells};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;

/// Every figure `repro` can regenerate, in `all` order.
const FIGURES: [&str; 16] = [
    "fig3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig13", "fig14", "fig15", "fig16", "fig17",
    "fig18", "fig19", "fig20", "ablation", "overload",
];

const USAGE: &str = "usage: repro [all | FIGURE...] [--quick] [--huge] [--faults] [--jobs N] \
[--json FILE]";

#[derive(Debug, Default)]
struct Args {
    figs: Vec<String>,
    quick: bool,
    huge: bool,
    faults: bool,
    /// Sweep workers; 0 = all host cores.
    jobs: usize,
    json_path: Option<String>,
}

/// Parses the command line, rejecting anything it does not understand: a
/// stale flag, a misspelt figure, or a flag whose only figure is not in the
/// selection must fail the run, not silently change what it measures.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut all = false;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--huge" => args.huge = true,
            "--faults" => args.faults = true,
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--json" => args.json_path = Some(value("--json")?),
            "all" => all = true,
            fig if FIGURES.contains(&fig) => args.figs.push(arg),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            other => return Err(format!("unknown figure `{other}`")),
        }
    }
    if all || args.figs.is_empty() {
        args.figs = FIGURES.iter().map(|f| f.to_string()).collect();
    }
    for (set, flag, fig) in [
        (args.huge, "--huge", "fig9"),
        (args.faults, "--faults", "fig10"),
    ] {
        if set && !args.figs.iter().any(|f| f == fig) {
            return Err(format!(
                "{flag} applies only to {fig}, which is not selected"
            ));
        }
    }
    Ok(args)
}

fn main() {
    let Args {
        figs,
        quick,
        huge,
        faults,
        jobs,
        json_path,
    } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}\nfigures: {}", FIGURES.join(" "));
            std::process::exit(2);
        }
    };
    // Create the JSON file before any figure runs: an unwritable path must
    // fail in milliseconds, not after the whole sweep.
    let json_out = json_path.map(|path| match std::fs::File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => fail(&format!("--json {path}: {e}")),
    });
    let jobs = sweep::workers(jobs);
    let profile = if quick { Profile::Quick } else { Profile::Full };

    let mut json: BTreeMap<&str, Value> = BTreeMap::new();
    let pct_fig = |title: &str, grid| run_pct_fig(title, run_cells(jobs, grid));
    let drive_fig = |title: &str, grid| run_drive_fig(title, run_cells(jobs, grid));
    for fig in &figs {
        let started = std::time::Instant::now();
        let mut key = fig.as_str();
        let value = match fig.as_str() {
            "fig3" => run_fig3(run_cells(jobs, appsfig::fig3(profile))),
            "fig7" => pct_fig(
                "Fig. 7: service request PCT (uniform traffic)",
                pct::fig7(profile),
            ),
            "fig8" => pct_fig("Fig. 8: attach PCT (uniform traffic)", pct::fig8(profile)),
            "fig9" => pct_fig(
                "Fig. 9: attach PCT (bursty IoT traffic, by active users)",
                burst::fig9(profile, huge),
            ),
            "fig10" if faults => {
                key = "fig10_faults";
                let grid = failure::fig10_with(profile, failure::paper_fault_profile());
                run_fig10_faults(run_cells(jobs, grid))
            }
            "fig10" => pct_fig(
                "Fig. 10: handover PCT under CPF failure",
                failure::fig10(profile),
            ),
            "fig11" => pct_fig("Fig. 11: fast handover PCT", handover::fig11(profile)),
            "fig13" => drive_fig(
                "Fig. 13: self-driving car missed deadlines (100 ms budget)",
                appsfig::fig13(profile),
            ),
            "fig14" => drive_fig(
                "Fig. 14: VR missed deadlines (16 ms budget)",
                appsfig::fig14(profile),
            ),
            "fig15" => pct_fig(
                "Fig. 15: state synchronization ablation (attach PCT)",
                pct::fig15(profile),
            ),
            "fig16" => pct_fig(
                "Fig. 16: CTA message logging overhead (attach PCT)",
                pct::fig16(profile),
            ),
            "fig17" => run_fig17(run_cells(jobs, logsize::fig17(profile))),
            "fig18" => run_fig18(quick),
            "fig19" => run_fig19_20(true),
            "fig20" => run_fig19_20(false),
            "ablation" => {
                // Two tables, each its own top-level entry.
                let (replicas, latency) = run_ablation(jobs);
                json.insert("ablation_replicas", replicas);
                key = "ablation_latency";
                latency
            }
            "overload" => run_overload(run_cells(jobs, overload::overload(profile))),
            other => unreachable!("parse_args admitted unknown figure `{other}`"),
        };
        json.insert(key, value);
        eprintln!("[{fig} done in {:.1}s]", started.elapsed().as_secs_f64());
    }

    if let Some((path, mut file)) = json_out {
        let body = serde_json::to_string_pretty(&json).expect("serializable");
        if let Err(e) = file.write_all(body.as_bytes()) {
            fail(&format!("--json {path}: {e}"));
        }
        eprintln!("wrote {path}");
    }
}

/// Reports a run-time error and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn to_json(rows: &impl Serialize) -> Value {
    serde_json::to_value(rows).expect("ser")
}

fn run_ablation(jobs: usize) -> (Value, Value) {
    use neutrino_common::time::Duration;
    let (rate, window) = (40_000, Duration::from_millis(800));
    render::header("Ablation A: backup replica count N (attach, 40K PPS)");
    let reps = run_cells(jobs, ablation::replica_sweep(rate, window));
    for p in &reps {
        println!(
            "  N={}  attach p50={:.3}ms  syncs={}  max_log={:.1} KB",
            p.replicas,
            p.attach_p50_ms,
            p.syncs_sent,
            p.max_log_bytes as f64 / 1e3
        );
    }
    render::header("Ablation B: inter-region latency vs failure recovery (40K PPS)");
    let lats = run_cells(jobs, ablation::inter_region_sweep(rate, window));
    for p in &lats {
        println!(
            "  inter-region={:>5}us  Neutrino failure-PCT p50={:.3}ms",
            p.inter_region_us, p.neutrino_failure_p50_ms
        );
    }
    (to_json(&reps), to_json(&lats))
}

/// Overload figure: admitted-vs-offered throughput and per-class PCT
/// percentiles under a flash-crowd storm, admission gated vs ungated.
fn run_overload(points: Vec<overload::OverloadPoint>) -> Value {
    render::header("Overload: flash-crowd re-attach, admission gated vs ungated");
    for p in &points {
        println!(
            "{:>10}  {:<20} offered={:>7} admitted={:>7} shed={:>7} rejected={:>7}  depth={:>5} (cap {})",
            format_x(p.x),
            p.system,
            p.offered,
            p.admitted.iter().sum::<u64>(),
            p.shed.iter().sum::<u64>(),
            p.rejected,
            p.max_queue_depth,
            p.queue_cap,
        );
        println!(
            "            attach p50={:.2}ms p99={:.2}ms  service-request p50={:.2}ms p99={:.2}ms  exhausted={} failed={} audit_div={}",
            p.attach.p50,
            p.attach.p99,
            p.service_request.p50,
            p.service_request.p99,
            p.retries_exhausted,
            p.failed_procedures,
            p.audit_divergences,
        );
    }
    to_json(&points)
}

fn run_pct_fig(title: &str, points: Vec<PctPoint>) -> Value {
    render::header(title);
    let mut by_x: BTreeMap<u64, Vec<&PctPoint>> = BTreeMap::new();
    for p in &points {
        by_x.entry(p.x).or_default().push(p);
    }
    for (x, ps) in &by_x {
        for p in ps {
            render::pct_row(&format_x(*x), &p.system, &p.summary);
        }
        // Ratio of the first system over the last (EPC over Neutrino in the
        // two-system figures).
        if ps.len() >= 2 {
            let first = ps.first().expect("non-empty");
            let best = ps
                .iter()
                .filter(|p| p.summary.p50.is_finite())
                .min_by(|a, b| a.summary.p50.total_cmp(&b.summary.p50));
            if let Some(best) = best {
                if best.system != first.system {
                    render::ratio_note(
                        &format!("{} over {} at {}", first.system, best.system, format_x(*x)),
                        first.summary.p50,
                        best.summary.p50,
                    );
                }
            }
        }
    }
    to_json(&points)
}

/// Fig. 10 under seeded link faults (`--faults`): the failure figure with
/// every link dropping/duplicating/reordering per the paper fault profile,
/// plus the per-cell consistency-audit verdict. Neutrino rows must report
/// zero divergences; re-attach baselines report their inconsistency windows.
fn run_fig10_faults(points: Vec<failure::FailurePoint>) -> Value {
    render::header("Fig. 10 (faulty links): handover PCT under CPF failure + link faults");
    for p in &points {
        render::pct_row(&format_x(p.x), &p.system, &p.summary);
        println!(
            "            audit: passes={} ues={} divergences={}  retx={} resyncs={} failed={}",
            p.audit_passes,
            p.audit_ues_checked,
            p.audit_divergences,
            p.retransmissions,
            p.resyncs_requested,
            p.failed_procedures
        );
    }
    to_json(&points)
}

fn run_drive_fig(title: &str, points: Vec<appsfig::DrivePoint>) -> Value {
    render::header(title);
    for p in &points {
        println!(
            "{:>10}  {:<14} {:<12} missed={}",
            format_x(p.active_users),
            p.system,
            if p.single_handover {
                "single-HO"
            } else {
                "multi-HO"
            },
            p.missed_deadlines
        );
    }
    to_json(&points)
}

fn run_fig3(points: Vec<appsfig::StartupPoint>) -> Value {
    render::header("Fig. 3: page load time and video startup delay");
    for p in &points {
        println!(
            "{:>10}  {:<14} video={:>10.1}ms  plt={:>10.1}ms  (sr-pct={:.2}ms)",
            format_x(p.rate),
            p.system,
            p.video_startup_ms,
            p.page_load_ms,
            p.pct_ms
        );
    }
    for rate in points
        .iter()
        .map(|p| p.rate)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let epc = points
            .iter()
            .find(|p| p.rate == rate && p.system == "ExistingEPC");
        let neu = points
            .iter()
            .find(|p| p.rate == rate && p.system == "Neutrino");
        if let (Some(e), Some(n)) = (epc, neu) {
            render::ratio_note(
                &format!("video startup at {}", format_x(rate)),
                e.video_startup_ms,
                n.video_startup_ms,
            );
            render::ratio_note(
                &format!("page load at {}", format_x(rate)),
                e.page_load_ms,
                n.page_load_ms,
            );
        }
    }
    to_json(&points)
}

fn run_fig17(points: Vec<logsize::LogSizePoint>) -> Value {
    render::header("Fig. 17: CTA message log size by active users");
    for p in &points {
        println!(
            "{:>10}  {:<22} max_log={:.2} MB",
            format_x(p.users),
            p.procedure,
            p.max_log_bytes as f64 / 1e6
        );
    }
    to_json(&points)
}

fn run_fig18(quick: bool) -> Value {
    render::header("Fig. 18: encode+decode speedup vs ASN.1 (synthetic messages)");
    let elements = if quick {
        vec![3, 7, 25]
    } else {
        serialization::fig18_elements()
    };
    let points = serialization::fig18(&elements);
    for p in &points {
        println!(
            "{:>4} elements  {:<10} total={:>8}ns  speedup(raw asn1)={:>6.2}x  speedup(asn1c)={:>6.2}x",
            p.elements, p.codec, p.total_ns, p.speedup_vs_asn1_raw, p.speedup_vs_asn1c
        );
    }
    to_json(&points)
}

/// Fig. 19 (`times`) or Fig. 20 (sizes): both read the same codec rows.
fn run_fig19_20(times: bool) -> Value {
    let rows = serialization::fig19_20();
    if times {
        render::header("Fig. 19: encode+decode times, real S1AP messages");
        for r in &rows {
            println!(
                "{:<28} {:<16} total={:>8}ns",
                r.message, r.codec, r.total_ns
            );
        }
    } else {
        render::header("Fig. 20: encoded message sizes, real S1AP messages");
        for r in &rows {
            if r.codec == "asn1c-emulated" {
                continue; // same bytes as asn1-per
            }
            println!(
                "{:<28} {:<16} size={:>5} bytes",
                r.message, r.codec, r.wire_bytes
            );
        }
    }
    to_json(&rows)
}

fn format_x(x: u64) -> String {
    if x >= 1_000_000 && x.is_multiple_of(1_000_000) {
        format!("{}M", x / 1_000_000)
    } else if x >= 1_000 {
        format!("{}K", x / 1_000)
    } else {
        x.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn single_figure_flags_parse_when_their_figure_is_selected() {
        let args = parse(&["fig10", "--faults", "--quick"]).unwrap();
        assert_eq!(args.figs, ["fig10"]);
        assert!(args.faults && args.quick && !args.huge);
        let args = parse(&["fig8", "fig9", "--huge"]).unwrap();
        assert_eq!(args.figs, ["fig8", "fig9"]);
        assert!(args.huge && !args.faults);
    }

    #[test]
    fn all_and_the_empty_selection_contain_both_flagged_figures() {
        for cmdline in [
            &["all", "--faults", "--huge"][..],
            &["--faults", "--huge", "--quick"],
            &["fig8", "all", "--faults"],
        ] {
            let args = parse(cmdline).unwrap();
            assert_eq!(args.figs, FIGURES);
        }
    }

    /// `tests/repro_cli.rs` covers the `fig8` rejections end to end; this
    /// pins that each flag is bound to its own figure, not to either.
    #[test]
    fn each_single_figure_flag_needs_its_own_figure() {
        for (fig, flag) in [("fig9", "--faults"), ("fig10", "--huge")] {
            let err = parse(&[fig, flag]).unwrap_err();
            assert!(err.contains(flag), "{fig} {flag}: {err}");
        }
    }
}
