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
use neutrino_bench::{render, sweep};
use std::collections::BTreeMap;

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
    jobs: Option<usize>,
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
                args.jobs = Some(
                    value("--jobs")?
                        .parse()
                        .map_err(|e| format!("--jobs: {e}"))?,
                )
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
    if let Some(jobs) = jobs {
        sweep::set_jobs(jobs);
    }
    let profile = if quick { Profile::Quick } else { Profile::Full };

    let mut json: BTreeMap<String, serde_json::Value> = BTreeMap::new();
    for fig in &figs {
        let started = std::time::Instant::now();
        match fig.as_str() {
            "fig3" => run_fig3(profile, &mut json),
            "fig7" => run_pct_fig(
                "Fig. 7: service request PCT (uniform traffic)",
                "fig7",
                pct::fig7(profile),
                &mut json,
            ),
            "fig8" => run_pct_fig(
                "Fig. 8: attach PCT (uniform traffic)",
                "fig8",
                pct::fig8(profile),
                &mut json,
            ),
            "fig9" => run_pct_fig(
                "Fig. 9: attach PCT (bursty IoT traffic, by active users)",
                "fig9",
                burst::fig9(profile, huge),
                &mut json,
            ),
            "fig10" if faults => run_fig10_faults(profile, &mut json),
            "fig10" => run_pct_fig(
                "Fig. 10: handover PCT under CPF failure",
                "fig10",
                failure::fig10(profile),
                &mut json,
            ),
            "fig11" => run_pct_fig(
                "Fig. 11: fast handover PCT",
                "fig11",
                handover::fig11(profile),
                &mut json,
            ),
            "fig13" => run_drive_fig(
                "Fig. 13: self-driving car missed deadlines (100 ms budget)",
                "fig13",
                appsfig::fig13(profile),
                &mut json,
            ),
            "fig14" => run_drive_fig(
                "Fig. 14: VR missed deadlines (16 ms budget)",
                "fig14",
                appsfig::fig14(profile),
                &mut json,
            ),
            "fig15" => run_pct_fig(
                "Fig. 15: state synchronization ablation (attach PCT)",
                "fig15",
                pct::fig15(profile),
                &mut json,
            ),
            "fig16" => run_pct_fig(
                "Fig. 16: CTA message logging overhead (attach PCT)",
                "fig16",
                pct::fig16(profile),
                &mut json,
            ),
            "fig17" => run_fig17(profile, &mut json),
            "fig18" => run_fig18(quick, &mut json),
            "fig19" | "fig20" => run_fig19_20(fig, &mut json),
            "ablation" => run_ablation(&mut json),
            "overload" => run_overload(profile, &mut json),
            other => unreachable!("parse_args admitted unknown figure `{other}`"),
        }
        eprintln!("[{fig} done in {:.1}s]", started.elapsed().as_secs_f64());
    }

    if let Some(path) = json_path {
        let body = serde_json::to_string_pretty(&json).expect("serializable");
        std::fs::write(&path, body).expect("write json");
        eprintln!("wrote {path}");
    }
}

fn run_ablation(json: &mut BTreeMap<String, serde_json::Value>) {
    use neutrino_common::time::Duration;
    render::header("Ablation A: backup replica count N (attach, 40K PPS)");
    let reps = ablation::replica_sweep(40_000, Duration::from_millis(800));
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
    let lats = ablation::inter_region_sweep(40_000, Duration::from_millis(800));
    for p in &lats {
        println!(
            "  inter-region={:>5}us  Neutrino failure-PCT p50={:.3}ms",
            p.inter_region_us, p.neutrino_failure_p50_ms
        );
    }
    json.insert(
        "ablation_replicas".into(),
        serde_json::to_value(&reps).expect("ser"),
    );
    json.insert(
        "ablation_latency".into(),
        serde_json::to_value(&lats).expect("ser"),
    );
}

/// Overload figure: admitted-vs-offered throughput and per-class PCT
/// percentiles under a flash-crowd storm, admission gated vs ungated.
fn run_overload(profile: Profile, json: &mut BTreeMap<String, serde_json::Value>) {
    render::header("Overload: flash-crowd re-attach, admission gated vs ungated");
    let points = overload::overload(profile);
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
    json.insert("overload".into(), serde_json::to_value(&points).expect("ser"));
}

fn run_pct_fig(
    title: &str,
    key: &str,
    points: Vec<PctPoint>,
    json: &mut BTreeMap<String, serde_json::Value>,
) {
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
    json.insert(key.to_string(), serde_json::to_value(&points).expect("ser"));
}

/// Fig. 10 under seeded link faults (`--faults`): the failure figure with
/// every link dropping/duplicating/reordering per the paper fault profile,
/// plus the per-cell consistency-audit verdict. Neutrino rows must report
/// zero divergences; re-attach baselines report their inconsistency windows.
fn run_fig10_faults(profile: Profile, json: &mut BTreeMap<String, serde_json::Value>) {
    render::header("Fig. 10 (faulty links): handover PCT under CPF failure + link faults");
    let points = failure::fig10_with(profile, failure::paper_fault_profile());
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
    json.insert(
        "fig10_faults".into(),
        serde_json::to_value(&points).expect("ser"),
    );
}

fn run_drive_fig(
    title: &str,
    key: &str,
    points: Vec<appsfig::DrivePoint>,
    json: &mut BTreeMap<String, serde_json::Value>,
) {
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
    json.insert(key.to_string(), serde_json::to_value(&points).expect("ser"));
}

fn run_fig3(profile: Profile, json: &mut BTreeMap<String, serde_json::Value>) {
    render::header("Fig. 3: page load time and video startup delay");
    let points = appsfig::fig3(profile);
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
    json.insert("fig3".into(), serde_json::to_value(&points).expect("ser"));
}

fn run_fig17(profile: Profile, json: &mut BTreeMap<String, serde_json::Value>) {
    render::header("Fig. 17: CTA message log size by active users");
    let points = logsize::fig17(profile);
    for p in &points {
        println!(
            "{:>10}  {:<22} max_log={:.2} MB",
            format_x(p.users),
            p.procedure,
            p.max_log_bytes as f64 / 1e6
        );
    }
    json.insert("fig17".into(), serde_json::to_value(&points).expect("ser"));
}

fn run_fig18(quick: bool, json: &mut BTreeMap<String, serde_json::Value>) {
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
    json.insert("fig18".into(), serde_json::to_value(&points).expect("ser"));
}

fn run_fig19_20(which: &str, json: &mut BTreeMap<String, serde_json::Value>) {
    let rows = serialization::fig19_20();
    if which == "fig19" {
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
    json.insert(which.to_string(), serde_json::to_value(&rows).expect("ser"));
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
