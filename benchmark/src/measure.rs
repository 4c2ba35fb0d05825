//! Set-up, the timed repeats, the output checks across repeats, and the
//! reduction of repeats to one value per metric.

use crate::alloc_meter;
use crate::probes;
use crate::pump::PumpWorkload;
use crate::reference::Reference;
use crate::ring::RingWorkload;
use crate::simwl::SimWorkload;
use crate::stats::{self, Quartiles};
use crate::trace::{self, Tracer};
use crate::workload::{Layers, Repeat, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Everything one run of one workload found.
#[derive(Default)]
pub struct Outcome {
    /// The output check that failed, if one did.
    pub failure: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// End-to-end metrics (untraced runs): median and quartiles over repeats.
    pub end_to_end: Vec<(&'static str, Quartiles)>,
    /// Per-layer metrics (traced runs): median over traced repeats.
    pub layers: Layers,
    /// The spans of a traced run.
    pub spans: Vec<trace::Span>,
    /// Host seconds of every timed repeat of an untraced run, and the
    /// reference speed sampled right before each.
    pub repeats_s: Vec<f64>,
    pub speeds: Vec<f64>,
}

fn make(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "sim_steady" => Box::new(SimWorkload::steady(seed)),
        "sim_burst" => Box::new(SimWorkload::burst(seed)),
        "sim_failover_faults" => Box::new(SimWorkload::failover_faults(seed)),
        "engine_ring" => Box::new(RingWorkload::new(seed)),
        "live_pump" => Box::new(PumpWorkload::new(seed, PumpWorkload::UES)),
        other => unreachable!("workload names are checked at the door: {other}"),
    }
}

/// One set-up: build the inputs from the seed and run one warm-up repeat,
/// so caches, lazy tables and the allocator's arenas are in their steady
/// state before anything is timed. Returns the workload and the seconds.
fn set_up(workload: &str, seed: u64) -> Result<(Box<dyn Workload>, f64, Repeat), String> {
    let start = Instant::now();
    let mut w = make(workload, seed);
    let warm_up = w.warm_up()?;
    Ok((w, start.elapsed().as_secs_f64(), warm_up))
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Whether another repeat still belongs in the measuring window: at least
/// half of it must fit.
fn room_for_another(begin: Instant, seconds: f64, last: f64) -> bool {
    begin.elapsed().as_secs_f64() + last / 2.0 < seconds
}

/// Every repeat, the warm-up included, must have produced the same
/// outputs. In a traced run of the simulator path this also holds the
/// benchmark's own span-by-span path to `run_experiment`'s.
fn check_digests(warm_up: &Repeat, repeats: &[Repeat]) -> Result<(), String> {
    match repeats.iter().find(|r| r.digest != warm_up.digest) {
        Some(r) => Err(format!(
            "outputs differ between repeats: digest {:#018x} and {:#018x}",
            warm_up.digest, r.digest
        )),
        None => Ok(()),
    }
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let result = (|| {
        let mut reference = Reference::new();
        let (mut setups, mut setups_ref) = (Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..SETUPS {
            let speed = reference.speed();
            let (built, secs, warm_up) = set_up(workload, seed)?;
            setups.push(secs);
            setups_ref.push(secs * speed);
            last = Some((built, warm_up));
        }
        let (mut w, warm_up) = last.expect("SETUPS > 0");
        let begin = Instant::now();
        let mut repeats: Vec<Repeat> = Vec::new();
        while repeats
            .last()
            .is_none_or(|r| room_for_another(begin, seconds, r.wall_s))
        {
            out.speeds.push(reference.speed());
            repeats.push(w.run(None)?);
        }
        drop(w);
        check_digests(&warm_up, &repeats)?;
        out.digest = warm_up.digest;
        out.attempted = repeats.iter().map(|r| r.attempted).sum();
        out.failed = repeats.iter().map(|r| r.failed).sum();
        out.repeats_s = repeats.iter().map(|r| r.wall_s).collect();
        // Each repeat at the speed the host showed right before it.
        let at_ref: Vec<f64> = out
            .repeats_s
            .iter()
            .zip(&out.speeds)
            .map(|(s, k)| s * k)
            .collect();
        let wall_ref = stats::quartiles(&at_ref);
        // Equal digests mean equal counts, so any repeat's will do.
        let per_s = |count: u64| Quartiles {
            median: count as f64 / wall_ref.median,
            q1: count as f64 / wall_ref.q3,
            q3: count as f64 / wall_ref.q1,
            n: wall_ref.n,
        };
        out.end_to_end = vec![
            ("setup_s", stats::quartiles(&setups_ref)),
            ("wall_ref_s", wall_ref),
            ("events_per_ref_s", per_s(repeats[0].events)),
            ("procs_per_ref_s", per_s(repeats[0].procs)),
            ("peak_rss_mb", stats::quartiles(&[peak_rss_mb()?])),
        ];
        // Simulated time, the pump's latency and the times before scaling
        // ride along for `run`'s table.
        out.layers = repeats[0].layers.clone();
        out.layers
            .set("bench.wall_s", stats::median(&out.repeats_s));
        out.layers.set("bench.setup_s", stats::median(&setups));
        Ok(())
    })();
    out.failure = result.err();
    out
}

/// Values derived from one traced repeat's raw sums.
fn derive(l: &mut Layers, repeat_wall_s: f64, spans: &[trace::Span], repeat: u32) {
    let per = |l: &Layers, num: &str, den: &str, scale: f64| l.ratio(num, den) * scale;
    let derived = [
        (
            "trafficgen.gen_ns_per_arrival",
            per(l, "trafficgen.gen_s", "trafficgen.arrivals", 1e9),
        ),
        (
            "netsim.ns_per_event",
            per(l, "netsim.run_s", "netsim.events", 1e9),
        ),
        (
            "sim.allocs_per_event",
            per(l, "sim.allocs", "netsim.events", 1.0),
        ),
        (
            "cta.sim_mean_wait_us",
            per(l, "cta.sim_wait_total_us", "cta.processed", 1.0),
        ),
    ];
    for (k, v) in derived {
        l.set(k, v);
    }
    // The share of the repeat that named child spans account for.
    let by_name = trace::self_time_by_name(spans, repeat);
    let named: u64 = by_name
        .iter()
        .filter(|(n, _)| **n != "repeat")
        .map(|(_, t)| t)
        .sum();
    l.set(
        "bench.span_coverage_frac",
        named as f64 * 1e-9 / repeat_wall_s,
    );
}

/// The traced run: per-layer metrics, spans, and the tracing overhead
/// against untraced repeats of the same process.
pub fn per_layer(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let result = (|| {
        let (mut w, setup_first_s, warm_up) = set_up(workload, seed)?;
        let begin = Instant::now();
        let (mut plain, mut traced): (Vec<Repeat>, Vec<Repeat>) = (Vec::new(), Vec::new());
        while traced
            .last()
            .is_none_or(|r| room_for_another(begin, seconds, 2.0 * r.wall_s))
        {
            plain.push(w.run(None)?);
            let n = traced.len() as u32;
            tracer.set_repeat(n);
            alloc_meter::set_counting(true);
            let repeat = w.run(Some(&mut tracer));
            alloc_meter::set_counting(false);
            let mut repeat = repeat?;
            derive(&mut repeat.layers, repeat.wall_s, tracer.spans(), n);
            traced.push(repeat);
        }
        drop(w);
        check_digests(&warm_up, &plain)?;
        check_digests(&warm_up, &traced)?;
        out.digest = warm_up.digest;
        out.attempted = plain.iter().chain(&traced).map(|r| r.attempted).sum();
        out.failed = plain.iter().chain(&traced).map(|r| r.failed).sum();

        let mut by_key: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for r in &traced {
            for (k, v) in r.layers.iter() {
                by_key.entry(k).or_default().push(v);
            }
        }
        for (k, v) in by_key {
            out.layers.set(k, stats::median(&v));
        }
        // Pair by pair: the two repeats of a pair ran back to back, so a
        // slow stretch of the host slows both.
        let ratios: Vec<f64> = traced
            .iter()
            .zip(&plain)
            .map(|(t, p)| t.wall_s / p.wall_s)
            .collect();
        out.layers
            .set("bench.trace_overhead_frac", stats::median(&ratios) - 1.0);
        let plain_s: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
        out.layers.set("bench.wall_s", stats::median(&plain_s));

        out.layers.set("bench.setup_first_s", setup_first_s);
        if workload.starts_with("sim_") {
            out.layers
                .set("sim.digest32", (out.digest & 0xffff_ffff) as f64);
        }
        probes::run(&mut out.layers, workload, seed)?;
        Ok(())
    })();
    out.failure = result.err();
    out.spans = tracer.spans().to_vec();
    out
}
