//! Printing: the single-workload form's last-line JSON object, the
//! human-readable lines above it, and `run`'s results file.

use crate::measure::{self, Outcome};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::trace;
use crate::Args;
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Looks `key` up in a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The directory `trace.json` and the results files go to.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A float as measured, all digits, in JSON's grammar.
fn num(x: f64) -> String {
    format!("{x:?}")
}

/// Runs one workload and prints its result; the last line of standard
/// output is the JSON object the benchmark contract names.
pub fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let outcome = if args.trace {
        measure::per_layer(workload, args.seed, args.seconds)
    } else {
        measure::end_to_end(workload, args.seed, args.seconds)
    };
    let Outcome {
        failure,
        attempted,
        failed,
        digest,
        end_to_end,
        layers,
        spans,
        repeats_s,
        speeds,
    } = outcome;
    if let Some(why) = &failure {
        eprintln!("bench: {workload}: output check failed: {why}");
    }
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) {
        println!("why: {}", w.why);
    }

    // name -> (value, unit); `detail` carries quartiles for `run`.
    let mut printed: Vec<(&str, f64, &str)> = Vec::new();
    let mut detail = String::new();
    let mut samples = String::new();
    if args.trace {
        println!(
            "{:<42} {:>6} {:>18}  {:<6} {:<13} should move",
            "per-layer metric", "unit", "median", "better", "layer"
        );
        for m in PER_LAYER {
            let v = layers.get(m.name);
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!(
                "{:<42} {:>6} {:>18.6}  {:<6} {:<13} {}",
                m.name, m.unit, v, better, m.layer, m.moves
            );
            printed.push((m.name, v, m.unit));
            detail.push_str(&format!(
                ",\"{}\":{{\"median\":{},\"unit\":\"{}\"}}",
                m.name,
                num(v),
                m.unit
            ));
        }
        let path = out_dir().join("trace.json");
        write_out(&path, &trace::to_json(workload, &spans))?;
        println!("{} spans written to {}", spans.len(), path.display());
    } else {
        println!(
            "{:<16} {:>6} {:>16} {:>16} {:>16} {:>4}   (*_ref_*: host time at reference speed)",
            "end-to-end", "unit", "median", "q1", "q3", "n"
        );
        for m in END_TO_END {
            let q = end_to_end
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, q)| *q)
                .unwrap_or(crate::stats::quartiles(&[]));
            println!(
                "{:<16} {:>6} {:>16.6} {:>16.6} {:>16.6} {:>4}",
                m.name, m.unit, q.median, q.q1, q.q3, q.n
            );
            printed.push((m.name, q.median, m.unit));
            detail.push_str(&format!(
                ",\"{}\":{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"unit\":\"{}\"}}",
                m.name,
                num(q.median),
                num(q.q1),
                num(q.q3),
                q.n,
                m.unit
            ));
        }
        for (name, label) in [
            ("sim.pct_p50_ms", "simulated ms, Neutrino cells"),
            ("sim.pct_p99_ms", "simulated ms, Neutrino cells"),
            ("pump.proc_p50_us", "host us per procedure"),
            ("pump.proc_p99_us", "host us per procedure"),
            ("bench.wall_s", "host s per repeat as timed, before scaling"),
            (
                "bench.setup_s",
                "host s per set-up as timed, before scaling",
            ),
        ] {
            if layers.has(name) {
                println!("{:<16} {:>23.6}   ({label})", name, layers.get(name));
                detail.push_str(&format!(
                    ",\"{name}\":{{\"median\":{}}}",
                    num(layers.get(name))
                ));
            }
        }
        // Every repeat as it was timed, so a reader can redo the statistics.
        let list = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(",");
        samples = format!(
            ",\"repeats_s\":[{}],\"host_speed\":[{}]",
            list(&repeats_s),
            list(&speeds)
        );
    }
    println!("sim_digest {digest:#018x}  attempted {attempted}  failed {failed}");

    let all_finite = printed.iter().all(|(_, v, _)| v.is_finite());
    if !all_finite {
        eprintln!("bench: {workload}: a metric is not a finite number");
    }
    let correct = failure.is_none() && all_finite;
    println!(
        "detail {{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"sim_digest\":\"{digest:#018x}\",\"metrics\":{{{}}}{samples}}}",
        detail.trim_start_matches(',')
    );
    let metrics: Vec<String> = printed
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    );
    Ok(correct)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload in a process of its own, so that `peak_rss_mb` is that
/// workload's alone; echoes its table and returns its `detail` object.
fn run_child(exe: &std::path::Path, workload: &str, args: &Args) -> Result<Value, String> {
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(d) => detail = Some(d),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    println!();
    let detail = detail.ok_or_else(|| format!("{workload}: no result ({})", output.status))?;
    serde_json::from_str(detail).map_err(|e| format!("{workload}: {e}"))
}

/// `run`: every workload (or one), and the results file `compare` reads.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let chosen: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|only| only == *name))
        .collect();
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for name in chosen {
        workloads.push((name.to_string(), run_child(&exe, name, args)?));
    }
    let all_correct = workloads
        .iter()
        .all(|(_, w)| field(w, "correct").and_then(Value::as_bool) == Some(true));
    let host = Value::Map(vec![
        (
            "nproc".to_string(),
            Value::U64(std::thread::available_parallelism().map_or(0, usize::from) as u64),
        ),
        (
            "rustc".to_string(),
            Value::Str(command_line("rustc", &["--version"])),
        ),
        (
            "git_commit".to_string(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".to_string(), Value::U64(args.seed)),
        ("seconds".to_string(), Value::F64(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
    ]);
    // One workload per line keeps the file greppable.
    let json = |v: &Value| serde_json::to_string(v).map_err(|e| e.to_string());
    let mut lines = Vec::new();
    for (name, w) in &workloads {
        lines.push(format!("\"{name}\":{}", json(w)?));
    }
    let text = format!(
        "{{\"host\":{},\n\"workloads\":{{\n{}\n}}}}\n",
        json(&host)?,
        lines.join(",\n")
    );
    let path = match &args.out {
        Some(p) => PathBuf::from(p),
        None => out_dir().join(if args.trace {
            "results-trace.json"
        } else {
            "results.json"
        }),
    };
    write_out(&path, &text)?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names_of(v: &Value, key: &str) -> Vec<String> {
        field(v, key)
            .and_then(Value::as_seq)
            .expect(key)
            .iter()
            .map(|m| {
                field(m, "name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` declares exactly what the benchmark prints, and
    /// every name stays inside the contract's alphabet.
    #[test]
    fn benchmark_json_agrees_with_the_printed_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        assert_eq!(
            names_of(&doc, "workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names_of(&doc, "end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names_of(&doc, "per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);

        let mut seen = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        for (decl, m) in field(&doc, "end_to_end")
            .unwrap()
            .as_seq()
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(
                field(decl, "unit").and_then(Value::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                field(decl, "better").and_then(Value::as_str),
                Some(better),
                "{}",
                m.name
            );
            assert_eq!(
                field(decl, "bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        for (decl, m) in field(&doc, "per_layer")
            .unwrap()
            .as_seq()
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(
                field(decl, "unit").and_then(Value::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                field(decl, "better").and_then(Value::as_str),
                Some(better),
                "{}",
                m.name
            );
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.higher_is_better),
            ("setup_s", "s", false)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
