//! The repo benchmark. See `README.md` beside this package's `Cargo.toml`.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! bench run [--seed N] [--seconds S] [--workload W] [--trace] [--quick] [--out F]
//! bench compare A.json B.json
//! ```

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod alloc_meter;
mod compare;
mod measure;
mod metrics;
mod probes;
mod pump;
mod reference;
mod report;
mod ring;
mod simwl;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

/// The flags shared by the single-workload form and `run`.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `run` only: where the results file goes.
    out: Option<String>,
}

fn parse(args: &[String], run_form: bool) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" if run_form => parsed.out = Some(value()?.clone()),
            // Two seconds of measuring per workload: half a minute in all.
            "--quick" if run_form => parsed.seconds = 2.0,
            "--trace" if run_form => parsed.trace = true,
            "--trace" => parsed.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !metrics::WORKLOADS.iter().any(|d| d.name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => parse(&argv[1..], true).and_then(|a| report::run_all(&a)),
        Some("compare") => match &argv[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: bench compare A.json B.json".into()),
        },
        _ => parse(&argv, false).and_then(|a| {
            let workload = a.workload.clone().ok_or("--workload is required")?;
            report::run_one(&workload, &a)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
