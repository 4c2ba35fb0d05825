//! `bench compare A.json B.json`: B against the base A, one row per workload
//! and end-to-end metric.

use crate::metrics::{EndToEnd, END_TO_END};
use crate::report::field;
use crate::stats::Quartiles;
use serde::Value;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    /// The median got worse by more than the bound.
    Worse,
    /// Within the bound, but a side's own spread is wider than the bound,
    /// so "unchanged" cannot be claimed either.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base`'s median
/// (negative when it is better).
fn worse_by(m: &EndToEnd, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    if m.higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    }
}

pub fn verdict(m: &EndToEnd, base: &Quartiles, new: &Quartiles) -> Verdict {
    if worse_by(m, base.median, new.median) > m.bound {
        Verdict::Worse
    } else if base.spread() > m.bound || new.spread() > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn quartiles_of(workload: &Value, metric: &str) -> Option<Quartiles> {
    let m = field(field(workload, "metrics")?, metric)?;
    let f = |k| field(m, k).and_then(Value::as_f64);
    Some(Quartiles {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
        n: f("n")? as usize,
    })
}

/// The outputs of one workload that must be identical on both sides and
/// are not: a change that moves one of them changed the behaviour, whatever
/// it did to speed.
fn mismatches(base: &Value, new: &Value) -> Vec<&'static str> {
    let metric = |w: &Value, key: &str| field(field(w, "metrics")?, key).cloned();
    let mut differ: Vec<&'static str> = ["correct", "failed", "sim_digest"]
        .into_iter()
        .filter(|key| field(base, key) != field(new, key))
        .collect();
    // Simulated time: exact, and gated apart from the digest that holds it.
    differ.extend(
        ["sim.pct_p50_ms", "sim.pct_p99_ms"]
            .into_iter()
            .filter(|key| metric(base, key) != metric(new, key)),
    );
    differ
}

/// Prints the table; `Ok(false)` when a row is worse or the outputs of the
/// two sides differ.
pub fn run(a: &str, b: &str) -> Result<bool, String> {
    let (base, new) = (load(a)?, load(b)?);
    let seed = |doc: &Value| {
        field(doc, "host")
            .and_then(|h| field(h, "seed"))
            .and_then(Value::as_u64)
    };
    // Outputs depend on the seed, so sides that ran different seeds cannot
    // be held to equal outputs, and without that no row means anything.
    if seed(&base) != seed(&new) {
        return Err(format!(
            "{a} and {b} ran different seeds: run both sides with one --seed"
        ));
    }
    let workloads = |doc: &Value| -> Result<Vec<(String, Value)>, String> {
        Ok(field(doc, "workloads")
            .and_then(Value::as_map)
            .ok_or("no \"workloads\" object: not a results file of `bench run`")?
            .to_vec())
    };
    let (base_w, new_w) = (workloads(&base)?, workloads(&new)?);
    println!("base = {a}   new = {b}   (ratio = new / base)");
    println!(
        "{:<20} {:<13} {:>13} {:>13} {:>7} {:>15} {:>15} {:>6}  verdict",
        "workload",
        "metric",
        "base median",
        "new median",
        "ratio",
        "base q1..q3",
        "new q1..q3",
        "bound"
    );
    let mut pass = true;
    for (name, bw) in &base_w {
        let Some((_, nw)) = new_w.iter().find(|(n, _)| n == name) else {
            println!("{name:<20} missing from {b}");
            pass = false;
            continue;
        };
        for m in END_TO_END {
            let (Some(qa), Some(qb)) = (quartiles_of(bw, m.name), quartiles_of(nw, m.name)) else {
                continue;
            };
            let v = verdict(m, &qa, &qb);
            pass &= v != Verdict::Worse;
            println!(
                "{:<20} {:<13} {:>13.5} {:>13.5} {:>7.3} {:>15} {:>15} {:>6.2}  {}",
                name,
                m.name,
                qa.median,
                qb.median,
                if qa.median == 0.0 {
                    0.0
                } else {
                    qb.median / qa.median
                },
                format!("{:.4}..{:.4}", qa.q1, qa.q3),
                format!("{:.4}..{:.4}", qb.q1, qb.q3),
                m.bound,
                v.label()
            );
        }
        for key in mismatches(bw, nw) {
            println!("{name:<20} MISMATCH: {key} differs, a behaviour change and not a speed-up");
            pass = false;
        }
    }
    println!(
        "{}",
        if pass {
            "compare: pass"
        } else {
            "compare: FAIL"
        }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(median: f64, q1: f64, q3: f64) -> Quartiles {
        Quartiles {
            median,
            q1,
            q3,
            n: 10,
        }
    }

    #[test]
    fn outputs_must_be_identical() {
        let side = |digest: &str, failed: u64, p99: f64| -> Value {
            serde_json::from_str(&format!(
                "{{\"correct\":true,\"failed\":{failed},\"sim_digest\":\"{digest}\",\
                 \"metrics\":{{\"wall_ref_s\":{{\"median\":1.0}},\
                 \"sim.pct_p50_ms\":{{\"median\":2.5}},\"sim.pct_p99_ms\":{{\"median\":{p99:?}}}}}}}"
            ))
            .expect("valid JSON")
        };
        let base = side("0xab", 0, 7.0);
        assert!(mismatches(&base, &side("0xab", 0, 7.0)).is_empty());
        assert_eq!(mismatches(&base, &side("0xcd", 0, 7.0)), ["sim_digest"]);
        assert_eq!(mismatches(&base, &side("0xab", 3, 7.0)), ["failed"]);
        assert_eq!(mismatches(&base, &side("0xab", 0, 7.5)), ["sim.pct_p99_ms"]);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = &EndToEnd {
            name: "wall_s",
            unit: "s",
            higher_is_better: false,
            bound: 0.10,
        };
        let higher = &EndToEnd {
            name: "events_per_s",
            unit: "1/s",
            higher_is_better: true,
            bound: 0.10,
        };
        let steady = q(100.0, 99.0, 101.0);
        // Lower is better: +9 % is inside the bound, +11 % is not, -50 % is a gain.
        assert_eq!(
            verdict(lower, &steady, &q(109.0, 108.0, 110.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(lower, &steady, &q(111.0, 110.0, 112.0)),
            Verdict::Worse
        );
        assert_eq!(verdict(lower, &steady, &q(50.0, 49.5, 50.5)), Verdict::Ok);
        // Higher is better: the same moves read the other way round.
        assert_eq!(
            verdict(higher, &steady, &q(111.0, 110.0, 112.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(higher, &steady, &q(89.0, 88.0, 90.0)),
            Verdict::Worse
        );
        // A spread wider than the bound on either side is unresolved, not ok.
        assert_eq!(
            verdict(lower, &q(100.0, 90.0, 105.0), &steady),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(lower, &steady, &q(100.0, 93.0, 104.0)),
            Verdict::Unresolved
        );
        // ... but a median beyond the bound is worse however noisy it is.
        assert_eq!(
            verdict(lower, &steady, &q(130.0, 100.0, 160.0)),
            Verdict::Worse
        );
    }
}
