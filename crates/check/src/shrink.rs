//! Minimizes a failing plan while it keeps failing.
//!
//! Greedy delta debugging over the plan's fault dimensions: try removing
//! each partition window and each crash, zeroing each fault probability,
//! then halving the horizon, the UE pool, the rate, and the drain. Any
//! candidate that still fails becomes the new current plan and the
//! candidate list restarts from the top (removing a partition often makes
//! a crash removable next). Fixpoint: stops when no candidate fails or
//! the run budget is spent.
//!
//! Every candidate is a complete [`CasePlan`], so the shrunk result
//! replays byte-identically with no reference to the shrink history.

use crate::run::{run_case, CheckReport};
use crate::scenario::{CasePlan, NS_PER_MS};

/// Smallest measured window the shrinker will try (ms). Below this the
/// fault schedule has no room to land inside the run.
const MIN_DURATION_MS: u64 = 80;
/// Smallest UE pool the shrinker will try.
const MIN_UES: u64 = 200;
/// Smallest arrival rate the shrinker will try (pps).
const MIN_RATE_PPS: u64 = 2_000;
/// Smallest drain margin the shrinker will try (ms). Kept at several
/// retry cycles (retry timeout is 1 s): a drain squeezed below the UE
/// population's own recovery machinery would *manufacture* end-of-run
/// liveness violations, morphing a real failure into a horizon artifact.
const MIN_DRAIN_MS: u64 = 5_000;

/// Result of a shrink: the smallest still-failing plan found.
#[derive(Debug)]
pub struct ShrinkOutcome {
    /// The minimized plan (equal to the input if nothing could be removed).
    pub plan: CasePlan,
    /// The minimized plan's report (non-clean by construction).
    pub report: CheckReport,
    /// Checked runs spent, including the initial reproduction.
    pub runs: u64,
}

/// Every single-step reduction of `plan`, in fixed order: structural
/// removals first (they shrink the *explanation*), size reductions last.
fn candidates(plan: &CasePlan) -> Vec<CasePlan> {
    let mut out = Vec::new();
    for i in 0..plan.partitions.len() {
        let mut c = plan.clone();
        c.partitions.remove(i);
        out.push(c);
    }
    for i in 0..plan.crashes.len() {
        let mut c = plan.clone();
        c.crashes.remove(i);
        out.push(c);
    }
    let zeros: [fn(&mut CasePlan); 4] = [
        |c| c.loss_ppm = 0,
        |c| c.duplicate_ppm = 0,
        |c| c.reorder_ppm = 0,
        |c| c.jitter_us = 0,
    ];
    for zero in zeros {
        let mut c = plan.clone();
        zero(&mut c);
        if c != *plan {
            out.push(c);
        }
    }
    if plan.duration_ms > MIN_DURATION_MS {
        let mut c = plan.clone();
        c.duration_ms = (c.duration_ms / 2).max(MIN_DURATION_MS);
        // Keep the schedule inside the shortened window.
        c.crashes.retain(|cr| cr.at_ns < c.duration_ms * NS_PER_MS);
        c.partitions.retain(|p| p.from_ms < c.duration_ms);
        for p in &mut c.partitions {
            p.until_ms = p.until_ms.min(c.duration_ms);
        }
        out.push(c);
    }
    if plan.ues > MIN_UES {
        let mut c = plan.clone();
        c.ues = (c.ues / 2).max(MIN_UES);
        out.push(c);
    }
    if plan.rate_pps > MIN_RATE_PPS {
        let mut c = plan.clone();
        c.rate_pps = (c.rate_pps / 2).max(MIN_RATE_PPS);
        out.push(c);
    }
    if plan.drain_ms > MIN_DRAIN_MS {
        let mut c = plan.clone();
        c.drain_ms = (c.drain_ms / 2).max(MIN_DRAIN_MS);
        out.push(c);
    }
    out
}

/// The invariants a report violates, deduplicated.
fn violated_invariants(report: &CheckReport) -> Vec<String> {
    let mut names: Vec<String> = report
        .violations
        .iter()
        .map(|v| v.invariant.clone())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Shrinks `plan` within `budget` checked runs.
///
/// A candidate only replaces the current plan when it violates at least
/// one of the invariants the *original* failure violated — "fails
/// somehow" is not enough. Without this, shrinking can walk away from
/// the bug under investigation and pin an unrelated (often horizon-
/// artifact) failure instead.
///
/// Panics if `plan` does not fail to begin with — shrinking a passing
/// plan would pin a vacuous corpus case.
pub fn shrink(plan: &CasePlan, budget: u64) -> ShrinkOutcome {
    let mut runs = 1u64;
    let mut current = plan.clone();
    let mut report = run_case(&current);
    assert!(
        !report.is_clean(),
        "shrink called on a passing plan (scenario {}, seed {})",
        plan.scenario,
        plan.seed
    );
    let target = violated_invariants(&report);
    let still_fails = |r: &CheckReport| {
        !r.is_clean() && violated_invariants(r).iter().any(|n| target.contains(n))
    };
    'fixpoint: loop {
        for cand in candidates(&current) {
            if runs >= budget {
                break 'fixpoint;
            }
            let r = run_case(&cand);
            runs += 1;
            if still_fails(&r) {
                current = cand;
                report = r;
                continue 'fixpoint;
            }
        }
        break;
    }
    ShrinkOutcome {
        plan: current,
        report,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn candidates_shrink_strictly() {
        let plan = Scenario::by_name("chaos").unwrap().plan(5);
        for c in candidates(&plan) {
            assert_ne!(c, plan, "a candidate must change the plan");
        }
    }

    #[test]
    fn halving_keeps_schedule_inside_window() {
        let mut plan = Scenario::by_name("chaos").unwrap().plan(5);
        plan.duration_ms = 400;
        for c in candidates(&plan) {
            for cr in &c.crashes {
                assert!(cr.at_ns < c.duration_ms * NS_PER_MS);
            }
            for p in &c.partitions {
                assert!(p.until_ms <= c.duration_ms.max(p.from_ms + 1));
            }
        }
    }
}
