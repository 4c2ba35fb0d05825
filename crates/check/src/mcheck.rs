//! Small-model exhaustive interleaving checking (stateless-search DPOR).
//!
//! The netsim engine is deterministic: one seed fixes the entire event
//! stream. That buys replayability, but it also means a seed sweep only
//! ever sees *one* dispatch order per seed — same-tick deliveries always
//! land in `(at, seq)` order, and a race the protocol loses only under a
//! different service order stays invisible. This module enumerates those
//! orders for *small models*: hand-built clusters (two CPFs, two UEs, one
//! crash) whose simultaneously enabled deliveries form a tree shallow
//! enough to walk completely.
//!
//! The search is stateless in the jbsimsa/Shuttle style: the engine is
//! never forked. Each path re-runs the plan from the root through
//! [`run_case_with`] with a script chooser installed; at every choice
//! point (≥ 2 deliveries enabled at one tick) the script says which
//! enabled delivery to dispatch, and past the script's end the identity
//! choice (lowest sequence number — the unchosen engine's order) finishes
//! the run.
//! Re-running from the root costs `O(depth)` per path, but small-model
//! runs are milliseconds and the approach needs no engine snapshotting —
//! determinism *is* the snapshot.
//!
//! Two prunes keep the tree honest without losing soundness of what is
//! reported (every explored path is a real, replayable run — a violation
//! found here is a violation, full stop; the prunes only risk *missing*
//! paths, and each one's assumption is stated where it is applied):
//!
//! * **per-stream FIFO** — two enabled deliveries on the same (source,
//!   destination, UE) stream never reorder: links are FIFO per stream, so
//!   only stream *heads* are schedulable candidates.
//! * **independence** — a candidate whose destination node differs from
//!   every earlier candidate's destination is not branched to: deliveries
//!   to different nodes touch disjoint state and commute, so some explored
//!   schedule already covers that order. Crash and timer barriers at the
//!   same tick void the assumption, so choice points that jump across a
//!   staged non-delivery event (the `barrier` argument of
//!   [`Chooser::choose`]) branch fully.
//!
//! Fault-ful plans (loss/duplication/reorder/jitter) disable the
//! independence prune: fault draws are salted by per-link send sequence,
//! so dispatch order feeds back into *which messages exist* and the
//! commutativity argument no longer holds. Such plans still explore, just
//! without reduction.

use crate::run::{run_case_with, CheckReport};
use crate::scenario::CasePlan;
use neutrino_core::SimMsg;
use neutrino_messages::SysMsg;
use neutrino_netsim::{Chooser, Enabled, NodeId};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// One schedulable candidate at a choice point: the head of one delivery
/// stream.
#[derive(Debug, Clone)]
struct CandidateRec {
    /// Index into the engine's enabled array (what a script entry means).
    idx: u32,
    /// Destination node — the independence rule's commutativity key.
    to: NodeId,
}

/// The record of one chooser consultation along a path.
#[derive(Debug)]
struct ChoicePointRec {
    /// The enabled index actually dispatched.
    chosen: u32,
    /// Stream-head candidates, in enabled (push) order.
    candidates: Vec<CandidateRec>,
    /// True when the enabled set jumped across a staged non-delivery
    /// event (a same-tick crash, timer or job completion): commutativity
    /// does not hold across it, so independence pruning is off here.
    barrier: bool,
}

/// FIFO stream identity of an enabled delivery. Control-plane messages
/// for different UEs share physical links but are logically independent
/// flows — the upstream arrival race between two UEs' messages on one
/// BS→CTA link is exactly the kind of reordering the checker must
/// explore. Messages of the *same* UE on one link stay FIFO (in-order
/// transport), as does every non-control stream.
fn stream_key(e: &Enabled<'_, SimMsg>) -> (u64, u64, u64, u64) {
    match e.msg {
        SimMsg::Sys(SysMsg::Control(env)) => (e.from.raw(), e.to.raw(), 1, env.ue.raw()),
        _ => (e.from.raw(), e.to.raw(), 0, 0),
    }
}

/// Follows a choice script, then identity, recording every consultation
/// (stream-head candidates, barrier flag) for the explorer to expand: the
/// k-th consultation dispatches the `script[k]`-th enabled delivery, and
/// index 0 past the script's end. The record is shared, so the explorer
/// keeps a handle to it while the engine owns the chooser.
///
/// Picks are clamped into range rather than panicking: a shrunk plan can
/// reach a choice point with fewer enabled deliveries than the original
/// run had, and the shrinker's replay check — not the chooser — decides
/// whether the result still fails.
pub struct ScriptChooser {
    script: Vec<u32>,
    log: Rc<RefCell<Vec<ChoicePointRec>>>,
}

impl ScriptChooser {
    /// A chooser that follows `script`, then identity.
    pub fn new(script: &[u32]) -> Self {
        ScriptChooser {
            script: script.to_vec(),
            log: Rc::default(),
        }
    }
}

impl Chooser<SimMsg> for ScriptChooser {
    fn choose(&mut self, barrier: bool, enabled: &[Enabled<'_, SimMsg>]) -> usize {
        // A delivery is a candidate when it heads its stream.
        let candidates: Vec<CandidateRec> = (0..enabled.len())
            .filter(|&i| !enabled[..i].iter().any(|e| stream_key(e) == stream_key(&enabled[i])))
            .map(|i| CandidateRec {
                idx: i as u32,
                to: enabled[i].to,
            })
            .collect();
        let mut log = self.log.borrow_mut();
        let pick = self.script.get(log.len()).copied().unwrap_or(0);
        let chosen = pick.min(enabled.len() as u32 - 1);
        log.push(ChoicePointRec {
            chosen,
            candidates,
            barrier,
        });
        chosen as usize
    }
}

/// Exhaustive-exploration bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct McheckOptions {
    /// Branch-point depth: only the first `bound` *dependent* choice
    /// points of a path (consultations offering at least one unpruned
    /// alternative) spawn branches; deeper ones run identity. This bounds
    /// the tree by contended deliveries, not events — one binary tie per
    /// attach step means `bound` 12 covers a full two-UE
    /// attach-plus-failover small model with up to `2^12` schedules.
    pub bound: usize,
    /// Hard ceiling on explored paths (a safety valve against a
    /// mis-sized model, not a tuning knob — hitting it sets
    /// [`McheckStats::truncated`]).
    pub max_paths: u64,
}

impl Default for McheckOptions {
    fn default() -> Self {
        McheckOptions {
            bound: 12,
            max_paths: 200_000,
        }
    }
}

/// Byte-stable exploration counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct McheckStats {
    /// Complete root-to-leaf runs executed.
    pub paths_explored: u64,
    /// Largest depth-first frontier (pending alternative scripts).
    pub max_frontier: u64,
    /// Alternatives skipped by the independence (commuting-destinations)
    /// rule.
    pub pruned_independent: u64,
    /// Choice points consulted on the identity (first) path.
    pub identity_choice_points: u64,
    /// True when `max_paths` stopped the search before the tree was
    /// exhausted.
    pub truncated: bool,
}

/// A violating interleaving: the choice trace that reaches it and the
/// report of that run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McheckViolation {
    /// Executed choice trace (trailing identity picks trimmed); replay
    /// by setting [`CasePlan::choice_trace`] to this.
    pub trace: Vec<u32>,
    /// The violating run's full report.
    pub report: CheckReport,
}

/// Outcome of one exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McheckOutcome {
    /// Exploration counters (byte-stable for a given plan and options).
    pub stats: McheckStats,
    /// First violating interleaving found, if any (the search stops on
    /// it).
    pub violation: Option<McheckViolation>,
}

/// Walks every schedule of the plan's contended deliveries up to
/// `opts.bound`, depth-first, stopping at the first invariant violation.
///
/// Single-threaded and fully deterministic: the same `(plan, opts)` pair
/// produces the identical outcome — and therefore byte-identical JSON —
/// on every run.
pub fn explore_exhaustive(plan: &CasePlan, opts: &McheckOptions) -> McheckOutcome {
    // Fault draws are salted by per-link send sequence: dispatch order
    // changes which messages exist, so commutativity does not hold.
    // Explore fault-ful plans unreduced.
    let reduce = [plan.loss_ppm, plan.duplicate_ppm, plan.reorder_ppm, plan.jitter_us] == [0; 4];
    let mut stats = McheckStats::default();
    // Depth-first worklist of alternative scripts still to run.
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    let mut violation = None;
    while let Some(script) = stack.pop() {
        if stats.paths_explored >= opts.max_paths {
            stats.truncated = true;
            break;
        }
        let chooser = ScriptChooser::new(&script);
        let log = Rc::clone(&chooser.log);
        let report = run_case_with(plan, Some(Box::new(chooser)));
        let log = log.take();
        stats.paths_explored += 1;
        if stats.paths_explored == 1 {
            stats.identity_choice_points = log.len() as u64;
        }
        if !report.is_clean() {
            let mut trace: Vec<u32> = log.iter().map(|c| c.chosen).collect();
            while trace.last() == Some(&0) {
                trace.pop();
            }
            violation = Some(McheckViolation { trace, report });
            break;
        }
        // Expand alternatives at every *branch point* this path reached
        // beyond its scripted prefix (earlier points were expanded when
        // the prefix itself ran). A branch point is a choice point with at
        // least one unpruned alternative; only those count against the
        // bound — a consultation whose candidates all commute away
        // contributes nothing to the interleaving tree and must not eat
        // exploration depth.
        let from = script.len();
        let mut branch_points = 0usize;
        for (k, cp) in log.iter().enumerate() {
            if branch_points >= opts.bound {
                break;
            }
            let mut alts: Vec<u32> = Vec::new();
            for (ci, cand) in cp.candidates.iter().enumerate() {
                if cand.idx == cp.chosen {
                    continue;
                }
                // Independence: only branch to a candidate that races an
                // earlier candidate for the same destination node —
                // deliveries to different nodes commute (void across
                // same-tick crash and timer barriers, hence the flag).
                if reduce
                    && !cp.barrier
                    && !cp.candidates[..ci].iter().any(|e| e.to == cand.to)
                {
                    if k >= from {
                        stats.pruned_independent += 1;
                    }
                    continue;
                }
                alts.push(cand.idx);
            }
            if alts.is_empty() {
                continue;
            }
            branch_points += 1;
            if k < from {
                continue; // an ancestor already expanded this point
            }
            for alt in alts {
                let mut child: Vec<u32> = Vec::with_capacity(k + 1);
                child.extend(log[..k].iter().map(|c| c.chosen));
                child.push(alt);
                stack.push(child);
            }
            stats.max_frontier = stats.max_frontier.max(stack.len() as u64);
        }
    }
    McheckOutcome { stats, violation }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_chooser_follows_then_identity_and_clamps() {
        let script = vec![1u32, 7];
        let mut c = ScriptChooser::new(&script);
        let msgs = [SimMsg::Kick, SimMsg::Kick, SimMsg::Kick];
        let enabled: Vec<Enabled<'_, SimMsg>> = msgs
            .iter()
            .enumerate()
            .map(|(i, msg)| Enabled {
                from: NodeId::new(1),
                to: NodeId::new(2 + i as u64),
                msg,
            })
            .collect();
        assert_eq!(c.choose(false, &enabled), 1);
        // Out-of-range script entries clamp (shrunk plans may shrink the
        // enabled set).
        assert_eq!(c.choose(true, &enabled), 2);
        // Past the script: identity.
        assert_eq!(c.choose(false, &enabled), 0);
        // Every consultation is recorded: the pick, the barrier flag and
        // one candidate per distinct stream.
        let picks: Vec<(u32, bool, usize)> = c
            .log
            .borrow()
            .iter()
            .map(|r| (r.chosen, r.barrier, r.candidates.len()))
            .collect();
        assert_eq!(picks, [(1, false, 3), (2, true, 3), (0, false, 3)]);
    }
}
