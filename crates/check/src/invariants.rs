//! The invariant catalog.
//!
//! Each entry implements [`Invariant`] and inspects the
//! paused cluster read-only. [`CATALOG`] is the one place an invariant is
//! registered: a row is its stable name plus the constructor for a run of
//! a given plan, so a name without an implementation cannot be written and
//! an implementation no row constructs is a `dead_code` error (the structs
//! are private). The catalog pairs the consistency audit with liveness-
//! and resource-style properties that hold for *every* system, not just
//! Neutrino:
//!
//! | name                     | property                                              |
//! |--------------------------|-------------------------------------------------------|
//! | `consistency`            | CTA log / CPF stores / UPF sessions agree (audit)     |
//! | `no-lost-procedure`      | end of run: nothing in flight, nothing pruned         |
//! | `bounded-stall`          | no in-flight procedure sits beyond the retry budget   |
//! | `session-ownership`      | every UPF session belongs to a UE some live CTA knows |
//! | `bounded-retry`          | retransmissions stay proportional to observed drops   |
//! | `monotonic-checkpoint`   | per-UE completed-procedure watermarks never regress   |
//! | `bounded-queue`          | control-plane engine queues stay under the plan's cap |
//! | `shed-priority-order`    | admission never sheds a class while serving a lower one |
//! | `no-retry-amplification` | at most one client re-offer per reject, drop-bounded retries |

use crate::oracle::{Finding, Invariant, OracleCtx};
use crate::scenario::CasePlan;
use neutrino_core::audit::{audit_cluster, walk_ownership, Divergence};
use neutrino_core::simnode::{cpf_node, cta_node, upf_node, CtaNode, UEPOP_NODE};
use neutrino_core::uepop::MAX_RETRIES;
use neutrino_core::Cluster;
use neutrino_cta::admission::priority_order_violation;
use std::collections::BTreeMap;

/// One catalog row.
pub struct CatalogRow {
    /// Stable catalog name (scenario specs, corpus files, violation traces).
    pub name: &'static str,
    /// Fresh instance configured for one run of `plan`.
    pub build: fn(&CasePlan) -> Box<dyn Invariant>,
}

/// Every invariant the harness can check.
pub const CATALOG: &[CatalogRow] = &[
    CatalogRow { name: "consistency", build: |_| Box::new(Consistency) },
    CatalogRow { name: "no-lost-procedure", build: |_| Box::new(NoLostProcedure) },
    CatalogRow { name: "bounded-stall", build: |_| Box::new(BoundedStall) },
    CatalogRow { name: "session-ownership", build: |_| Box::new(SessionOwnership) },
    CatalogRow { name: "bounded-retry", build: |_| Box::new(RetryBudget { rejects: false }) },
    CatalogRow {
        name: "monotonic-checkpoint",
        build: |_| Box::<MonotonicCheckpoint>::default(),
    },
    CatalogRow { name: "bounded-queue", build: |plan| Box::new(BoundedQueue::for_plan(plan)) },
    CatalogRow { name: "shed-priority-order", build: |_| Box::new(ShedPriorityOrder) },
    CatalogRow {
        name: "no-retry-amplification",
        build: |_| Box::new(RetryBudget { rejects: true }),
    },
];

/// The row called `name`.
pub(crate) fn row(name: &str) -> Option<&'static CatalogRow> {
    CATALOG.iter().find(|row| row.name == name)
}

/// A finding about the run as a whole rather than one UE.
fn run_finding(detail: String) -> Finding {
    Finding { ue: None, detail }
}

/// The end-of-run consistency audit as an in-run invariant: at every pass,
/// each UE the CTA saw complete a procedure must be servable from some live
/// CPF at (or beyond) that procedure, or rebuildable by log replay, and no
/// UPF session may be orphaned. Neutrino maintains this *continuously*;
/// re-attach baselines do not.
struct Consistency;

impl Invariant for Consistency {
    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Finding> {
        let report = audit_cluster(ctx.cluster);
        report
            .divergences
            .into_iter()
            .map(|d| Finding {
                ue: Some(d.ue()),
                detail: match d {
                    Divergence::MissingState { expected, .. } => {
                        format!("no live copy; CTA expects procedure {}", expected.raw())
                    }
                    Divergence::StaleState { held, expected, .. } => format!(
                        "freshest live copy at procedure {}, CTA expects {}, replay cannot close",
                        held.raw(),
                        expected.raw()
                    ),
                    Divergence::OrphanedSession { upf, .. } => {
                        format!("orphaned session at UPF {}", upf.raw())
                    }
                },
            })
            .collect()
    }
}

/// End-of-run liveness: after the drain margin, no procedure may still be
/// in flight and the CTA's ACK-timeout scan must not have pruned any
/// procedure from the log (pruned procedures silently lost their
/// replication). Final pass only — mid-run there are always procedures in
/// flight.
struct NoLostProcedure;

impl Invariant for NoLostProcedure {
    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Finding> {
        if !ctx.final_pass {
            return Vec::new();
        }
        let Some(pop) = ctx.cluster.population() else {
            return Vec::new();
        };
        let mut out: Vec<Finding> = pop
            .active_procedures()
            .into_iter()
            .map(|(ue, started, _, retries)| Finding {
                ue: Some(ue),
                detail: format!(
                    "procedure still in flight at end of run (started at {} ms, {} retries)",
                    started.as_nanos() / 1_000_000,
                    retries
                ),
            })
            .collect();
        let pruned = ctx.cluster.cta_metrics().timeout_pruned;
        if pruned > 0 {
            out.push(run_finding(format!(
                "CTA ACK-timeout scan pruned {pruned} procedures from the log"
            )));
        }
        out
    }
}

/// Mid-run liveness: the retry machinery bounds how long any in-flight
/// procedure can sit without progress — `retry_timeout × (MAX_RETRIES + 1)`
/// until the UE's deadline gives up and re-attaches (which itself counts as
/// progress). A procedure stalled well past that bound means a timer was
/// lost or the retry path is wedged.
struct BoundedStall;

/// Slack multiplier on top of the give-up deadline: covers a `Reject`'s
/// deferral, during which the UE makes no progress until it re-offers —
/// `retry_after` plus up to `BACKOFF_CAP` (4 s) of backoff.
const STALL_SLACK_RETRIES: u64 = 4;

impl Invariant for BoundedStall {
    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Finding> {
        let now = ctx.now;
        let Some(pop) = ctx.cluster.population() else {
            return Vec::new();
        };
        let bound_ns = pop.config().retry_timeout.as_nanos()
            * (u64::from(MAX_RETRIES) + STALL_SLACK_RETRIES);
        pop.active_procedures()
            .into_iter()
            .filter_map(|(ue, _, last_progress, retries)| {
                let stall_ns = now.saturating_since(last_progress).as_nanos();
                (stall_ns > bound_ns).then(|| Finding {
                    ue: Some(ue),
                    detail: format!(
                        "no progress for {} ms (bound {} ms, {} retries)",
                        stall_ns / 1_000_000,
                        bound_ns / 1_000_000,
                        retries
                    ),
                })
            })
            .collect()
    }
}

/// Every UPF session must belong to a UE some live CTA knows about —
/// the audit's orphan walk, standalone so re-attach baselines (whose
/// consistency the full audit would rightly fail) still get it. Skipped
/// while any CTA is down: a dead CTA's knowledge is unavailable, not lost.
struct SessionOwnership;

impl Invariant for SessionOwnership {
    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Finding> {
        let walk = walk_ownership(ctx.cluster, |_, _, _| {});
        if walk.cta_down {
            return Vec::new();
        }
        walk.orphans
            .into_iter()
            .map(|o| Finding {
                ue: Some(o.ue),
                detail: format!(
                    "orphaned session at UPF {} (owning CPF {})",
                    o.upf.raw(),
                    o.cpf.raw()
                ),
            })
            .collect()
    }
}

/// Retransmissions must stay proportional to what the network actually
/// did to this run: every retransmission is caused by a lost delivery
/// (fault-layer loss, a partition window, or a message arriving at a
/// down/crashed node), plus a constant head-room for timeouts on
/// responses that were merely slow. Unbounded growth with no matching
/// drops means a retry loop (`bounded-retry`, every pass).
///
/// With `rejects` (`no-retry-amplification`, final pass only) overload
/// must not feed on itself either: an explicit admission `Reject` licenses
/// *exactly one* deferred re-offer, so retransmissions beyond
/// `base + per_drop·drops + rejects` mean the client retry machinery is
/// amplifying the storm instead of pacing it.
struct RetryBudget {
    rejects: bool,
}

/// Constant head-room before drops are required to justify retries.
const RETRY_BUDGET_BASE: u64 = 128;
/// Allowed retransmissions per observed drop (a drop mid-procedure can
/// strand several steps, each of which then retransmits).
const RETRY_BUDGET_PER_DROP: u64 = 8;

/// Deliveries the run lost: fault-layer loss, partition windows, and
/// messages that reached a down or crashed node (the UE population's
/// included).
fn observed_drops(cluster: &Cluster) -> u64 {
    let sim = cluster.sim.sim_stats();
    let control = cluster.deployment.regions().iter().flat_map(|r| {
        let cpfs = r.cpfs.iter().map(|&c| cpf_node(c));
        let upfs = r.upfs.iter().map(|&u| upf_node(u));
        std::iter::once(cta_node(r.cta)).chain(cpfs).chain(upfs)
    });
    let at_nodes: u64 = std::iter::once(UEPOP_NODE)
        .chain(control)
        .filter_map(|id| cluster.sim.stats(id))
        .map(|s| s.dropped_down + s.dropped_crash)
        .sum();
    sim.dropped_loss + sim.dropped_partition + at_nodes
}

impl Invariant for RetryBudget {
    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Finding> {
        if self.rejects && !ctx.final_pass {
            return Vec::new();
        }
        let drops = observed_drops(ctx.cluster);
        let Some(pop) = ctx.cluster.population() else {
            return Vec::new();
        };
        let (retx, rejected) = (pop.results().retransmissions, pop.results().rejected);
        let licensed = if self.rejects { rejected } else { 0 };
        let budget = RETRY_BUDGET_BASE + RETRY_BUDGET_PER_DROP * drops + licensed;
        if retx <= budget {
            return Vec::new();
        }
        vec![run_finding(if self.rejects {
            format!(
                "{retx} retransmissions exceed the amplification budget {budget} \
                 ({drops} drops, {rejected} rejects — more than one re-offer per reject)"
            )
        } else {
            format!("{retx} retransmissions exceed budget {budget} ({drops} observed drops)")
        })]
    }
}

/// Per-UE completed-procedure watermarks at each CTA never regress
/// between oracle passes: the message log's `last_completed` is the
/// checkpoint id the failover path trusts, and a regression would let a
/// stale CPF copy masquerade as fresh. Stateful: watermarks persist
/// across passes for the whole run.
#[derive(Default)]
struct MonotonicCheckpoint {
    /// Highest `last_completed` observed per `(cta, ue)`.
    watermarks: BTreeMap<(u64, u64), u64>,
}

impl Invariant for MonotonicCheckpoint {
    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Finding> {
        let cluster = &mut *ctx.cluster;
        let ctas: Vec<_> = cluster.deployment.regions().iter().map(|r| r.cta).collect();
        let mut out = Vec::new();
        for cta in ctas {
            if !cluster.sim.is_up(cta_node(cta)) {
                continue;
            }
            let Some(node) = cluster.sim.node_as::<CtaNode>(cta_node(cta)) else {
                continue;
            };
            for (ue, log) in node.core().log().ues() {
                let cur = log.last_completed.raw();
                let slot = self.watermarks.entry((cta.raw(), ue.raw())).or_insert(cur);
                if cur < *slot {
                    out.push(Finding {
                        ue: Some(*ue),
                        detail: format!(
                            "CTA {} last_completed regressed {} -> {}",
                            cta.raw(),
                            *slot,
                            cur
                        ),
                    });
                } else {
                    *slot = cur;
                }
            }
        }
        out
    }
}

/// Overload containment: the largest engine queue depth across
/// control-plane nodes (CTAs, CPFs, UPFs — the UE population's own queue
/// is its business) must stay under the cap the admission gate is sized
/// for. Reports the first breach only — the depth is a running maximum,
/// so every later pass would re-report the same event.
struct BoundedQueue {
    cap: u64,
    tripped: bool,
}

/// Fallback queue cap when the plan declares none: generous enough that
/// only a genuine overload collapse (not a burst) can reach it.
const DEFAULT_QUEUE_CAP: u64 = 4_096;

impl BoundedQueue {
    /// The plan's `storm.queue_cap` when it declares one.
    fn for_plan(plan: &CasePlan) -> Self {
        let cap = plan.storm.as_ref().map_or(DEFAULT_QUEUE_CAP, |storm| storm.queue_cap.max(1));
        BoundedQueue { cap, tripped: false }
    }
}

impl Invariant for BoundedQueue {
    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Finding> {
        if self.tripped {
            return Vec::new();
        }
        let depth = ctx.cluster.max_control_queue_depth() as u64;
        if depth <= self.cap {
            return Vec::new();
        }
        self.tripped = true;
        vec![run_finding(format!(
            "control-plane queue depth reached {depth}, cap {} — \
             admission is not containing the storm",
            self.cap
        ))]
    }
}

/// Graceful-degradation ordering: the admission gate must shut classes
/// off lowest-priority-first. The gate records, per class, the lowest
/// token level it admitted at and the highest level it shed at; merged
/// across regions, a higher-priority class shed at or above a level where
/// a lower-priority class was admitted means the priority ladder inverted.
/// Final pass only — the evidence is cumulative over the whole run.
struct ShedPriorityOrder;

impl Invariant for ShedPriorityOrder {
    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Finding> {
        if !ctx.final_pass {
            return Vec::new();
        }
        let cluster = &mut *ctx.cluster;
        let ctas: Vec<_> = cluster.deployment.regions().iter().map(|r| r.cta).collect();
        // No gate means no evidence, and no evidence no inversion.
        let (mut min_admit, mut max_shed) = ([None; 4], [None; 4]);
        for cta in ctas {
            let node = cluster.sim.node_as::<CtaNode>(cta_node(cta));
            let Some(gate) = node.and_then(|n| n.core().admission()) else {
                continue;
            };
            let (admit, shed) = gate.priority_evidence();
            for i in 0..4 {
                min_admit[i] = min_admit[i].into_iter().chain(admit[i]).min();
                max_shed[i] = max_shed[i].max(shed[i]);
            }
        }
        priority_order_violation(&min_admit, &max_shed)
            .map(|(hi, lo)| {
                run_finding(format!(
                    "higher-priority class `{}` was shed at a bucket level where \
                     lower-priority class `{}` was still admitted",
                    hi.label(),
                    lo.label()
                ))
            })
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn every_catalog_name_resolves() {
        for (i, r) in CATALOG.iter().enumerate() {
            assert_eq!(row(r.name).map(|found| found.name), Some(r.name));
            assert!(
                CATALOG[..i].iter().all(|earlier| earlier.name != r.name),
                "catalog name `{}` is listed twice",
                r.name
            );
        }
        assert!(row("no-such-invariant").is_none());
    }

    #[test]
    fn scenario_and_corpus_invariant_lists_resolve() {
        for s in Scenario::all() {
            for name in s.bases.iter().flat_map(|b| b.invariants) {
                assert!(
                    row(name).is_some(),
                    "{} references unknown invariant {name}",
                    s.name
                );
            }
        }
        let corpus = crate::corpus::load_dir(&crate::corpus::corpus_dir()).unwrap();
        assert!(!corpus.is_empty(), "the pinned corpus must be found");
        for (path, case) in corpus {
            for name in &case.plan.invariants {
                let path = path.display();
                assert!(
                    row(name).is_some(),
                    "{path} references unknown invariant {name}"
                );
            }
        }
    }

    #[test]
    fn every_catalog_name_is_checked_by_some_scenario_family() {
        let families = Scenario::all();
        for row in CATALOG {
            assert!(
                families
                    .iter()
                    .flat_map(|s| s.bases)
                    .any(|b| b.invariants.contains(&row.name)),
                "invariant `{}` is in no Scenario::all() family — nothing would ever run it",
                row.name
            );
        }
    }

    #[test]
    fn every_catalog_name_is_documented_in_testing_md() {
        let testing_md = include_str!("../../../TESTING.md");
        for row in CATALOG {
            assert!(
                testing_md.contains(&format!("`{}`", row.name)),
                "invariant `{}` is not documented in TESTING.md",
                row.name
            );
        }
    }
}
