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

use crate::oracle::{Invariant, OracleCtx, Violation};
use crate::scenario::CasePlan;
use neutrino_core::audit::{audit_cluster, Divergence};
use neutrino_core::simnode::{cta_node, upf_node, CtaNode, UpfNode};
use neutrino_cta::admission::priority_order_violation;
use std::collections::{BTreeMap, HashSet};

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
    CatalogRow { name: "bounded-retry", build: |_| Box::new(BoundedRetry) },
    CatalogRow {
        name: "monotonic-checkpoint",
        build: |_| Box::<MonotonicCheckpoint>::default(),
    },
    CatalogRow { name: "bounded-queue", build: |plan| Box::new(BoundedQueue::for_plan(plan)) },
    CatalogRow { name: "shed-priority-order", build: |_| Box::new(ShedPriorityOrder) },
    CatalogRow { name: "no-retry-amplification", build: |_| Box::new(NoRetryAmplification) },
];

/// Instantiates the invariant called `name` for a run of `plan`.
pub fn build(name: &str, plan: &CasePlan) -> Option<Box<dyn Invariant>> {
    CATALOG.iter().find(|row| row.name == name).map(|row| (row.build)(plan))
}

/// The end-of-run consistency audit as an in-run invariant: at every pass,
/// each UE the CTA saw complete a procedure must be servable from some live
/// CPF at (or beyond) that procedure, or rebuildable by log replay, and no
/// UPF session may be orphaned. Neutrino maintains this *continuously*;
/// re-attach baselines do not.
struct Consistency;

impl Invariant for Consistency {
    fn name(&self) -> &'static str {
        "consistency"
    }

    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Violation> {
        let report = audit_cluster(ctx.cluster);
        report
            .divergences
            .into_iter()
            .map(|d| Violation {
                invariant: self.name(),
                at: ctx.now,
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
    fn name(&self) -> &'static str {
        "no-lost-procedure"
    }

    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Violation> {
        if !ctx.final_pass {
            return Vec::new();
        }
        let now = ctx.now;
        let Some(pop) = ctx.cluster.population() else {
            return Vec::new();
        };
        let mut out: Vec<Violation> = pop
            .active_procedures()
            .into_iter()
            .map(|(ue, started, _, retries)| Violation {
                invariant: self.name(),
                at: now,
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
            out.push(Violation {
                invariant: self.name(),
                at: now,
                ue: None,
                detail: format!("CTA ACK-timeout scan pruned {pruned} procedures from the log"),
            });
        }
        out
    }
}

/// Mid-run liveness: the retry machinery bounds how long any in-flight
/// procedure can sit without progress — `retry_timeout × max_retries`
/// until the UE gives up and re-attaches (which itself counts as
/// progress). A procedure stalled well past that bound means a timer was
/// lost or the retry path is wedged.
struct BoundedStall;

/// Slack multiplier on top of the give-up deadline: covers timer
/// re-arming and the re-attach hop before declaring the machinery dead.
const STALL_SLACK_RETRIES: u64 = 4;

impl Invariant for BoundedStall {
    fn name(&self) -> &'static str {
        "bounded-stall"
    }

    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Violation> {
        let now = ctx.now;
        let Some(pop) = ctx.cluster.population() else {
            return Vec::new();
        };
        let bound_ns = pop.config().retry_timeout.as_nanos()
            * (pop.config().max_retries as u64 + STALL_SLACK_RETRIES);
        pop.active_procedures()
            .into_iter()
            .filter_map(|(ue, _, last_progress, retries)| {
                let stall_ns = now.saturating_since(last_progress).as_nanos();
                (stall_ns > bound_ns).then(|| Violation {
                    invariant: self.name(),
                    at: now,
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
/// the audit's orphan check, standalone so re-attach baselines (whose
/// consistency the full audit would rightly fail) still get it. Skipped
/// while any CTA is down: a dead CTA's knowledge is unavailable, not lost.
struct SessionOwnership;

impl Invariant for SessionOwnership {
    fn name(&self) -> &'static str {
        "session-ownership"
    }

    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Violation> {
        let now = ctx.now;
        let cluster = &mut *ctx.cluster;
        let ctas: Vec<_> = cluster.deployment.regions().iter().map(|r| r.cta).collect();
        let upfs: Vec<_> = cluster
            .deployment
            .regions()
            .iter()
            .flat_map(|r| r.upfs.clone())
            .collect();
        let mut known = HashSet::new();
        for cta in ctas {
            if !cluster.sim.is_up(cta_node(cta)) {
                return Vec::new();
            }
            if let Some(node) = cluster.sim.node_as::<CtaNode>(cta_node(cta)) {
                known.extend(node.core().log().ues().map(|(ue, _)| *ue));
            }
        }
        let mut out = Vec::new();
        for upf in upfs {
            if !cluster.sim.is_up(upf_node(upf)) {
                continue;
            }
            if let Some(node) = cluster.sim.node_as::<UpfNode>(upf_node(upf)) {
                out.extend(
                    node.core()
                        .table()
                        .iter()
                        .filter(|(ue, _)| !known.contains(ue))
                        .map(|(ue, s)| Violation {
                            invariant: self.name(),
                            at: now,
                            ue: Some(*ue),
                            detail: format!(
                                "orphaned session at UPF {} (owning CPF {})",
                                upf.raw(),
                                s.cpf.raw()
                            ),
                        }),
                );
            }
        }
        out
    }
}

/// Retransmissions must stay proportional to what the network actually
/// did to this run: every retransmission is caused by a lost delivery
/// (fault-layer loss, a partition window, or a message arriving at a
/// down/crashed node), plus a constant head-room for timeouts on
/// responses that were merely slow. Unbounded growth with no matching
/// drops means a retry loop.
struct BoundedRetry;

/// Constant head-room before drops are required to justify retries.
const RETRY_BUDGET_BASE: u64 = 128;
/// Allowed retransmissions per observed drop (a drop mid-procedure can
/// strand several steps, each of which then retransmits).
const RETRY_BUDGET_PER_DROP: u64 = 8;

impl Invariant for BoundedRetry {
    fn name(&self) -> &'static str {
        "bounded-retry"
    }

    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Violation> {
        let sim = ctx.cluster.sim.sim_stats();
        let drops = sim.dropped_loss + sim.dropped_partition + ctx.cluster.total_node_drops();
        let Some(pop) = ctx.cluster.population() else {
            return Vec::new();
        };
        let retx = pop.results().retransmissions;
        let budget = RETRY_BUDGET_BASE + RETRY_BUDGET_PER_DROP * drops;
        if retx <= budget {
            return Vec::new();
        }
        vec![Violation {
            invariant: self.name(),
            at: ctx.now,
            ue: None,
            detail: format!(
                "{retx} retransmissions exceed budget {budget} ({drops} observed drops)"
            ),
        }]
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
    fn name(&self) -> &'static str {
        "monotonic-checkpoint"
    }

    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Violation> {
        let (name, now) = (self.name(), ctx.now);
        let cluster = &mut *ctx.cluster;
        let ctas: Vec<_> = cluster.deployment.regions().iter().map(|r| r.cta).collect();
        let mut out = Vec::new();
        for cta in ctas {
            if !cluster.sim.is_up(cta_node(cta)) {
                continue;
            }
            let node = match cluster.sim.node_as::<CtaNode>(cta_node(cta)) {
                Some(n) => n,
                None => continue,
            };
            for (ue, log) in node.core().log().ues() {
                let cur = log.last_completed.raw();
                let slot = self.watermarks.entry((cta.raw(), ue.raw())).or_insert(cur);
                if cur < *slot {
                    out.push(Violation {
                        invariant: name,
                        at: now,
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
    fn name(&self) -> &'static str {
        "bounded-queue"
    }

    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Violation> {
        if self.tripped {
            return Vec::new();
        }
        let depth = ctx.cluster.max_control_queue_depth() as u64;
        if depth <= self.cap {
            return Vec::new();
        }
        self.tripped = true;
        vec![Violation {
            invariant: self.name(),
            at: ctx.now,
            ue: None,
            detail: format!(
                "control-plane queue depth reached {depth}, cap {} — \
                 admission is not containing the storm",
                self.cap
            ),
        }]
    }
}

/// Graceful-degradation ordering: the admission gate must shut classes
/// off lowest-priority-first. The gate records, per class, the lowest
/// token level it admitted at and the highest level it shed at; a
/// higher-priority class shed at or above a level where a lower-priority
/// class was admitted means the priority ladder inverted. Final pass
/// only — the evidence is cumulative over the whole run.
struct ShedPriorityOrder;

impl Invariant for ShedPriorityOrder {
    fn name(&self) -> &'static str {
        "shed-priority-order"
    }

    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Violation> {
        if !ctx.final_pass {
            return Vec::new();
        }
        let Some((min_admit, max_shed)) = ctx.cluster.admission_evidence() else {
            return Vec::new();
        };
        priority_order_violation(&min_admit, &max_shed)
            .map(|(hi, lo)| Violation {
                invariant: self.name(),
                at: ctx.now,
                ue: None,
                detail: format!(
                    "higher-priority class `{}` was shed at a bucket level where \
                     lower-priority class `{}` was still admitted",
                    hi.label(),
                    lo.label()
                ),
            })
            .into_iter()
            .collect()
    }
}

/// Overload must not feed on itself: every UE retransmission is accounted
/// for by either an observed delivery drop (loss, partition, down node —
/// the [`BoundedRetry`] argument) or an explicit admission `Reject`, which
/// licenses *exactly one* deferred re-offer. Retransmissions beyond
/// `base + per_drop·drops + rejects` mean the client retry machinery is
/// amplifying the storm instead of pacing it.
struct NoRetryAmplification;

impl Invariant for NoRetryAmplification {
    fn name(&self) -> &'static str {
        "no-retry-amplification"
    }

    fn check(&mut self, ctx: &mut OracleCtx<'_>) -> Vec<Violation> {
        if !ctx.final_pass {
            return Vec::new();
        }
        let sim = ctx.cluster.sim.sim_stats();
        let drops = sim.dropped_loss + sim.dropped_partition + ctx.cluster.total_node_drops();
        let Some(pop) = ctx.cluster.population() else {
            return Vec::new();
        };
        let results = pop.results();
        let (retx, rejected) = (results.retransmissions, results.rejected);
        let budget = RETRY_BUDGET_BASE + RETRY_BUDGET_PER_DROP * drops + rejected;
        if retx <= budget {
            return Vec::new();
        }
        vec![Violation {
            invariant: self.name(),
            at: ctx.now,
            ue: None,
            detail: format!(
                "{retx} retransmissions exceed the amplification budget {budget} \
                 ({drops} drops, {rejected} rejects — more than one re-offer per reject)"
            ),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{plan_by_name, Scenario, SMALL_MODEL_NAMES};

    fn any_plan() -> CasePlan {
        plan_by_name(SMALL_MODEL_NAMES[0], 0).unwrap()
    }

    #[test]
    fn every_catalog_name_resolves() {
        let plan = any_plan();
        for (i, row) in CATALOG.iter().enumerate() {
            assert_eq!(build(row.name, &plan).expect("catalog name resolves").name(), row.name);
            assert!(
                CATALOG[..i].iter().all(|earlier| earlier.name != row.name),
                "catalog name `{}` is listed twice",
                row.name
            );
        }
        assert!(build("no-such-invariant", &plan).is_none());
    }

    #[test]
    fn scenario_and_corpus_invariant_lists_resolve() {
        let mut plans: Vec<CasePlan> = Scenario::all().iter().map(|s| s.plan(0)).collect();
        plans.extend(SMALL_MODEL_NAMES.iter().map(|n| plan_by_name(n, 0).unwrap()));
        let corpus = crate::corpus::load_dir(&crate::corpus::corpus_dir()).unwrap();
        assert!(!corpus.is_empty(), "the pinned corpus must be found");
        plans.extend(corpus.into_iter().map(|(_, case)| case.plan));
        for plan in &plans {
            for name in &plan.invariants {
                assert!(
                    build(name, plan).is_some(),
                    "plan {} (seed {}) references unknown invariant {name}",
                    plan.scenario,
                    plan.seed
                );
            }
        }
    }

    #[test]
    fn every_catalog_name_is_checked_by_some_scenario_family() {
        let families = Scenario::all();
        for row in CATALOG {
            assert!(
                families.iter().any(|s| s.invariants.contains(&row.name)),
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
