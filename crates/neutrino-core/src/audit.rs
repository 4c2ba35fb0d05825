//! Cross-node consistency audit.
//!
//! After a failure experiment, the cluster's surviving nodes must still
//! agree on every UE: for each UE the CTA has seen complete a procedure,
//! some live CPF must hold a servable state copy at (or beyond) that
//! procedure — or the CTA's message log must still be able to rebuild one
//! by replay (§4.2.5 scenario 2). UPF sessions must belong to UEs the
//! control plane knows. Neutrino maintains this invariant *continuously*,
//! even between a crash and the first post-failure contact; re-attach-based
//! baselines violate it for every UE whose only state copy died, until (and
//! unless) the UE re-attaches.
//!
//! The audit is read-only: it never injects events, so running it mid-
//! experiment does not perturb the simulation's deterministic schedule.

use crate::cluster::Cluster;
use crate::simnode::{cpf_node, cta_node, upf_node, CpfNode, CtaNode, UpfNode};
use neutrino_common::{CpfId, CtaId, ProcedureId, UeId, UeMap, UpfId};

/// One observed violation of the cross-node consistency invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// The CTA saw procedures complete for this UE, but no live CPF holds
    /// any copy of its state and the log cannot rebuild one from scratch.
    MissingState {
        /// The UE concerned.
        ue: UeId,
        /// The last procedure the CTA saw complete.
        expected: ProcedureId,
    },
    /// The freshest live copy (servable or outdated) predates the last
    /// procedure the CTA saw complete, and the log cannot close the gap by
    /// replay on top of it.
    StaleState {
        /// The UE concerned.
        ue: UeId,
        /// The freshest version any live CPF holds.
        held: ProcedureId,
        /// The last procedure the CTA saw complete.
        expected: ProcedureId,
    },
    /// A UPF session exists for a UE no live CTA knows about.
    OrphanedSession {
        /// The UE concerned.
        ue: UeId,
        /// The UPF holding the session.
        upf: UpfId,
    },
}

impl Divergence {
    /// The UE the divergence concerns.
    pub fn ue(&self) -> UeId {
        match self {
            Divergence::MissingState { ue, .. }
            | Divergence::StaleState { ue, .. }
            | Divergence::OrphanedSession { ue, .. } => *ue,
        }
    }

    fn sort_key(&self) -> (u64, u8) {
        let rank = match self {
            Divergence::MissingState { .. } => 0,
            Divergence::StaleState { .. } => 1,
            Divergence::OrphanedSession { .. } => 2,
        };
        (self.ue().raw(), rank)
    }
}

/// Outcome of one or more audit passes over a cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Audit passes merged into this report.
    pub passes: u64,
    /// UE records checked (summed over passes).
    pub ues_checked: u64,
    /// UPF sessions checked (summed over passes).
    pub sessions_checked: u64,
    /// Every divergence observed, in deterministic (UE, kind) order per
    /// pass.
    pub divergences: Vec<Divergence>,
}

impl AuditReport {
    /// True when no pass observed any divergence.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Folds another report (e.g. a later pass) into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.passes += other.passes;
        self.ues_checked += other.ues_checked;
        self.sessions_checked += other.sessions_checked;
        self.divergences.extend(other.divergences);
    }
}

/// A session at a live UPF whose UE no live CTA's log holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Orphan {
    /// The UPF holding the session.
    pub upf: UpfId,
    /// The UE concerned.
    pub ue: UeId,
    /// The CPF the session names as its owner.
    pub cpf: CpfId,
}

/// What [`walk_ownership`] found.
#[derive(Debug, Default)]
pub struct OwnershipWalk {
    /// Some CTA is down: its knowledge is unavailable, not lost, so an
    /// orphan may belong to it.
    pub cta_down: bool,
    /// Sessions walked at live UPFs.
    pub sessions: u64,
    /// Sessions no live CTA's log knows the UE of, in UPF order.
    pub orphans: Vec<Orphan>,
}

/// The orphan walk the audit and `check`'s `session-ownership` invariant
/// share: every live CTA's log, calling `seen(cta, ue, expected)` once per
/// UE it holds, then every live UPF's session table, collecting the
/// sessions whose UE none of those logs holds. `expected` is the UE's last
/// completed procedure, or 0 when that was a Detach: a detached UE holds
/// no state until it attaches again.
pub fn walk_ownership(
    cluster: &mut Cluster,
    mut seen: impl FnMut(CtaId, UeId, ProcedureId),
) -> OwnershipWalk {
    let mut walk = OwnershipWalk::default();
    let ctas: Vec<CtaId> = cluster.deployment.regions().iter().map(|r| r.cta).collect();
    let upfs: Vec<UpfId> = cluster
        .deployment
        .regions()
        .iter()
        .flat_map(|r| r.upfs.clone())
        .collect();
    let mut known: UeMap<()> = UeMap::new();
    for cta in ctas {
        if !cluster.sim.is_up(cta_node(cta)) {
            walk.cta_down = true;
            continue;
        }
        let Some(node) = cluster.sim.node_as::<CtaNode>(cta_node(cta)) else {
            continue;
        };
        for (ue, ue_log) in node.core().log().ues() {
            known.insert(*ue, ());
            let last = ue_log.last_completed;
            let detached = ue_log.procedure(last).is_some_and(|p| p.is_detach());
            seen(cta, *ue, if detached { ProcedureId(0) } else { last });
        }
    }
    for upf in upfs {
        if !cluster.sim.is_up(upf_node(upf)) {
            continue;
        }
        let Some(node) = cluster.sim.node_as::<UpfNode>(upf_node(upf)) else {
            continue;
        };
        let table = node.core().table();
        walk.sessions += table.len() as u64;
        walk.orphans.extend(
            table
                .iter()
                .filter(|(ue, _)| !known.contains_key(**ue))
                .map(|(ue, s)| Orphan { upf, ue: *ue, cpf: s.cpf }),
        );
    }
    walk
}

/// What one live CTA expects for one UE.
struct Expectation {
    cta: CtaId,
    ue: UeId,
    expected: ProcedureId,
}

/// Runs one audit pass over the cluster's current state.
pub fn audit_cluster(cluster: &mut Cluster) -> AuditReport {
    let mut report = AuditReport {
        passes: 1,
        ..AuditReport::default()
    };

    // Phases 1 and 3: what every live CTA knows, and the UPF sessions none
    // of them owns. A UE with no completed procedure has no durable state
    // to check yet, but still counts as "known" for the orphan check.
    let cpfs: Vec<CpfId> = cluster.deployment.all_cpfs();
    let mut expectations: Vec<Expectation> = Vec::new();
    let walk = walk_ownership(cluster, |cta, ue, expected| {
        if expected.raw() > 0 {
            expectations.push(Expectation { cta, ue, expected });
        }
    });
    report.sessions_checked = walk.sessions;

    // Phase 2: for each expectation, find the freshest servable copy on any
    // live CPF, then fall back to replay coverage from the owning CTA's log.
    // Replay can rebuild on top of *any* surviving copy, including ones
    // marked outdated during a migration (§4.2.5 scenario 2) — outdated only
    // forbids serving traffic, not recovery — so the replay base is the
    // freshest live copy of any freshness.
    let mut divergences = Vec::new();
    for exp in &expectations {
        report.ues_checked += 1;
        let mut best_servable: Option<ProcedureId> = None;
        let mut best_any: Option<ProcedureId> = None;
        for &cpf in &cpfs {
            if !cluster.sim.is_up(cpf_node(cpf)) {
                continue;
            }
            let Some(node) = cluster.sim.node_as::<CpfNode>(cpf_node(cpf)) else {
                continue;
            };
            if let Some(rec) = node.core().store().get(exp.ue) {
                let v = Some(rec.state.version().procedure);
                best_any = best_any.max(v);
                if node.core().store().servable(exp.ue) {
                    best_servable = best_servable.max(v);
                }
            }
        }
        if best_servable.unwrap_or(ProcedureId(0)) >= exp.expected {
            continue;
        }
        // No fresh-enough servable copy: the CTA log may still close the gap
        // from the freshest surviving copy (or from scratch). Only systems
        // that log messages get this fallback — with logging off the CTA
        // still tracks completion *metadata* (empty procedure entries), and
        // `replay_covers` over empty entries would vacuously excuse a state
        // copy nothing can actually rebuild.
        let base = best_any.unwrap_or(ProcedureId(0));
        let recoverable = cluster.config().logging
            && cluster
                .sim
                .node_as::<CtaNode>(cta_node(exp.cta))
                .is_some_and(|n| n.core().log().replay_covers(exp.ue, base));
        if recoverable {
            continue;
        }
        divergences.push(match best_any {
            None => Divergence::MissingState {
                ue: exp.ue,
                expected: exp.expected,
            },
            Some(held) => Divergence::StaleState {
                ue: exp.ue,
                held,
                expected: exp.expected,
            },
        });
    }

    divergences.extend(
        walk.orphans
            .iter()
            .map(|o| Divergence::OrphanedSession { ue: o.ue, upf: o.upf }),
    );

    // Divergences accumulate from several per-node scans; impose one
    // global order so the report is byte-stable across runs and `--jobs N`.
    divergences.sort_by_key(Divergence::sort_key);
    report.divergences = divergences;
    report
}
