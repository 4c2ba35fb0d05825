//! The protocol-flow contract of a checked case.
//!
//! The flow registry ([`neutrino_messages::flow::FLOWS`]) declares which
//! `(label, src role, dst role)` edges the protocol may use. Every checked
//! case holds the code to it: [`run_case`](crate::run::run_case)
//! installs a delivery tap that records each edge the simulator
//! actually carries, and after the final oracle pass [`verdict`] names two
//! kinds of breach as `flow-contract` violations:
//!
//! * **witnessed-but-undeclared** edges — spec drift, a send the registry
//!   does not admit;
//! * **misrouted messages** — a message that reached a role's counting
//!   catch-all arm (its `unexpected_msgs`) because that role has no handler
//!   for it.
//!
//! A sweep merges its cases' witnesses into a [`CoverageReport`], whose
//! **declared-but-never-witnessed** edges are dead paths — either an
//! unreachable declaration or a scenario-coverage gap. Advisory. Witness
//! sets are unions, so the merged report is independent of the order cells
//! complete in: it is byte-identical across reruns and any `--jobs` value.

use crate::oracle::Finding;
use neutrino_core::simnode::{upf_node, UpfNode};
use neutrino_core::{Cluster, SimMsg};
use neutrino_messages::flow::{Role, FLOWS};
use neutrino_netsim::DeliveryTap;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// One `(SysMsg::label, src role, dst role)` edge.
pub type Edge = (&'static str, Role, Role);

/// The violation name of a flow-contract breach.
pub(crate) const FLOW_CONTRACT: &str = "flow-contract";

/// The declared edge set.
pub fn declared_edges() -> BTreeSet<Edge> {
    FLOWS
        .iter()
        .flat_map(|spec| spec.edges.iter().map(move |&(s, d)| (spec.variant, s, d)))
        .collect()
}

/// A delivery tap that records every delivered protocol edge into `seen`.
/// Non-protocol messages (the arrival-pump `Kick`) and nodes outside the
/// role bands are ignored rather than invented. A repeat edge allocates
/// nothing.
pub(crate) fn tap(seen: Rc<RefCell<BTreeSet<Edge>>>) -> DeliveryTap<SimMsg> {
    Box::new(move |_, from, to, msg| {
        let (src, dst) = (Role::of_node_raw(from.raw()), Role::of_node_raw(to.raw()));
        if let (SimMsg::Sys(sys), Some(src), Some(dst)) = (msg, src, dst) {
            seen.borrow_mut().insert((sys.label(), src, dst));
        }
    })
}

/// The misrouted `SysMsg`s each receiving role counted at its handler's
/// catch-all arm.
pub(crate) fn misrouted(cluster: &mut Cluster) -> [(Role, u64); 4] {
    let uepop = cluster
        .population()
        .map_or(0, |p| p.results().unexpected_msgs);
    let (sim, regions) = (&mut cluster.sim, cluster.deployment.regions());
    let upf = regions
        .iter()
        .flat_map(|r| &r.upfs)
        .filter_map(|&u| sim.node_as::<UpfNode>(upf_node(u)).map(|n| n.core().unexpected_msgs()))
        .sum();
    [
        (Role::Cta, cluster.cta_metrics().unexpected_msgs),
        (Role::Cpf, cluster.cpf_metrics().unexpected_msgs),
        (Role::Upf, upf),
        (Role::UePop, uepop),
    ]
}

/// The flow verdict: one `flow-contract` finding per witnessed edge the
/// registry does not declare and one per role with a non-zero misrouted
/// count.
pub fn verdict(seen: &BTreeSet<Edge>, misrouted: &[(Role, u64)]) -> Vec<Finding> {
    let declared = declared_edges();
    let undeclared = seen.difference(&declared).map(|&(label, src, dst)| {
        let (src, dst) = (src.name(), dst.name());
        format!("undeclared edge {label} {src} -> {dst}")
    });
    let misrouted = misrouted.iter().filter(|&&(_, n)| n > 0).map(|&(role, n)| {
        let role = role.name();
        format!("{role} counted {n} message(s) it has no handler for")
    });
    undeclared
        .chain(misrouted)
        .map(|detail| Finding { ue: None, detail })
        .collect()
}

/// One edge in the JSON report.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EdgeRecord {
    /// The message's `SysMsg::label`.
    pub variant: String,
    /// Sending role.
    pub src: String,
    /// Receiving role.
    pub dst: String,
}

fn records<'a>(edges: impl IntoIterator<Item = &'a Edge>) -> Vec<EdgeRecord> {
    edges
        .into_iter()
        .map(|(v, s, d)| EdgeRecord {
            variant: v.to_string(),
            src: s.name().to_string(),
            dst: d.name().to_string(),
        })
        .collect()
}

/// A sweep's coverage diff (`explore --json`). Every list is sorted;
/// serialization is byte-stable.
#[derive(Debug, serde::Serialize)]
pub struct CoverageReport {
    /// Scenario families swept.
    pub scenarios: Vec<String>,
    /// Seeds per family.
    pub seeds: u64,
    /// Edges declared in the flow registry.
    pub declared: Vec<EdgeRecord>,
    /// Edges witnessed at least once.
    pub witnessed: Vec<EdgeRecord>,
    /// Declared but never witnessed — dead paths (advisory).
    pub dead_declared: Vec<EdgeRecord>,
    /// Witnessed but not declared — spec drift (each one already failed
    /// its case as a `flow-contract` violation).
    pub undeclared_witnessed: Vec<EdgeRecord>,
}

impl CoverageReport {
    /// Diffs a merged witness against the registry.
    pub fn diff(scenarios: Vec<String>, seeds: u64, witnessed: &BTreeSet<Edge>) -> CoverageReport {
        let declared = declared_edges();
        CoverageReport {
            scenarios,
            seeds,
            dead_declared: records(declared.difference(witnessed)),
            undeclared_witnessed: records(witnessed.difference(&declared)),
            declared: records(&declared),
            witnessed: records(witnessed),
        }
    }

    /// Deterministic pretty JSON (trailing newline included).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes") + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{crash_points, run_case};
    use crate::scenario::Scenario;

    const NO_MISROUTES: [(Role, u64); 4] = [
        (Role::Cta, 0),
        (Role::Cpf, 0),
        (Role::Upf, 0),
        (Role::UePop, 0),
    ];

    #[test]
    fn declared_set_matches_registry_size() {
        let edges = declared_edges();
        let total: usize = FLOWS.iter().map(|s| s.edges.len()).sum();
        assert_eq!(edges.len(), total, "registry edges must be distinct");
    }

    #[test]
    fn the_verdict_names_each_undeclared_edge_and_misrouting_role() {
        assert!(verdict(&declared_edges(), &NO_MISROUTES).is_empty());

        let mut witnessed = declared_edges();
        witnessed.insert(("control", Role::Upf, Role::Cta));
        let undeclared = verdict(&witnessed, &NO_MISROUTES);
        assert_eq!(undeclared.len(), 1);
        assert_eq!(undeclared[0].detail, "undeclared edge control upf -> cta");

        let mut counts = NO_MISROUTES;
        counts[3].1 = 1;
        let misrouted = verdict(&declared_edges(), &counts);
        assert_eq!(misrouted.len(), 1);
        assert!(
            misrouted[0].detail.starts_with("uepop counted 1 "),
            "{}",
            misrouted[0].detail
        );
    }

    #[test]
    fn witnessed_subset_reports_missing_edges_as_dead() {
        let mut witnessed = declared_edges();
        let dropped = witnessed.pop_first().expect("non-empty registry");
        let report = CoverageReport::diff(vec!["unit".into()], 1, &witnessed);
        assert!(report.undeclared_witnessed.is_empty());
        assert_eq!(report.dead_declared.len(), 1);
        assert_eq!(report.dead_declared[0].variant, dropped.0);
    }

    #[test]
    fn report_json_is_byte_stable() {
        let witnessed = declared_edges();
        let a = CoverageReport::diff(vec!["x".into()], 3, &witnessed);
        let b = CoverageReport::diff(vec!["x".into()], 3, &witnessed);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn one_small_case_witnesses_only_declared_edges() {
        // A real run carries traffic through every node band; a clean
        // report means every witnessed edge is declared and no role
        // counted a message it has no handler for.
        let base = Scenario::by_name("crash-points")
            .expect("crash-points exists")
            .plan(0);
        let point = crash_points(&base).swap_remove(0);
        let report = run_case(&point);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(
            !report.witnessed.is_empty(),
            "a crash-point run delivers messages"
        );
        assert!(report.witnessed.is_subset(&declared_edges()));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
    fn a_storm_case_witnesses_the_reject_edge() {
        let scenario = Scenario::by_name("iot-burst-storm").expect("iot-burst-storm exists");
        let report = run_case(&scenario.plan(0));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report
            .witnessed
            .contains(&("reject", Role::Cta, Role::UePop)));
    }
}
