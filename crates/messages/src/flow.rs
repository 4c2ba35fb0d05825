//! The protocol-flow registry: which roles may send each [`SysMsg`] variant,
//! and which roles receive it.
//!
//! The paper's recovery flows (§4.2: `MarkOutdated` → `FetchState` →
//! `Replay` → `AskReAttach`) break silently when a handler quietly ignores a
//! variant or a new send site routes a message to a role that never expected
//! it. This table turns the doc-comment flow annotations ("CPF → CTA: …")
//! into a checked contract: every checked case witnesses its delivered
//! `(label, src_role, dst_role)` edges, and a witnessed-but-undeclared edge
//! is a `flow-contract` violation, as is a message any role counted as
//! unexpected; declared-but-never-witnessed edges are reported as dead paths.
//!
//! The table is keyed by [`SysMsg::label`], which matches `SysMsg`
//! exhaustively (adding a variant without a label fails to build); the unit
//! tests assert every variant has a `FLOWS` entry and vice versa.

use crate::sysmsg::SysMsg;
use neutrino_common::time::Instant;
use neutrino_common::{CpfId, CtaId, UeId, UpfId};

/// A protocol role: who a node *is* in the deployment, for flow-contract
/// purposes. Every [`NodeAddr`] has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// A Control Traffic Aggregator.
    Cta,
    /// A Control Plane Function (the per-procedure state machines).
    Cpf,
    /// A User Plane Function (session anchors).
    Upf,
    /// The UE population behind its base stations (`UePop`/BS side).
    UePop,
    /// The test harness / environment: the failure detector and data-plane
    /// injectors that deliver messages from outside the deployment
    /// (`NodeId::EXTERNAL` sources).
    Harness,
}

impl Role {
    /// Every role, in declaration order.
    pub const ALL: &'static [Role] =
        &[Role::Cta, Role::Cpf, Role::Upf, Role::UePop, Role::Harness];

    /// Stable lower-case name used in the coverage-diff JSON.
    pub fn name(self) -> &'static str {
        match self {
            Role::Cta => "cta",
            Role::Cpf => "cpf",
            Role::Upf => "upf",
            Role::UePop => "uepop",
            Role::Harness => "harness",
        }
    }

    /// Parse a [`Role::name`] back into a role.
    pub fn from_name(name: &str) -> Option<Role> {
        Role::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// The role behind a raw simulator node id: `u64::MAX` is the external
    /// injector (`NodeId::EXTERNAL`), everything else is whatever
    /// [`NodeAddr::from_node_raw`] says lives there.
    pub fn of_node_raw(raw: u64) -> Option<Role> {
        match raw {
            u64::MAX => Some(Role::Harness),
            r => NodeAddr::from_node_raw(r).map(NodeAddr::role),
        }
    }
}

/// Where a node lives in a deployment, under either driver: the channel mesh
/// keys its links by it, the simulator derives its node ids from it
/// ([`NodeAddr::node_raw`]) — the one statement of the address layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeAddr {
    /// The UE/BS side (the simulator's UE population, a live client).
    Client,
    /// A CTA.
    Cta(CtaId),
    /// A CPF.
    Cpf(CpfId),
    /// A UPF.
    Upf(UpfId),
}

/// First simulator node id of each role's band; ids between the client (0)
/// and the CTA band are unassigned.
const CTA_BAND: u64 = 1_000;
const CPF_BAND: u64 = 100_000;
const UPF_BAND: u64 = 200_000;

impl NodeAddr {
    /// The protocol role at this address.
    pub const fn role(self) -> Role {
        match self {
            NodeAddr::Client => Role::UePop,
            NodeAddr::Cta(_) => Role::Cta,
            NodeAddr::Cpf(_) => Role::Cpf,
            NodeAddr::Upf(_) => Role::Upf,
        }
    }

    /// The raw simulator node id of this address.
    pub const fn node_raw(self) -> u64 {
        match self {
            NodeAddr::Client => 0,
            NodeAddr::Cta(id) => CTA_BAND + id.raw(),
            NodeAddr::Cpf(id) => CPF_BAND + id.raw(),
            NodeAddr::Upf(id) => UPF_BAND + id.raw(),
        }
    }

    /// The inverse of [`NodeAddr::node_raw`].
    pub const fn from_node_raw(raw: u64) -> Option<NodeAddr> {
        match raw {
            0 => Some(NodeAddr::Client),
            r if r >= UPF_BAND => Some(NodeAddr::Upf(UpfId::new(r - UPF_BAND))),
            r if r >= CPF_BAND => Some(NodeAddr::Cpf(CpfId::new(r - CPF_BAND))),
            r if r >= CTA_BAND => Some(NodeAddr::Cta(CtaId::new(r - CTA_BAND))),
            _ => None,
        }
    }
}

/// What a role core asks its driver to do, with the destination resolved.
/// Each role keeps its own output enum (the pinned transcript hashes its
/// `Debug`); `Into<Effect>` is how the node loops read any of them.
#[derive(Debug)]
pub enum Effect {
    /// Send `msg` to the node at the address.
    Send(NodeAddr, SysMsg),
    /// A downlink packet reached the UE (data-plane outcome at a UPF).
    Delivered(UeId),
    /// A downlink packet found no way to the UE (§3.1).
    Undeliverable(UeId),
}

/// The node contract both drivers run: messages and the clock in, routed
/// effects and the next deadline out. A core never reads a clock and never
/// sleeps; the driver owns time and promises only to call
/// [`RoleCore::on_deadline`] at or after [`RoleCore::next_deadline`] (any
/// number of other calls may come first).
pub trait RoleCore {
    /// The role's own output enum.
    type Output: Into<Effect>;

    /// Where this node lives.
    fn addr(&self) -> NodeAddr;

    /// Reacts to one message addressed to this node.
    fn on_message(&mut self, msg: SysMsg, now: Instant) -> Vec<Self::Output>;

    /// Runs whatever is due at `now`; nothing if called early.
    fn on_deadline(&mut self, _now: Instant) -> Vec<Self::Output> {
        Vec::new()
    }

    /// When the core next needs [`RoleCore::on_deadline`], if ever.
    fn next_deadline(&self) -> Option<Instant> {
        None
    }
}

/// The declared flow of one [`SysMsg`] variant: every `(source, destination)`
/// role pair on which the variant is allowed to travel.
///
/// Edges are explicit pairs — not a source-set × destination-set product —
/// so the coverage differ never manufactures impossible edges (e.g.
/// `DdnRequest` flows Upf→Cta and Cta→Cpf, but never Upf→Cpf directly).
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// The variant's [`SysMsg::label`], e.g. `"state-sync"`.
    pub variant: &'static str,
    /// Allowed `(src, dst)` role pairs.
    pub edges: &'static [(Role, Role)],
}

impl FlowSpec {
    /// Whether `src → dst` is a declared edge for this variant.
    pub fn allows(&self, src: Role, dst: Role) -> bool {
        self.edges.contains(&(src, dst))
    }

    /// Whether `dst` is a declared destination on any edge (i.e. the role
    /// needs a handler arm for this variant).
    pub fn dst(&self, dst: Role) -> bool {
        self.edges.iter().any(|&(_, d)| d == dst)
    }

    /// Whether `src` is a declared source on any edge.
    pub fn src(&self, src: Role) -> bool {
        self.edges.iter().any(|&(s, _)| s == src)
    }
}

/// The flow table: one entry per `SysMsg` variant, in enum declaration
/// order.
pub const FLOWS: &[FlowSpec] = &[
    FlowSpec {
        variant: "control",
        edges: &[
            (Role::UePop, Role::Cta),
            (Role::Cta, Role::Cpf),
            (Role::Cpf, Role::Cta),
            (Role::Cta, Role::UePop),
        ],
    },
    FlowSpec { variant: "state-sync", edges: &[(Role::Cpf, Role::Cpf)] },
    FlowSpec { variant: "sync-ack", edges: &[(Role::Cpf, Role::Cta)] },
    FlowSpec { variant: "mark-outdated", edges: &[(Role::Cta, Role::Cpf)] },
    FlowSpec { variant: "replay", edges: &[(Role::Cta, Role::Cpf)] },
    FlowSpec { variant: "fetch-state", edges: &[(Role::Cpf, Role::Cpf)] },
    FlowSpec { variant: "fetch-state-resp", edges: &[(Role::Cpf, Role::Cpf)] },
    FlowSpec { variant: "s11", edges: &[(Role::Cpf, Role::Upf)] },
    FlowSpec { variant: "s11-resp", edges: &[(Role::Upf, Role::Cpf)] },
    FlowSpec { variant: "ask-re-attach", edges: &[(Role::Cta, Role::UePop)] },
    FlowSpec { variant: "migration-ack", edges: &[(Role::Cpf, Role::Cpf)] },
    FlowSpec { variant: "relay-re-attach", edges: &[(Role::Cpf, Role::Cta)] },
    FlowSpec { variant: "downlink-data", edges: &[(Role::Harness, Role::Upf)] },
    FlowSpec {
        variant: "ddn-request",
        edges: &[(Role::Upf, Role::Cta), (Role::Cta, Role::Cpf)],
    },
    FlowSpec {
        variant: "cpf-failure",
        edges: &[(Role::Harness, Role::Cta), (Role::Harness, Role::Cpf)],
    },
    FlowSpec { variant: "resync-request", edges: &[(Role::Cta, Role::Cpf)] },
    FlowSpec { variant: "resync-behind", edges: &[(Role::Cpf, Role::Cta)] },
    FlowSpec { variant: "reject", edges: &[(Role::Cta, Role::UePop)] },
];

/// Look up the declared flow of a variant by its [`SysMsg::label`].
pub fn spec(variant: &str) -> Option<&'static FlowSpec> {
    FLOWS.iter().find(|s| s.variant == variant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{Envelope, MessageKind};
    use crate::procedures::ProcedureKind;
    use crate::snapshot::Snapshot;
    use crate::state::UeState;
    use crate::sysmsg::{
        AdmissionClass, MarkOutdated, Replay, S11Request, S11Response, SessionOp, StateSync,
        SyncAck, SyncPurpose,
    };
    use neutrino_common::clock::ClockTick;
    use crate::ies::Tai;
    use neutrino_common::{BsId, CpfId, CtaId, ProcedureId, SessionId, UeId, UpfId};

    /// One instance of **every** `SysMsg` variant. Kept next to the table so
    /// the totality test below looks up every variant's `FLOWS` entry.
    fn one_of_each() -> Vec<SysMsg> {
        let ue = UeId::new(1);
        let env = Envelope::uplink(
            ue,
            ProcedureId::FIRST,
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest.sample(1),
        );
        let state =
            Snapshot::from(UeState::new(ue, BsId::new(1), UpfId::new(1), Tai { plmn: 1, tac: 1 }));
        let sync = StateSync {
            ue,
            primary: CpfId::new(1),
            cta: CtaId::new(1),
            state: state.clone(),
            procedure: ProcedureId::FIRST,
            end_clock: ClockTick(1),
            purpose: SyncPurpose::Checkpoint,
        };
        vec![
            SysMsg::Control(env),
            SysMsg::StateSync(sync),
            SysMsg::SyncAck(SyncAck {
                ue,
                replica: CpfId::new(2),
                procedure: ProcedureId::FIRST,
                end_clock: ClockTick(1),
            }),
            SysMsg::MarkOutdated(MarkOutdated { ue, clock: ClockTick(1), up_to_date: vec![] }),
            SysMsg::Replay(Replay { ue, messages: vec![] }),
            SysMsg::FetchState { ue, requester: CpfId::new(2) },
            SysMsg::FetchStateResp { ue, state: Some(state) },
            SysMsg::S11(S11Request { ue, cpf: CpfId::new(1), op: SessionOp::Create, session: None }),
            SysMsg::S11Resp(S11Response {
                ue,
                op: SessionOp::Create,
                upf: UpfId::new(1),
                session: Some(SessionId::new(1)),
                ok: true,
            }),
            SysMsg::AskReAttach { ue },
            SysMsg::MigrationAck { ue },
            SysMsg::RelayReAttach { ue, bs: BsId::new(1) },
            SysMsg::DownlinkData { ue },
            SysMsg::DdnRequest { ue, upf: UpfId::new(1) },
            SysMsg::CpfFailure { cpf: CpfId::new(1) },
            SysMsg::ResyncRequest { ue, procedure: ProcedureId::FIRST, cta: CtaId::new(1) },
            SysMsg::ResyncBehind { ue, have: ProcedureId::FIRST, cpf: CpfId::new(1) },
            SysMsg::Reject { ue, class: AdmissionClass::Attach, retry_after_ms: 10 },
        ]
    }

    #[test]
    fn table_is_total_over_the_enum() {
        let msgs = one_of_each();
        // Every variant has a FLOWS entry, …
        for m in &msgs {
            let name = m.label();
            assert!(spec(name).is_some(), "`{name}` has no FLOWS entry — declare its flow");
        }
        // … the sample set covers each variant exactly once, …
        let names: std::collections::BTreeSet<_> = msgs.iter().map(SysMsg::label).collect();
        assert_eq!(names.len(), msgs.len(), "one_of_each has a duplicate variant");
        // … and the table carries no extra (undeclarable) entries.
        assert_eq!(FLOWS.len(), msgs.len(), "FLOWS has entries for nonexistent variants");
        for s in FLOWS {
            assert!(names.contains(s.variant), "FLOWS entry {} matches no variant", s.variant);
        }
    }

    #[test]
    fn every_flow_has_edges_and_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for s in FLOWS {
            assert!(seen.insert(s.variant), "duplicate FLOWS entry for {}", s.variant);
            assert!(!s.edges.is_empty(), "{} declares no edges", s.variant);
            let mut edges = std::collections::BTreeSet::new();
            for e in s.edges {
                assert!(edges.insert(e), "{} declares duplicate edge {e:?}", s.variant);
            }
        }
    }

    #[test]
    fn role_names_round_trip() {
        for r in Role::ALL {
            assert_eq!(Role::from_name(r.name()), Some(*r));
        }
        assert_eq!(Role::from_name("nobody"), None);
    }

    #[test]
    fn node_addresses_round_trip_through_their_node_ids() {
        let addrs = [
            NodeAddr::Client,
            NodeAddr::Cta(CtaId::new(0)),
            NodeAddr::Cpf(CpfId::new(3)),
            NodeAddr::Upf(UpfId::new(7)),
        ];
        for addr in addrs {
            assert_eq!(NodeAddr::from_node_raw(addr.node_raw()), Some(addr));
            assert_eq!(Role::of_node_raw(addr.node_raw()), Some(addr.role()));
        }
        assert_eq!(NodeAddr::from_node_raw(1), None, "below the CTA band is unassigned");
        assert_eq!(Role::of_node_raw(u64::MAX), Some(Role::Harness));
    }

    #[test]
    fn spec_lookup_and_edge_queries() {
        let ddn = spec("ddn-request").unwrap();
        assert!(ddn.allows(Role::Upf, Role::Cta));
        assert!(ddn.allows(Role::Cta, Role::Cpf));
        assert!(!ddn.allows(Role::Upf, Role::Cpf), "edges are pairs, not a product");
        assert!(ddn.src(Role::Upf) && ddn.dst(Role::Cpf));
        assert!(spec("NoSuchVariant").is_none());
    }
}
