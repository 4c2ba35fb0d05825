//! The `netsim` adapter around the protocol cores.
//!
//! One [`SimNode`] drives any [`RoleCore`]: effects become simulator sends,
//! the core's next deadline becomes a simulator timer, and a per-role
//! [`Costed`] impl charges the calibrated per-message CPU costs (§6.1's
//! substitute for running on real cores — see DESIGN.md).

use crate::cluster::SimMsg;
use crate::config::SystemConfig;
use neutrino_codec::calibrate::MsgCost;
use neutrino_common::time::{Duration, Instant};
use neutrino_common::{CpfId, CtaId, UeId, UpfId};
use neutrino_cpf::{CpfCore, ReplicationMode};
use neutrino_cta::CtaCore;
use neutrino_messages::costs::{state_sync_cost, CostTable};
use neutrino_messages::flow::{Effect, NodeAddr, RoleCore};
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::{Direction, MessageKind, Snapshot, SysMsg};
use neutrino_netsim::{Node, NodeEvent, NodeId, Outbox};
use neutrino_upf::UpfCore;
use std::any::Any;
use std::sync::OnceLock;

/// Simulator node id of an address (the layout is [`NodeAddr::node_raw`]'s).
const fn node_id(addr: NodeAddr) -> NodeId {
    NodeId::new(addr.node_raw())
}

/// The UE/BS population node id.
pub const UEPOP_NODE: NodeId = node_id(NodeAddr::Client);

/// Simulator node id of a CTA.
pub fn cta_node(id: CtaId) -> NodeId {
    node_id(NodeAddr::Cta(id))
}

/// Simulator node id of a CPF.
pub fn cpf_node(id: CpfId) -> NodeId {
    node_id(NodeAddr::Cpf(id))
}

/// Simulator node id of a UPF.
pub fn upf_node(id: UpfId) -> NodeId {
    node_id(NodeAddr::Upf(id))
}

/// For each `(procedure, uplink message)` pair, the downlink kind the CPF
/// answers with (if the template's next step is a downlink) — used to charge
/// the response-encoding cost on the message that produces it.
fn response_kind(proc: ProcedureKind, ul: MessageKind) -> Option<MessageKind> {
    // Dense `[procedure][uplink kind]` table, built once from the templates.
    static TABLE: OnceLock<Vec<Option<MessageKind>>> = OnceLock::new();
    let kinds = MessageKind::ALL.len();
    TABLE.get_or_init(|| {
        let mut t = vec![None; ProcedureKind::ALL.len() * kinds];
        for kind in ProcedureKind::ALL {
            let steps = &kind.template().steps;
            for pair in steps.windows(2) {
                if pair[0].direction == Direction::Uplink
                    && pair[1].direction == Direction::Downlink
                {
                    t[*kind as usize * kinds + pair[0].kind as usize] = Some(pair[1].kind);
                }
            }
        }
        t
    })[proc as usize * kinds + ul as usize]
}

/// Global scale on CPF service times, calibrating absolute saturation
/// points to the paper's testbed: with 5 CPF instances, existing EPC
/// saturates near 60K attach procedures/s (§6.3, Fig. 8). The *relative*
/// behavior of the systems comes entirely from the measured codec costs;
/// this factor only positions the knees on the paper's x-axis (the authors'
/// Xeon cores run a full OAI stack per message; our CPF state machine is far
/// leaner).
pub const CPF_SCALE: f64 = 8.0;
/// Fixed per-message state-machine cost on a CPF besides serialization
/// (hash lookups, state mutation).
pub const CPF_STATE_UPDATE: Duration = Duration::from_nanos(800);
/// Per-message lock/checkpoint overhead a CPF pays when it replicates
/// consistently on *every* message (Fig. 15's "frequent state locking").
pub const PER_MESSAGE_LOCK: Duration = Duration::from_micros(3);
/// Per-message routing cost on the CTA.
pub const CTA_ROUTE: Duration = Duration::from_nanos(400);
/// In-memory log append cost per logged message (a map insert + clone;
/// §6.7.2 shows it is negligible — but not zero).
pub const CTA_LOG_APPEND: Duration = Duration::from_nanos(150);
/// S11 session-table operation cost on the UPF.
pub const UPF_S11: Duration = Duration::from_micros(2);

/// Service time a CPF charges for one incoming system message (scaled by
/// [`CPF_SCALE`]).
pub fn cpf_service_time(config: &SystemConfig, msg: &SysMsg) -> Duration {
    raw_cpf_service_time(config, msg).mul_f64(CPF_SCALE)
}

fn raw_cpf_service_time(config: &SystemConfig, msg: &SysMsg) -> Duration {
    let costs = CostTable::baked();
    let codec = config.codec;
    // Every system's codec is baked for every kind
    // (`baked_table_covers_all_kinds_for_sim_codecs`); an uncalibrated codec
    // costs no CPU.
    let cost_of = |kind: MessageKind| {
        costs
            .sim_cost(codec, kind)
            .unwrap_or(MsgCost::from_nanos(0, 0, 0))
    };
    match msg {
        SysMsg::Control(env) => {
            // Parse the request, run the state machine, build the response
            // (when the next template step is a downlink). DPCM overlaps
            // parsing with response building (device-provided state).
            let parse = cost_of(env.msg.kind()).access;
            let build = response_kind(env.proc_kind, env.msg.kind())
                .map(|resp| cost_of(resp).encode)
                .unwrap_or(Duration::ZERO);
            let mut t = if config.parallel {
                parse.max(build) + CPF_STATE_UPDATE
            } else {
                parse + build + CPF_STATE_UPDATE
            };
            if config.replication == ReplicationMode::PerMessage && config.enforce_consistency() {
                // Fig. 15: *consistent* per-message checkpointing locks the
                // UE state on the processing path. SkyCore's asynchronous
                // broadcast skips the lock — and the consistency (§3.1).
                // (Checkpoint *encoding* runs on the dedicated sync core and
                // is not charged, §4.2.2.)
                t += PER_MESSAGE_LOCK;
            }
            t
        }
        // Replica duty: parse + apply the checkpoint. State snapshots are
        // system-internal (each system serializes them with its own code,
        // not the ASN.1 control-plane codec).
        SysMsg::StateSync(_) => state_sync_cost(Snapshot::CODEC).access + CPF_STATE_UPDATE,
        // Replaying n logged messages re-parses and re-applies each.
        SysMsg::Replay(r) => {
            let mut t = Duration::ZERO;
            for env in &r.messages {
                t += cost_of(env.msg.kind()).access + CPF_STATE_UPDATE;
            }
            t
        }
        // The pending downlink's encoding was charged on the uplink message
        // that triggered the S11 op; resuming is bookkeeping.
        SysMsg::S11Resp(_) => CPF_STATE_UPDATE,
        SysMsg::FetchStateResp { .. } => state_sync_cost(Snapshot::CODEC).access,
        // Paging an idle UE encodes a Paging message.
        SysMsg::DdnRequest { .. } => cost_of(MessageKind::Paging).encode + CPF_STATE_UPDATE,
        SysMsg::MigrationAck { .. }
        | SysMsg::MarkOutdated(_)
        | SysMsg::FetchState { .. }
        | SysMsg::SyncAck(_)
        | SysMsg::ResyncRequest { .. }
        | SysMsg::ResyncBehind { .. } => Duration::from_nanos(300),
        _ => Duration::from_nanos(200),
    }
}

/// What the simulator charges a role for one message, and on how many cores.
pub trait Costed: RoleCore {
    /// Cores serving the node's queue.
    const CORES: usize;
    /// Service time of one incoming system message.
    fn service_time(config: &SystemConfig, msg: &SysMsg) -> Duration;
}

impl Costed for CpfCore {
    /// §5: "five CPF instances, each running on two CPU cores (one for
    /// processing requests and the second one for state synchronization)".
    /// One core serves requests; the second, sync core is modeled by not
    /// charging checkpoint *encoding* to the request core (§4.2.2's
    /// non-blocking replication).
    const CORES: usize = 1;

    fn service_time(config: &SystemConfig, msg: &SysMsg) -> Duration {
        cpf_service_time(config, msg)
    }
}

impl Costed for CtaCore {
    /// The CTA's DPDK producer/consumer threads.
    const CORES: usize = 4;

    fn service_time(config: &SystemConfig, msg: &SysMsg) -> Duration {
        match msg {
            SysMsg::Control(env) => {
                let log = if config.logging && env.direction == Direction::Uplink {
                    CTA_LOG_APPEND
                } else {
                    Duration::ZERO
                };
                CTA_ROUTE + log
            }
            _ => Duration::from_nanos(200),
        }
    }
}

impl Costed for UpfCore {
    const CORES: usize = 4;

    fn service_time(_config: &SystemConfig, msg: &SysMsg) -> Duration {
        match msg {
            SysMsg::S11(_) => UPF_S11,
            SysMsg::DownlinkData { .. } => Duration::from_nanos(500),
            _ => Duration::ZERO,
        }
    }
}

/// The one timer a [`SimNode`] arms: its core's next deadline.
const DEADLINE_TIMER: u64 = 1;

/// A role core inside the simulator.
pub struct SimNode<C> {
    core: C,
    config: SystemConfig,
    /// The deadline a timer is already in flight for.
    armed: Option<Instant>,
    downlink_log: Vec<(Instant, UeId, bool)>,
}

/// A CTA inside the simulator.
pub type CtaNode = SimNode<CtaCore>;
/// A CPF inside the simulator.
pub type CpfNode = SimNode<CpfCore>;
/// A UPF inside the simulator.
pub type UpfNode = SimNode<UpfCore>;

impl<C> SimNode<C> {
    /// Wraps a core.
    pub fn new(core: C, config: SystemConfig) -> Self {
        SimNode {
            core,
            config,
            armed: None,
            downlink_log: Vec::new(),
        }
    }

    /// The wrapped core (result extraction).
    pub fn core(&self) -> &C {
        &self.core
    }

    /// Mutable core access (idle transitions).
    pub fn core_mut(&mut self) -> &mut C {
        &mut self.core
    }

    /// Downlink packet outcomes observed at this node: `(time, ue,
    /// delivered)` — `false` marks the §3.1 "core cannot reach the UE"
    /// case. Only a UPF ever has any.
    pub fn downlink_log(&self) -> &[(Instant, UeId, bool)] {
        &self.downlink_log
    }
}

impl<C: Costed + 'static> Node<SimMsg> for SimNode<C> {
    fn service_time(&self, msg: &SimMsg) -> Duration {
        match msg {
            SimMsg::Sys(sys) => C::service_time(&self.config, sys),
            _ => Duration::ZERO,
        }
    }

    fn handle(&mut self, event: NodeEvent<SimMsg>, out: &mut Outbox<SimMsg>) {
        let now = out.now();
        let outs = match event {
            NodeEvent::Message {
                msg: SimMsg::Sys(sys),
                ..
            } => self.core.on_message(sys, now),
            NodeEvent::Timer { .. } => self.core.on_deadline(now),
            _ => return,
        };
        for o in outs {
            match o.into() {
                Effect::Send(to, msg) => out.send(node_id(to), SimMsg::Sys(msg)),
                Effect::Delivered(ue) => self.downlink_log.push((now, ue, true)),
                Effect::Undeliverable(ue) => self.downlink_log.push((now, ue, false)),
            }
        }
        let due = self.core.next_deadline();
        if due != self.armed {
            if let Some(at) = due {
                out.set_timer(at.saturating_since(now), DEADLINE_TIMER);
            }
            self.armed = due;
        }
    }

    fn cores(&self) -> usize {
        C::CORES
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutrino_codec::CodecKind;

    #[test]
    fn node_ids_round_trip_to_their_address_and_role() {
        use neutrino_messages::flow::Role;
        let addrs = [
            (UEPOP_NODE, NodeAddr::Client),
            (cta_node(CtaId::new(3)), NodeAddr::Cta(CtaId::new(3))),
            (cpf_node(CpfId::new(7)), NodeAddr::Cpf(CpfId::new(7))),
            (upf_node(UpfId::new(9)), NodeAddr::Upf(UpfId::new(9))),
        ];
        for (id, addr) in addrs {
            assert_eq!(id, node_id(addr));
            assert_eq!(NodeAddr::from_node_raw(id.raw()), Some(addr));
            assert_eq!(Role::of_node_raw(id.raw()), Some(addr.role()));
        }
        assert_eq!(Role::of_node_raw(NodeId::EXTERNAL.raw()), Some(Role::Harness));
    }

    #[test]
    fn response_kind_follows_templates() {
        assert_eq!(
            response_kind(ProcedureKind::InitialAttach, MessageKind::InitialUeMessage),
            Some(MessageKind::AuthenticationRequest)
        );
        assert_eq!(
            response_kind(
                ProcedureKind::InitialAttach,
                MessageKind::SecurityModeComplete
            ),
            Some(MessageKind::InitialContextSetupRequest)
        );
        assert_eq!(
            response_kind(ProcedureKind::TrackingAreaUpdate, MessageKind::TauRequest),
            Some(MessageKind::TauAccept)
        );
        // The attach's final uplink has no downlink response.
        assert_eq!(
            response_kind(ProcedureKind::InitialAttach, MessageKind::AttachComplete),
            None
        );
    }

    #[test]
    fn epc_control_costs_exceed_neutrino() {
        let epc = SystemConfig::existing_epc();
        let neu = SystemConfig::neutrino();
        let env = neutrino_messages::Envelope::uplink(
            neutrino_common::UeId::new(1),
            neutrino_common::ProcedureId::FIRST,
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest.sample(1),
        );
        let m = SysMsg::Control(env);
        let te = cpf_service_time(&epc, &m);
        let tn = cpf_service_time(&neu, &m);
        assert!(
            te.as_nanos() > 2 * tn.as_nanos(),
            "EPC {te:?} must be well above Neutrino {tn:?}"
        );
        assert_eq!(epc.codec, CodecKind::Asn1Per);
    }

    #[test]
    fn per_message_replication_charges_the_lock() {
        let neu = SystemConfig::neutrino();
        let per_msg = SystemConfig::neutrino_per_message();
        let env = neutrino_messages::Envelope::uplink(
            neutrino_common::UeId::new(1),
            neutrino_common::ProcedureId::FIRST,
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest.sample(1),
        );
        let m = SysMsg::Control(env);
        let base = cpf_service_time(&neu, &m);
        let locked = cpf_service_time(&per_msg, &m);
        assert_eq!(
            locked - base,
            PER_MESSAGE_LOCK.mul_f64(CPF_SCALE),
            "exactly the (scaled) lock overhead"
        );
    }
}
