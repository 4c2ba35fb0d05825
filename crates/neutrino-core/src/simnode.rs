//! `netsim` adapters around the protocol cores.
//!
//! Each adapter translates node outputs into simulator sends and charges the
//! calibrated per-message CPU costs (§6.1's substitute for running on real
//! cores — see DESIGN.md).

use crate::cluster::SimMsg;
use crate::config::{CpuProfile, SystemConfig};
use neutrino_common::time::Duration;
use neutrino_common::{CpfId, CtaId, UpfId};
use neutrino_cpf::{CpfCore, CpfOutput, ReplicationMode};
use neutrino_cta::{CtaCore, CtaOutput};
use neutrino_messages::costs::{state_sync_cost, CostTable};
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::{Direction, MessageKind, SysMsg};
use neutrino_netsim::{Node, NodeEvent, NodeId, Outbox};
use neutrino_upf::{UpfCore, UpfOutput};
use std::any::Any;
use std::sync::OnceLock;

/// The UE/BS population node id.
pub const UEPOP_NODE: NodeId = NodeId::new(0);

/// Simulator node id of a CTA. The band bases live in
/// [`neutrino_messages::flow`] so [`Role::of_node_raw`]
/// (the flow-coverage witness mapping) can never drift from the layout here.
///
/// [`Role::of_node_raw`]: neutrino_messages::flow::Role::of_node_raw
pub fn cta_node(id: CtaId) -> NodeId {
    NodeId::new(neutrino_messages::flow::CTA_NODE_BAND + id.raw())
}

/// Simulator node id of a CPF.
pub fn cpf_node(id: CpfId) -> NodeId {
    NodeId::new(neutrino_messages::flow::CPF_NODE_BAND + id.raw())
}

/// Simulator node id of a UPF.
pub fn upf_node(id: UpfId) -> NodeId {
    NodeId::new(neutrino_messages::flow::UPF_NODE_BAND + id.raw())
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

/// Service time a CPF charges for one incoming system message (scaled by
/// [`CpuProfile::cpf_scale`]).
pub fn cpf_service_time(config: &SystemConfig, msg: &SysMsg) -> Duration {
    raw_cpf_service_time(config, msg).mul_f64(config.cpu.cpf_scale)
}

fn raw_cpf_service_time(config: &SystemConfig, msg: &SysMsg) -> Duration {
    let costs = CostTable::baked();
    let codec = config.codec;
    let cpu = &config.cpu;
    let cost_of = |kind: MessageKind| {
        costs
            .sim_cost(codec, kind)
            .expect("baked table covers all kinds")
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
            let mut t = if config.parallel_ops {
                parse.max(build) + cpu.cpf_state_update
            } else {
                parse + build + cpu.cpf_state_update
            };
            if config.replication == ReplicationMode::PerMessage && config.enforce_consistency {
                // Fig. 15: *consistent* per-message checkpointing locks the
                // UE state on the processing path. SkyCore's asynchronous
                // broadcast skips the lock — and the consistency (§3.1).
                // (Checkpoint *encoding* runs on the dedicated sync core and
                // is not charged, §4.2.2.)
                t += cpu.per_message_lock;
            }
            t
        }
        // Replica duty: parse + apply the checkpoint. State snapshots are
        // system-internal (each system serializes them with its own code,
        // not the ASN.1 control-plane codec).
        SysMsg::StateSync(_) => {
            state_sync_cost(neutrino_codec::CodecKind::FastbufOptimized).access
                + cpu.cpf_state_update
        }
        // Replaying n logged messages re-parses and re-applies each.
        SysMsg::Replay(r) => {
            let mut t = Duration::ZERO;
            for env in &r.messages {
                t += cost_of(env.msg.kind()).access + cpu.cpf_state_update;
            }
            t
        }
        // The pending downlink's encoding was charged on the uplink message
        // that triggered the S11 op; resuming is bookkeeping.
        SysMsg::S11Resp(_) => cpu.cpf_state_update,
        SysMsg::FetchStateResp { .. } => {
            state_sync_cost(neutrino_codec::CodecKind::FastbufOptimized).access
        }
        // Paging an idle UE encodes a Paging message.
        SysMsg::DdnRequest { .. } => cost_of(MessageKind::Paging).encode + cpu.cpf_state_update,
        SysMsg::MigrationAck { .. }
        | SysMsg::MarkOutdated(_)
        | SysMsg::FetchState { .. }
        | SysMsg::SyncAck(_)
        | SysMsg::ResyncRequest { .. }
        | SysMsg::ResyncBehind { .. } => Duration::from_nanos(300),
        _ => Duration::from_nanos(200),
    }
}

/// A CPF inside the simulator.
pub struct CpfNode {
    core: CpfCore,
    config: SystemConfig,
}

impl CpfNode {
    /// Wraps a CPF core.
    pub fn new(core: CpfCore, config: SystemConfig) -> Self {
        CpfNode { core, config }
    }

    /// The wrapped core (result extraction).
    pub fn core(&self) -> &CpfCore {
        &self.core
    }

    fn dispatch(outs: Vec<CpfOutput>, out: &mut Outbox<SimMsg>) {
        for o in outs {
            match o {
                CpfOutput::ToCta { cta, msg } => out.send(cta_node(cta), SimMsg::Sys(msg)),
                CpfOutput::ToCpf { cpf, msg } => out.send(cpf_node(cpf), SimMsg::Sys(msg)),
                CpfOutput::ToUpf { upf, msg } => out.send(upf_node(upf), SimMsg::Sys(msg)),
            }
        }
    }
}

impl Node<SimMsg> for CpfNode {
    fn service_time(&self, msg: &SimMsg) -> Duration {
        match msg {
            SimMsg::Sys(sys) => cpf_service_time(&self.config, sys),
            _ => Duration::ZERO,
        }
    }

    fn handle(&mut self, event: NodeEvent<SimMsg>, out: &mut Outbox<SimMsg>) {
        if let NodeEvent::Message {
            msg: SimMsg::Sys(sys),
            ..
        } = event
        {
            Self::dispatch(self.core.handle(sys), out);
        }
    }

    fn cores(&self) -> usize {
        self.config.cpu.cpf_cores
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Timer id of the CTA's periodic ACK scan.
const CTA_SCAN_TIMER: u64 = 1;

/// A CTA inside the simulator.
pub struct CtaNode {
    core: CtaCore,
    cpu: CpuProfile,
    logging: bool,
    scan_interval: Duration,
    scan_armed: bool,
}

impl CtaNode {
    /// Wraps a CTA core; the scan timer arms on first traffic.
    pub fn new(core: CtaCore, cpu: CpuProfile, logging: bool, scan_interval: Duration) -> Self {
        CtaNode {
            core,
            cpu,
            logging,
            scan_interval,
            scan_armed: false,
        }
    }

    /// The wrapped core (log size metrics).
    pub fn core(&self) -> &CtaCore {
        &self.core
    }

    /// Mutable core access (routing introspection).
    pub fn core_mut(&mut self) -> &mut CtaCore {
        &mut self.core
    }

    fn dispatch(outs: Vec<CtaOutput>, out: &mut Outbox<SimMsg>) {
        for o in outs {
            match o {
                CtaOutput::ToCpf { cpf, msg } => out.send(cpf_node(cpf), SimMsg::Sys(msg)),
                CtaOutput::ToBs { msg, .. } => out.send(UEPOP_NODE, SimMsg::Sys(msg)),
            }
        }
    }
}

impl Node<SimMsg> for CtaNode {
    fn service_time(&self, msg: &SimMsg) -> Duration {
        match msg {
            SimMsg::Sys(SysMsg::Control(env)) => {
                let log = if self.logging && env.direction == neutrino_messages::Direction::Uplink {
                    self.cpu.cta_log_append
                } else {
                    Duration::ZERO
                };
                self.cpu.cta_route + log
            }
            SimMsg::Sys(_) => Duration::from_nanos(200),
            _ => Duration::ZERO,
        }
    }

    fn handle(&mut self, event: NodeEvent<SimMsg>, out: &mut Outbox<SimMsg>) {
        match event {
            NodeEvent::Message {
                msg: SimMsg::Sys(sys),
                ..
            } => {
                if !self.scan_armed {
                    self.scan_armed = true;
                    out.set_timer(self.scan_interval, CTA_SCAN_TIMER);
                }
                let outs = self.core.handle(sys, out.now());
                Self::dispatch(outs, out);
            }
            NodeEvent::Timer { id: CTA_SCAN_TIMER } => {
                let outs = self.core.scan(out.now());
                Self::dispatch(outs, out);
                out.set_timer(self.scan_interval, CTA_SCAN_TIMER);
            }
            _ => {}
        }
    }

    fn cores(&self) -> usize {
        self.cpu.cta_cores
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A UPF inside the simulator.
pub struct UpfNode {
    core: UpfCore,
    cpu: CpuProfile,
    downlink_log: Vec<(neutrino_common::time::Instant, neutrino_common::UeId, bool)>,
}

impl UpfNode {
    /// Wraps a UPF core.
    pub fn new(core: UpfCore, cpu: CpuProfile) -> Self {
        UpfNode {
            core,
            cpu,
            downlink_log: Vec::new(),
        }
    }

    /// Downlink packet outcomes observed at this UPF: `(time, ue,
    /// delivered)` — `false` marks the §3.1 "core cannot reach the UE"
    /// case.
    pub fn downlink_log(&self) -> &[(neutrino_common::time::Instant, neutrino_common::UeId, bool)] {
        &self.downlink_log
    }

    /// The wrapped core (session-table access for data-plane checks).
    pub fn core(&self) -> &UpfCore {
        &self.core
    }

    /// Mutable core access.
    pub fn core_mut(&mut self) -> &mut UpfCore {
        &mut self.core
    }
}

impl Node<SimMsg> for UpfNode {
    fn service_time(&self, msg: &SimMsg) -> Duration {
        match msg {
            SimMsg::Sys(SysMsg::S11(_)) => self.cpu.upf_s11,
            SimMsg::Sys(SysMsg::DownlinkData { .. }) => Duration::from_nanos(500),
            _ => Duration::ZERO,
        }
    }

    fn handle(&mut self, event: NodeEvent<SimMsg>, out: &mut Outbox<SimMsg>) {
        if let NodeEvent::Message {
            msg: SimMsg::Sys(sys),
            ..
        } = event
        {
            for o in self.core.handle(sys) {
                match o {
                    UpfOutput::ToCpf { cpf, msg } => out.send(cpf_node(cpf), SimMsg::Sys(msg)),
                    UpfOutput::ToCta { cta, msg } => out.send(cta_node(cta), SimMsg::Sys(msg)),
                    UpfOutput::Delivered { ue } => {
                        self.downlink_log.push((out.now(), ue, true));
                    }
                    UpfOutput::Undeliverable { ue } => {
                        self.downlink_log.push((out.now(), ue, false));
                    }
                }
            }
        }
    }

    fn cores(&self) -> usize {
        self.cpu.upf_cores
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
    fn node_bands_agree_with_flow_roles() {
        use neutrino_messages::flow::Role;
        assert_eq!(Role::of_node_raw(UEPOP_NODE.raw()), Some(Role::UePop));
        assert_eq!(Role::of_node_raw(cta_node(CtaId::new(3)).raw()), Some(Role::Cta));
        assert_eq!(Role::of_node_raw(cpf_node(CpfId::new(7)).raw()), Some(Role::Cpf));
        assert_eq!(Role::of_node_raw(upf_node(UpfId::new(9)).raw()), Some(Role::Upf));
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
            neu.cpu.per_message_lock.mul_f64(neu.cpu.cpf_scale),
            "exactly the (scaled) lock overhead"
        );
    }
}
