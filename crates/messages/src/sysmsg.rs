//! System-level messages: everything that travels *between nodes* of the
//! deployment — control envelopes, the replication protocol of §4.2, the
//! S11-like CPF↔UPF dialogue, and failure notices.
//!
//! Defined here (rather than in the CTA/CPF crates) because every node type
//! and both drivers share them.

use crate::control::Envelope;
use crate::procedures::ProcedureKind;
use crate::snapshot::Snapshot;
use neutrino_common::clock::ClockTick;
use neutrino_common::{BsId, CpfId, CtaId, ProcedureId, SessionId, UeId, UpfId};

/// Priority class the CTA ingress admission layer sorts control procedures
/// into. Lower raw value = higher priority; under overload the admission
/// layer sheds from the *highest* raw value (lowest priority) upward, so a
/// handover is never dropped while a detach is admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum AdmissionClass {
    /// Handovers: an ongoing session is mid-flight across cells — dropping
    /// one severs a live connection.
    Handover = 0,
    /// Service requests and tracking-area updates: idle→active transitions
    /// and mobility updates for already-registered UEs.
    ServiceRequest = 1,
    /// Initial attaches and re-attaches: new registrations can wait out a
    /// storm and retry.
    Attach = 2,
    /// Detaches: the UE is leaving anyway; its session times out harmlessly
    /// if the detach is shed.
    Detach = 3,
}

impl AdmissionClass {
    /// Every class, highest priority first.
    pub const ALL: &'static [AdmissionClass] = &[
        AdmissionClass::Handover,
        AdmissionClass::ServiceRequest,
        AdmissionClass::Attach,
        AdmissionClass::Detach,
    ];

    /// The class a procedure kind belongs to.
    pub fn of(kind: ProcedureKind) -> AdmissionClass {
        match kind {
            ProcedureKind::HandoverWithCpfChange | ProcedureKind::FastHandover => {
                AdmissionClass::Handover
            }
            ProcedureKind::ServiceRequest | ProcedureKind::TrackingAreaUpdate => {
                AdmissionClass::ServiceRequest
            }
            ProcedureKind::InitialAttach | ProcedureKind::ReAttach => AdmissionClass::Attach,
            ProcedureKind::Detach => AdmissionClass::Detach,
        }
    }

    /// The class's index: its priority rank, and its code on the wire.
    pub fn raw(self) -> u8 {
        self as u8
    }

    /// Short label for traces and figure output.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionClass::Handover => "handover",
            AdmissionClass::ServiceRequest => "service-request",
            AdmissionClass::Attach => "attach",
            AdmissionClass::Detach => "detach",
        }
    }
}

/// A UE-state checkpoint from the primary CPF to a backup (§4.2.2): sent on
/// procedure completion (Neutrino) or on every message (SkyCore /
/// per-message ablation).
#[derive(Debug, Clone, PartialEq)]
pub struct StateSync {
    /// The UE whose state this is.
    pub ue: UeId,
    /// The primary CPF that produced the checkpoint.
    pub primary: CpfId,
    /// The CTA serving the UE — replicas send their ACK there (§4.2.3
    /// step 3).
    pub cta: CtaId,
    /// The state snapshot: one allocation shared by the primary's store,
    /// every backup's copy of this sync and the stores that adopt it.
    pub state: Snapshot,
    /// The procedure whose completion triggered the sync.
    pub procedure: ProcedureId,
    /// Logical clock of the last (uplink) message of that procedure — "used
    /// to identify the end of a particular procedure in the log" (§4.2.3).
    pub end_clock: ClockTick,
    /// Why the state is moving.
    pub purpose: SyncPurpose,
}

/// Why a [`StateSync`] was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPurpose {
    /// Replication checkpoint — the receiver ACKs to the CTA.
    Checkpoint,
    /// Handover state migration — the receiver ACKs to the sending CPF so
    /// it can emit the Handover Request (§4.3, "Neutrino - Default").
    Migration,
}

/// A backup CPF's acknowledgement to the **CTA** after a successful state
/// synchronization (§4.2.3 step 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncAck {
    /// The UE concerned.
    pub ue: UeId,
    /// The acknowledging replica.
    pub replica: CpfId,
    /// The procedure the replica is now synced through.
    pub procedure: ProcedureId,
    /// The end-of-procedure clock from the sync.
    pub end_clock: ClockTick,
}

/// CTA → replica: your copy of this UE's state is outdated (§4.2.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkOutdated {
    /// The UE concerned.
    pub ue: UeId,
    /// Clock of the last message of the un-ACKed procedure; replicas ignore
    /// state updates at or below this clock once marked.
    pub clock: ClockTick,
    /// CPFs known to hold up-to-date state (may be empty).
    pub up_to_date: Vec<CpfId>,
}

/// CTA → backup replica: the logged messages of the in-progress procedure,
/// replayed so the replica can reconstruct the lost state before serving the
/// UE (failure scenario 2, §4.2.5).
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The UE concerned.
    pub ue: UeId,
    /// Logged uplink messages, in logical-clock order.
    pub messages: Vec<Envelope>,
}

/// The S11-like session operation a CPF asks of a UPF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOp {
    /// Create a session with a default bearer.
    Create,
    /// Modify bearers (idle→connected restore, handover path switch).
    Modify,
    /// Delete the session.
    Delete,
}

/// CPF → UPF request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct S11Request {
    /// The UE concerned.
    pub ue: UeId,
    /// Requesting CPF (responses return to it).
    pub cpf: CpfId,
    /// Operation.
    pub op: SessionOp,
    /// Session id for modify/delete; assigned by the UPF on create.
    pub session: Option<SessionId>,
}

/// UPF → CPF response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct S11Response {
    /// The UE concerned.
    pub ue: UeId,
    /// The operation that completed.
    pub op: SessionOp,
    /// The UPF answering.
    pub upf: UpfId,
    /// Session id (populated on create).
    pub session: Option<SessionId>,
    /// Whether the operation succeeded.
    pub ok: bool,
}

/// Everything that travels between nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum SysMsg {
    /// A control message (UE/BS ↔ CTA ↔ CPF).
    Control(Envelope),
    /// Primary → backup state checkpoint.
    StateSync(StateSync),
    /// Backup → CTA sync acknowledgement.
    SyncAck(SyncAck),
    /// CTA → replica out-of-date notice.
    MarkOutdated(MarkOutdated),
    /// CTA → replica log replay.
    Replay(Replay),
    /// CPF → CPF state fetch (a marked-outdated replica pulling fresh state,
    /// §4.2.4 step 1c).
    FetchState {
        /// The UE whose state is wanted.
        ue: UeId,
        /// The asking CPF.
        requester: CpfId,
    },
    /// CPF → CPF state fetch response.
    FetchStateResp {
        /// The UE concerned.
        ue: UeId,
        /// The state, if the responder had an up-to-date copy (shared with
        /// the responder's store).
        state: Option<Snapshot>,
    },
    /// CPF → UPF session operation.
    S11(S11Request),
    /// UPF → CPF session result.
    S11Resp(S11Response),
    /// Core → UE: recreate your state by re-attaching (failure scenarios 3
    /// and 4, §4.2.5; also the stale-state guard of §4.2.4 step 3).
    AskReAttach {
        /// The UE that must re-attach.
        ue: UeId,
    },
    /// Target CPF → source CPF: handover state migration landed; the source
    /// may now continue the handover.
    MigrationAck {
        /// The UE whose state arrived.
        ue: UeId,
    },
    /// CPF → CTA: tell this UE (behind `bs`) to re-attach.
    RelayReAttach {
        /// The UE that must re-attach.
        ue: UeId,
        /// The BS to reach it through.
        bs: BsId,
    },
    /// Downlink user data arriving at a UPF for a UE (the §3.1 reachability
    /// scenario): deliverable only while the session is active.
    DownlinkData {
        /// The destination UE.
        ue: UeId,
    },
    /// UPF → CTA → CPF: Downlink Data Notification — an idle UE has data
    /// waiting and must be paged.
    DdnRequest {
        /// The UE with pending downlink data.
        ue: UeId,
        /// The notifying UPF.
        upf: UpfId,
    },
    /// Failure-detector notice delivered to a CTA. Detection time is
    /// excluded from PCT (§6.4), so the injector delivers this directly.
    CpfFailure {
        /// The failed CPF.
        cpf: CpfId,
    },
    /// CTA → primary CPF: a completed procedure's checkpoint is missing
    /// replica ACKs (lost sync or lost ACK); re-send it to the backups.
    /// Sent with exponential backoff before the ACK-timeout scan gives up.
    ResyncRequest {
        /// The UE whose checkpoint is unacknowledged.
        ue: UeId,
        /// The procedure the CTA is still waiting on.
        procedure: ProcedureId,
        /// The CTA waiting for the ACKs.
        cta: CtaId,
    },
    /// Primary CPF → CTA: a resync request named a procedure this primary's
    /// own copy has not reached — it missed messages itself (e.g. the
    /// procedure's final forward was lost) and cannot re-checkpoint. The
    /// CTA answers by replaying its log so the primary can catch up.
    ResyncBehind {
        /// The UE concerned.
        ue: UeId,
        /// The procedure the primary's copy is actually at.
        have: ProcedureId,
        /// The CPF that is behind.
        cpf: CpfId,
    },
    /// CTA → UE (via its BS): the ingress admission layer shed this uplink
    /// instead of queueing it — explicit backpressure, never a silent drop.
    /// The UE must wait at least `retry_after_ms` before re-offering the
    /// procedure (and counts the rejection against its retry budget).
    Reject {
        /// The UE whose uplink was shed.
        ue: UeId,
        /// The admission class that was shed.
        class: AdmissionClass,
        /// Minimum client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

impl SysMsg {
    /// Short label for tracing.
    pub fn label(&self) -> &'static str {
        match self {
            SysMsg::Control(_) => "control",
            SysMsg::StateSync(_) => "state-sync",
            SysMsg::SyncAck(_) => "sync-ack",
            SysMsg::MarkOutdated(_) => "mark-outdated",
            SysMsg::Replay(_) => "replay",
            SysMsg::FetchState { .. } => "fetch-state",
            SysMsg::FetchStateResp { .. } => "fetch-state-resp",
            SysMsg::S11(_) => "s11",
            SysMsg::S11Resp(_) => "s11-resp",
            SysMsg::AskReAttach { .. } => "ask-re-attach",
            SysMsg::MigrationAck { .. } => "migration-ack",
            SysMsg::RelayReAttach { .. } => "relay-re-attach",
            SysMsg::DownlinkData { .. } => "downlink-data",
            SysMsg::DdnRequest { .. } => "ddn-request",
            SysMsg::CpfFailure { .. } => "cpf-failure",
            SysMsg::ResyncRequest { .. } => "resync-request",
            SysMsg::ResyncBehind { .. } => "resync-behind",
            SysMsg::Reject { .. } => "reject",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::MessageKind;
    use crate::procedures::ProcedureKind;

    #[test]
    fn labels_are_distinct() {
        let ue = UeId::new(1);
        let msgs = [
            SysMsg::Control(Envelope::uplink(
                ue,
                ProcedureId::FIRST,
                ProcedureKind::ServiceRequest,
                MessageKind::ServiceRequest.sample(1),
            )),
            SysMsg::SyncAck(SyncAck {
                ue,
                replica: CpfId::new(1),
                procedure: ProcedureId::FIRST,
                end_clock: ClockTick(1),
            }),
            SysMsg::AskReAttach { ue },
            SysMsg::CpfFailure { cpf: CpfId::new(2) },
        ];
        let labels: std::collections::BTreeSet<_> = msgs.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), msgs.len());
    }
}
