//! Session management: the S11-facing half of the UPF.

use neutrino_common::time::Instant;
use neutrino_common::{CpfId, CtaId, SessionId, UeId, UeMap, UpfId};
use neutrino_messages::flow::{Effect, NodeAddr, RoleCore};
use neutrino_messages::sysmsg::{S11Request, S11Response, SessionOp, SysMsg};

/// Lifecycle of one UE's session on the UPF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Session exists; bearers active — packets forward.
    Active,
    /// Session exists but bearers are idle (UE released to idle) — downlink
    /// packets would trigger paging; uplink cannot flow.
    Idle,
}

/// One session record.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    /// The session id (deterministic per UE so replays/recoveries agree).
    pub id: SessionId,
    /// The controlling CPF (updated on handover/failover).
    pub cpf: CpfId,
    /// Current state.
    pub state: SessionState,
}

/// UE → session map.
#[derive(Debug, Default)]
pub struct SessionTable {
    sessions: UeMap<Session>,
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session exists.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Read access.
    pub fn get(&self, ue: UeId) -> Option<&Session> {
        self.sessions.get(ue)
    }

    /// Iterates all sessions in ascending [`UeId`] order — the order the
    /// consistency audit and the `check` oracles report in.
    pub fn iter(&self) -> impl Iterator<Item = (&UeId, &Session)> {
        self.sessions.iter_sorted()
    }

    fn create(&mut self, ue: UeId, cpf: CpfId) -> SessionId {
        // Deterministic id: recovery replays and re-creates agree.
        let id = SessionId::new(ue.raw());
        self.sessions.insert(
            ue,
            Session {
                id,
                cpf,
                state: SessionState::Active,
            },
        );
        id
    }

    fn modify(&mut self, ue: UeId, cpf: CpfId) -> Option<SessionId> {
        self.sessions.get_mut(ue).map(|s| {
            s.state = SessionState::Active;
            s.cpf = cpf;
            s.id
        })
    }

    fn delete(&mut self, ue: UeId) -> Option<SessionId> {
        self.sessions.remove(ue).map(|s| s.id)
    }

    /// Marks a UE idle (connected→idle transition releases bearers).
    pub fn release(&mut self, ue: UeId) {
        if let Some(s) = self.sessions.get_mut(ue) {
            s.state = SessionState::Idle;
        }
    }
}

/// What the UPF asks its driver to send.
#[derive(Debug, Clone, PartialEq)]
pub enum UpfOutput {
    /// Reply to the requesting CPF.
    ToCpf {
        /// Destination CPF.
        cpf: CpfId,
        /// Payload.
        msg: SysMsg,
    },
    /// Notify the control plane through the CTA (Downlink Data
    /// Notification — the CTA knows the UE's current primary CPF).
    ToCta {
        /// Destination CTA.
        cta: CtaId,
        /// Payload.
        msg: SysMsg,
    },
    /// A downlink packet reached the UE (session active).
    Delivered {
        /// The UE.
        ue: UeId,
    },
    /// A downlink packet could not be forwarded and no session exists to
    /// even notify about — the §3.1 disruption.
    Undeliverable {
        /// The UE.
        ue: UeId,
    },
}

impl From<UpfOutput> for Effect {
    fn from(out: UpfOutput) -> Effect {
        match out {
            UpfOutput::ToCpf { cpf, msg } => Effect::Send(NodeAddr::Cpf(cpf), msg),
            UpfOutput::ToCta { cta, msg } => Effect::Send(NodeAddr::Cta(cta), msg),
            UpfOutput::Delivered { ue } => Effect::Delivered(ue),
            UpfOutput::Undeliverable { ue } => Effect::Undeliverable(ue),
        }
    }
}

/// The UPF's S11 state machine.
#[derive(Debug)]
pub struct UpfCore {
    id: UpfId,
    table: SessionTable,
    /// The CTA that fronts this UPF's region (DDN routing).
    cta: CtaId,
    /// `SysMsg` variants delivered here that the flow contract says a UPF
    /// never receives (misrouted traffic — counted, never silently
    /// swallowed).
    unexpected_msgs: u64,
}

impl UpfCore {
    /// Creates a UPF (DDNs route via CTA 0 unless overridden).
    pub fn new(id: UpfId) -> Self {
        Self::with_cta(id, CtaId::new(0))
    }

    /// Creates a UPF fronted by a specific CTA.
    pub fn with_cta(id: UpfId, cta: CtaId) -> Self {
        UpfCore {
            id,
            table: SessionTable::new(),
            cta,
            unexpected_msgs: 0,
        }
    }

    /// Misrouted `SysMsg`s this UPF has received (see `handle`).
    pub fn unexpected_msgs(&self) -> u64 {
        self.unexpected_msgs
    }

    /// Handles a downlink packet for `ue`: forwarded while the session is
    /// active; an idle session triggers a Downlink Data Notification so the
    /// control plane pages the UE; no session at all means the core cannot
    /// reach the UE (§3.1's inconsistency disruption).
    pub fn on_downlink_data(&mut self, ue: UeId) -> Vec<UpfOutput> {
        match self.table.get(ue) {
            Some(Session {
                state: SessionState::Active,
                ..
            }) => vec![UpfOutput::Delivered { ue }],
            Some(_) => vec![UpfOutput::ToCta {
                cta: self.cta,
                msg: SysMsg::DdnRequest { ue, upf: self.id },
            }],
            None => vec![UpfOutput::Undeliverable { ue }],
        }
    }

    /// This UPF's id.
    pub fn id(&self) -> UpfId {
        self.id
    }

    /// The session table (the audit and the oracles read it).
    pub fn table(&self) -> &SessionTable {
        &self.table
    }

    /// Mutable access to the session table (the cluster marks idle
    /// transitions).
    pub fn table_mut(&mut self) -> &mut SessionTable {
        &mut self.table
    }

    /// Handles an S11 request.
    pub fn on_s11(&mut self, req: S11Request) -> Vec<UpfOutput> {
        let (session, ok) = match req.op {
            SessionOp::Create => (Some(self.table.create(req.ue, req.cpf)), true),
            SessionOp::Modify => match self.table.modify(req.ue, req.cpf) {
                Some(id) => (Some(id), true),
                None => (None, false),
            },
            SessionOp::Delete => (self.table.delete(req.ue), true),
        };
        vec![UpfOutput::ToCpf {
            cpf: req.cpf,
            msg: SysMsg::S11Resp(S11Response {
                ue: req.ue,
                op: req.op,
                upf: self.id,
                session,
                ok,
            }),
        }]
    }

    /// Handles any system message addressed to this UPF.
    pub fn handle(&mut self, msg: SysMsg) -> Vec<UpfOutput> {
        match msg {
            SysMsg::S11(req) => self.on_s11(req),
            SysMsg::DownlinkData { ue } => self.on_downlink_data(ue),
            // A misrouted SysMsg is counted, not dropped: a checked case fails on it.
            _ => {
                self.unexpected_msgs += 1;
                Vec::new()
            }
        }
    }
}

impl RoleCore for UpfCore {
    type Output = UpfOutput;

    fn addr(&self) -> NodeAddr {
        NodeAddr::Upf(self.id)
    }

    fn on_message(&mut self, msg: SysMsg, _now: Instant) -> Vec<UpfOutput> {
        self.handle(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active(upf: &UpfCore, ue: u64) -> bool {
        upf.table().get(UeId::new(ue)).map(|s| s.state) == Some(SessionState::Active)
    }

    fn req(ue: u64, op: SessionOp) -> S11Request {
        S11Request {
            ue: UeId::new(ue),
            cpf: CpfId::new(3),
            op,
            session: None,
        }
    }

    #[test]
    fn create_modify_delete_lifecycle() {
        let mut upf = UpfCore::new(UpfId::new(1));
        let outs = upf.on_s11(req(7, SessionOp::Create));
        let resp = match &outs[0] {
            UpfOutput::ToCpf {
                msg: SysMsg::S11Resp(r),
                ..
            } => *r,
            other => panic!("unexpected {other:?}"),
        };
        assert!(resp.ok);
        assert_eq!(resp.session, Some(SessionId::new(7)));
        assert!(active(&upf, 7));

        upf.table_mut().release(UeId::new(7));
        assert!(!active(&upf, 7));

        let outs = upf.on_s11(req(7, SessionOp::Modify));
        assert!(matches!(
            &outs[0],
            UpfOutput::ToCpf { msg: SysMsg::S11Resp(r), .. } if r.ok
        ));
        assert!(active(&upf, 7));

        upf.on_s11(req(7, SessionOp::Delete));
        assert!(upf.table().get(UeId::new(7)).is_none());
    }

    #[test]
    fn modify_without_session_fails() {
        let mut upf = UpfCore::new(UpfId::new(1));
        let outs = upf.on_s11(req(9, SessionOp::Modify));
        assert!(matches!(
            &outs[0],
            UpfOutput::ToCpf { msg: SysMsg::S11Resp(r), .. } if !r.ok
        ));
    }

    #[test]
    fn session_ids_are_deterministic() {
        let mut a = UpfCore::new(UpfId::new(1));
        let mut b = UpfCore::new(UpfId::new(2));
        a.on_s11(req(42, SessionOp::Create));
        b.on_s11(req(42, SessionOp::Create));
        assert_eq!(
            a.table().get(UeId::new(42)).unwrap().id,
            b.table().get(UeId::new(42)).unwrap().id,
        );
    }

    #[test]
    fn delete_is_idempotent() {
        let mut upf = UpfCore::new(UpfId::new(1));
        upf.on_s11(req(7, SessionOp::Create));
        upf.on_s11(req(7, SessionOp::Delete));
        let outs = upf.on_s11(req(7, SessionOp::Delete));
        assert!(matches!(
            &outs[0],
            UpfOutput::ToCpf { msg: SysMsg::S11Resp(r), .. } if r.ok && r.session.is_none()
        ));
    }

    #[test]
    fn misrouted_sysmsg_is_counted_not_swallowed() {
        let mut upf = UpfCore::new(UpfId::new(1));
        // A UPF only ever receives S11 and DownlinkData; anything else is a
        // routing bug and must be observable.
        let outs = upf.handle(SysMsg::AskReAttach { ue: UeId::new(7) });
        assert!(outs.is_empty());
        assert_eq!(upf.unexpected_msgs(), 1);
    }
}
