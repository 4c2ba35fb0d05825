//! Control procedure templates.
//!
//! §5: "Our CPF implementation supports the following four control
//! procedures: (i) initial attach, (ii) handover with CPF change, (iii)
//! FastHandover and (iv) service request." We implement those four plus the
//! re-attach used by failure recovery (§4.2.5), tracking-area update, and
//! detach. A template is the ordered message sequence of one procedure; the
//! simulator and the real-time driver both execute templates, and the
//! baselines differ only in *how* the messages are serialized, logged, and
//! replicated — not in the flows themselves.

use crate::control::{Direction, MessageKind};

/// A control procedure supported by the CPF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcedureKind {
    /// Initial attach: UE registers and gets a default bearer.
    InitialAttach,
    /// Service request: idle→connected transition restoring bearers.
    ServiceRequest,
    /// S1 handover with CPF change (UE state must move to the target CPF).
    HandoverWithCpfChange,
    /// Neutrino's fast handover: the target already holds a proactive
    /// level-2 replica of the UE state (§4.3).
    FastHandover,
    /// Re-attach after a failure (failure scenarios 3 and 4, §4.2.5).
    ReAttach,
    /// Tracking-area update.
    TrackingAreaUpdate,
    /// Detach.
    Detach,
}

impl ProcedureKind {
    /// Every procedure kind.
    pub const ALL: &'static [ProcedureKind] = &[
        ProcedureKind::InitialAttach,
        ProcedureKind::ServiceRequest,
        ProcedureKind::HandoverWithCpfChange,
        ProcedureKind::FastHandover,
        ProcedureKind::ReAttach,
        ProcedureKind::TrackingAreaUpdate,
        ProcedureKind::Detach,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ProcedureKind::InitialAttach => "initial-attach",
            ProcedureKind::ServiceRequest => "service-request",
            ProcedureKind::HandoverWithCpfChange => "handover-cpf-change",
            ProcedureKind::FastHandover => "fast-handover",
            ProcedureKind::ReAttach => "re-attach",
            ProcedureKind::TrackingAreaUpdate => "tracking-area-update",
            ProcedureKind::Detach => "detach",
        }
    }

    /// The message sequence of this procedure.
    pub fn template(self) -> &'static ProcedureTemplate {
        template(self)
    }
}

impl std::fmt::Display for ProcedureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One message exchange within a procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Message kind exchanged.
    pub kind: MessageKind,
    /// Direction relative to the core.
    pub direction: Direction,
    /// The CPF performs a UPF (S11) round trip while processing this step —
    /// session create / modify / delete.
    pub upf_interaction: bool,
    /// The step happens *after* the UE already regained data access: it adds
    /// control-plane load but does not extend the procedure completion time
    /// measured at the UE.
    pub post_completion: bool,
    /// Processing this step requires the UE state to migrate from the source
    /// CPF to the target CPF first (handover with CPF change). Neutrino's
    /// fast handover eliminates this (§4.3).
    pub requires_state_migration: bool,
}

impl Step {
    const fn ul(kind: MessageKind) -> Step {
        Step {
            kind,
            direction: Direction::Uplink,
            upf_interaction: false,
            post_completion: false,
            requires_state_migration: false,
        }
    }

    const fn dl(kind: MessageKind) -> Step {
        Step {
            kind,
            direction: Direction::Downlink,
            upf_interaction: false,
            post_completion: false,
            requires_state_migration: false,
        }
    }

    const fn with_upf(mut self) -> Step {
        self.upf_interaction = true;
        self
    }

    const fn post(mut self) -> Step {
        self.post_completion = true;
        self
    }

    const fn with_migration(mut self) -> Step {
        self.requires_state_migration = true;
        self
    }
}

/// The full message sequence of a procedure. The first step is always an
/// uplink request; procedure completion time (PCT) runs from that request
/// leaving the UE until the last non-`post_completion` step is delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcedureTemplate {
    /// The procedure this template describes.
    pub kind: ProcedureKind,
    /// Ordered message exchanges.
    pub steps: Vec<Step>,
    /// Index of the last step inside the PCT window: the first step, an
    /// uplink request, is never `post_completion`.
    completion: usize,
}

impl ProcedureTemplate {
    /// Index of the last step inside the PCT window.
    pub fn completion_index(&self) -> usize {
        self.completion
    }

    /// Number of uplink messages (what the CTA must log, §4.2.3).
    pub fn uplink_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.direction == Direction::Uplink)
            .count()
    }
}

fn template(kind: ProcedureKind) -> &'static ProcedureTemplate {
    use std::sync::OnceLock;
    static TEMPLATES: OnceLock<Vec<ProcedureTemplate>> = OnceLock::new();
    // `ALL` lists the kinds in declaration order, so a kind indexes it.
    let all = TEMPLATES.get_or_init(|| {
        ProcedureKind::ALL
            .iter()
            .map(|&kind| {
                let steps = steps_for(kind);
                let completion = steps.iter().rposition(|s| !s.post_completion).unwrap_or(0);
                ProcedureTemplate {
                    kind,
                    steps,
                    completion,
                }
            })
            .collect()
    });
    &all[kind as usize]
}

fn steps_for(kind: ProcedureKind) -> Vec<Step> {
    use MessageKind as K;
    match kind {
        // The full LTE attach: Attach Request (inside Initial UE Message),
        // the EPS-AKA authentication exchange, NAS security mode, then the
        // UPF session creation and Attach Accept inside Initial Context
        // Setup Request — at which point the UE has data access. The setup
        // response and Attach Complete still flow (and load the CPF) but
        // are post-completion.
        ProcedureKind::InitialAttach | ProcedureKind::ReAttach => vec![
            Step::ul(K::InitialUeMessage),
            Step::dl(K::AuthenticationRequest),
            Step::ul(K::AuthenticationResponse),
            Step::dl(K::SecurityModeCommand),
            Step::ul(K::SecurityModeComplete),
            Step::dl(K::InitialContextSetupRequest).with_upf(),
            Step::ul(K::InitialContextSetupResponse).post(),
            Step::ul(K::AttachComplete).post(),
        ],
        // Idle→connected: Service Request up, Initial Context Setup down
        // immediately (radio bearers first); the S11 modify-bearer follows
        // the setup response, off the critical path — the real LTE ordering.
        ProcedureKind::ServiceRequest => vec![
            Step::ul(K::ServiceRequest),
            Step::dl(K::InitialContextSetupRequest),
            Step::ul(K::InitialContextSetupResponse).with_upf().post(),
        ],
        // S1 handover: Handover Required up; the target CPF must first
        // receive the UE state (migration), then Handover Request down to
        // the target BS, Ack up, Handover Command down to the UE — the UE
        // switches cells at that point. Notify + release are post.
        ProcedureKind::HandoverWithCpfChange => vec![
            Step::ul(K::HandoverRequired),
            Step::dl(K::HandoverRequest).with_migration(),
            Step::ul(K::HandoverRequestAck),
            Step::dl(K::HandoverCommand),
            Step::ul(K::HandoverNotify).with_upf().post(),
            Step::dl(K::UeContextReleaseCommand).post(),
            Step::ul(K::UeContextReleaseComplete).post(),
        ],
        // Fast handover: identical flow minus the state migration — the
        // target CPF already holds a level-2 replica (§4.3).
        ProcedureKind::FastHandover => vec![
            Step::ul(K::HandoverRequired),
            Step::dl(K::HandoverRequest),
            Step::ul(K::HandoverRequestAck),
            Step::dl(K::HandoverCommand),
            Step::ul(K::HandoverNotify).with_upf().post(),
            Step::dl(K::UeContextReleaseCommand).post(),
            Step::ul(K::UeContextReleaseComplete).post(),
        ],
        ProcedureKind::TrackingAreaUpdate => vec![Step::ul(K::TauRequest), Step::dl(K::TauAccept)],
        ProcedureKind::Detach => vec![
            Step::ul(K::DetachRequest),
            Step::dl(K::DetachAccept).with_upf(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_templates_start_with_uplink() {
        for kind in ProcedureKind::ALL {
            let t = kind.template();
            assert_eq!(
                t.steps[0].direction,
                Direction::Uplink,
                "{kind} must start with a request"
            );
            assert_eq!(t.kind, *kind);
            assert_eq!(ProcedureKind::ALL[*kind as usize], *kind);
        }
    }

    #[test]
    fn completion_index_is_a_downlink_except_pure_uplink_tails() {
        for kind in ProcedureKind::ALL {
            let t = kind.template();
            let idx = t.completion_index();
            assert_eq!(
                t.steps[idx].direction,
                Direction::Downlink,
                "{kind}: PCT must end with a message arriving at the UE"
            );
        }
    }

    #[test]
    fn fast_handover_differs_only_in_migration() {
        let slow = ProcedureKind::HandoverWithCpfChange.template();
        let fast = ProcedureKind::FastHandover.template();
        assert_eq!(slow.steps.len(), fast.steps.len());
        for (s, f) in slow.steps.iter().zip(&fast.steps) {
            assert_eq!(s.kind, f.kind);
            assert_eq!(s.direction, f.direction);
            assert_eq!(s.upf_interaction, f.upf_interaction);
        }
        assert!(slow.steps.iter().any(|s| s.requires_state_migration));
        assert!(!fast.steps.iter().any(|s| s.requires_state_migration));
    }

    #[test]
    fn attach_has_upf_interaction_on_critical_path() {
        let critical = |t: &'static ProcedureTemplate| &t.steps[..=t.completion_index()];
        assert!(critical(ProcedureKind::InitialAttach.template())
            .iter()
            .any(|s| s.upf_interaction));
        // The service request does not block on the UPF (LTE ordering).
        assert!(critical(ProcedureKind::ServiceRequest.template())
            .iter()
            .all(|s| !s.upf_interaction));
    }

    #[test]
    fn attach_authenticates_before_context_setup() {
        let t = ProcedureKind::InitialAttach.template();
        let pos = |k: MessageKind| t.steps.iter().position(|s| s.kind == k).unwrap();
        assert!(pos(MessageKind::AuthenticationRequest) < pos(MessageKind::SecurityModeCommand));
        assert!(
            pos(MessageKind::SecurityModeComplete) < pos(MessageKind::InitialContextSetupRequest)
        );
    }

    #[test]
    fn uplink_counts_match_flows() {
        assert_eq!(ProcedureKind::InitialAttach.template().uplink_count(), 5);
        assert_eq!(ProcedureKind::ServiceRequest.template().uplink_count(), 2);
        assert_eq!(
            ProcedureKind::HandoverWithCpfChange
                .template()
                .uplink_count(),
            4
        );
        assert_eq!(ProcedureKind::Detach.template().uplink_count(), 1);
    }

    #[test]
    fn re_attach_matches_initial_attach_flow() {
        assert_eq!(
            ProcedureKind::InitialAttach.template().steps,
            ProcedureKind::ReAttach.template().steps
        );
    }
}
