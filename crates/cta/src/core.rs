//! The CTA state machine.

use crate::admission::{AdmissionControl, AdmissionDecision, AdmissionParams, Chase};
use crate::log::{MessageLog, UeLog, UeSlot};
use neutrino_codec::CodecKind;
use neutrino_common::clock::ClockTick;
use neutrino_common::time::{Duration, Instant};
use neutrino_common::{mutant, CpfId, CtaId, ProcedureId, UeId};
use neutrino_geo::RingStack;
use neutrino_messages::costs::CostTable;
use neutrino_messages::flow::{Effect, NodeAddr, RoleCore};
use neutrino_messages::sysmsg::{AdmissionClass, MarkOutdated, Replay, SyncAck, SysMsg};
use neutrino_messages::{Direction, Envelope};

/// How often the ACK scan runs once the CTA has seen traffic (§4.2.4's
/// timeouts are tens of seconds; the resync chase starts at 4 s).
const SCAN_INTERVAL: Duration = Duration::from_secs(5);

/// How long the CTA waits for replica ACKs before declaring the replicas
/// outdated and pruning the procedure (§4.2.4 uses 30 s).
const ACK_TIMEOUT: Duration = Duration::from_secs(30);

/// Base delay before a completed-but-unACKed procedure's checkpoint is
/// re-requested from the primary; it doubles per attempt until
/// [`ACK_TIMEOUT`] prunes the procedure.
const RESYNC_BASE: Duration = Duration::from_secs(4);

/// What the CTA does when a UE's primary CPF is down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverPolicy {
    /// Existing EPC / DPCM: the UE must re-attach (and the consistent-hash
    /// ring, minus the failed CPF, picks its new primary).
    ReAttach,
    /// Neutrino (§4.2.5): promote the most-synced backup, replaying the
    /// in-memory log when it is behind; re-attach only when no backup can be
    /// made consistent (scenario 3).
    ReplayFromLog,
    /// SkyCore: route to any live pool member (state was broadcast
    /// per-message; no consistency check).
    AnyPeer,
}

/// CTA configuration.
#[derive(Debug, Clone)]
pub struct CtaConfig {
    /// This CTA's id.
    pub id: CtaId,
    /// Whether the in-memory message log is maintained (§6.7.2 ablates it).
    pub logging: bool,
    /// Failure recovery policy.
    pub failover: FailoverPolicy,
    /// The codec in use — determines the wire size the log charges per
    /// message.
    pub codec: CodecKind,
    /// Ingress admission gate (overload control). `None` — the default in
    /// every stock configuration — admits everything and leaves behavior
    /// byte-identical to the pre-overload-control tree.
    pub admission: Option<AdmissionParams>,
    /// The protocol mutant this run plants (`test-support` only).
    #[cfg(feature = "test-support")]
    pub mutant: Option<neutrino_common::Mutant>,
}

impl CtaConfig {
    /// Neutrino defaults (per-procedure replication, logging on, 30 s
    /// timeout).
    pub fn neutrino(id: CtaId, codec: CodecKind) -> Self {
        CtaConfig {
            id,
            logging: true,
            failover: FailoverPolicy::ReplayFromLog,
            codec,
            admission: None,
            #[cfg(feature = "test-support")]
            mutant: None,
        }
    }
}

/// An action the CTA asks its driver to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum CtaOutput {
    /// Send to a CPF.
    ToCpf {
        /// Destination CPF.
        cpf: CpfId,
        /// Payload.
        msg: SysMsg,
    },
    /// Send toward the UE (through whichever base station it camps on).
    ToBs {
        /// Payload.
        msg: SysMsg,
    },
}

impl From<CtaOutput> for Effect {
    fn from(out: CtaOutput) -> Effect {
        match out {
            CtaOutput::ToCpf { cpf, msg } => Effect::Send(NodeAddr::Cpf(cpf), msg),
            CtaOutput::ToBs { msg, .. } => Effect::Send(NodeAddr::Client, msg),
        }
    }
}

/// Counters for tests and experiment output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtaMetrics {
    /// Uplink envelopes forwarded.
    pub forwarded_uplink: u64,
    /// Downlink envelopes forwarded.
    pub forwarded_downlink: u64,
    /// Failovers resolved with an already-up-to-date backup (scenario 1).
    pub failover_up_to_date: u64,
    /// Failovers resolved by replaying the log (scenario 2).
    pub failover_replayed: u64,
    /// Failovers that required a re-attach (scenario 3).
    pub failover_re_attach: u64,
    /// MarkOutdated notices sent.
    pub outdated_notices: u64,
    /// Procedures pruned by the ACK timeout scan.
    pub timeout_pruned: u64,
    /// Checkpoint resends requested from primaries (exponential backoff)
    /// for completed procedures still missing replica ACKs.
    pub resyncs_requested: u64,
    /// Log replays sent to a primary that reported itself *behind* the
    /// procedure a resync request named (it missed the messages, so it had
    /// nothing to re-checkpoint).
    pub resyncs_replayed: u64,
    /// Procedure-start uplinks admitted by the ingress gate, indexed by
    /// [`AdmissionClass::raw`] (highest priority first).
    pub admitted_by_class: [u64; 4],
    /// Procedure-start uplinks shed by the ingress gate, indexed by
    /// [`AdmissionClass::raw`].
    pub shed_by_class: [u64; 4],
    /// `Reject` frames sent back toward UEs (one per shed uplink).
    pub rejects_sent: u64,
    /// ACK-timeout scans skipped because the admission gate was under
    /// pressure (the level-2 replication sweep is deferred, not dropped).
    pub acks_deferred: u64,
    /// Times the resync-chase circuit breaker opened on a CPF.
    pub breaker_opened: u64,
    /// Resync chases suppressed by an open breaker.
    pub breaker_suppressed: u64,
    /// `SysMsg` variants delivered to this CTA that the flow contract says
    /// it never receives (misrouted traffic — counted, never silently
    /// swallowed; any checked case with a non-zero count fails with a
    /// `flow-contract` violation).
    pub unexpected_msgs: u64,
}

impl CtaMetrics {
    /// Adds `other`'s counters to these. The pattern names every field, so
    /// a counter added to the struct does not compile until it is summed.
    pub fn merge(&mut self, other: &CtaMetrics) {
        let CtaMetrics {
            forwarded_uplink,
            forwarded_downlink,
            failover_up_to_date,
            failover_replayed,
            failover_re_attach,
            outdated_notices,
            timeout_pruned,
            resyncs_requested,
            resyncs_replayed,
            admitted_by_class,
            shed_by_class,
            rejects_sent,
            acks_deferred,
            breaker_opened,
            breaker_suppressed,
            unexpected_msgs,
        } = *other;
        self.forwarded_uplink += forwarded_uplink;
        self.forwarded_downlink += forwarded_downlink;
        self.failover_up_to_date += failover_up_to_date;
        self.failover_replayed += failover_replayed;
        self.failover_re_attach += failover_re_attach;
        self.outdated_notices += outdated_notices;
        self.timeout_pruned += timeout_pruned;
        self.resyncs_requested += resyncs_requested;
        self.resyncs_replayed += resyncs_replayed;
        for i in 0..4 {
            self.admitted_by_class[i] += admitted_by_class[i];
            self.shed_by_class[i] += shed_by_class[i];
        }
        self.rejects_sent += rejects_sent;
        self.acks_deferred += acks_deferred;
        self.breaker_opened += breaker_opened;
        self.breaker_suppressed += breaker_suppressed;
        self.unexpected_msgs += unexpected_msgs;
    }
}

/// The Control Traffic Aggregator state machine.
pub struct CtaCore {
    config: CtaConfig,
    ring: RingStack,
    clock: neutrino_common::LogicalClock,
    /// The message log; its per-UE records also carry the UE's sticky
    /// primary and admission charge, so a message costs one lookup.
    log: MessageLog,
    costs: &'static CostTable,
    metrics: CtaMetrics,
    /// Ingress admission gate and resync breaker; `None` admits everything
    /// and never suppresses a chase (stock behavior).
    admission: Option<AdmissionControl>,
    /// Scratch for the expected-ACK set of the UE at hand (reused so the
    /// per-ACK path allocates nothing).
    expected: Vec<CpfId>,
    /// When the next ACK scan is due; `None` until the first message.
    scan_due: Option<Instant>,
}

/// The primary CPF currently serving a UE (sticky; assigned from the
/// level-1 ring on first contact).
fn primary_of(log: &mut UeLog, ue: UeId, ring: &RingStack) -> Option<CpfId> {
    if log.assigned.is_none() {
        log.assigned = ring.primary(ue);
    }
    log.assigned
}

/// Fills `expected` with the replicas whose ACKs the UE's checkpoints wait
/// for: its backups other than the primary (the ring holds live CPFs only).
fn expected_acks(log: &mut UeLog, ue: UeId, ring: &RingStack, expected: &mut Vec<CpfId>) {
    let primary = primary_of(log, ue, ring);
    expected.clear();
    expected.extend(ring.backups(ue).filter(|b| Some(*b) != primary));
}

/// A failed primary's successor: among the UE's backups that have ever
/// held its state, the one synced furthest ahead, and the first such in
/// ring order. Returns it with the procedure it is synced through. A page
/// and an uplink that find the primary dead pick the same backup.
fn best_backup(slot: &UeSlot<'_>, ue: UeId, ring: &RingStack) -> Option<(CpfId, ProcedureId)> {
    ring.backups(ue)
        .filter_map(|b| {
            let synced = slot.synced_through(b);
            // Never held this UE's state: ineligible.
            (synced.raw() > 0).then_some((b, synced))
        })
        .reduce(|best, b| {
            mutant!(slot.mutant, FirstEligibleBackup => best;
                if b.1 > best.1 { b } else { best })
        })
}

impl CtaCore {
    /// Creates a CTA over a region's ring stack.
    pub fn new(config: CtaConfig, ring: RingStack) -> Self {
        let admission = config.admission.map(AdmissionControl::new);
        #[cfg_attr(
            not(feature = "test-support"),
            expect(unused_mut, reason = "no mutant to plant")
        )]
        let mut log = MessageLog::new();
        #[cfg(feature = "test-support")]
        {
            log.mutant = config.mutant;
        }
        CtaCore {
            config,
            ring,
            clock: neutrino_common::LogicalClock::new(),
            log,
            costs: CostTable::baked(),
            metrics: CtaMetrics::default(),
            admission,
            expected: Vec::new(),
            scan_due: None,
        }
    }

    /// This CTA's id.
    pub fn id(&self) -> CtaId {
        self.config.id
    }

    /// Counters.
    pub fn metrics(&self) -> CtaMetrics {
        self.metrics
    }

    /// The ingress admission gate, when overload control is enabled
    /// (invariants read its shed/admit evidence).
    pub fn admission(&self) -> Option<&AdmissionControl> {
        self.admission.as_ref()
    }

    /// Read-only view of the message log (consistency auditing).
    pub fn log(&self) -> &MessageLog {
        &self.log
    }

    /// Mutable log access (`test-support` only). Test harnesses use this to
    /// plant watermark states that exercise oracle kill-switches.
    #[cfg(feature = "test-support")]
    pub fn log_mut(&mut self) -> &mut MessageLog {
        &mut self.log
    }

    /// Mutable admission-gate access (`test-support` only).
    #[cfg(feature = "test-support")]
    pub fn admission_mut(&mut self) -> Option<&mut AdmissionControl> {
        self.admission.as_mut()
    }

    /// Current log footprint in bytes.
    pub fn log_bytes(&self) -> usize {
        self.log.bytes()
    }

    /// Peak log footprint in bytes (Fig. 17).
    pub fn max_log_bytes(&self) -> usize {
        self.log.max_bytes()
    }

    /// The primary CPF currently serving a UE: its sticky assignment, or
    /// the level-1 ring's choice for a UE not yet bound. Records nothing.
    pub fn primary_for(&self, ue: UeId) -> Option<CpfId> {
        self.log
            .ue(ue)
            .and_then(|l| l.assigned)
            .or_else(|| self.ring.primary(ue))
    }

    /// The backup set for a UE on the current ring.
    pub fn backups_for(&self, ue: UeId) -> Vec<CpfId> {
        self.ring.backups(ue).collect()
    }

    /// Whether replicas will ever ACK this CTA's completed procedures: only
    /// when a failure is recovered by replay onto a replica, the one policy
    /// that checkpoints to the ring's backups. (SkyCore's any-peer pool
    /// broadcasts state but names no backup a checkpoint could wait on.)
    /// Otherwise nothing is chased, and nothing is kept waiting for an ACK
    /// timeout that would only count phantom failures.
    fn expects_acks(&self) -> bool {
        self.config.failover == FailoverPolicy::ReplayFromLog
    }

    /// Handles any system message addressed to this CTA.
    pub fn handle(&mut self, msg: SysMsg, now: Instant) -> Vec<CtaOutput> {
        self.scan_due.get_or_insert(now + SCAN_INTERVAL);
        match msg {
            SysMsg::Control(env) => match env.direction {
                Direction::Uplink => self.on_uplink(env, now),
                Direction::Downlink => self.on_downlink(env, now),
            },
            SysMsg::SyncAck(ack) => self.on_sync_ack(ack),
            SysMsg::ResyncBehind { ue, have, cpf } => self.on_resync_behind(ue, have, cpf),
            SysMsg::DdnRequest { ue, upf } => self.on_ddn(ue, upf),
            SysMsg::CpfFailure { cpf } => self.on_cpf_failure(cpf),
            SysMsg::RelayReAttach { ue, .. } => {
                // A CPF asked the UE to re-attach (stale-state guard).
                vec![CtaOutput::ToBs {
                    msg: SysMsg::AskReAttach { ue },
                }]
            }
            // A misrouted SysMsg is counted, not dropped: a checked case fails on it.
            _ => {
                self.metrics.unexpected_msgs += 1;
                Vec::new()
            }
        }
    }

    /// Processes an uplink control message (§4.2.3 step 1): stamp the
    /// logical clock, log, and forward to the primary CPF — or run failure
    /// recovery when the primary is down.
    pub fn on_uplink(&mut self, mut env: Envelope, now: Instant) -> Vec<CtaOutput> {
        let kind = env.msg.kind();
        let starts_procedure = kind == env.proc_kind.template().steps[0].kind;
        // Ingress admission (overload control): gate *procedure-start*
        // uplinks before any clock or log state is touched, so a shed
        // procedure leaves no trace. Mid-procedure messages always pass —
        // once work is admitted it is carried to completion (this is what
        // keeps `failed_procedures` at zero for admitted work), and the
        // gate itself admits retransmits of an already-charged start for
        // free. The charge is read here and recorded below, once admitted.
        let gate = self.admission.as_mut().filter(|_| starts_procedure);
        let gated = gate.is_some();
        if let Some(gate) = gate {
            let class = AdmissionClass::of(env.proc_kind);
            let charged = self.log.ue(env.ue).map_or(ProcedureId(0), |l| l.charged);
            match gate.decide(charged, env.procedure, class, now) {
                AdmissionDecision::Admit => {
                    self.metrics.admitted_by_class[class.raw() as usize] += 1;
                }
                AdmissionDecision::Shed { retry_after_ms } => {
                    self.metrics.shed_by_class[class.raw() as usize] += 1;
                    self.metrics.rejects_sent += 1;
                    return vec![CtaOutput::ToBs {
                        msg: SysMsg::Reject {
                            ue: env.ue,
                            class,
                            retry_after_ms,
                        },
                    }];
                }
            }
        }
        let tick = self.clock.tick();
        env.clock = tick;
        env.via_cta = Some(self.config.id);
        let ue = env.ue;
        let awaits_acks = self.expects_acks();
        let mut out = Vec::new();

        let mut slot = self.log.ue_mut(ue);
        if gated {
            slot.charged = slot.charged.max(env.procedure);
        }
        // A reordered or duplicated straggler from an already-completed
        // procedure must not (re-)mark the UE as mid-procedure: a stale
        // `in_flight` makes the failure handler "recover" a procedure
        // that already finished.
        if env.end_of_procedure {
            if mutant!(self.config.mutant, EndClearsAnyInFlight => true;
                slot.in_flight.is_none_or(|p| p <= env.procedure))
            {
                slot.in_flight = None;
            }
        } else if mutant!(self.config.mutant, StragglerInFlight => true;
            env.procedure > slot.last_completed)
        {
            slot.in_flight = Some(env.procedure);
        }

        if self.config.logging {
            // §4.2.4 step 4: a second procedure starting while the previous
            // one still lacks ACKs ⇒ notify the lagging replicas.
            let prev = slot.last_completed;
            if prev.raw() > 0
                && slot.procedure(env.procedure).is_none()
                && slot.procedure(prev).is_some()
            {
                self.notify_outdated(ue, prev, &mut out);
                slot = self.log.ue_mut(ue);
            }
            let bytes = self
                .costs
                .get(self.config.codec, kind)
                .map_or(64, |c| c.wire_bytes);
            slot.append(&env, bytes);
        }
        if env.end_of_procedure {
            slot.complete(env.procedure, tick, now, awaits_acks);
        }

        // A (re-)attach binds the UE afresh to the ring's current choice —
        // the failed CPF is no longer on the ring.
        if starts_procedure
            && matches!(
                env.proc_kind,
                neutrino_messages::ProcedureKind::InitialAttach
                    | neutrino_messages::ProcedureKind::ReAttach
            )
        {
            slot.assigned = None;
        }
        let Some(primary) = primary_of(&mut slot, ue, &self.ring) else {
            return out; // no CPFs at all
        };
        if !self.ring.contains(primary) {
            self.failover(env, &mut out);
        } else {
            self.metrics.forwarded_uplink += 1;
            out.push(CtaOutput::ToCpf {
                cpf: primary,
                msg: SysMsg::Control(env),
            });
        }
        out
    }

    /// Processes a downlink control message from a CPF: stamp, bookkeep
    /// procedure completion, forward to the UE's BS.
    pub fn on_downlink(&mut self, mut env: Envelope, now: Instant) -> Vec<CtaOutput> {
        let tick = self.clock.tick();
        env.clock = tick;
        env.via_cta = Some(self.config.id);
        if env.end_of_procedure {
            let awaits_acks = self.expects_acks();
            let mut slot = self.log.ue_mut(env.ue);
            slot.complete(env.procedure, tick, now, awaits_acks);
            if slot.in_flight.is_none_or(|p| p <= env.procedure) {
                slot.in_flight = None;
            }
        }
        self.metrics.forwarded_downlink += 1;
        vec![CtaOutput::ToBs {
            msg: SysMsg::Control(env),
        }]
    }

    /// Records a replica ACK (§4.2.3 steps 3–4) and prunes fully-ACKed
    /// procedures.
    pub fn on_sync_ack(&mut self, ack: SyncAck) -> Vec<CtaOutput> {
        let mut slot = self.log.ue_mut(ack.ue);
        expected_acks(&mut slot, ack.ue, &self.ring, &mut self.expected);
        slot.ack(ack.procedure, ack.replica, &self.expected);
        // An ACK flowing for this UE means its primary's checkpoint path is
        // alive again: reset that CPF's resync-chase breaker.
        if let (Some(gate), Some(primary)) = (self.admission.as_mut(), slot.assigned) {
            gate.cpf_alive(primary);
        }
        Vec::new()
    }

    /// A primary answered a resync request by admitting its copy is *behind*
    /// the procedure the CTA is waiting on — it missed the messages (e.g.
    /// the final forward of the procedure was lost) and cannot re-checkpoint
    /// what it never saw. Replay the log to bring it up to date; processing
    /// the replayed messages makes the primary complete the procedure,
    /// commit, and checkpoint to its backups, whose ACKs then prune the log.
    pub fn on_resync_behind(&mut self, ue: UeId, have: ProcedureId, cpf: CpfId) -> Vec<CtaOutput> {
        // The CPF answered a chase — alive, just behind. Close its breaker.
        if let Some(gate) = self.admission.as_mut() {
            gate.cpf_alive(cpf);
        }
        if !self.config.logging || !self.ring.contains(cpf) {
            return Vec::new();
        }
        let primary = primary_of(&mut self.log.ue_mut(ue), ue, &self.ring);
        if primary != Some(cpf) || !self.log.replay_covers(ue, have) {
            return Vec::new();
        }
        let messages = self.log.ue_mut(ue).replay_set(ue, self.config.id, have);
        if messages.is_empty() {
            return Vec::new();
        }
        self.metrics.resyncs_replayed += 1;
        vec![CtaOutput::ToCpf {
            cpf,
            msg: SysMsg::Replay(Replay { ue, messages }),
        }]
    }

    /// Reacts to a CPF failure notice: takes the CPF out of the rings, then
    /// immediately recovers every UE that was mid-procedure on it (those UEs
    /// are waiting for a response that will never come — the last logged
    /// message is re-driven through failover so the new primary answers it).
    /// UEs with no procedure in flight recover lazily on their next message.
    pub fn on_cpf_failure(&mut self, cpf: CpfId) -> Vec<CtaOutput> {
        // The log iterates in UE-id order, which pins the order of the
        // failover messages below.
        let mut stuck: Vec<Envelope> = Vec::new();
        let mut stuck_no_log: Vec<UeId> = Vec::new();
        for (ue, ue_log) in self.log.ues() {
            let primary = ue_log.assigned.or_else(|| self.ring.primary(*ue));
            if primary != Some(cpf) {
                continue;
            }
            let Some(in_proc) = ue_log.in_flight else {
                continue;
            };
            let last_logged = ue_log.procedure(in_proc).and_then(|p| p.messages.last());
            match last_logged {
                Some(last) => stuck.push(last.envelope(*ue, in_proc, self.config.id)),
                None => stuck_no_log.push(*ue),
            }
        }
        self.ring.remove(cpf);
        // The dead CPF's copies died with it: drop its ACKs so they never
        // count toward convergence or get offered as fetch sources.
        mutant!(self.config.mutant, NoAckPurge => (); self.log.purge_replica_acks(cpf));
        let mut out = Vec::new();
        for env in mutant!(self.config.mutant, NoStuckRedrive => Vec::new(); stuck) {
            self.failover(env, &mut out);
        }
        for ue in stuck_no_log {
            // No log to recover from (EPC / logging off): re-attach.
            self.metrics.failover_re_attach += 1;
            self.log.ue_mut(ue).in_flight = None;
            out.push(CtaOutput::ToBs {
                msg: SysMsg::AskReAttach { ue },
            });
        }
        out
    }

    /// Routes a Downlink Data Notification to the UE's current primary so
    /// it can page the UE (§3.1's reachability path). A dead primary runs
    /// the same recovery selection as control traffic: promote a synced
    /// backup (Neutrino) or wake the UE by re-attach (EPC).
    pub fn on_ddn(&mut self, ue: UeId, upf: neutrino_common::UpfId) -> Vec<CtaOutput> {
        let mut slot = self.log.ue_mut(ue);
        let Some(primary) = primary_of(&mut slot, ue, &self.ring) else {
            return Vec::new();
        };
        if self.ring.contains(primary) {
            return vec![CtaOutput::ToCpf {
                cpf: primary,
                msg: SysMsg::DdnRequest { ue, upf },
            }];
        }
        // Primary is down: promote the backup `failover` would, without a
        // message to replay.
        match best_backup(&slot, ue, &self.ring) {
            Some((replica, _)) if self.config.failover == FailoverPolicy::ReplayFromLog => {
                slot.assigned = Some(replica);
                self.metrics.failover_up_to_date += 1;
                vec![CtaOutput::ToCpf {
                    cpf: replica,
                    msg: SysMsg::DdnRequest { ue, upf },
                }]
            }
            _ => {
                // Nothing consistent to page from: wake the UE directly.
                self.metrics.failover_re_attach += 1;
                vec![CtaOutput::ToBs {
                    msg: SysMsg::AskReAttach { ue },
                }]
            }
        }
    }

    /// The ACK-timeout scan (§4.2.4 step 1): run periodically by the driver.
    /// It walks the log's index of completed-but-still-logged procedures,
    /// so it costs what is pending, not what is attached.
    ///
    /// Before a procedure's ACKs time out entirely, the scan asks the UE's
    /// primary to re-send the checkpoint (a lost `StateSync` or `SyncAck`
    /// otherwise leaves the replicas permanently behind), backing off
    /// exponentially from `RESYNC_BASE` (4 s) per attempt.
    pub fn scan(&mut self, now: Instant) -> Vec<CtaOutput> {
        // Graceful degradation: while the admission gate is shedding, the
        // level-2 replication sweep (converged pruning, resync chases, and
        // ACK-timeout expiry) is *deferred* — the log keeps every
        // unconverged procedure, so the consistency audit stays clean, and
        // the sweep resumes untouched once the storm drains.
        if let Some(gate) = self.admission.as_mut() {
            if gate.under_pressure(now) {
                self.metrics.acks_deferred += 1;
                return Vec::new();
            }
        }
        // Act in (ue, procedure) order — the index's own — so the message
        // sequence is identical on every run.
        let pending: Vec<(UeId, ProcedureId)> = self.log.completed().collect();
        let mut expired: Vec<(UeId, ProcedureId)> = Vec::new();
        let mut lagging: Vec<(UeId, ProcedureId)> = Vec::new();
        for (ue, proc) in pending {
            let mut slot = self.log.ue_mut(ue);
            expected_acks(&mut slot, ue, &self.ring, &mut self.expected);
            let Some(entry) = slot.procedure(proc) else {
                continue;
            };
            // Converged sweep: after a failover the expected-ACK set can
            // shrink or shift *after* the ACKs arrived, so `ack()` never got
            // a chance to prune. Enough distinct live replicas holding the
            // state is convergence regardless of which ring slots they sit
            // on — drop the entry without chasing or counting a timeout.
            if entry.converged(&self.expected) {
                slot.drop_procedure(proc);
                continue;
            }
            let Some((_, done)) = entry.completed else {
                continue;
            };
            if done + ACK_TIMEOUT <= now {
                expired.push((ue, proc));
            } else {
                let backoff = 1u64 << entry.resync_attempts.min(20);
                let wait = RESYNC_BASE.as_nanos().saturating_mul(backoff);
                if done + Duration::from_nanos(wait) <= now {
                    lagging.push((ue, proc));
                }
            }
        }
        let mut out = Vec::new();
        // `lagging` is (ue, proc)-sorted, so the *last* entry per UE is its
        // highest pending procedure; cumulative ACKs make one re-checkpoint
        // of the current state cover every earlier procedure too. Bump the
        // backoff on all of them, but send one request per UE.
        for (i, &(ue, proc)) in lagging.iter().enumerate() {
            let mut slot = self.log.ue_mut(ue);
            expected_acks(&mut slot, ue, &self.ring, &mut self.expected);
            let Some(entry) = slot.procedure(proc) else {
                continue;
            };
            if self.expected.is_empty() || self.expected.iter().all(|r| entry.acked_by(*r)) {
                continue; // nothing to chase (the timeout will reap it)
            }
            slot.note_resync(proc);
            if lagging.get(i + 1).is_some_and(|(next, _)| *next == ue) {
                continue;
            }
            let primary = match slot.assigned {
                Some(p) if self.ring.contains(p) => p,
                _ => continue, // failover will rebuild state instead
            };
            // Circuit breaker (overload mode only): suppress chases to a
            // primary that has stopped answering them, for a cooldown.
            if let Some(gate) = self.admission.as_mut() {
                match gate.chase(primary, now) {
                    Chase::Suppressed => {
                        self.metrics.breaker_suppressed += 1;
                        continue;
                    }
                    Chase::Tripped => self.metrics.breaker_opened += 1,
                    Chase::Sent => {}
                }
            }
            self.metrics.resyncs_requested += 1;
            out.push(CtaOutput::ToCpf {
                cpf: primary,
                msg: SysMsg::ResyncRequest {
                    ue,
                    procedure: proc,
                    cta: self.config.id,
                },
            });
        }
        for (ue, proc) in expired {
            self.notify_outdated(ue, proc, &mut out);
            self.log.ue_mut(ue).drop_procedure(proc);
            self.metrics.timeout_pruned += 1;
        }
        out
    }

    /// Tells replicas lagging on `proc` that their state is outdated,
    /// listing who does hold fresh state (§4.2.4 step 1a).
    fn notify_outdated(&mut self, ue: UeId, proc: ProcedureId, out: &mut Vec<CtaOutput>) {
        let mut slot = self.log.ue_mut(ue);
        if slot.procedure(proc).is_none() {
            return;
        }
        expected_acks(&mut slot, ue, &self.ring, &mut self.expected);
        let Some(entry) = slot.procedure(proc) else {
            return;
        };
        let clock = entry.completed.map_or(ClockTick::ZERO, |(clock, _)| clock);
        let mut up_to_date = entry.acks.clone();
        if let Some(p) = slot.assigned.filter(|&p| self.ring.contains(p)) {
            up_to_date.push(p);
        }
        for &replica in &self.expected {
            if !entry.acked_by(replica) {
                self.metrics.outdated_notices += 1;
                out.push(CtaOutput::ToCpf {
                    cpf: replica,
                    msg: SysMsg::MarkOutdated(MarkOutdated {
                        ue,
                        clock,
                        up_to_date: up_to_date.clone(),
                    }),
                });
            }
        }
    }

    /// Failure recovery for one uplink message whose primary is down
    /// (§4.2.5).
    fn failover(&mut self, env: Envelope, out: &mut Vec<CtaOutput>) {
        let ue = env.ue;
        let re_attach = CtaOutput::ToBs {
            msg: SysMsg::AskReAttach { ue },
        };
        match self.config.failover {
            FailoverPolicy::ReAttach => {
                self.metrics.failover_re_attach += 1;
                out.push(re_attach);
            }
            FailoverPolicy::AnyPeer => {
                if let Some(peer) = self.ring.primary(ue) {
                    self.log.ue_mut(ue).assigned = Some(peer);
                    self.metrics.failover_up_to_date += 1;
                    out.push(CtaOutput::ToCpf {
                        cpf: peer,
                        msg: SysMsg::Control(env),
                    });
                }
            }
            FailoverPolicy::ReplayFromLog => {
                let backup = best_backup(&self.log.ue_mut(ue), ue, &self.ring);
                match backup {
                    Some((replica, synced)) if self.log.replay_covers(ue, synced) => {
                        let mut slot = self.log.ue_mut(ue);
                        // Everything after `synced` (including the current
                        // procedure's earlier messages, and this message —
                        // appended before routing) replays onto the backup.
                        let mut messages = slot.replay_set(ue, self.config.id, synced);
                        // The message we are routing right now must not be
                        // replayed *and* forwarded.
                        mutant!(self.config.mutant, ReplayAndForward => ();
                            messages.retain(|m| m.clock != env.clock));
                        slot.assigned = Some(replica);
                        if messages.is_empty() {
                            self.metrics.failover_up_to_date += 1;
                        } else {
                            self.metrics.failover_replayed += 1;
                            out.push(CtaOutput::ToCpf {
                                cpf: replica,
                                msg: SysMsg::Replay(Replay { ue, messages }),
                            });
                        }
                        self.metrics.forwarded_uplink += 1;
                        out.push(CtaOutput::ToCpf {
                            cpf: replica,
                            msg: SysMsg::Control(env),
                        });
                        mutant!(self.config.mutant, ForwardBeforeReplay => {
                            // Swap the forward ahead of this UE's replay.
                            let n = out.len();
                            let replay = |o: &CtaOutput| matches!(o,
                                CtaOutput::ToCpf { msg: SysMsg::Replay(r), .. } if r.ue == ue);
                            if n >= 2 && replay(&out[n - 2]) {
                                out.swap(n - 2, n - 1);
                            }
                        }; ());
                    }
                    _ => {
                        // Scenario 3: nobody can be made consistent.
                        self.metrics.failover_re_attach += 1;
                        out.push(re_attach);
                    }
                }
            }
        }
    }
}

impl RoleCore for CtaCore {
    type Output = CtaOutput;

    fn addr(&self) -> NodeAddr {
        NodeAddr::Cta(self.config.id)
    }

    fn on_message(&mut self, msg: SysMsg, now: Instant) -> Vec<CtaOutput> {
        self.handle(msg, now)
    }

    /// Runs the ACK scan when it is due and re-arms it one interval on.
    fn on_deadline(&mut self, now: Instant) -> Vec<CtaOutput> {
        if self.scan_due.is_some_and(|due| due <= now) {
            self.scan_due = Some(now + SCAN_INTERVAL);
            return self.scan(now);
        }
        Vec::new()
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.scan_due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutrino_common::BsId;
    use neutrino_messages::{MessageKind, ProcedureKind};

    fn ring() -> RingStack {
        let l1: Vec<CpfId> = (0..5).map(CpfId::new).collect();
        let l2: Vec<CpfId> = (5..20).map(CpfId::new).collect();
        RingStack::new(&l1, &l2, 2)
    }

    fn cta() -> CtaCore {
        CtaCore::new(
            CtaConfig::neutrino(CtaId::new(0), CodecKind::FastbufOptimized),
            ring(),
        )
    }

    /// An existing-EPC CTA: no log, re-attach on failure, ASN.1.
    fn epc() -> CtaCore {
        let cfg = CtaConfig {
            logging: false,
            failover: FailoverPolicy::ReAttach,
            ..CtaConfig::neutrino(CtaId::new(0), CodecKind::Asn1Per)
        };
        CtaCore::new(cfg, ring())
    }

    fn ul(ue: u64, proc: u64, kind: MessageKind, eop: bool) -> Envelope {
        let e = Envelope::uplink(
            UeId::new(ue),
            ProcedureId::new(proc),
            ProcedureKind::ServiceRequest,
            kind.sample(ue),
        )
        .from_bs(BsId::new(1));
        if eop {
            e.ending_procedure()
        } else {
            e
        }
    }

    fn route_target(outs: &[CtaOutput]) -> CpfId {
        outs.iter()
            .find_map(|o| match o {
                CtaOutput::ToCpf {
                    cpf,
                    msg: SysMsg::Control(_),
                } => Some(*cpf),
                _ => None,
            })
            .expect("a control forward")
    }

    #[test]
    fn merge_sums_every_counter() {
        let m = CtaMetrics {
            forwarded_uplink: 1,
            forwarded_downlink: 2,
            failover_up_to_date: 3,
            failover_replayed: 4,
            failover_re_attach: 5,
            outdated_notices: 6,
            timeout_pruned: 7,
            resyncs_requested: 8,
            resyncs_replayed: 9,
            admitted_by_class: [10, 11, 12, 13],
            shed_by_class: [14, 15, 16, 17],
            rejects_sent: 18,
            acks_deferred: 19,
            breaker_opened: 20,
            breaker_suppressed: 21,
            unexpected_msgs: 22,
        };
        let mut sum = m;
        sum.merge(&m);
        let doubled = CtaMetrics {
            forwarded_uplink: 2,
            forwarded_downlink: 4,
            failover_up_to_date: 6,
            failover_replayed: 8,
            failover_re_attach: 10,
            outdated_notices: 12,
            timeout_pruned: 14,
            resyncs_requested: 16,
            resyncs_replayed: 18,
            admitted_by_class: [20, 22, 24, 26],
            shed_by_class: [28, 30, 32, 34],
            rejects_sent: 36,
            acks_deferred: 38,
            breaker_opened: 40,
            breaker_suppressed: 42,
            unexpected_msgs: 44,
        };
        assert_eq!(sum, doubled);
    }

    #[test]
    fn stamps_strictly_increasing_clocks() {
        let mut c = cta();
        let o1 = c.on_uplink(ul(1, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        let o2 = c.on_uplink(ul(1, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        let get_clock = |outs: &[CtaOutput]| match &outs[0] {
            CtaOutput::ToCpf {
                msg: SysMsg::Control(e),
                ..
            } => e.clock,
            other => panic!("unexpected {other:?}"),
        };
        assert!(get_clock(&o2) > get_clock(&o1));
    }

    #[test]
    fn routes_to_ring_primary_consistently() {
        let mut c = cta();
        let t1 =
            route_target(&c.on_uplink(ul(7, 1, MessageKind::ServiceRequest, false), Instant::ZERO));
        let t2 =
            route_target(&c.on_uplink(ul(7, 1, MessageKind::ServiceRequest, false), Instant::ZERO));
        assert_eq!(t1, t2);
        assert!(t1.raw() < 5, "primary must be a level-1 CPF");
    }

    #[test]
    fn logs_and_prunes_on_full_acks() {
        let mut c = cta();
        let ue = UeId::new(3);
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        c.on_uplink(
            ul(3, 1, MessageKind::InitialContextSetupResponse, true),
            Instant::ZERO,
        );
        assert!(c.log_bytes() > 0);
        let backups = c.backups_for(ue);
        assert_eq!(backups.len(), 2);
        for b in &backups {
            c.on_sync_ack(SyncAck {
                ue,
                replica: *b,
                procedure: ProcedureId::new(1),
                end_clock: ClockTick(2),
            });
        }
        assert_eq!(c.log_bytes(), 0, "fully acked procedure must be pruned");
        assert!(c.max_log_bytes() > 0);
    }

    #[test]
    fn a_backup_set_follows_the_ring_through_a_cpf_failure() {
        let mut c = cta();
        let ue = UeId::new(3);
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        let dead = c.backups_for(ue)[0];
        c.on_cpf_failure(dead);
        let mut shrunk = ring();
        shrunk.remove(dead);
        let backups = c.backups_for(ue);
        assert_eq!(backups, shrunk.backups(ue).collect::<Vec<_>>());
        assert!(!backups.contains(&dead));
        let mut expected = Vec::new();
        expected_acks(&mut c.log.ue_mut(ue), ue, &c.ring, &mut expected);
        assert_eq!(expected, backups, "the dead CPF's ACK is no longer awaited");
        // The shrunken set's ACKs are what converges the procedure.
        for replica in backups {
            let procedure = ProcedureId::new(1);
            let end_clock = ClockTick(1);
            c.on_sync_ack(SyncAck { ue, replica, procedure, end_clock });
        }
        assert_eq!(c.log_bytes(), 0);
    }

    #[test]
    fn log_forward_and_replay_share_one_unparsed_wire_image() {
        use neutrino_messages::Payload;
        let mut c = cta();
        let ue = UeId::new(3);
        // Procedure 1 completes and both backups ACK it, so a failover has
        // a synced backup to replay onto.
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        for replica in c.backups_for(ue) {
            let (procedure, end_clock) = (ProcedureId::new(1), ClockTick(1));
            c.on_sync_ack(SyncAck {
                ue,
                replica,
                procedure,
                end_clock,
            });
        }
        // Procedure 2's uplinks as the framing layer hands them over: header
        // fields plus the payload bytes it received. The second one arrives
        // through another BS.
        let steps = [
            (MessageKind::ServiceRequest, BsId::new(1)),
            (MessageKind::InitialContextSetupResponse, BsId::new(2)),
        ];
        let mut forwarded = Vec::new();
        let mut images = Vec::new();
        for (kind, bs) in steps {
            let mut bytes = Vec::new();
            kind.sample(3)
                .encode(CodecKind::FastbufOptimized.codec(), &mut bytes)
                .unwrap();
            let mut received = ul(3, 2, kind, false).from_bs(bs);
            received.msg = Payload::from_wire(kind, CodecKind::FastbufOptimized, &bytes);
            let outs = c.on_uplink(received, Instant::ZERO);
            let [CtaOutput::ToCpf {
                msg: SysMsg::Control(env),
                ..
            }] = &outs[..]
            else {
                panic!("unexpected {outs:?}");
            };
            forwarded.push(env.clone());
            images.push(bytes);
        }
        // Field for field what the CTA forwarded, on the same payload
        // allocation: the log rebuilds the envelope, it never copies one.
        let same = |rebuilt: &Envelope, sent: &Envelope| {
            let header = |e: &Envelope| {
                (
                    e.ue,
                    e.procedure,
                    e.proc_kind,
                    e.bs,
                    e.via_cta,
                    e.clock,
                    e.direction,
                    e.end_of_procedure,
                )
            };
            assert_eq!(header(rebuilt), header(sent));
            assert!(
                Payload::ptr_eq(&rebuilt.msg, &sent.msg),
                "a payload was copied"
            );
        };
        let replay = c
            .log()
            .ue(ue)
            .unwrap()
            .replay_set(ue, c.id(), ProcedureId::new(1));
        assert_eq!(replay.len(), 2);
        for ((rebuilt, sent), bytes) in replay.iter().zip(&forwarded).zip(&images) {
            same(rebuilt, sent);
            // Stamp, log, route and replay read the header only (§4.2.3).
            for env in [rebuilt, sent] {
                assert!(!env.msg.is_materialised(), "the CTA parsed a payload");
                assert_eq!(env.msg.wire(CodecKind::FastbufOptimized), Some(&bytes[..]));
            }
        }
        // The primary dies mid-procedure: the first uplink replays onto the
        // synced backup, and the last one is re-sent exactly as forwarded.
        let primary = c.primary_for(ue).unwrap();
        let outs = c.on_cpf_failure(primary);
        let [CtaOutput::ToCpf {
            cpf: to,
            msg: SysMsg::Replay(replayed),
        }, CtaOutput::ToCpf {
            cpf,
            msg: SysMsg::Control(resent),
        }] = &outs[..]
        else {
            panic!("unexpected {outs:?}");
        };
        assert_eq!(to, cpf);
        assert_eq!(replayed.messages.len(), 1);
        same(&replayed.messages[0], &forwarded[0]);
        same(resent, &forwarded[1]);
    }

    #[test]
    fn without_expected_acks_completion_leaves_nothing_to_time_out() {
        // Re-attach on failure is how a deployment without state
        // replication tells the CTA that no ACK will ever come.
        let mut c = epc();
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        let log = c.log().ue(UeId::new(3)).unwrap();
        assert_eq!(log.last_completed, ProcedureId::new(1));
        assert!(log.procedures().is_empty());
        assert_eq!(c.log().completed().count(), 0);
        assert!(c.scan(Instant::from_secs(31)).is_empty());
        assert_eq!(c.metrics().timeout_pruned, 0);
        assert_eq!(c.metrics().outdated_notices, 0);
    }

    #[test]
    fn failover_scenario1_routes_to_synced_backup_without_replay() {
        let mut c = cta();
        let ue = UeId::new(3);
        // Complete procedure 1, both backups ack.
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        let backups = c.backups_for(ue);
        for b in &backups {
            c.on_sync_ack(SyncAck {
                ue,
                replica: *b,
                procedure: ProcedureId::new(1),
                end_clock: ClockTick(1),
            });
        }
        let primary = c.primary_for(ue).unwrap();
        c.on_cpf_failure(primary);
        // Next message fails over with no replay.
        let outs = c.on_uplink(ul(3, 2, MessageKind::ServiceRequest, false), Instant::ZERO);
        assert!(backups.contains(&route_target(&outs)));
        assert!(
            !outs.iter().any(|o| matches!(
                o,
                CtaOutput::ToCpf {
                    msg: SysMsg::Replay(_),
                    ..
                }
            )),
            "scenario 1 must not replay"
        );
        assert_eq!(c.metrics().failover_up_to_date, 1);
    }

    #[test]
    fn a_page_and_an_uplink_promote_the_same_backup() {
        // Two backups synced through the same procedure tie; whichever
        // reaches the CTA first after the primary dies (a DDN or an
        // uplink), the UE ends up on the same successor.
        let ue = UeId::new(3);
        let crashed = || {
            let mut c = cta();
            c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
            for replica in c.backups_for(ue) {
                let (procedure, end_clock) = (ProcedureId::new(1), ClockTick(1));
                c.on_sync_ack(SyncAck { ue, replica, procedure, end_clock });
            }
            let primary = c.primary_for(ue).unwrap();
            c.on_cpf_failure(primary);
            c
        };
        let (mut paged, mut sent) = (crashed(), crashed());
        assert_eq!(paged.backups_for(ue).len(), 2);
        let outs = paged.on_ddn(ue, neutrino_common::UpfId::new(0));
        let [CtaOutput::ToCpf { cpf: by_page, msg: SysMsg::DdnRequest { .. } }] = &outs[..] else {
            panic!("unexpected {outs:?}");
        };
        let outs = sent.on_uplink(ul(3, 2, MessageKind::ServiceRequest, false), Instant::ZERO);
        assert_eq!(*by_page, route_target(&outs));
        assert_eq!(paged.primary_for(ue), sent.primary_for(ue));
    }

    #[test]
    fn failover_scenario2_replays_ongoing_procedure() {
        let mut c = cta();
        let ue = UeId::new(3);
        // Procedure 1 completes and is acked.
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        let backups = c.backups_for(ue);
        for b in &backups {
            c.on_sync_ack(SyncAck {
                ue,
                replica: *b,
                procedure: ProcedureId::new(1),
                end_clock: ClockTick(1),
            });
        }
        // Procedure 2 starts (two messages logged), then the primary dies.
        // The failure notice itself must recover the stuck UE: replay the
        // earlier message(s) and re-drive the unanswered last one.
        c.on_uplink(ul(3, 2, MessageKind::ServiceRequest, false), Instant::ZERO);
        c.on_uplink(
            ul(3, 2, MessageKind::InitialContextSetupResponse, false),
            Instant::ZERO,
        );
        let primary = c.primary_for(ue).unwrap();
        let outs = c.on_cpf_failure(primary);
        let replay = outs.iter().find_map(|o| match o {
            CtaOutput::ToCpf {
                cpf,
                msg: SysMsg::Replay(r),
            } => Some((*cpf, r.clone())),
            _ => None,
        });
        let (replica, replay) = replay.expect("scenario 2 must replay");
        assert_eq!(replay.messages.len(), 1, "only the earlier message replays");
        assert_eq!(replay.messages[0].procedure, ProcedureId::new(2));
        assert_eq!(
            route_target(&outs),
            replica,
            "the unanswered message is re-driven to the new primary"
        );
        assert_eq!(c.metrics().failover_replayed, 1);
        // The UE's next message routes to the promoted replica, no replay.
        let outs = c.on_uplink(ul(3, 2, MessageKind::AttachComplete, false), Instant::ZERO);
        assert_eq!(route_target(&outs), replica);
        assert!(!outs.iter().any(|o| matches!(
            o,
            CtaOutput::ToCpf {
                msg: SysMsg::Replay(_),
                ..
            }
        )));
    }

    #[test]
    fn failover_scenario3_asks_re_attach_when_nobody_synced() {
        let mut c = cta();
        let ue = UeId::new(3);
        // Procedure in flight, no acks ever.
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        let primary = c.primary_for(ue).unwrap();
        let outs = c.on_cpf_failure(primary);
        assert!(
            outs.iter().any(|o| matches!(
                o,
                CtaOutput::ToBs {
                    msg: SysMsg::AskReAttach { .. },
                    ..
                }
            )),
            "scenario 3 must re-attach, got {outs:?}"
        );
        assert_eq!(c.metrics().failover_re_attach, 1);
        let _ = ue;
    }

    #[test]
    fn epc_policy_always_re_attaches() {
        let mut c = epc();
        let ue = UeId::new(3);
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        let primary = c.primary_for(ue).unwrap();
        // EPC logs nothing, so the notice alone produces no outputs; the
        // next uplink triggers the re-attach.
        assert!(c.on_cpf_failure(primary).is_empty());
        let outs = c.on_uplink(ul(3, 2, MessageKind::ServiceRequest, false), Instant::ZERO);
        assert!(outs.iter().any(|o| matches!(
            o,
            CtaOutput::ToBs {
                msg: SysMsg::AskReAttach { .. },
                ..
            }
        )));
    }

    #[test]
    fn logging_disabled_keeps_log_empty() {
        let mut cfg = CtaConfig::neutrino(CtaId::new(0), CodecKind::FastbufOptimized);
        cfg.logging = false;
        let mut c = CtaCore::new(cfg, ring());
        for i in 0..50 {
            c.on_uplink(
                ul(3, i + 1, MessageKind::ServiceRequest, true),
                Instant::ZERO,
            );
        }
        assert_eq!(c.log_bytes(), 0);
        assert_eq!(c.max_log_bytes(), 0);
    }

    #[test]
    fn scan_times_out_unacked_procedures() {
        let mut c = cta();
        let ue = UeId::new(3);
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        let backups = c.backups_for(ue);
        // Only one of two backups acks.
        c.on_sync_ack(SyncAck {
            ue,
            replica: backups[0],
            procedure: ProcedureId::new(1),
            end_clock: ClockTick(1),
        });
        // Before the timeout: only a resync request to the primary, no
        // MarkOutdated yet, log intact.
        let early = c.scan(Instant::from_secs(10));
        assert!(early.iter().all(|o| matches!(
            o,
            CtaOutput::ToCpf {
                msg: SysMsg::ResyncRequest { .. },
                ..
            }
        )));
        assert!(c.log_bytes() > 0);
        // After the timeout: MarkOutdated to the laggard, log dropped.
        let outs = c.scan(Instant::from_secs(31));
        let notices: Vec<_> = outs
            .iter()
            .filter_map(|o| match o {
                CtaOutput::ToCpf {
                    cpf,
                    msg: SysMsg::MarkOutdated(m),
                } => Some((*cpf, m.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].0, backups[1]);
        assert!(notices[0].1.up_to_date.contains(&backups[0]));
        assert_eq!(c.log_bytes(), 0);
        assert_eq!(c.metrics().timeout_pruned, 1);
    }

    #[test]
    fn scan_requests_resync_with_exponential_backoff() {
        let mut c = cta();
        let ue = UeId::new(3);
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        let primary = c.primary_for(ue).unwrap();
        // Too early: the base backoff (4s) has not elapsed.
        assert!(c.scan(Instant::from_secs(2)).is_empty());
        // First request fires after the base delay, aimed at the primary.
        let outs = c.scan(Instant::from_secs(5));
        assert!(
            outs.iter().any(|o| matches!(
                o,
                CtaOutput::ToCpf { cpf, msg: SysMsg::ResyncRequest { ue: u, .. } }
                    if *cpf == primary && *u == ue
            )),
            "expected a resync request: {outs:?}"
        );
        // Backoff doubled to 8s from completion: quiet at 6s, fires by 9s.
        assert!(c.scan(Instant::from_secs(6)).is_empty());
        assert!(!c.scan(Instant::from_secs(9)).is_empty());
        assert_eq!(c.metrics().resyncs_requested, 2);
        // Once every expected replica ACKs, the chase stops.
        for b in c.backups_for(ue) {
            c.on_sync_ack(SyncAck {
                ue,
                replica: b,
                procedure: ProcedureId::new(1),
                end_clock: ClockTick(1),
            });
        }
        assert!(c.scan(Instant::from_secs(20)).is_empty());
        assert_eq!(c.log_bytes(), 0);
    }

    /// A completed procedure nobody has ACKed, delivered through the contract.
    fn unacked_procedure(c: &mut CtaCore) {
        let msg = SysMsg::Control(ul(3, 1, MessageKind::ServiceRequest, true));
        c.on_message(msg, Instant::ZERO);
    }

    fn ack(replica: CpfId) -> SysMsg {
        SysMsg::SyncAck(SyncAck {
            ue: UeId::new(3),
            replica,
            procedure: ProcedureId::new(1),
            end_clock: ClockTick(1),
        })
    }

    #[test]
    fn deadline_is_armed_by_the_first_message_and_only_by_it() {
        let mut c = cta();
        assert_eq!(c.next_deadline(), None);
        let first = Instant::from_secs(2);
        c.on_message(SysMsg::CpfFailure { cpf: CpfId::new(19) }, first);
        assert_eq!(c.next_deadline(), Some(first + SCAN_INTERVAL));
        c.on_message(ack(CpfId::new(1)), Instant::from_secs(3));
        assert_eq!(c.next_deadline(), Some(first + SCAN_INTERVAL));
    }

    #[test]
    fn on_deadline_before_it_is_due_does_nothing() {
        let mut c = cta();
        unacked_procedure(&mut c);
        let before = (c.log_bytes(), c.metrics());
        // Past the 4 s resync base: a scan here would already chase.
        assert!(c.on_deadline(Instant::from_millis(4_900)).is_empty());
        assert_eq!((c.log_bytes(), c.metrics()), before);
        assert_eq!(c.next_deadline(), Some(Instant::ZERO + SCAN_INTERVAL));
    }

    #[test]
    fn on_deadline_when_due_is_the_scan_and_re_arms() {
        let (mut by_contract, mut by_hand) = (cta(), cta());
        unacked_procedure(&mut by_contract);
        unacked_procedure(&mut by_hand);
        let due = Instant::ZERO + SCAN_INTERVAL;
        let outs = by_contract.on_deadline(due);
        assert!(!outs.is_empty());
        assert_eq!(outs, by_hand.scan(due));
        assert_eq!(by_contract.metrics(), by_hand.metrics());
        assert_eq!(by_contract.next_deadline(), Some(due + SCAN_INTERVAL));
    }

    #[test]
    fn a_lost_sync_ack_is_chased_through_the_contract_alone() {
        let mut c = cta();
        let ue = UeId::new(3);
        unacked_procedure(&mut c);
        let backups = c.backups_for(ue);
        let primary = c.primary_for(ue).unwrap();
        // One replica's ACK arrives; the other's is lost.
        c.on_message(ack(backups[0]), Instant::from_millis(1));
        // A driver that knows nothing but the deadline:
        let due = c.next_deadline().expect("armed by traffic");
        assert_eq!(
            c.on_deadline(due),
            vec![CtaOutput::ToCpf {
                cpf: primary,
                msg: SysMsg::ResyncRequest {
                    ue,
                    procedure: ProcedureId::new(1),
                    cta: CtaId::new(0),
                },
            }]
        );
        // The re-sent checkpoint's ACK ends the chase.
        c.on_message(ack(backups[1]), due);
        let next = c.next_deadline().expect("re-armed");
        assert!(c.on_deadline(next).is_empty());
        assert_eq!(c.log_bytes(), 0);
    }

    #[test]
    fn resync_behind_primary_gets_a_log_replay() {
        let mut c = cta();
        let ue = UeId::new(3);
        // Procedure 1 completes at the CTA, but the primary missed its
        // final message (lost in transit): its copy never reached v1, so
        // the resync chase's re-checkpoint request cannot be answered.
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        c.on_uplink(
            ul(3, 1, MessageKind::InitialContextSetupResponse, true),
            Instant::ZERO,
        );
        let primary = c.primary_for(ue).unwrap();
        let outs = c.on_resync_behind(ue, ProcedureId::new(0), primary);
        let replay = outs
            .iter()
            .find_map(|o| match o {
                CtaOutput::ToCpf {
                    cpf,
                    msg: SysMsg::Replay(r),
                } => Some((*cpf, r.clone())),
                _ => None,
            })
            .expect("behind primary must get a replay");
        assert_eq!(replay.0, primary);
        assert_eq!(replay.1.messages.len(), 2, "both logged messages replay");
        assert_eq!(c.metrics().resyncs_replayed, 1);
        // A report from a CPF that is no longer the UE's primary is stale:
        // replaying to it would fork the serving copy.
        assert!(c.on_resync_behind(ue, ProcedureId::new(0), CpfId::new(99)).is_empty());
    }

    #[test]
    fn straggler_from_completed_procedure_does_not_mark_ue_in_flight() {
        let mut c = cta();
        let ue = UeId::new(3);
        // Procedure 1 completes, then a reordered non-final message of the
        // same procedure arrives late.
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        assert_eq!(
            c.log().ue(ue).unwrap().in_flight,
            None,
            "a straggler from a finished procedure must not re-open it"
        );
        // A genuinely new procedure still marks the UE in flight, and a
        // late end-of-procedure straggler from procedure 1 must not clear
        // the newer procedure's marker.
        c.on_uplink(ul(3, 2, MessageKind::ServiceRequest, false), Instant::ZERO);
        assert_eq!(c.log().ue(ue).unwrap().in_flight, Some(ProcedureId::new(2)));
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        assert_eq!(c.log().ue(ue).unwrap().in_flight, Some(ProcedureId::new(2)));
    }

    #[test]
    fn new_procedure_with_missing_acks_notifies_laggards() {
        let mut c = cta();
        let ue = UeId::new(3);
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        let backups = c.backups_for(ue);
        c.on_sync_ack(SyncAck {
            ue,
            replica: backups[0],
            procedure: ProcedureId::new(1),
            end_clock: ClockTick(1),
        });
        // Second procedure starts while backup[1] never acked (§4.2.4(4)).
        let outs = c.on_uplink(ul(3, 2, MessageKind::ServiceRequest, false), Instant::ZERO);
        assert!(
            outs.iter().any(|o| matches!(
                o,
                CtaOutput::ToCpf { cpf, msg: SysMsg::MarkOutdated(_) } if *cpf == backups[1]
            )),
            "laggard must be notified: {outs:?}"
        );
    }

    fn cta_with_admission(params: AdmissionParams) -> CtaCore {
        let mut cfg = CtaConfig::neutrino(CtaId::new(0), CodecKind::FastbufOptimized);
        cfg.admission = Some(params);
        CtaCore::new(cfg, ring())
    }

    fn tight_params() -> AdmissionParams {
        // Service-request reserve is burst/8 (0.5 tokens): with 4 tokens of
        // burst, exactly 3 service-request starts admit before shedding.
        AdmissionParams { rate_pps: 10, burst: 4, queue_cap: 16, retry_after_base_ms: 20 }
    }

    #[test]
    fn admission_sheds_with_reject_and_leaves_no_log_trace() {
        let mut c = cta_with_admission(tight_params());
        for ue in 0..3u64 {
            let outs = c.on_uplink(ul(ue, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
            assert!(matches!(outs[0], CtaOutput::ToCpf { .. }), "{outs:?}");
        }
        let bytes_before = c.log_bytes();
        let outs = c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        assert!(
            matches!(
                outs.as_slice(),
                [CtaOutput::ToBs {
                    msg: SysMsg::Reject { ue, class: AdmissionClass::ServiceRequest, .. },
                }] if *ue == UeId::new(3)
            ),
            "fourth start must shed explicitly: {outs:?}"
        );
        assert_eq!(c.log_bytes(), bytes_before, "a shed uplink must leave no log trace");
        assert_eq!(c.metrics().rejects_sent, 1);
        assert_eq!(c.metrics().shed_by_class[AdmissionClass::ServiceRequest.raw() as usize], 1);
        assert_eq!(c.metrics().admitted_by_class[AdmissionClass::ServiceRequest.raw() as usize], 3);
    }

    #[test]
    fn admission_passes_mid_procedure_messages_of_admitted_work() {
        let mut c = cta_with_admission(tight_params());
        // Admit UE 0's procedure, then drain the remaining budget.
        c.on_uplink(ul(0, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        c.on_uplink(ul(1, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        c.on_uplink(ul(2, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        // Budget exhausted — but UE 0's later step and its retransmitted
        // start both pass.
        let outs = c.on_uplink(
            ul(0, 1, MessageKind::InitialContextSetupResponse, true),
            Instant::ZERO,
        );
        assert!(matches!(outs.last(), Some(CtaOutput::ToCpf { .. })), "{outs:?}");
        let outs = c.on_uplink(ul(0, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        assert!(
            matches!(outs.last(), Some(CtaOutput::ToCpf { .. })),
            "retransmit of an admitted start must pass: {outs:?}"
        );
        assert_eq!(c.metrics().rejects_sent, 0);
    }

    #[test]
    fn the_admission_charge_is_recorded_only_on_admit_and_paid_once() {
        let mut c = cta_with_admission(tight_params());
        // UE 0's procedure is admitted and completes: its record holds the
        // charge.
        c.on_uplink(ul(0, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        assert_eq!(
            c.log().ue(UeId::new(0)).unwrap().charged,
            ProcedureId::new(1)
        );
        // Two more starts leave one token: too few for a service request
        // (its reserve is half a token), so UE 3's start is shed, and it
        // leaves no record behind.
        c.on_uplink(ul(1, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        c.on_uplink(ul(2, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        let outs = c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        assert!(matches!(
            outs[..],
            [CtaOutput::ToBs {
                msg: SysMsg::Reject { .. },
                ..
            }]
        ));
        assert!(
            c.log().ue(UeId::new(3)).is_none(),
            "a shed start left a record"
        );
        // UE 0's start, retransmitted after its procedure completed, passes
        // for free: the last token is still there for a handover, whose
        // class keeps no reserve.
        let outs = c.on_uplink(ul(0, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        assert!(matches!(outs[..], [CtaOutput::ToCpf { .. }]), "{outs:?}");
        let kind = ProcedureKind::FastHandover;
        let start = kind.template().steps[0].kind;
        let handover = Envelope::uplink(UeId::new(4), ProcedureId::new(1), kind, start.sample(4))
            .from_bs(BsId::new(1));
        let outs = c.on_uplink(handover, Instant::ZERO);
        assert!(matches!(outs[..], [CtaOutput::ToCpf { .. }]), "{outs:?}");
        assert_eq!(c.metrics().rejects_sent, 1);
    }

    #[test]
    fn scan_defers_under_pressure_and_resumes_after_drain() {
        let mut c = cta_with_admission(tight_params());
        c.on_uplink(ul(3, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        // Drain the bucket below the detach reserve.
        c.on_uplink(ul(4, 1, MessageKind::ServiceRequest, false), Instant::ZERO);
        // 50ms later only half a token has refilled — still under pressure.
        assert!(c.scan(Instant::from_millis(50)).is_empty(), "scan must defer under pressure");
        assert_eq!(c.metrics().acks_deferred, 1);
        assert!(c.log_bytes() > 0, "deferred sweep must not prune the log");
        // After refill the sweep resumes and chases the missing ACKs.
        let outs = c.scan(Instant::from_secs(10));
        assert!(
            outs.iter().any(|o| matches!(
                o,
                CtaOutput::ToCpf { msg: SysMsg::ResyncRequest { .. }, .. }
            )),
            "sweep must resume after the storm drains: {outs:?}"
        );
    }

    #[test]
    fn resync_breaker_opens_after_repeated_chases_and_resets_on_ack() {
        let mut params = tight_params();
        // Plenty of budget so pressure never defers the scan itself.
        params.rate_pps = 100_000;
        params.burst = 100_000;
        let mut c = cta_with_admission(params);
        // Find two UEs sharing a primary; the lower id trips the breaker
        // and the higher id's chase is then suppressed in the same scan.
        let mut by_primary: std::collections::BTreeMap<CpfId, Vec<u64>> = Default::default();
        for ue in 0..50u64 {
            let p = c.primary_for(UeId::new(ue)).unwrap();
            by_primary.entry(p).or_default().push(ue);
        }
        let (primary, ues) =
            by_primary.into_iter().find(|(_, v)| v.len() >= 2).expect("shared primary");
        let (ua, ub) = (ues[0], ues[1]);
        // ua completes at t=0: chases due at 4s, 8s, 16s (trip on the 3rd).
        c.on_uplink(ul(ua, 1, MessageKind::ServiceRequest, true), Instant::ZERO);
        assert!(!c.scan(Instant::from_secs(5)).is_empty());
        assert!(!c.scan(Instant::from_secs(9)).is_empty());
        // ub completes at t=13: its first chase is due at 17s — the same
        // scan in which ua's third chase trips the breaker.
        c.on_uplink(ul(ub, 1, MessageKind::ServiceRequest, true), Instant::from_secs(13));
        let outs = c.scan(Instant::from_secs(17));
        let chased: Vec<UeId> = outs
            .iter()
            .filter_map(|o| match o {
                CtaOutput::ToCpf { msg: SysMsg::ResyncRequest { ue, .. }, .. } => Some(*ue),
                _ => None,
            })
            .collect();
        assert_eq!(chased, vec![UeId::new(ua)], "ub's chase must be suppressed: {outs:?}");
        assert_eq!(c.metrics().breaker_opened, 1);
        assert_eq!(c.metrics().breaker_suppressed, 1);
        // A sync ACK through the shared primary closes the breaker.
        let replica = c.backups_for(UeId::new(ua))[0];
        c.on_sync_ack(SyncAck {
            ue: UeId::new(ua),
            replica,
            procedure: ProcedureId::new(1),
            end_clock: ClockTick(1),
        });
        // Closed, with its count back at zero: the next chases pass, and
        // only the third of them trips it again.
        let gate = c.admission.as_mut().unwrap();
        let at = Instant::from_secs(18);
        let chases: Vec<Chase> = (0..3).map(|_| gate.chase(primary, at)).collect();
        assert_eq!(chases, [Chase::Sent, Chase::Sent, Chase::Tripped]);
    }

    #[test]
    fn downlink_routes_to_bs_and_completes_procedures() {
        let mut c = cta();
        let env = Envelope::downlink(
            UeId::new(4),
            ProcedureId::new(1),
            ProcedureKind::TrackingAreaUpdate,
            MessageKind::TauAccept.sample(4),
        )
        .from_bs(BsId::new(9))
        .ending_procedure();
        let outs = c.on_downlink(env, Instant::ZERO);
        assert!(matches!(
            &outs[0],
            CtaOutput::ToBs { msg: SysMsg::Control(e) }
                if e.bs == BsId::new(9) && e.clock > ClockTick::ZERO
        ));
        assert_eq!(c.metrics().forwarded_downlink, 1);
    }

    #[test]
    fn misrouted_sysmsg_is_counted_not_swallowed() {
        let mut c = cta();
        // The flow contract says a CTA never receives MigrationAck (it is a
        // CPF→CPF message) — it must land in the counter, not vanish.
        let outs = c.handle(SysMsg::MigrationAck { ue: UeId::new(7) }, Instant::ZERO);
        assert!(outs.is_empty());
        assert_eq!(c.metrics().unexpected_msgs, 1);
    }
}
