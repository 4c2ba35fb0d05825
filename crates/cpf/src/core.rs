//! The CPF state machine: generic procedure execution over the templates of
//! `neutrino-messages`, per-procedure (or per-message) state replication,
//! replica duties, and failure recovery.

use crate::store::{Freshness, StateStore, UeRecord};
use neutrino_common::clock::ClockTick;
use neutrino_common::uemap::Entry;
use neutrino_common::{mutant, CpfId, CtaId, ProcedureId, Result, UeId, UeMap, UpfId};
use neutrino_geo::RingStack;
use neutrino_common::time::Instant;
use neutrino_messages::control::{ControlMessage, Direction, Envelope, MessageKind};
use neutrino_messages::flow::{Effect, NodeAddr, RoleCore};
use neutrino_messages::ies::Tai;
use neutrino_messages::procedures::{ProcedureKind, Step};
use neutrino_messages::state::{BearerContext, UeState};
use neutrino_messages::sysmsg::{
    MarkOutdated, Replay, S11Request, S11Response, SessionOp, StateSync, SyncAck, SyncPurpose,
    SysMsg,
};
use neutrino_messages::{Payload, Snapshot, Wire};

/// When UE state is checkpointed to backups (§4.2.2, ablated in Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// No replication (existing EPC, DPCM, Fig. 15's "No Rep").
    None,
    /// After every control message (SkyCore, Fig. 15's "Per Msg Rep").
    PerMessage,
    /// After every completed procedure (Neutrino, Fig. 15's "Per Proc Rep").
    PerProcedure,
}

/// CPF configuration.
#[derive(Debug, Clone)]
pub struct CpfConfig {
    /// This CPF's id.
    pub id: CpfId,
    /// Replication mode.
    pub replication: ReplicationMode,
    /// The two-level ring stack for choosing backup replicas (Neutrino). In
    /// `PerMessage` mode with no rings, `peers` is broadcast to instead.
    pub ring: Option<RingStack>,
    /// Pool peers: SkyCore's broadcast set, their only use.
    pub peers: Vec<CpfId>,
    /// CPFs of sibling regions: where a handover-with-CPF-change migrates
    /// state when no ring is configured (edge deployments hand over across
    /// regions by definition).
    pub remote_peers: Vec<CpfId>,
    /// The UPFs this CPF may place sessions on.
    pub upfs: Vec<UpfId>,
    /// Refuse to serve a UE whose state is missing or marked outdated, by
    /// asking it to re-attach (§4.2.4 step 3). Neutrino: true. SkyCore
    /// serves whatever state it has: false (missing state still re-attaches;
    /// there is nothing to serve from).
    pub enforce_consistency: bool,
    /// The CTA fronting this CPF's region (unsolicited downlink routing,
    /// e.g. paging).
    pub home_cta: CtaId,
    /// DPCM \[37\]: device-provided state lets the CPF answer immediately and
    /// run the UPF session operation in parallel instead of blocking the
    /// response on it.
    pub parallel_upf: bool,
    /// The protocol mutant this run plants (`test-support` only).
    #[cfg(feature = "test-support")]
    pub mutant: Option<neutrino_common::Mutant>,
}

impl CpfConfig {
    /// Neutrino CPF: per-procedure replication onto the level-2 ring,
    /// consistency enforced.
    pub fn neutrino(id: CpfId, ring: RingStack, upfs: Vec<UpfId>) -> Self {
        CpfConfig {
            id,
            replication: ReplicationMode::PerProcedure,
            ring: Some(ring),
            peers: Vec::new(),
            remote_peers: Vec::new(),
            upfs,
            home_cta: CtaId::new(0),
            enforce_consistency: true,
            parallel_upf: false,
            #[cfg(feature = "test-support")]
            mutant: None,
        }
    }
}

/// An action the CPF asks its driver to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum CpfOutput {
    /// Send to the CTA (downlink envelopes, sync ACKs, re-attach relays).
    ToCta {
        /// Destination CTA.
        cta: CtaId,
        /// Payload.
        msg: SysMsg,
    },
    /// Send to a peer CPF (state syncs, migrations, fetches).
    ToCpf {
        /// Destination CPF.
        cpf: CpfId,
        /// Payload.
        msg: SysMsg,
    },
    /// Send to a UPF (S11 session operations).
    ToUpf {
        /// Destination UPF.
        upf: UpfId,
        /// Payload.
        msg: SysMsg,
    },
}

impl From<CpfOutput> for Effect {
    fn from(out: CpfOutput) -> Effect {
        match out {
            CpfOutput::ToCta { cta, msg } => Effect::Send(NodeAddr::Cta(cta), msg),
            CpfOutput::ToCpf { cpf, msg } => Effect::Send(NodeAddr::Cpf(cpf), msg),
            CpfOutput::ToUpf { upf, msg } => Effect::Send(NodeAddr::Upf(upf), msg),
        }
    }
}

/// Counters for tests and experiment output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpfMetrics {
    /// Control messages processed (live, not replayed).
    pub processed: u64,
    /// Messages applied during log replays.
    pub replayed: u64,
    /// Procedures completed.
    pub completed: u64,
    /// State checkpoints sent.
    pub syncs_sent: u64,
    /// State checkpoints/migrations applied as replica.
    pub syncs_applied: u64,
    /// Checkpoints ignored because the UE was marked outdated.
    pub syncs_ignored: u64,
    /// Re-attach requests issued (stale-state guard).
    pub re_attach_asked: u64,
    /// Handover state migrations performed (as source).
    pub migrations: u64,
    /// Paging messages sent (downlink-data notifications served).
    pub pages_sent: u64,
    /// Paging requests dropped for lack of consistent UE state — the §3.1
    /// reachability disruption.
    pub pages_failed: u64,
    /// Checkpoints re-sent after a CTA resync request (lost sync or ACK).
    pub resyncs_answered: u64,
    /// Duplicate uplinks that triggered a lost-downlink recovery (re-sent
    /// the pending S11 / migration sync / downlink steps).
    pub dup_uplink_nudges: u64,
    /// Control messages whose payload bytes did not parse. A forwarder
    /// routes on the envelope header without reading the payload, so the
    /// CPF is the first node that can tell; such a message is dropped here
    /// with no output and no state change.
    pub malformed_payloads: u64,
    /// Reads of a stored state snapshot whose wire image did not parse. A
    /// replica stores a checkpoint's bytes unread, so the first read — when
    /// it takes the UE over — is the first chance to tell; the record then
    /// counts as missing state (the UE is asked to re-attach).
    pub malformed_snapshots: u64,
    /// `SysMsg` variants delivered to this CPF that the flow contract says
    /// it never receives (misrouted traffic — counted, never silently
    /// swallowed; any checked case with a non-zero count fails with a
    /// `flow-contract` violation).
    pub unexpected_msgs: u64,
}

impl CpfMetrics {
    /// Adds `other`'s counters to these. The pattern names every field, so
    /// a counter added to the struct does not compile until it is summed.
    pub fn merge(&mut self, other: &CpfMetrics) {
        let CpfMetrics {
            processed,
            replayed,
            completed,
            syncs_sent,
            syncs_applied,
            syncs_ignored,
            re_attach_asked,
            migrations,
            pages_sent,
            pages_failed,
            resyncs_answered,
            dup_uplink_nudges,
            malformed_payloads,
            malformed_snapshots,
            unexpected_msgs,
        } = *other;
        self.processed += processed;
        self.replayed += replayed;
        self.completed += completed;
        self.syncs_sent += syncs_sent;
        self.syncs_applied += syncs_applied;
        self.syncs_ignored += syncs_ignored;
        self.re_attach_asked += re_attach_asked;
        self.migrations += migrations;
        self.pages_sent += pages_sent;
        self.pages_failed += pages_failed;
        self.resyncs_answered += resyncs_answered;
        self.dup_uplink_nudges += dup_uplink_nudges;
        self.malformed_payloads += malformed_payloads;
        self.malformed_snapshots += malformed_snapshots;
        self.unexpected_msgs += unexpected_msgs;
    }
}

/// What the CPF is waiting on before continuing a procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    Upf,
    Migration,
}

/// Per-UE procedure progress.
#[derive(Debug, Clone)]
struct Progress {
    procedure: ProcedureId,
    kind: ProcedureKind,
    /// Index of the next template step not yet executed.
    next_step: usize,
    last_ul_clock: ClockTick,
    cta: CtaId,
    waiting: Option<Waiting>,
}

/// A procedure ran off the end of its template.
struct Finished {
    /// It was a detach: the UE's record goes with it.
    detached: bool,
}

/// The Control Plane Function state machine.
pub struct CpfCore {
    config: CpfConfig,
    store: StateStore,
    /// Procedures in flight. A UE with progress always has a store record:
    /// progress starts only past the stale-state guard, and the record
    /// leaves (detach) together with it.
    progress: UeMap<Progress>,
    metrics: CpfMetrics,
}

impl CpfConfig {
    /// The backups this CPF checkpoints a UE's state to: the ring's, else
    /// (per-message broadcast) the pool's, never itself.
    fn backups_for(&self, ue: UeId) -> impl Iterator<Item = CpfId> + '_ {
        let broadcast: &[CpfId] = match (&self.ring, self.replication) {
            (None, ReplicationMode::PerMessage) => &self.peers,
            _ => &[],
        };
        let ring = self.ring.iter().flat_map(move |ring| ring.backups(ue));
        ring.chain(broadcast.iter().copied())
            .filter(|b| *b != self.id)
    }

    /// The migration target for a handover with CPF change: the first
    /// level-2 backup (where a proactive replica would live), else a
    /// sibling-region CPF.
    fn migration_target(&self, ue: UeId) -> Option<CpfId> {
        self.backups_for(ue).next().or_else(|| {
            self.remote_peers
                .get(ue.raw() as usize % self.remote_peers.len().max(1))
                .copied()
        })
    }

    fn upf_for(&self, ue: UeId) -> UpfId {
        let n = self.upfs.len().max(1);
        *self
            .upfs
            .get(ue.raw() as usize % n)
            .unwrap_or(&UpfId::new(0))
    }
}

/// Reads a stored snapshot. A wire image that does not parse is counted and
/// reads as missing state: this CPF is the first node that can tell.
fn read<'a>(state: &'a Snapshot, metrics: &mut CpfMetrics) -> Option<&'a UeState> {
    state
        .get()
        .map_err(|_| metrics.malformed_snapshots += 1)
        .ok()
}

/// [`read`] for the write path (copy-on-write, see [`Snapshot::make_mut`]).
fn write<'a>(state: &'a mut Snapshot, metrics: &mut CpfMetrics) -> Option<&'a mut UeState> {
    state
        .make_mut()
        .map_err(|_| metrics.malformed_snapshots += 1)
        .ok()
}

/// Sends `state` to every backup. The syncs share the store's own
/// allocation: nothing is copied until the primary next mutates the state,
/// and whoever frames them encodes it once.
fn checkpoint(
    config: &CpfConfig,
    metrics: &mut CpfMetrics,
    state: &Snapshot,
    procedure: ProcedureId,
    end_clock: ClockTick,
    cta: CtaId,
    out: &mut Vec<CpfOutput>,
) {
    for backup in config.backups_for(state.ue()) {
        metrics.syncs_sent += 1;
        out.push(CpfOutput::ToCpf {
            cpf: backup,
            msg: SysMsg::StateSync(StateSync {
                ue: state.ue(),
                primary: config.id,
                cta,
                state: state.clone(),
                procedure,
                end_clock,
                purpose: SyncPurpose::Checkpoint,
            }),
        });
    }
}

/// Everything one message may touch for its UE, borrowed once: the store
/// record and the progress entry (one map lookup each), the counters, and
/// the one output list every step pushes into.
struct Run<'a> {
    config: &'a CpfConfig,
    metrics: &'a mut CpfMetrics,
    rec: &'a mut UeRecord,
    progress: &'a mut Progress,
    out: &'a mut Vec<CpfOutput>,
}

impl Run<'_> {
    /// Asks the serving UPF for a session operation.
    fn s11(&mut self, op: SessionOp) {
        let Some(state) = read(&self.rec.state, self.metrics) else {
            return;
        };
        self.out.push(CpfOutput::ToUpf {
            upf: state.serving_upf,
            msg: SysMsg::S11(S11Request {
                ue: state.ue,
                cpf: self.config.id,
                op,
                session: state.session,
            }),
        });
    }

    /// Sends the handover state migration to `target`.
    fn migration_sync(&mut self, target: CpfId) {
        self.out.push(CpfOutput::ToCpf {
            cpf: target,
            msg: SysMsg::StateSync(StateSync {
                ue: self.rec.state.ue(),
                primary: self.config.id,
                cta: self.progress.cta,
                state: self.rec.state.clone(),
                procedure: self.progress.procedure,
                end_clock: self.progress.last_ul_clock,
                purpose: SyncPurpose::Migration,
            }),
        });
    }

    /// Builds the downlink message of template step `idx` and queues it.
    fn downlink(&mut self, idx: usize) {
        let progress = &*self.progress;
        let steps = &progress.kind.template().steps;
        debug_assert_eq!(steps[idx].direction, Direction::Downlink);
        let ue = self.rec.state.ue();
        let mut env = Envelope::downlink(
            ue,
            progress.procedure,
            progress.kind,
            build_downlink(steps[idx].kind, ue),
        );
        env.via_cta = Some(progress.cta);
        if idx + 1 == steps.len() {
            env = env.ending_procedure();
        }
        self.out.push(CpfOutput::ToCta {
            cta: progress.cta,
            msg: SysMsg::Control(env),
        });
    }

    /// Emits pending downlink steps until the procedure waits or finishes.
    /// `resumed` names the pause the step at the cursor just came back
    /// from: its migration is done, and after a UPF answer so is its S11.
    fn drive(&mut self, replaying: bool, mut resumed: Option<Waiting>) -> Option<Finished> {
        loop {
            if self.progress.waiting.is_some() {
                return None;
            }
            let steps = &self.progress.kind.template().steps;
            let cursor = self.progress.next_step;
            if cursor >= steps.len() {
                return Some(self.complete());
            }
            let step = steps[cursor];
            if step.direction == Direction::Uplink {
                // Waiting for the UE/BS's next message.
                return None;
            }
            // A downlink step. Migration first (handover with CPF change),
            // then the UPF interaction, then the message itself.
            if step.requires_state_migration && resumed.is_none() && !replaying {
                if let Some(target) = self.config.migration_target(self.rec.state.ue()) {
                    self.progress.waiting = Some(Waiting::Migration);
                    self.metrics.migrations += 1;
                    self.migration_sync(target);
                    return None;
                }
                // Nowhere to migrate (single-CPF deployments): continue.
            }
            if step.upf_interaction && resumed != Some(Waiting::Upf) && !replaying {
                self.s11(session_op(self.progress.kind));
                if !self.config.parallel_upf {
                    self.progress.waiting = Some(Waiting::Upf);
                    return None;
                }
                // DPCM: fall through and emit the downlink immediately.
            }
            if !replaying {
                self.downlink(cursor);
            }
            self.progress.next_step += 1;
            resumed = None;
        }
    }

    /// Finishes a procedure: bump the state version and checkpoint (§4.2.2).
    fn complete(&mut self) -> Finished {
        self.metrics.completed += 1;
        let progress = &*self.progress;
        // A record overwritten mid-procedure by an image that does not
        // parse has nothing to commit or checkpoint: the procedure ends and
        // the UE's next message meets the stale-state guard.
        let Some(state) = read(&self.rec.state, self.metrics) else {
            return Finished { detached: false };
        };
        if !state.attached && progress.kind == ProcedureKind::Detach {
            return Finished { detached: true };
        }
        if let Some(state) = write(&mut self.rec.state, self.metrics) {
            state.commit(progress.procedure, progress.last_ul_clock);
        }
        if self.config.replication == ReplicationMode::PerProcedure {
            checkpoint(
                self.config,
                self.metrics,
                &self.rec.state,
                progress.procedure,
                progress.last_ul_clock,
                progress.cta,
                self.out,
            );
        }
        Finished { detached: false }
    }

    /// Lost-downlink recovery: the UE retransmitted an uplink we already
    /// consumed (template step `matched_step` of its current procedure).
    /// Re-issue whatever followed it — the in-flight S11, the in-flight
    /// migration sync, or the downlink steps up to the cursor — rebuilt
    /// deterministically, with no state mutation and no cursor movement.
    fn nudge(&mut self, matched_step: usize) {
        let kind = self.progress.kind;
        let steps = &kind.template().steps;
        match self.progress.waiting {
            // Re-send the pending S11; session operations are idempotent at
            // the UPF.
            Some(Waiting::Upf) => self.s11(session_op(kind)),
            // Re-send the migration sync; adoption is version-gated at the
            // target, so a duplicate is harmless and its ACK unblocks the
            // handover.
            Some(Waiting::Migration) => {
                if let Some(target) = self.config.migration_target(self.rec.state.ue()) {
                    self.migration_sync(target);
                }
            }
            // The downlink(s) between the matched step and the cursor were
            // lost in flight: rebuild and re-send them.
            None => {
                let lost = (matched_step + 1)..self.progress.next_step.min(steps.len());
                for idx in lost.filter(|&i| steps[i].direction == Direction::Downlink) {
                    self.downlink(idx);
                }
            }
        }
    }
}

impl CpfCore {
    /// Creates a CPF.
    pub fn new(config: CpfConfig) -> Self {
        #[cfg_attr(
            not(feature = "test-support"),
            expect(unused_mut, reason = "no mutant to plant")
        )]
        let mut store = StateStore::new();
        #[cfg(feature = "test-support")]
        {
            store.mutant = config.mutant;
        }
        CpfCore {
            config,
            store,
            progress: UeMap::new(),
            metrics: CpfMetrics::default(),
        }
    }

    /// This CPF's id.
    pub fn id(&self) -> CpfId {
        self.config.id
    }

    /// Counters.
    pub fn metrics(&self) -> CpfMetrics {
        self.metrics
    }

    /// Read access to the state store (tests, consistency checks).
    pub fn store(&self) -> &StateStore {
        &self.store
    }

    /// Handles any system message addressed to this CPF.
    pub fn handle(&mut self, msg: SysMsg) -> Vec<CpfOutput> {
        match msg {
            SysMsg::Control(env) => self.on_control(env),
            SysMsg::StateSync(sync) => self.on_state_sync(sync),
            SysMsg::MarkOutdated(m) => self.on_mark_outdated(m),
            SysMsg::Replay(r) => self.on_replay(r),
            SysMsg::FetchState { ue, requester } => self.on_fetch_state(ue, requester),
            SysMsg::FetchStateResp { ue, state } => self.on_fetch_resp(ue, state),
            SysMsg::S11Resp(resp) => self.on_s11_resp(resp),
            SysMsg::DdnRequest { ue, .. } => self.on_ddn(ue),
            SysMsg::MigrationAck { ue } => self.on_migration_ack(ue),
            SysMsg::ResyncRequest { ue, procedure, cta } => self.on_resync(ue, procedure, cta),
            SysMsg::CpfFailure { cpf } => self.on_peer_failure(cpf),
            // A misrouted SysMsg is counted, not dropped: a checked case fails on it.
            _ => {
                self.metrics.unexpected_msgs += 1;
                Vec::new()
            }
        }
    }

    /// Membership notice: a peer CPF crashed. Take it off this CPF's ring
    /// view so checkpoints target the ring's *live* successor set — without
    /// this, primaries keep syncing to the dead peer while the CTA (whose
    /// ring was updated) expects ACKs from the new backup, and the two views
    /// never reconcile.
    pub fn on_peer_failure(&mut self, cpf: CpfId) -> Vec<CpfOutput> {
        if let Some(ring) = &mut self.config.ring {
            ring.remove(cpf);
        }
        Vec::new()
    }

    /// Processes one live uplink control message.
    pub fn on_control(&mut self, env: Envelope) -> Vec<CpfOutput> {
        let mut out = Vec::new();
        self.process(env, false, &mut out);
        out
    }

    /// Replays logged messages to reconstruct state (§4.2.5 scenario 2).
    /// Side effects that already happened in the outside world (downlink
    /// responses, UPF operations) are suppressed; state mutations, progress
    /// tracking, and checkpointing are not.
    pub fn on_replay(&mut self, replay: Replay) -> Vec<CpfOutput> {
        let mut out = Vec::new();
        for env in replay.messages {
            self.process(env, true, &mut out);
        }
        out
    }

    /// Borrows everything a continuation of `ue`'s procedure needs.
    fn run<'a>(&'a mut self, ue: UeId, out: &'a mut Vec<CpfOutput>) -> Option<Run<'a>> {
        Some(Run {
            config: &self.config,
            metrics: &mut self.metrics,
            rec: self.store.get_mut(ue)?,
            progress: self.progress.get_mut(ue)?,
            out,
        })
    }

    /// Drops what a finished procedure leaves behind.
    fn retire(&mut self, ue: UeId, finished: Option<Finished>) {
        if let Some(Finished { detached }) = finished {
            self.progress.remove(ue);
            if detached {
                self.store.remove(ue);
            }
        }
    }

    fn process(&mut self, env: Envelope, replaying: bool, out: &mut Vec<CpfOutput>) {
        // The one place on the control path a wire body is parsed (§4.4);
        // done before anything is touched so that bytes corrupted upstream
        // leave no trace but the count. A built or sample body is read —
        // or built — only where `apply_message` needs a field.
        if env.msg.parse().is_err() {
            self.metrics.malformed_payloads += 1;
            return;
        }
        if replaying {
            self.metrics.replayed += 1;
        } else {
            self.metrics.processed += 1;
        }
        let ue = env.ue;
        let cta = env.via_cta.unwrap_or(CtaId::new(0));
        let template = env.proc_kind.template();
        let kind = env.msg.kind();

        let attach_start = matches!(
            env.proc_kind,
            ProcedureKind::InitialAttach | ProcedureKind::ReAttach
        ) && kind == template.steps[0].kind;

        let rec = if attach_start {
            // (Re-)attach creates fresh, consistent state (§4.2.1).
            let mut state =
                UeState::new(ue, env.bs, self.config.upf_for(ue), Tai::sample(ue.raw()));
            state.connected = true;
            self.store.put(Snapshot::from(state))
        } else {
            // Stale-state guard (§4.2.4 step 3): a CPF with no state — or,
            // when consistency is enforced, outdated state — must not serve.
            // A replica reads the image it stored for the first time here,
            // so state that does not parse is no state either.
            match self.store.get_mut(ue) {
                Some(rec)
                    if (!self.config.enforce_consistency
                        || mutant!(self.config.mutant, ServeOutdated => true;
                            rec.freshness == Freshness::UpToDate))
                        && read(&rec.state, &mut self.metrics).is_some() =>
                {
                    rec
                }
                _ => {
                    if !replaying {
                        self.metrics.re_attach_asked += 1;
                        out.push(CpfOutput::ToCta {
                            cta,
                            msg: SysMsg::RelayReAttach { ue, bs: env.bs },
                        });
                    }
                    return;
                }
            }
        };

        // Track progress; an attach start or a different procedure id
        // restarts tracking.
        let fresh = Progress {
            procedure: env.procedure,
            kind: env.proc_kind,
            next_step: 0,
            last_ul_clock: ClockTick::ZERO,
            cta,
            waiting: None,
        };
        let progress = match self.progress.entry(ue) {
            Entry::Vacant(slot) => slot.insert(fresh),
            Entry::Occupied(progress) => {
                if attach_start || progress.procedure != env.procedure {
                    *progress = fresh;
                } else {
                    progress.cta = cta;
                }
                progress
            }
        };
        let mut run = Run {
            config: &self.config,
            metrics: &mut self.metrics,
            rec,
            progress,
            out,
        };

        // Locate this uplink message in the template at/after the cursor.
        let is_it = |s: &Step| s.direction == Direction::Uplink && s.kind == kind;
        let cursor = run.progress.next_step;
        let Some(rel) = template.steps[cursor..].iter().position(is_it) else {
            // Not the message the cursor expects. If it duplicates an uplink
            // step we already consumed, the UE is retransmitting because our
            // follow-up got lost: re-issue it (pending S11, migration sync,
            // or the downlink replies) without re-running state mutations.
            // Anything else is out-of-order noise.
            if let (Some(idx), false) =
                (template.steps[..cursor].iter().rposition(is_it), replaying)
            {
                run.metrics.dup_uplink_nudges += 1;
                run.nudge(idx);
            }
            return;
        };
        let consumed = template.steps[cursor + rel];
        run.progress.next_step = cursor + rel + 1;
        run.progress.last_ul_clock = env.clock;
        run.progress.waiting = None;
        if apply_message(&mut run.rec.state, &env.msg).is_err() {
            run.metrics.malformed_snapshots += 1;
        }

        if !replaying {
            // An uplink step may itself carry a UPF interaction (e.g. the
            // modify-bearer after an ICS Response). It is fire-and-forget:
            // the procedure does not block on it.
            if consumed.upf_interaction {
                run.s11(session_op(env.proc_kind));
            }
            if run.config.replication == ReplicationMode::PerMessage {
                checkpoint(
                    run.config,
                    run.metrics,
                    &run.rec.state,
                    env.procedure,
                    env.clock,
                    cta,
                    run.out,
                );
            }
        }

        let finished = run.drive(replaying, None);
        self.retire(ue, finished);
    }

    /// Replica duty: adopt a state checkpoint and ACK it (§4.2.3 steps 2–3),
    /// or adopt a migration and ACK the source CPF.
    pub fn on_state_sync(&mut self, sync: StateSync) -> Vec<CpfOutput> {
        // The store keys on the snapshot's UE and the ACK names the
        // header's: a sync whose two disagree is adopted nowhere.
        if sync.state.ue() != sync.ue {
            self.metrics.syncs_ignored += 1;
            return Vec::new();
        }
        let adopted = self.store.apply_sync(sync.state, sync.end_clock);
        if adopted {
            self.metrics.syncs_applied += 1;
        } else {
            self.metrics.syncs_ignored += 1;
        }
        let acks = mutant!(self.config.mutant, AckRefusedSync => true; adopted);
        match sync.purpose {
            SyncPurpose::Checkpoint if acks => vec![CpfOutput::ToCta {
                cta: sync.cta,
                msg: SysMsg::SyncAck(SyncAck {
                    ue: sync.ue,
                    replica: self.config.id,
                    procedure: sync.procedure,
                    end_clock: sync.end_clock,
                }),
            }],
            SyncPurpose::Checkpoint => Vec::new(),
            SyncPurpose::Migration => vec![CpfOutput::ToCpf {
                cpf: sync.primary,
                msg: SysMsg::MigrationAck { ue: sync.ue },
            }],
        }
    }

    /// Source-side continuation after the migration target confirmed.
    pub fn on_migration_ack(&mut self, ue: UeId) -> Vec<CpfOutput> {
        self.resume(ue, Waiting::Migration)
    }

    /// Continues `ue`'s procedure if it is paused on `stage`. Any other
    /// answer (a duplicate, or one crossing a newer pause) is ignored.
    fn resume(&mut self, ue: UeId, stage: Waiting) -> Vec<CpfOutput> {
        let mut out = Vec::new();
        let finished = match self.run(ue, &mut out) {
            Some(mut run) if run.progress.waiting == Some(stage) => {
                run.progress.waiting = None;
                run.drive(false, Some(stage))
            }
            _ => None,
        };
        self.retire(ue, finished);
        out
    }

    /// CTA notice that this replica's copy is outdated (§4.2.4 steps 1a–1c):
    /// mark it and try to fetch fresh state.
    pub fn on_mark_outdated(&mut self, m: MarkOutdated) -> Vec<CpfOutput> {
        self.store.mark_outdated(m.ue, m.clock);
        match m.up_to_date.iter().find(|c| **c != self.config.id) {
            Some(holder) => vec![CpfOutput::ToCpf {
                cpf: *holder,
                msg: SysMsg::FetchState {
                    ue: m.ue,
                    requester: self.config.id,
                },
            }],
            None => Vec::new(),
        }
    }

    /// Answers a peer's state fetch.
    pub fn on_fetch_state(&mut self, ue: UeId, requester: CpfId) -> Vec<CpfOutput> {
        let state = self
            .store
            .get(ue)
            .filter(|r| r.freshness == Freshness::UpToDate)
            .map(|r| r.state.clone());
        vec![CpfOutput::ToCpf {
            cpf: requester,
            msg: SysMsg::FetchStateResp { ue, state },
        }]
    }

    /// Adopts a fetched state (§4.2.4 step 1c: "marks UE's state
    /// up-to-date") — unless the local copy is already newer (a checkpoint
    /// may have raced the fetch).
    pub fn on_fetch_resp(&mut self, ue: UeId, state: Option<Snapshot>) -> Vec<CpfOutput> {
        if let Some(state) = state {
            if state.ue() != ue {
                self.metrics.syncs_ignored += 1;
                return Vec::new();
            }
            let newer = self
                .store
                .get(ue)
                .map(|r| state.version() >= r.state.version())
                .unwrap_or(true);
            if newer {
                self.store.put(state);
            }
        }
        Vec::new()
    }

    /// CTA → primary: a completed procedure's checkpoint is missing replica
    /// ACKs (lost sync or lost ACK) — re-send it. The *current* stored
    /// version is re-checkpointed; cumulative ACKs at the CTA make it cover
    /// the requested procedure and everything before it. When this CPF's own
    /// copy has not reached the requested procedure (it missed messages
    /// itself — e.g. the procedure's final forward was lost in transit), it
    /// reports back so the CTA can replay its log instead of re-asking
    /// forever.
    pub fn on_resync(&mut self, ue: UeId, procedure: ProcedureId, cta: CtaId) -> Vec<CpfOutput> {
        let rec = match self.store.get(ue) {
            Some(rec) if rec.state.version().procedure >= procedure => rec,
            other => {
                let have = other
                    .map(|r| r.state.version().procedure)
                    .unwrap_or(ProcedureId::new(0));
                return vec![CpfOutput::ToCta {
                    cta,
                    msg: SysMsg::ResyncBehind {
                        ue,
                        have,
                        cpf: self.config.id,
                    },
                }];
            }
        };
        self.metrics.resyncs_answered += 1;
        let mut out = Vec::new();
        let version = rec.state.version();
        checkpoint(
            &self.config,
            &mut self.metrics,
            &rec.state,
            version.procedure,
            version.clock,
            cta,
            &mut out,
        );
        out
    }

    /// Continues a procedure after its UPF round trip.
    pub fn on_s11_resp(&mut self, resp: S11Response) -> Vec<CpfOutput> {
        if resp.op == SessionOp::Create {
            let rec = self.store.get_mut(resp.ue);
            if let Some(state) = rec.and_then(|r| write(&mut r.state, &mut self.metrics)) {
                state.session = resp.session;
                state.serving_upf = resp.upf;
            }
        }
        self.resume(resp.ue, Waiting::Upf)
    }

    /// Pages an idle UE that has downlink data waiting. Requires consistent
    /// state (the paging identity and tracking-area list live in it, §4.2.1)
    /// — without it the core cannot reach the UE (§3.1, Fig. 2).
    pub fn on_ddn(&mut self, ue: UeId) -> Vec<CpfOutput> {
        let state = match self.store.get(ue) {
            Some(r) if r.freshness == Freshness::UpToDate => read(&r.state, &mut self.metrics),
            _ => None,
        };
        if state.is_none() {
            self.metrics.pages_failed += 1;
            return Vec::new();
        }
        self.metrics.pages_sent += 1;
        let mut env = Envelope::downlink(
            ue,
            ProcedureId(0), // unsolicited: outside any procedure
            ProcedureKind::ServiceRequest,
            build_downlink(MessageKind::Paging, ue),
        );
        env.via_cta = None;
        vec![CpfOutput::ToCta {
            cta: self.config.home_cta,
            msg: SysMsg::Control(env),
        }]
    }
}

/// State mutations per message kind. Only the arms that change something
/// take the write path: `make_mut` on a snapshot a checkpoint still shares
/// copies it first. An error is a stored image that does not parse.
///
/// Dispatches on the kind; only the three kinds whose fields the state
/// takes read the body — the one build of a sample body on the simulator
/// path. That read cannot fail: `process` parsed a wire body up front.
fn apply_message(state: &mut Snapshot, msg: &Payload) -> Result<()> {
    match msg.kind() {
        MessageKind::InitialUeMessage
        | MessageKind::AttachRequest
        | MessageKind::ServiceRequest => {
            state.make_mut()?.connected = true;
        }
        MessageKind::AttachComplete => {
            let state = state.make_mut()?;
            state.attached = true;
            if state.bearers.is_empty() {
                let ue = state.ue.raw();
                state.bearers.push(BearerContext {
                    erab_id: 5,
                    qci: 9,
                    teid_uplink: (ue & 0xFFFF_FFFF) as u32,
                    teid_downlink: ((ue >> 4) & 0xFFFF_FFFF) as u32,
                });
            }
        }
        MessageKind::DetachRequest => {
            let state = state.make_mut()?;
            state.attached = false;
            state.connected = false;
        }
        MessageKind::UeContextReleaseComplete => {
            state.make_mut()?.connected = false;
        }
        MessageKind::InitialContextSetupResponse
        | MessageKind::TauRequest
        | MessageKind::HandoverNotify => apply_fields(state, &*msg.get()?)?,
        _ => {}
    }
    Ok(())
}

/// The [`apply_message`] arms that read message fields.
fn apply_fields(state: &mut Snapshot, msg: &ControlMessage) -> Result<()> {
    match msg {
        ControlMessage::InitialContextSetupResponse(r) => {
            let state = state.make_mut()?;
            for item in &r.erabs_setup {
                if !state.bearers.iter().any(|b| b.erab_id == item.erab_id) {
                    state.bearers.push(BearerContext {
                        erab_id: item.erab_id,
                        qci: 9,
                        teid_uplink: item.gtp_teid,
                        teid_downlink: item.gtp_teid ^ 0xFFFF,
                    });
                }
            }
            state.connected = true;
        }
        ControlMessage::TauRequest(r) => {
            let state = state.make_mut()?;
            state.tai = r.old_tai;
            if !state.tai_list.contains(&r.old_tai) {
                state.tai_list.push(r.old_tai);
            }
        }
        ControlMessage::HandoverNotify(n) => {
            state.make_mut()?.tai = n.tai;
        }
        _ => {}
    }
    Ok(())
}

/// The UPF operation a procedure's UPF step performs.
fn session_op(kind: ProcedureKind) -> SessionOp {
    match kind {
        ProcedureKind::InitialAttach | ProcedureKind::ReAttach => SessionOp::Create,
        ProcedureKind::Detach => SessionOp::Delete,
        _ => SessionOp::Modify,
    }
}

/// The content of a downlink message: realistic (sample-based) — the
/// control-plane logic keys off envelopes and the state store, and the
/// serialization benchmarks measure these same layouts — and held as its
/// recipe, built only by whoever reads it (a framing encode, a `Debug`).
fn build_downlink(kind: MessageKind, ue: UeId) -> Payload {
    Payload::sample(kind, ue.raw())
}

impl RoleCore for CpfCore {
    type Output = CpfOutput;

    fn addr(&self) -> NodeAddr {
        NodeAddr::Cpf(self.config.id)
    }

    fn on_message(&mut self, msg: SysMsg, _now: Instant) -> Vec<CpfOutput> {
        self.handle(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutrino_common::BsId;

    fn ring() -> RingStack {
        let l1: Vec<CpfId> = (0..5).map(CpfId::new).collect();
        let l2: Vec<CpfId> = (5..20).map(CpfId::new).collect();
        RingStack::new(&l1, &l2, 2)
    }

    fn neutrino_cpf(id: u64) -> CpfCore {
        CpfCore::new(CpfConfig::neutrino(
            CpfId::new(id),
            ring(),
            vec![UpfId::new(0), UpfId::new(1)],
        ))
    }

    fn ul(ue: u64, proc: u64, kind: ProcedureKind, msg: MessageKind, clock: u64) -> Envelope {
        let mut e = Envelope::uplink(UeId::new(ue), ProcedureId::new(proc), kind, msg.sample(ue))
            .from_bs(BsId::new(2));
        e.clock = ClockTick(clock);
        e.via_cta = Some(CtaId::new(0));
        e
    }

    /// Drives a full attach through one CPF (including the authentication
    /// and security-mode exchanges), answering its S11 requests.
    fn run_attach(cpf: &mut CpfCore, ue: u64, proc: u64, clock0: u64) -> Vec<CpfOutput> {
        let mut all = Vec::new();
        let outs = cpf.on_control(ul(
            ue,
            proc,
            ProcedureKind::InitialAttach,
            MessageKind::InitialUeMessage,
            clock0,
        ));
        assert!(
            outs.iter().any(|o| matches!(
                o,
                CpfOutput::ToCta { msg: SysMsg::Control(e), .. }
                    if e.msg.kind() == MessageKind::AuthenticationRequest
            )),
            "attach starts with the authentication challenge: {outs:?}"
        );
        all.extend(outs);
        all.extend(cpf.on_control(ul(
            ue,
            proc,
            ProcedureKind::InitialAttach,
            MessageKind::AuthenticationResponse,
            clock0 + 1,
        )));
        let outs = cpf.on_control(ul(
            ue,
            proc,
            ProcedureKind::InitialAttach,
            MessageKind::SecurityModeComplete,
            clock0 + 2,
        ));
        // Security done: expect an S11 create.
        let s11 = outs.iter().find_map(|o| match o {
            CpfOutput::ToUpf {
                upf,
                msg: SysMsg::S11(r),
            } => Some((*upf, *r)),
            _ => None,
        });
        all.extend(outs);
        let (upf, req) = s11.expect("attach issues S11 create");
        assert_eq!(req.op, SessionOp::Create);
        all.extend(cpf.on_s11_resp(S11Response {
            ue: UeId::new(ue),
            op: SessionOp::Create,
            upf,
            session: Some(neutrino_common::SessionId::new(ue)),
            ok: true,
        }));
        all.extend(cpf.on_control(ul(
            ue,
            proc,
            ProcedureKind::InitialAttach,
            MessageKind::InitialContextSetupResponse,
            clock0 + 3,
        )));
        all.extend(cpf.on_control(ul(
            ue,
            proc,
            ProcedureKind::InitialAttach,
            MessageKind::AttachComplete,
            clock0 + 4,
        )));
        all
    }

    #[test]
    fn attach_emits_ics_request_and_checkpoints() {
        let mut cpf = neutrino_cpf(0);
        let outs = run_attach(&mut cpf, 7, 1, 10);
        // The DL Initial Context Setup Request went to the CTA.
        assert!(outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToCta { msg: SysMsg::Control(e), .. }
                if e.direction == Direction::Downlink
                    && e.msg.kind() == MessageKind::InitialContextSetupRequest
        )));
        // Per-procedure checkpoint to both backups at completion.
        let syncs: Vec<_> = outs
            .iter()
            .filter_map(|o| match o {
                CpfOutput::ToCpf {
                    cpf,
                    msg: SysMsg::StateSync(s),
                } => Some((*cpf, s.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(syncs.len(), 2, "N=2 backups");
        for (_, s) in &syncs {
            assert_eq!(s.procedure, ProcedureId::new(1));
            assert_eq!(s.end_clock, ClockTick(14), "last UL clock");
            assert!(s.state.get().unwrap().attached);
            assert_eq!(s.purpose, SyncPurpose::Checkpoint);
        }
        assert_eq!(cpf.metrics().completed, 1);
        assert!(cpf.store().servable(UeId::new(7)));
    }

    #[test]
    fn checkpoint_is_shared_until_the_primary_next_mutates() {
        let ue = UeId::new(7);
        let mut primary = neutrino_cpf(0);
        let syncs: Vec<StateSync> = run_attach(&mut primary, 7, 1, 10)
            .into_iter()
            .filter_map(|o| match o {
                CpfOutput::ToCpf {
                    msg: SysMsg::StateSync(s),
                    ..
                } => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(syncs.len(), 2);
        // No deep copy anywhere: both syncs, the primary's own record and
        // (once adopted) the replicas' records are one allocation.
        assert!(Snapshot::ptr_eq(&syncs[0].state, &syncs[1].state));
        assert!(Snapshot::ptr_eq(
            &syncs[0].state,
            &primary.store().get(ue).unwrap().state
        ));
        // Encoded once, on demand: whoever frames the first sync leaves
        // the image for the second, which then runs no codec.
        assert!(!syncs[1].state.is_encoded());
        let image: *const [u8] = syncs[0].state.wire().unwrap();
        assert!(syncs[1].state.is_encoded());
        assert!(std::ptr::eq(image, syncs[1].state.wire().unwrap()));
        let at_checkpoint = syncs[0].state.get().unwrap().clone();
        let mut replicas = [neutrino_cpf(8), neutrino_cpf(9)];
        for (replica, sync) in replicas.iter_mut().zip(&syncs) {
            replica.on_state_sync(sync.clone());
            assert!(Snapshot::ptr_eq(
                &replica.store().get(ue).unwrap().state,
                &sync.state
            ));
        }
        // The primary moves on to the next procedure: it must write to a
        // copy of its own, leaving the syncs still in flight and the
        // replicas' adopted records at the checkpointed value.
        primary.on_control(ul(
            7,
            2,
            ProcedureKind::TrackingAreaUpdate,
            MessageKind::TauRequest,
            20,
        ));
        let now = &primary.store().get(ue).unwrap().state;
        assert_eq!(now.version().procedure, ProcedureId::new(2));
        assert_ne!(now.get().unwrap(), &at_checkpoint);
        assert!(!now.is_encoded(), "the old image went with the old state");
        for sync in &syncs {
            assert_eq!(sync.state.get().unwrap(), &at_checkpoint);
            assert!(sync.state.is_encoded());
        }
        for replica in &replicas {
            let held = &replica.store().get(ue).unwrap().state;
            assert_eq!(held.get().unwrap(), &at_checkpoint);
        }
    }

    #[test]
    fn unknown_ue_is_asked_to_re_attach() {
        let mut cpf = neutrino_cpf(0);
        let outs = cpf.on_control(ul(
            9,
            4,
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest,
            1,
        ));
        assert!(outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToCta {
                msg: SysMsg::RelayReAttach { .. },
                ..
            }
        )));
        assert_eq!(cpf.metrics().re_attach_asked, 1);
    }

    #[test]
    fn merge_sums_every_counter() {
        let m = CpfMetrics {
            processed: 1,
            replayed: 2,
            completed: 3,
            syncs_sent: 4,
            syncs_applied: 5,
            syncs_ignored: 6,
            re_attach_asked: 7,
            migrations: 8,
            pages_sent: 9,
            pages_failed: 10,
            resyncs_answered: 11,
            dup_uplink_nudges: 12,
            malformed_payloads: 13,
            malformed_snapshots: 14,
            unexpected_msgs: 15,
        };
        let mut sum = m;
        sum.merge(&m);
        let doubled = CpfMetrics {
            processed: 2,
            replayed: 4,
            completed: 6,
            syncs_sent: 8,
            syncs_applied: 10,
            syncs_ignored: 12,
            re_attach_asked: 14,
            migrations: 16,
            pages_sent: 18,
            pages_failed: 20,
            resyncs_answered: 22,
            dup_uplink_nudges: 24,
            malformed_payloads: 26,
            malformed_snapshots: 28,
            unexpected_msgs: 30,
        };
        assert_eq!(sum, doubled);
    }

    #[test]
    fn malformed_payload_is_counted_and_changes_nothing() {
        use neutrino_codec::CodecKind;
        let mut cpf = neutrino_cpf(0);
        run_attach(&mut cpf, 5, 1, 1);
        let ue = UeId::new(5);
        let before = (cpf.metrics(), cpf.store().get(ue).unwrap().state.clone());
        // Bytes that no codec accepts, as a live attach start (which would
        // otherwise reset the UE's state) and inside a replay.
        let mut bad = ul(
            5,
            2,
            ProcedureKind::InitialAttach,
            MessageKind::InitialUeMessage,
            9,
        );
        bad.msg = Payload::from_wire(MessageKind::InitialUeMessage, CodecKind::Asn1Per, &[]);
        assert!(cpf.on_control(bad.clone()).is_empty());
        let replay = Replay {
            ue,
            messages: vec![bad],
        };
        assert!(cpf.on_replay(replay).is_empty());
        let after = cpf.metrics();
        assert_eq!(after.malformed_payloads, 2);
        assert_eq!(
            (after.processed, after.replayed),
            (before.0.processed, before.0.replayed)
        );
        assert!(Snapshot::ptr_eq(
            &cpf.store().get(ue).unwrap().state,
            &before.1
        ));
    }

    /// The checkpoint of `ue`'s attach as a replica receives it off a
    /// transport: the wire image, unparsed.
    fn received_checkpoint(ue: u64) -> StateSync {
        let sync = run_attach(&mut neutrino_cpf(0), ue, 1, 10)
            .into_iter()
            .find_map(|o| match o {
                CpfOutput::ToCpf {
                    msg: SysMsg::StateSync(s),
                    ..
                } => Some(s),
                _ => None,
            })
            .expect("a checkpoint");
        StateSync {
            state: Snapshot::from_wire(sync.state.wire().unwrap()).unwrap(),
            ..sync
        }
    }

    #[test]
    fn replica_keeps_a_checkpoint_unread_until_it_serves_the_ue() {
        let ue = UeId::new(7);
        let mut replica = neutrino_cpf(9);
        let sync = received_checkpoint(7);
        assert_eq!(replica.on_state_sync(sync.clone()).len(), 1, "ACKed");
        // Adopting, answering a fetch and being marked outdated read the
        // header only.
        let fetched = replica.on_fetch_state(ue, CpfId::new(8));
        assert!(matches!(
            &fetched[0],
            CpfOutput::ToCpf { msg: SysMsg::FetchStateResp { state: Some(s), .. }, .. }
                if Snapshot::ptr_eq(s, &sync.state)
        ));
        assert!(!sync.state.is_materialised());
        // Failover: the UE's next procedure lands here and is served from
        // the stored image, which is parsed now and not before.
        let outs = replica.on_control(ul(
            7,
            2,
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest,
            20,
        ));
        assert!(
            !outs.is_empty() && replica.metrics().re_attach_asked == 0,
            "{outs:?}"
        );
        assert!(sync.state.is_materialised());
        assert_eq!(replica.metrics().malformed_snapshots, 0);
        assert!(
            replica
                .store()
                .get(ue)
                .unwrap()
                .state
                .get()
                .unwrap()
                .connected
        );
    }

    #[test]
    fn undecodable_snapshot_is_missing_state_not_a_panic() {
        let ue = UeId::new(7);
        let mut replica = neutrino_cpf(9);
        // A checkpoint whose header reads fine and whose body does not
        // parse: the tracking-area list's offset points outside the image.
        let sync = received_checkpoint(7);
        let mut image = sync.state.wire().unwrap().to_vec();
        let tai_list = neutrino_codec::fastbuf::FbTable::root(&image)
            .unwrap()
            .slot(8)
            .unwrap()
            .expect("present");
        image[tai_list..tai_list + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let garbage = Snapshot::from_wire(&image).unwrap();
        assert!(garbage.get().is_err());
        // Stored like any other: a replica does not read what it stores.
        let acks = replica.on_state_sync(StateSync {
            state: garbage.clone(),
            ..sync
        });
        assert_eq!(acks.len(), 1);
        assert_eq!(replica.metrics().malformed_snapshots, 0);

        let next = ul(
            7,
            2,
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest,
            20,
        );
        let outs = replica.on_control(next.clone());
        assert!(
            matches!(
                outs[..],
                [CpfOutput::ToCta { msg: SysMsg::RelayReAttach { ue: asked, .. }, .. }] if asked == ue
            ),
            "{outs:?}"
        );
        let m = replica.metrics();
        assert_eq!((m.malformed_snapshots, m.re_attach_asked), (1, 1));
        // Inside a replay the same read fails the same way, silently.
        let replayed = replica.on_replay(Replay {
            ue,
            messages: vec![next],
        });
        assert!(replayed.is_empty());
        let m = replica.metrics();
        assert_eq!((m.malformed_snapshots, m.re_attach_asked), (2, 1));
        // Nothing else moved: the record is still the one stored, no
        // procedure was started, and paging cannot use it either.
        let rec = replica.store().get(ue).unwrap();
        assert!(Snapshot::ptr_eq(&rec.state, &garbage));
        assert_eq!(rec.freshness, Freshness::UpToDate);
        assert!(replica.progress.get(ue).is_none());
        assert!(replica.on_ddn(ue).is_empty());
        assert_eq!(replica.metrics().pages_failed, 1);
        // The re-attach the UE was asked for replaces it.
        run_attach(&mut replica, 7, 3, 30);
        assert!(
            replica
                .store()
                .get(ue)
                .unwrap()
                .state
                .get()
                .unwrap()
                .attached
        );
    }

    #[test]
    fn snapshot_of_another_ue_than_the_header_names_is_ignored() {
        let mut replica = neutrino_cpf(9);
        let sync = received_checkpoint(7);
        let outs = replica.on_state_sync(StateSync {
            ue: UeId::new(8),
            ..sync.clone()
        });
        assert!(outs.is_empty(), "no ACK names a UE nothing was stored for");
        assert!(replica
            .on_fetch_resp(UeId::new(8), Some(sync.state))
            .is_empty());
        assert!(replica.store().is_empty());
        let m = replica.metrics();
        assert_eq!((m.syncs_ignored, m.syncs_applied), (2, 0));
    }

    #[test]
    fn outdated_state_is_not_served_when_consistency_enforced() {
        let mut cpf = neutrino_cpf(0);
        run_attach(&mut cpf, 7, 1, 10);
        cpf.on_mark_outdated(MarkOutdated {
            ue: UeId::new(7),
            clock: ClockTick(100),
            up_to_date: vec![],
        });
        let outs = cpf.on_control(ul(
            7,
            2,
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest,
            101,
        ));
        assert!(outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToCta {
                msg: SysMsg::RelayReAttach { .. },
                ..
            }
        )));
    }

    #[test]
    fn replica_adopts_checkpoint_and_acks_cta() {
        let mut primary = neutrino_cpf(0);
        let mut replica = neutrino_cpf(9);
        let outs = run_attach(&mut primary, 7, 1, 10);
        let sync = outs
            .iter()
            .find_map(|o| match o {
                CpfOutput::ToCpf {
                    msg: SysMsg::StateSync(s),
                    ..
                } => Some(s.clone()),
                _ => None,
            })
            .expect("a checkpoint");
        let acks = replica.on_state_sync(sync);
        assert!(matches!(
            &acks[0],
            CpfOutput::ToCta { msg: SysMsg::SyncAck(a), .. }
                if a.procedure == ProcedureId::new(1) && a.replica == CpfId::new(9)
        ));
        assert!(replica.store().servable(UeId::new(7)));
    }

    #[test]
    fn marked_outdated_replica_ignores_stale_sync_and_fetches() {
        let mut replica = neutrino_cpf(9);
        // Replica holds version from procedure 1.
        let mut state = UeState::sample(7);
        state.ue = UeId::new(7);
        state.version = neutrino_messages::state::StateVersion {
            procedure: ProcedureId::new(1),
            clock: ClockTick(10),
        };
        replica.store.put(Snapshot::from(state.clone()));
        // CTA marks it outdated at clock 20 and points at CPF 3.
        let outs = replica.on_mark_outdated(MarkOutdated {
            ue: UeId::new(7),
            clock: ClockTick(20),
            up_to_date: vec![CpfId::new(3)],
        });
        assert!(matches!(
            &outs[0],
            CpfOutput::ToCpf { cpf, msg: SysMsg::FetchState { .. } } if *cpf == CpfId::new(3)
        ));
        // A late sync whose end clock is below the mark is ignored.
        let mut stale = state.clone();
        stale.version.procedure = ProcedureId::new(2);
        let outs = replica.on_state_sync(StateSync {
            ue: UeId::new(7),
            primary: CpfId::new(0),
            cta: CtaId::new(0),
            state: Snapshot::from(stale),
            procedure: ProcedureId::new(2),
            end_clock: ClockTick(20),
            purpose: SyncPurpose::Checkpoint,
        });
        assert!(outs.is_empty(), "stale sync must not be ACKed");
        assert!(!replica.store().servable(UeId::new(7)));
        assert_eq!(replica.metrics().syncs_ignored, 1);
        // The fetch response restores freshness.
        let mut fresh = state;
        fresh.version.procedure = ProcedureId::new(2);
        fresh.version.clock = ClockTick(21);
        replica.on_fetch_resp(UeId::new(7), Some(Snapshot::from(fresh)));
        assert!(replica.store().servable(UeId::new(7)));
    }

    #[test]
    fn handover_with_cpf_change_waits_for_migration() {
        let mut cpf = neutrino_cpf(0);
        run_attach(&mut cpf, 7, 1, 10);
        let outs = cpf.on_control(ul(
            7,
            2,
            ProcedureKind::HandoverWithCpfChange,
            MessageKind::HandoverRequired,
            20,
        ));
        // Migration sync sent, no Handover Request yet.
        let mig = outs.iter().find_map(|o| match o {
            CpfOutput::ToCpf {
                cpf,
                msg: SysMsg::StateSync(s),
            } if s.purpose == SyncPurpose::Migration => Some(*cpf),
            _ => None,
        });
        let target = mig.expect("migration must start");
        assert!(!outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToCta { msg: SysMsg::Control(e), .. }
                if e.msg.kind() == MessageKind::HandoverRequest
        )));
        // A UPF answer crossing the migration pause resumes nothing.
        let crossed = cpf.on_s11_resp(S11Response {
            ue: UeId::new(7),
            op: SessionOp::Modify,
            upf: UpfId::new(1),
            session: Some(neutrino_common::SessionId::new(7)),
            ok: true,
        });
        assert!(crossed.is_empty(), "{crossed:?}");
        // The ack releases the Handover Request, once.
        let outs = cpf.on_migration_ack(UeId::new(7));
        let requests = outs.iter().filter(|o| {
            matches!(
                o,
                CpfOutput::ToCta { msg: SysMsg::Control(e), .. }
                    if e.msg.kind() == MessageKind::HandoverRequest
            )
        });
        assert_eq!(requests.count(), 1, "{outs:?}");
        let again = cpf.on_migration_ack(UeId::new(7));
        assert!(again.is_empty(), "{again:?}");
        assert_eq!(cpf.metrics().migrations, 1);
        let _ = target;
    }

    #[test]
    fn fast_handover_needs_no_migration() {
        let mut cpf = neutrino_cpf(0);
        run_attach(&mut cpf, 7, 1, 10);
        let outs = cpf.on_control(ul(
            7,
            2,
            ProcedureKind::FastHandover,
            MessageKind::HandoverRequired,
            20,
        ));
        assert!(outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToCta { msg: SysMsg::Control(e), .. }
                if e.msg.kind() == MessageKind::HandoverRequest
        )));
        assert_eq!(cpf.metrics().migrations, 0);
    }

    #[test]
    fn replay_reconstructs_state_without_side_effects() {
        // Run an attach on the primary, capture the envelopes, replay them
        // on a fresh replica: the replica must end with equivalent state but
        // emit no downlink or S11 traffic.
        let mut replica = neutrino_cpf(9);
        let msgs = vec![
            ul(
                7,
                1,
                ProcedureKind::InitialAttach,
                MessageKind::InitialUeMessage,
                8,
            ),
            ul(
                7,
                1,
                ProcedureKind::InitialAttach,
                MessageKind::AuthenticationResponse,
                9,
            ),
            ul(
                7,
                1,
                ProcedureKind::InitialAttach,
                MessageKind::SecurityModeComplete,
                10,
            ),
            ul(
                7,
                1,
                ProcedureKind::InitialAttach,
                MessageKind::InitialContextSetupResponse,
                11,
            ),
            ul(
                7,
                1,
                ProcedureKind::InitialAttach,
                MessageKind::AttachComplete,
                12,
            ),
        ];
        let outs = replica.on_replay(Replay {
            ue: UeId::new(7),
            messages: msgs,
        });
        assert!(
            !outs.iter().any(|o| matches!(
                o,
                CpfOutput::ToCta {
                    msg: SysMsg::Control(_),
                    ..
                } | CpfOutput::ToUpf { .. }
            )),
            "replay must not repeat external side effects: {outs:?}"
        );
        let rec = replica.store().get(UeId::new(7)).expect("state rebuilt");
        assert!(rec.state.get().unwrap().attached);
        assert_eq!(rec.state.version().procedure, ProcedureId::new(1));
        assert_eq!(rec.state.version().clock, ClockTick(12));
        assert_eq!(replica.metrics().replayed, 5);
    }

    #[test]
    fn detach_removes_state() {
        let mut cpf = neutrino_cpf(0);
        run_attach(&mut cpf, 7, 1, 10);
        let outs = cpf.on_control(ul(
            7,
            2,
            ProcedureKind::Detach,
            MessageKind::DetachRequest,
            20,
        ));
        // S11 delete then DL DetachAccept.
        let s11 = outs.iter().find_map(|o| match o {
            CpfOutput::ToUpf {
                msg: SysMsg::S11(r),
                ..
            } => Some(*r),
            _ => None,
        });
        assert_eq!(s11.expect("delete").op, SessionOp::Delete);
        let outs = cpf.on_s11_resp(S11Response {
            ue: UeId::new(7),
            op: SessionOp::Delete,
            upf: UpfId::new(0),
            session: None,
            ok: true,
        });
        assert!(outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToCta { msg: SysMsg::Control(e), .. }
                if e.msg.kind() == MessageKind::DetachAccept && e.end_of_procedure
        )));
        assert!(cpf.store().get(UeId::new(7)).is_none(), "state dropped");
    }

    #[test]
    fn skycore_broadcasts_on_every_message() {
        let peers: Vec<CpfId> = (0..5).map(CpfId::new).collect();
        let mut cpf = CpfCore::new(CpfConfig {
            replication: ReplicationMode::PerMessage,
            ring: None,
            peers,
            enforce_consistency: false,
            ..CpfConfig::neutrino(CpfId::new(0), ring(), vec![UpfId::new(0)])
        });
        let outs = cpf.on_control(ul(
            7,
            1,
            ProcedureKind::InitialAttach,
            MessageKind::InitialUeMessage,
            1,
        ));
        let syncs = outs
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    CpfOutput::ToCpf {
                        msg: SysMsg::StateSync(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(syncs, 4, "broadcast to all 4 pool peers");
    }

    #[test]
    fn epc_mode_never_replicates() {
        let mut cpf = CpfCore::new(CpfConfig {
            replication: ReplicationMode::None,
            ring: None,
            peers: (0..5).map(CpfId::new).collect(),
            ..CpfConfig::neutrino(CpfId::new(0), ring(), vec![UpfId::new(0)])
        });
        let outs = run_attach(&mut cpf, 7, 1, 10);
        assert!(!outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToCpf {
                msg: SysMsg::StateSync(_),
                ..
            }
        )));
        assert_eq!(cpf.metrics().syncs_sent, 0);
    }

    #[test]
    fn resync_request_re_checkpoints_current_version() {
        let mut cpf = neutrino_cpf(0);
        run_attach(&mut cpf, 7, 1, 10);
        // The CTA lost the ACKs for procedure 1 and asks again.
        let outs = cpf.handle(SysMsg::ResyncRequest {
            ue: UeId::new(7),
            procedure: ProcedureId::new(1),
            cta: CtaId::new(0),
        });
        let syncs: Vec<_> = outs
            .iter()
            .filter_map(|o| match o {
                CpfOutput::ToCpf {
                    msg: SysMsg::StateSync(s),
                    ..
                } => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(syncs.len(), 2, "re-checkpoint to both backups");
        for s in &syncs {
            assert_eq!(s.procedure, ProcedureId::new(1));
            assert_eq!(s.end_clock, ClockTick(14));
            assert_eq!(s.purpose, SyncPurpose::Checkpoint);
        }
        assert_eq!(cpf.metrics().resyncs_answered, 1);
        // A resync for a UE this CPF holds no copy of (it missed the
        // messages entirely) reports back how far behind it is, so the CTA
        // can replay its log instead of re-asking forever.
        let outs = cpf.handle(SysMsg::ResyncRequest {
            ue: UeId::new(99),
            procedure: ProcedureId::new(1),
            cta: CtaId::new(0),
        });
        assert_eq!(
            outs,
            vec![CpfOutput::ToCta {
                cta: CtaId::new(0),
                msg: SysMsg::ResyncBehind {
                    ue: UeId::new(99),
                    have: ProcedureId::new(0),
                    cpf: CpfId::new(0),
                },
            }]
        );
        assert_eq!(cpf.metrics().resyncs_answered, 1);
    }

    #[test]
    fn duplicate_uplink_re_emits_lost_downlink() {
        let mut cpf = neutrino_cpf(0);
        run_attach(&mut cpf, 7, 1, 10);
        let outs = cpf.on_control(ul(
            7,
            2,
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest,
            20,
        ));
        assert!(outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToCta { msg: SysMsg::Control(e), .. }
                if e.msg.kind() == MessageKind::InitialContextSetupRequest
        )));
        // The UE never saw the ICS Request and retransmits its Service
        // Request: the CPF must re-send the ICS Request, not stall.
        let outs = cpf.on_control(ul(
            7,
            2,
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest,
            20,
        ));
        assert!(outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToCta { msg: SysMsg::Control(e), .. }
                if e.msg.kind() == MessageKind::InitialContextSetupRequest
        )));
        assert_eq!(cpf.metrics().dup_uplink_nudges, 1);
        // The retransmission must not have advanced the cursor: the real
        // setup response still completes the procedure.
        let completed_before = cpf.metrics().completed;
        cpf.on_control(ul(
            7,
            2,
            ProcedureKind::ServiceRequest,
            MessageKind::InitialContextSetupResponse,
            21,
        ));
        assert_eq!(cpf.metrics().completed, completed_before + 1);
    }

    #[test]
    fn duplicate_uplink_resends_pending_s11() {
        let mut cpf = neutrino_cpf(0);
        cpf.on_control(ul(
            7,
            1,
            ProcedureKind::InitialAttach,
            MessageKind::InitialUeMessage,
            10,
        ));
        cpf.on_control(ul(
            7,
            1,
            ProcedureKind::InitialAttach,
            MessageKind::AuthenticationResponse,
            11,
        ));
        let outs = cpf.on_control(ul(
            7,
            1,
            ProcedureKind::InitialAttach,
            MessageKind::SecurityModeComplete,
            12,
        ));
        assert!(outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToUpf { msg: SysMsg::S11(r), .. } if r.op == SessionOp::Create
        )));
        // The S11 (or its response) was lost; the UE retransmits. The CPF is
        // still waiting on the UPF and must re-issue the create.
        let outs = cpf.on_control(ul(
            7,
            1,
            ProcedureKind::InitialAttach,
            MessageKind::SecurityModeComplete,
            12,
        ));
        assert!(outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToUpf { msg: SysMsg::S11(r), .. } if r.op == SessionOp::Create
        )));
        assert_eq!(cpf.metrics().dup_uplink_nudges, 1);
        // The (possibly duplicate) UPF answer still resumes the procedure.
        let outs = cpf.on_s11_resp(S11Response {
            ue: UeId::new(7),
            op: SessionOp::Create,
            upf: UpfId::new(1),
            session: Some(neutrino_common::SessionId::new(7)),
            ok: true,
        });
        assert!(outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToCta { msg: SysMsg::Control(e), .. }
                if e.msg.kind() == MessageKind::InitialContextSetupRequest
        )));
        // A repeat of that answer after the ICS Request went out finds the
        // procedure no longer paused on the UPF: nothing is re-emitted.
        let repeat = cpf.on_s11_resp(S11Response {
            ue: UeId::new(7),
            op: SessionOp::Create,
            upf: UpfId::new(1),
            session: Some(neutrino_common::SessionId::new(7)),
            ok: true,
        });
        assert!(repeat.is_empty(), "{repeat:?}");
    }

    #[test]
    fn progress_keeps_no_bs_and_no_migrated_flag() {
        // Procedure, kind, cursor, clock, CTA and the pause: 48 B with a
        // stored BS and a `migrated` flag.
        assert_eq!(std::mem::size_of::<Progress>(), 40);
    }

    #[test]
    fn service_request_flow() {
        let mut cpf = neutrino_cpf(0);
        run_attach(&mut cpf, 7, 1, 10);
        // The ICS Request goes down immediately (radio bearers first)...
        let outs = cpf.on_control(ul(
            7,
            2,
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest,
            20,
        ));
        assert!(outs.iter().any(|o| matches!(
            o,
            CpfOutput::ToCta { msg: SysMsg::Control(e), .. }
                if e.msg.kind() == MessageKind::InitialContextSetupRequest
        )));
        assert!(
            !outs.iter().any(|o| matches!(o, CpfOutput::ToUpf { .. })),
            "no S11 before the setup response (LTE ordering)"
        );
        // ...and the S11 modify-bearer follows the setup response.
        let outs = cpf.on_control(ul(
            7,
            2,
            ProcedureKind::ServiceRequest,
            MessageKind::InitialContextSetupResponse,
            21,
        ));
        let s11 = outs.iter().find_map(|o| match o {
            CpfOutput::ToUpf {
                msg: SysMsg::S11(r),
                ..
            } => Some(*r),
            _ => None,
        });
        assert_eq!(s11.expect("modify").op, SessionOp::Modify);
    }

    #[test]
    fn misrouted_sysmsg_is_counted_not_swallowed() {
        let mut cpf = neutrino_cpf(0);
        // The flow contract says a CPF never receives AskReAttach (it is a
        // CTA→UE-pop message) — it must land in the counter, not vanish.
        let outs = cpf.handle(SysMsg::AskReAttach { ue: UeId::new(7) });
        assert!(outs.is_empty());
        assert_eq!(cpf.metrics().unexpected_msgs, 1);
    }
}
