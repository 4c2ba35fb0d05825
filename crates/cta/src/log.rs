//! The CTA's in-memory message log (§4.2.3).
//!
//! Per UE, per procedure: the logged uplink messages (what a replay
//! reconstructs state from), the end-of-procedure logical clock, and the set
//! of replicas that have ACKed the procedure's state checkpoint. The log
//! tracks its own byte footprint — Fig. 17 reports exactly this number —
//! and an ordered index of the completed procedures still waiting for
//! ACKs, which is all the ACK-timeout scan has to visit. The per-UE record
//! ([`UeLog`]) also carries the UE's routing, so the CTA looks a UE up once
//! per message.

use neutrino_common::clock::ClockTick;
use neutrino_common::time::Instant;
use neutrino_common::{mutant, BsId, CpfId, CtaId, ProcedureId, UeId, UeMap};
use neutrino_messages::{Direction, Envelope, Payload, ProcedureKind};
use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};

/// One logged uplink: what varies per message. The rest needs no storage —
/// `ue` and `procedure` are the log's own keys, and `via_cta` is the stamp
/// the CTA puts on every message it logs — so [`LoggedUplink::envelope`]
/// rebuilds the forwarded envelope exactly. 40 bytes, not an envelope's 72.
#[derive(Debug, Clone)]
pub(crate) struct LoggedUplink {
    clock: ClockTick,
    bs: BsId,
    /// Shared with the forwarded copy, never copied.
    msg: Payload,
    proc_kind: ProcedureKind,
    direction: Direction,
    end_of_procedure: bool,
}

impl LoggedUplink {
    /// The envelope `via` forwarded when it logged this record for `ue`'s
    /// `procedure`.
    pub(crate) fn envelope(&self, ue: UeId, procedure: ProcedureId, via: CtaId) -> Envelope {
        Envelope {
            ue,
            procedure,
            proc_kind: self.proc_kind,
            bs: self.bs,
            via_cta: Some(via),
            clock: self.clock,
            direction: self.direction,
            end_of_procedure: self.end_of_procedure,
            msg: self.msg.clone(),
        }
    }
}

/// Log of one procedure's messages and replication progress.
#[derive(Debug, Clone)]
pub struct ProcedureLog {
    /// Logged uplink messages in logical-clock order.
    pub(crate) messages: Vec<LoggedUplink>,
    /// Wire bytes those messages occupy.
    pub bytes: usize,
    /// Clock of the procedure's last message, once seen.
    pub end_clock: Option<ClockTick>,
    /// Replicas that ACKed the checkpoint of this procedure, sorted (there
    /// are at most as many as the deployment has replicas).
    pub acks: Vec<CpfId>,
    /// When the procedure completed (for the ACK timeout scan).
    pub completed_at: Option<Instant>,
    /// Checkpoint resend requests issued for this procedure (exponential
    /// backoff: the next resend waits `base << resync_attempts`).
    pub resync_attempts: u32,
}

impl ProcedureLog {
    /// Whether this procedure's logged messages begin with the first step of
    /// an attach-class procedure. Such a procedure rebuilds the UE's state
    /// *from scratch* (§4.2.1) — replaying it needs no prior copy, so its
    /// presence in the log re-anchors replay coverage regardless of how far
    /// behind the target replica is.
    pub fn is_attach_reset(&self) -> bool {
        use ProcedureKind::{InitialAttach, ReAttach};
        self.messages.first().is_some_and(|m| {
            matches!(m.proc_kind, InitialAttach | ReAttach)
                && m.msg.kind() == m.proc_kind.template().steps[0].kind
        })
    }

    /// Whether this procedure is a Detach, after which the UE holds no
    /// state anywhere: the CPF that serves it drops the UE's record.
    pub fn is_detach(&self) -> bool {
        self.messages
            .first()
            .is_some_and(|m| m.proc_kind == ProcedureKind::Detach)
    }

    /// Whether `replica` ACKed this procedure's checkpoint.
    pub fn acked_by(&self, replica: CpfId) -> bool {
        self.acks.binary_search(&replica).is_ok()
    }

    /// Whether the checkpoint is durable enough to stop logging for: every
    /// replica in `expected` has ACKed **or** at least `expected.len()`
    /// distinct replicas have — after a failover the acting primary may
    /// checkpoint to a different (but equally durable) replica set than the
    /// ring now predicts, and identity-matching alone would chase ACKs that
    /// can never come. Never true for an empty `expected`.
    pub fn converged(&self, expected: &[CpfId]) -> bool {
        !expected.is_empty()
            && (expected.iter().all(|r| self.acked_by(*r)) || self.acks.len() >= expected.len())
    }

    /// An empty entry with room for `uplinks` messages.
    fn new(uplinks: usize) -> Self {
        ProcedureLog {
            messages: Vec::with_capacity(uplinks),
            bytes: 0,
            end_clock: None,
            acks: Vec::new(),
            completed_at: None,
            resync_attempts: 0,
        }
    }
}

/// Everything the CTA keeps per UE: the log proper, the replication
/// watermarks, the sticky primary every message for the UE needs and the
/// admission charge — one record, one lookup.
#[derive(Debug)]
pub struct UeLog {
    /// Procedures with still-logged messages (pruned once fully ACKed),
    /// sorted by id. A UE holds one or two at a time, so a flat vector
    /// beats a map node; it is reserved one entry at a time and handed back
    /// whole when it empties, so an idle UE holds no storage here. Private:
    /// entries come and go only through [`UeSlot`], which keeps the
    /// log-wide byte count and completed index in step.
    procedures: Vec<(ProcedureId, ProcedureLog)>,
    /// Last procedure each replica is known (via ACK) to be synced through,
    /// sorted by replica, reserved exactly for the replicas it names.
    synced_through: Vec<(CpfId, ProcedureId)>,
    /// Last procedure observed to complete.
    pub last_completed: ProcedureId,
    /// Highest procedure whose messages were removed from the log (pruned
    /// on ACK convergence or timeout). A replay can fully rebuild state
    /// only from a base at or above this floor — anything below would need
    /// messages no longer held. Procedure ids *never seen here* (the UE
    /// consumed an id without any message reaching this CTA) are not gaps:
    /// only actual removals raise the floor.
    pub replay_floor: ProcedureId,
    /// The procedure currently in flight (set on uplink, cleared when the
    /// end-of-procedure message passes) — used to recover stuck UEs after a
    /// CPF failure even when message logging is off.
    pub in_flight: Option<ProcedureId>,
    /// Highest procedure the admission gate let start (`ProcedureId(0)`:
    /// none, or no gate). Set only once the gate admits, so a shed start
    /// leaves no record behind.
    pub charged: ProcedureId,
    /// The BS the UE was last heard from (paging / re-attach routing).
    pub last_bs: BsId,
    /// Sticky primary: set from the ring on first contact, changed by
    /// failover promotions and re-attaches. Stable assignment is what lets
    /// a backup "become primary" (§4.1) instead of the ring silently
    /// remapping the UE to a CPF with no state.
    pub assigned: Option<CpfId>,
}

impl Default for UeLog {
    fn default() -> Self {
        UeLog {
            procedures: Vec::new(),
            synced_through: Vec::new(),
            last_completed: ProcedureId(0),
            replay_floor: ProcedureId(0),
            in_flight: None,
            charged: ProcedureId(0),
            last_bs: BsId::new(0),
            assigned: None,
        }
    }
}

impl UeLog {
    /// Procedures with still-logged messages, in ascending id order.
    pub fn procedures(&self) -> &[(ProcedureId, ProcedureLog)] {
        &self.procedures
    }

    /// The still-logged entry of procedure `proc`.
    pub fn procedure(&self, proc: ProcedureId) -> Option<&ProcedureLog> {
        let i = self.position(proc).ok()?;
        Some(&self.procedures[i].1)
    }

    /// Where `proc` sits in `procedures` (`Ok`) or belongs (`Err`).
    fn position(&self, proc: ProcedureId) -> Result<usize, usize> {
        self.procedures.binary_search_by_key(&proc, |&(p, _)| p)
    }

    /// `proc`'s entry, created with room for `uplinks` messages if absent.
    fn entry(&mut self, proc: ProcedureId, uplinks: usize) -> &mut ProcedureLog {
        let i = match self.position(proc) {
            Ok(i) => i,
            Err(i) => {
                self.procedures.reserve_exact(1);
                self.procedures
                    .insert(i, (proc, ProcedureLog::new(uplinks)));
                i
            }
        };
        &mut self.procedures[i].1
    }

    /// Gives an emptied procedure table's storage back, so an idle UE holds
    /// none.
    fn release_if_empty(&mut self) {
        if self.procedures.is_empty() {
            self.procedures = Vec::new();
        }
    }

    /// The last procedure `replica` is known to be synced through
    /// (`ProcedureId(0)`: it never ACKed anything for this UE).
    pub fn synced_through(&self, replica: CpfId) -> ProcedureId {
        match self
            .synced_through
            .binary_search_by_key(&replica, |&(r, _)| r)
        {
            Ok(i) => self.synced_through[i].1,
            Err(_) => ProcedureId(0),
        }
    }

    /// All logged messages of `ue` for procedures strictly after `since`,
    /// in order — the replay set for a replica synced through `since` — as
    /// the envelopes CTA `via` forwarded. They share their payloads with
    /// the log.
    pub fn replay_set(&self, ue: UeId, via: CtaId, since: ProcedureId) -> Vec<Envelope> {
        let from = self.procedures.partition_point(|&(p, _)| p <= since);
        self.procedures[from..]
            .iter()
            .flat_map(|(p, entry)| entry.messages.iter().map(|m| m.envelope(ue, *p, via)))
            .collect()
    }

    /// [`MessageLog::replay_covers`] for this UE.
    ///
    /// Coverage is judged against [`UeLog::replay_floor`], not by scanning
    /// for contiguous procedure ids: UEs consume ids for attempts whose
    /// messages never reach the CTA (abandoned before the first send, or
    /// every message lost), and such *phantom* ids must not read as
    /// unclosable gaps. Only messages actually removed from the log raise
    /// the floor. A logged attach-class procedure additionally re-anchors
    /// coverage from scratch (see [`ProcedureLog::is_attach_reset`]), since
    /// replaying it needs no base at all.
    fn replay_covers(&self, since: ProcedureId) -> bool {
        since >= self.replay_floor
            || self
                .procedures
                .iter()
                .any(|(p, e)| *p >= self.replay_floor && e.is_attach_reset())
    }
}

/// One UE's record, borrowed together with the log-wide accounting: the
/// only way a [`ProcedureLog`] is created or removed, so the byte totals
/// and the completed index can never drift from the entries.
pub struct UeSlot<'a> {
    ue: UeId,
    /// The log's planted mutant.
    #[cfg(feature = "test-support")]
    pub(crate) mutant: Option<neutrino_common::Mutant>,
    log: &'a mut UeLog,
    bytes: &'a mut usize,
    max_bytes: &'a mut usize,
    completed: &'a mut BTreeSet<(UeId, ProcedureId)>,
}

impl Deref for UeSlot<'_> {
    type Target = UeLog;

    fn deref(&self) -> &UeLog {
        self.log
    }
}

impl DerefMut for UeSlot<'_> {
    fn deref_mut(&mut self) -> &mut UeLog {
        self.log
    }
}

impl UeSlot<'_> {
    /// Appends an uplink message of `wire_bytes` to its procedure's log.
    pub fn append(&mut self, env: &Envelope, wire_bytes: usize) {
        debug_assert_eq!(env.ue, self.ue);
        // Reserved once for everything the procedure will log (§4.2.3:
        // its uplink messages).
        let uplinks = env.proc_kind.template().uplink_count();
        let entry = self.log.entry(env.procedure, uplinks);
        entry.messages.push(LoggedUplink {
            clock: env.clock,
            bs: env.bs,
            msg: env.msg.clone(),
            proc_kind: env.proc_kind,
            direction: env.direction,
            end_of_procedure: env.end_of_procedure,
        });
        entry.bytes += wire_bytes;
        *self.bytes += wire_bytes;
        if *self.bytes > *self.max_bytes {
            *self.max_bytes = *self.bytes;
        }
    }

    /// Marks a procedure complete (its last message just passed through).
    /// With `awaits_acks` it stays logged until its checkpoint is ACKed or
    /// times out; without — nobody will ever ACK it — it leaves the log at
    /// once, so the timeout scan finds nothing to expire.
    pub fn complete(
        &mut self,
        proc: ProcedureId,
        end_clock: ClockTick,
        now: Instant,
        awaits_acks: bool,
    ) {
        if proc > self.log.last_completed {
            self.log.last_completed = proc;
        }
        if !awaits_acks {
            self.drop_procedure(proc);
            return;
        }
        let entry = self.log.entry(proc, 0);
        entry.end_clock = Some(end_clock);
        entry.completed_at = Some(now);
        self.completed.insert((self.ue, proc));
    }

    /// Records a replica ACK; prunes the procedure's messages once the
    /// checkpoint is durable enough ([`ProcedureLog::converged`]). Returns
    /// `true` when pruning happened.
    ///
    /// ACKs are **cumulative**: a checkpoint carries the UE's full state,
    /// so a replica ACKing procedure `proc` is synced through every earlier
    /// procedure too — the ACK is recorded on (and may prune) all still-
    /// logged entries up to and including `proc`. That makes a single
    /// resync round converge even after earlier SyncAcks were lost.
    pub fn ack(&mut self, proc: ProcedureId, replica: CpfId, expected: &[CpfId]) -> bool {
        let log = &mut *self.log;
        match log
            .synced_through
            .binary_search_by_key(&replica, |&(r, _)| r)
        {
            Ok(i) => log.synced_through[i].1 = log.synced_through[i].1.max(proc),
            Err(i) => {
                if mutant!(self.mutant, SyncedRaceFirstOnly => i == 0; true) {
                    log.synced_through.reserve_exact(1);
                    log.synced_through.insert(i, (replica, proc));
                }
            }
        }
        let mut pruned = false;
        let replay_floor = &mut log.replay_floor;
        log.procedures.retain_mut(|(p, entry)| {
            let p = *p;
            // Earlier procedures count only once completed (an in-flight
            // predecessor still needs its messages for replay); the ACKed
            // procedure itself counts unconditionally.
            if p > proc || (p != proc && entry.completed_at.is_none()) {
                return true;
            }
            if let Err(i) = entry.acks.binary_search(&replica) {
                if mutant!(self.mutant, AckRaceFirstOnly => i == 0; true) {
                    mutant!(self.mutant, UnsortedAcks => entry.acks.push(replica);
                        entry.acks.insert(i, replica));
                }
            }
            if !entry.converged(expected) {
                return true;
            }
            *self.bytes -= entry.bytes;
            if !entry.messages.is_empty() && p > *replay_floor {
                *replay_floor = p;
            }
            self.completed.remove(&(self.ue, p));
            pruned = true;
            false
        });
        log.release_if_empty();
        pruned
    }

    /// Drops a procedure's messages unconditionally (timeout path, §4.2.4
    /// step 1d). Returns the freed byte count.
    pub fn drop_procedure(&mut self, proc: ProcedureId) -> usize {
        let Ok(i) = self.log.position(proc) else {
            return 0;
        };
        let (_, entry) = self.log.procedures.remove(i);
        self.log.release_if_empty();
        *self.bytes -= entry.bytes;
        if !entry.messages.is_empty() && proc > self.log.replay_floor {
            self.log.replay_floor = proc;
        }
        self.completed.remove(&(self.ue, proc));
        entry.bytes
    }

    /// Counts one more checkpoint resend request for `proc`.
    pub fn note_resync(&mut self, proc: ProcedureId) {
        if let Ok(i) = self.log.position(proc) {
            self.log.procedures[i].1.resync_attempts += 1;
        }
    }
}

/// The whole in-memory message store, with byte accounting and an ordered
/// index of the procedures the ACK scan has to look at.
#[derive(Debug, Default)]
pub struct MessageLog {
    ues: UeMap<UeLog>,
    /// Every `(ue, procedure)` that completed and is still logged — exactly
    /// the entries with `completed_at` set. The scan walks this, not `ues`.
    completed: BTreeSet<(UeId, ProcedureId)>,
    bytes: usize,
    max_bytes: usize,
    /// The planted mutant, from [`CtaConfig::mutant`](crate::CtaConfig::mutant).
    #[cfg(feature = "test-support")]
    pub(crate) mutant: Option<neutrino_common::Mutant>,
}

impl MessageLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Largest footprint ever observed (Fig. 17's y-axis).
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Per-UE record for writing (created if absent).
    pub fn ue_mut(&mut self, ue: UeId) -> UeSlot<'_> {
        UeSlot {
            ue,
            #[cfg(feature = "test-support")]
            mutant: self.mutant,
            log: self.ues.entry(ue).or_default(),
            bytes: &mut self.bytes,
            max_bytes: &mut self.max_bytes,
            completed: &mut self.completed,
        }
    }

    /// Per-UE record, read-only.
    pub fn ue(&self, ue: UeId) -> Option<&UeLog> {
        self.ues.get(ue)
    }

    /// Forgets a failed replica's ACKs across every logged procedure — its
    /// copies died with it, so it must not count toward convergence or be
    /// offered as an up-to-date holder. Its `synced_through` entry survives
    /// (failover filters candidates to live replicas itself).
    pub fn purge_replica_acks(&mut self, replica: CpfId) {
        for ue_log in self.ues.values_mut() {
            for (_, entry) in &mut ue_log.procedures {
                if let Ok(i) = entry.acks.binary_search(&replica) {
                    entry.acks.remove(i);
                }
            }
        }
    }

    /// True when a replay from base `since` can rebuild `ue`'s state up to
    /// its `last_completed` — i.e. the log still holds everything the
    /// replica would miss (false when the UE is unknown).
    pub fn replay_covers(&self, ue: UeId, since: ProcedureId) -> bool {
        self.ue(ue).is_some_and(|l| {
            mutant!(self.mutant, ReplayFloor => (since.raw() + 1..=l.last_completed.raw())
                .all(|need| l.procedure(ProcedureId(need)).is_some());
                l.replay_covers(since))
        })
    }

    /// Completed procedures still waiting in the log, in `(ue, procedure)`
    /// order — what the ACK-timeout scan has to look at.
    pub fn completed(&self) -> impl Iterator<Item = (UeId, ProcedureId)> + '_ {
        self.completed.iter().copied()
    }

    /// Iterates UEs with logged state, in ascending [`UeId`] order: the
    /// order `on_cpf_failure` emits its failover messages in, and the one
    /// the audit and the `check` oracles report in.
    pub fn ues(&self) -> impl Iterator<Item = (&UeId, &UeLog)> {
        self.ues.iter_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutrino_messages::{MessageKind, ProcedureKind};

    const CTA: CtaId = CtaId::new(0);

    fn replay_set(log: &MessageLog, ue: UeId, since: ProcedureId) -> Vec<Envelope> {
        log.ue(ue).unwrap().replay_set(ue, CTA, since)
    }

    fn env(ue: u64, proc: u64, clock: u64) -> Envelope {
        let mut e = Envelope::uplink(
            UeId::new(ue),
            ProcedureId::new(proc),
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest.sample(ue),
        );
        e.clock = ClockTick(clock);
        e
    }

    #[test]
    fn byte_accounting_tracks_appends_and_prunes() {
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        log.ue_mut(ue).append(&env(1, 1, 1), 100);
        log.ue_mut(ue).append(&env(1, 1, 2), 50);
        assert_eq!(log.bytes(), 150);
        log.ue_mut(ue)
            .complete(ProcedureId::new(1), ClockTick(2), Instant::ZERO, true);
        let replicas = [CpfId::new(10), CpfId::new(11)];
        assert!(!log
            .ue_mut(ue)
            .ack(ProcedureId::new(1), replicas[0], &replicas));
        assert_eq!(log.bytes(), 150, "waiting for second ack");
        assert!(log
            .ue_mut(ue)
            .ack(ProcedureId::new(1), replicas[1], &replicas));
        assert_eq!(log.bytes(), 0, "fully acked → pruned");
        assert_eq!(log.max_bytes(), 150);
    }

    #[test]
    fn replay_set_orders_across_procedures() {
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        log.ue_mut(ue).append(&env(1, 1, 1), 10);
        log.ue_mut(ue)
            .complete(ProcedureId::new(1), ClockTick(1), Instant::ZERO, true);
        log.ue_mut(ue).append(&env(1, 2, 2), 10);
        log.ue_mut(ue).append(&env(1, 2, 3), 10);
        let all = replay_set(&log, ue, ProcedureId(0));
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].clock < w[1].clock));
        let tail = replay_set(&log, ue, ProcedureId::new(1));
        assert_eq!(tail.len(), 2);
        assert!(tail.iter().all(|e| e.procedure == ProcedureId::new(2)));
    }

    #[test]
    fn replay_covers_detects_gaps() {
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        log.ue_mut(ue).append(&env(1, 1, 1), 10);
        log.ue_mut(ue)
            .complete(ProcedureId::new(1), ClockTick(1), Instant::ZERO, true);
        log.ue_mut(ue).append(&env(1, 2, 2), 10);
        log.ue_mut(ue)
            .complete(ProcedureId::new(2), ClockTick(2), Instant::ZERO, true);
        assert!(log.replay_covers(ue, ProcedureId(0)));
        assert!(log.replay_covers(ue, ProcedureId::new(1)));
        // Prune procedure 1 (timeout path): replay from 0 now has a gap.
        log.ue_mut(ue).drop_procedure(ProcedureId::new(1));
        assert!(!log.replay_covers(ue, ProcedureId(0)));
        assert!(log.replay_covers(ue, ProcedureId::new(1)));
    }

    #[test]
    fn phantom_procedure_ids_are_not_replay_gaps() {
        // The UE consumed procedure id 2 without a single message reaching
        // the CTA (abandoned before the first send, or all messages lost),
        // then completed procedure 3. The missing id must not read as an
        // unclosable gap: nothing was ever logged for it, so nothing was
        // lost.
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        log.ue_mut(ue).append(&env(1, 1, 1), 10);
        log.ue_mut(ue)
            .complete(ProcedureId::new(1), ClockTick(1), Instant::ZERO, true);
        log.ue_mut(ue).append(&env(1, 3, 2), 10);
        log.ue_mut(ue)
            .complete(ProcedureId::new(3), ClockTick(2), Instant::ZERO, true);
        assert!(log.replay_covers(ue, ProcedureId(0)));
        assert!(log.replay_covers(ue, ProcedureId::new(1)));
        // Once procedure 1's messages are actually removed, bases below it
        // genuinely cannot close any more.
        log.ue_mut(ue).drop_procedure(ProcedureId::new(1));
        assert!(!log.replay_covers(ue, ProcedureId(0)));
        assert!(log.replay_covers(ue, ProcedureId::new(1)));
    }

    #[test]
    fn logged_attach_re_anchors_replay_coverage() {
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        // Procedure 1 completed and its messages were pruned: the floor
        // rises to 1 and a base of 0 cannot normally close.
        log.ue_mut(ue).append(&env(1, 1, 1), 10);
        log.ue_mut(ue)
            .complete(ProcedureId::new(1), ClockTick(1), Instant::ZERO, true);
        log.ue_mut(ue).drop_procedure(ProcedureId::new(1));
        assert!(!log.replay_covers(ue, ProcedureId(0)));
        // A logged re-attach rebuilds state from scratch: coverage holds
        // again from any base, including none at all.
        let mut attach = Envelope::uplink(
            ue,
            ProcedureId::new(2),
            ProcedureKind::ReAttach,
            ProcedureKind::ReAttach.template().steps[0].kind.sample(1),
        );
        attach.clock = ClockTick(2);
        log.ue_mut(ue).append(&attach, 10);
        log.ue_mut(ue)
            .complete(ProcedureId::new(2), ClockTick(2), Instant::ZERO, true);
        assert!(log.replay_covers(ue, ProcedureId(0)));
        // Pruning the attach itself removes the anchor again.
        log.ue_mut(ue).drop_procedure(ProcedureId::new(2));
        assert!(!log.replay_covers(ue, ProcedureId(0)));
        assert!(log.replay_covers(ue, ProcedureId::new(2)));
    }

    #[test]
    fn drop_procedure_frees_bytes() {
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        log.ue_mut(ue).append(&env(1, 1, 1), 77);
        assert_eq!(log.ue_mut(ue).drop_procedure(ProcedureId::new(1)), 77);
        assert_eq!(log.bytes(), 0);
        assert_eq!(log.ue_mut(ue).drop_procedure(ProcedureId::new(1)), 0);
    }

    #[test]
    fn ack_for_pruned_procedure_is_harmless() {
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        assert!(!log
            .ue_mut(ue)
            .ack(ProcedureId::new(5), CpfId::new(1), &[CpfId::new(1)]));
        // But synced_through still advances — late ACKs count for failover.
        assert_eq!(
            log.ue(ue).unwrap().synced_through(CpfId::new(1)),
            ProcedureId::new(5)
        );
    }

    #[test]
    fn ack_is_cumulative_over_completed_procedures() {
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        let replicas = [CpfId::new(10), CpfId::new(11)];
        // Two completed procedures; the ACKs for procedure 1 were lost.
        log.ue_mut(ue).append(&env(1, 1, 1), 10);
        log.ue_mut(ue)
            .complete(ProcedureId::new(1), ClockTick(1), Instant::ZERO, true);
        log.ue_mut(ue).append(&env(1, 2, 2), 10);
        log.ue_mut(ue)
            .complete(ProcedureId::new(2), ClockTick(2), Instant::ZERO, true);
        // An ACK for procedure 2 covers procedure 1 too (full-state sync).
        assert!(!log
            .ue_mut(ue)
            .ack(ProcedureId::new(2), replicas[0], &replicas));
        assert!(log
            .ue_mut(ue)
            .ack(ProcedureId::new(2), replicas[1], &replicas));
        assert_eq!(log.bytes(), 0, "both procedures pruned by one ACK round");
    }

    #[test]
    fn cumulative_ack_spares_in_flight_predecessors() {
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        let replicas = [CpfId::new(10)];
        // Procedure 1 never completed (still needs replay coverage).
        log.ue_mut(ue).append(&env(1, 1, 1), 10);
        log.ue_mut(ue).append(&env(1, 2, 2), 10);
        log.ue_mut(ue)
            .complete(ProcedureId::new(2), ClockTick(2), Instant::ZERO, true);
        log.ue_mut(ue)
            .ack(ProcedureId::new(2), replicas[0], &replicas);
        assert!(
            log.ue(ue).unwrap().procedure(ProcedureId::new(1)).is_some(),
            "in-flight procedure 1 must keep its messages"
        );
    }

    #[test]
    fn two_logged_procedures_replay_prune_and_ack_cumulatively() {
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        let replicas = [CpfId::new(10), CpfId::new(11)];
        let (p1, p2) = (ProcedureId::new(1), ProcedureId::new(2));
        // Procedure 2 reaches the log first: the record still reads in id
        // order.
        log.ue_mut(ue).append(&env(1, 2, 3), 10);
        log.ue_mut(ue).append(&env(1, 1, 1), 20);
        log.ue_mut(ue).append(&env(1, 1, 2), 20);
        let ids = |log: &MessageLog| -> Vec<ProcedureId> {
            let held = log.ue(ue).unwrap().procedures();
            held.iter().map(|&(p, _)| p).collect()
        };
        let clocks = |log: &MessageLog, since: ProcedureId| -> Vec<u64> {
            let set = replay_set(log, ue, since);
            set.iter().map(|e| e.clock.0).collect()
        };
        assert_eq!(ids(&log), [p1, p2]);
        assert_eq!(clocks(&log, ProcedureId(0)), [1, 2, 3]);
        assert_eq!(clocks(&log, p1), [3]);
        assert!(clocks(&log, p2).is_empty());
        log.ue_mut(ue)
            .complete(p1, ClockTick(2), Instant::ZERO, true);
        log.ue_mut(ue)
            .complete(p2, ClockTick(3), Instant::ZERO, true);
        // One replica ACKs procedure 2: recorded on both entries, enough to
        // prune neither.
        assert!(!log.ue_mut(ue).ack(p2, replicas[0], &replicas));
        for p in [p1, p2] {
            assert!(log
                .ue(ue)
                .unwrap()
                .procedure(p)
                .unwrap()
                .acked_by(replicas[0]));
        }
        assert_eq!(log.bytes(), 50);
        // Procedure 1 times out: the floor rises, a base below it no longer
        // closes, and the replay set is what is left.
        assert_eq!(log.ue_mut(ue).drop_procedure(p1), 40);
        assert_eq!(log.ue(ue).unwrap().replay_floor, p1);
        assert!(!log.replay_covers(ue, ProcedureId(0)));
        assert!(log.replay_covers(ue, p1));
        assert_eq!(ids(&log), [p2]);
        assert_eq!(clocks(&log, ProcedureId(0)), [3]);
        // The second replica's ACK converges procedure 2.
        assert!(log.ue_mut(ue).ack(p2, replicas[1], &replicas));
        assert!(log.ue(ue).unwrap().procedures().is_empty());
        assert_eq!(log.ue(ue).unwrap().replay_floor, p2);
        assert_eq!(log.bytes(), 0);
        assert_eq!(log.completed().count(), 0);
    }

    #[test]
    fn a_logged_uplink_is_what_varies_per_message() {
        // Pinned: an attach burst logs one of these per uplink, where an
        // `Envelope` is 72 bytes. The procedure entry that holds them stays
        // within 104.
        assert_eq!(std::mem::size_of::<LoggedUplink>(), 40);
        assert!(std::mem::size_of::<ProcedureLog>() <= 104);
        // Rebuilt from the log's keys and the CTA's stamp, a logged uplink
        // is the envelope the CTA forwarded.
        let mut sent = env(1, 2, 9).from_bs(BsId::new(4)).ending_procedure();
        sent.via_cta = Some(CTA);
        let mut log = MessageLog::new();
        log.ue_mut(sent.ue).append(&sent, 10);
        assert_eq!(replay_set(&log, sent.ue, ProcedureId(0)), [sent]);
    }

    #[test]
    fn a_ue_log_is_one_flat_record() {
        // Pinned: an attach burst holds one of these per UE at the CTA.
        assert_eq!(std::mem::size_of::<UeLog>(), 112);
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        log.ue_mut(ue).append(&env(1, 1, 1), 10);
        // No map node: the procedures are one `Vec` allocation, sized for
        // the one procedure, and the messages are reserved once for every
        // uplink the procedure logs.
        let procedures: &Vec<(ProcedureId, ProcedureLog)> = &log.ue(ue).unwrap().procedures;
        assert_eq!((procedures.len(), procedures.capacity()), (1, 1));
        assert_eq!(
            procedures[0].1.messages.capacity(),
            ProcedureKind::ServiceRequest.template().uplink_count()
        );
    }

    #[test]
    fn an_idle_ue_holds_no_procedure_storage() {
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        let replicas = [CpfId::new(10), CpfId::new(11)];
        let storage = |log: &MessageLog| {
            let rec = log.ue(ue).unwrap();
            (rec.procedures.len(), rec.procedures.capacity())
        };
        // ACK convergence prunes the last procedure: the table goes back.
        log.ue_mut(ue).append(&env(1, 1, 1), 10);
        log.ue_mut(ue)
            .complete(ProcedureId::new(1), ClockTick(1), Instant::ZERO, true);
        for r in replicas {
            log.ue_mut(ue).ack(ProcedureId::new(1), r, &replicas);
        }
        assert_eq!(storage(&log), (0, 0));
        let synced = &log.ue(ue).unwrap().synced_through;
        assert_eq!((synced.len(), synced.capacity()), (2, 2));
        // The next procedure starts at capacity 1; a timeout drop of it
        // gives the table back again.
        log.ue_mut(ue).append(&env(1, 2, 2), 10);
        assert_eq!(storage(&log), (1, 1));
        log.ue_mut(ue).drop_procedure(ProcedureId::new(2));
        assert_eq!(storage(&log), (0, 0));
    }

    #[test]
    fn synced_through_never_regresses() {
        let mut log = MessageLog::new();
        let ue = UeId::new(1);
        log.ue_mut(ue).ack(ProcedureId::new(5), CpfId::new(1), &[]);
        log.ue_mut(ue).ack(ProcedureId::new(3), CpfId::new(1), &[]);
        assert_eq!(
            log.ue(ue).unwrap().synced_through(CpfId::new(1)),
            ProcedureId::new(5)
        );
    }
}
