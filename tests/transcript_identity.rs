//! Output identity of the sans-IO cores, independent of the simulator.
//!
//! A fixed script drives one `CtaCore`, ten `CpfCore`s and one `UpfCore`
//! through a FIFO: attach, three service requests, a handover with state
//! migration, a tracking-area update and a detach; a CPF crash mid-procedure recovered by log replay; a lost
//! checkpoint chased by the resync scan; a primary that missed a procedure's
//! last message and is caught up by replay; a lost `SyncAck` that ends in
//! `MarkOutdated` + state fetch; the ACK timeout; and a page. The `Debug`
//! rendering of every `handle`/`scan` output list is hashed in call order.
//!
//! The pinned hash was taken before the cores' payloads became `Arc`-shared
//! and their handlers single-pass: any change to what a handler emits, or to
//! the order it emits it in, moves the hash.
//!
//! The script runs three ways: handing each `SysMsg` over as the value it is
//! with built uplinks; the same with every uplink a sample body
//! (`Payload::sample`, the simulator's way — the CPF's downlinks are one in
//! every run); and with every hop crossing `encode_sysmsg` →
//! `decode_sysmsg` (the live path's way), so that every receiver holds
//! wire-backed payloads and snapshots — the handover target, the replayed-to
//! backup, the state fetcher and every replica that takes a UE over serve
//! from bytes they had stored unread. All three must produce the one hash.

use neutrino_codec::CodecKind;
use neutrino_common::time::{Duration, Instant};
use neutrino_common::{BsId, CpfId, CtaId, ProcedureId, UeId, UpfId};
use neutrino_cpf::{CpfConfig, CpfCore};
use neutrino_cta::{CtaConfig, CtaCore};
use neutrino_geo::RingStack;
use neutrino_messages::flow::{Effect, NodeAddr, RoleCore};
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::{Direction, Envelope, Payload, SysMsg};
use neutrino_net::{decode_sysmsg, encode_sysmsg};
use neutrino_upf::UpfCore;
use std::collections::VecDeque;
use std::fmt::Debug;
use std::path::Path;

/// The hash of the whole transcript at the parent of the payload-sharing
/// rewrite, re-pinned when `CtaOutput::ToBs` lost its `bs` field (the
/// parent's rendering with each `bs: bs-N, ` taken out of its `ToBs`
/// outputs hashes to this value) and when CPF downlinks lost their BS (the
/// parent's rendering with the `bs` of each `direction: Downlink` envelope
/// set to `bs-0` hashes to this value). Re-pin only for a deliberate
/// protocol change.
const PINNED_TRANSCRIPT_HASH: u64 = 0x4548_4484_4987_9890;
/// Handler calls the script makes (a cheap guard against a script that
/// silently stops early).
const PINNED_CALLS: u64 = 588;

/// How the script's messages are made and carried.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Built uplinks, handed over as values.
    Direct,
    /// Sample-body uplinks, handed over as values.
    Sampled,
    /// Built uplinks, every hop through the wire framing.
    Framed,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Dest {
    Client,
    Cta,
    Cpf(u64),
    Upf,
}

type DropRule = Box<dyn FnMut(Dest, &SysMsg) -> bool>;

struct World {
    cta: CtaCore,
    cpfs: Vec<CpfCore>,
    upf: UpfCore,
    fifo: VecDeque<(Dest, SysMsg)>,
    now: Instant,
    hash: u64,
    calls: u64,
    /// The hashed text, one line per handler call.
    rendering: String,
    /// Messages this rule matches are lost in flight.
    drop_rule: Option<DropRule>,
    crashed: Vec<u64>,
    to_client: u64,
    mode: Mode,
}

const CODEC: CodecKind = CodecKind::FastbufOptimized;

impl World {
    fn new(mode: Mode) -> Self {
        let l1: Vec<CpfId> = (0..5).map(CpfId::new).collect();
        let l2: Vec<CpfId> = (5..10).map(CpfId::new).collect();
        let ring = RingStack::new(&l1, &l2, 2);
        World {
            cta: CtaCore::new(CtaConfig::neutrino(CtaId::new(0), CODEC), ring.clone()),
            cpfs: (0..10)
                .map(|id| {
                    CpfCore::new(CpfConfig::neutrino(
                        CpfId::new(id),
                        ring.clone(),
                        vec![UpfId::new(0)],
                    ))
                })
                .collect(),
            upf: UpfCore::new(UpfId::new(0)),
            fifo: VecDeque::new(),
            now: Instant::ZERO,
            hash: 0xcbf2_9ce4_8422_2325,
            calls: 0,
            rendering: String::new(),
            drop_rule: None,
            crashed: Vec::new(),
            to_client: 0,
            mode,
        }
    }

    /// Folds one handler call's outputs into the transcript (FNV-1a).
    fn record(&mut self, who: Dest, outs: &impl Debug) {
        self.calls += 1;
        let line = format!("{who:?}@{}:{outs:?};", self.now.as_nanos());
        for b in line.bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.rendering.push_str(&line);
        self.rendering.push('\n');
    }

    fn send(&mut self, to: Dest, msg: SysMsg) {
        if let Some(rule) = self.drop_rule.as_mut() {
            if rule(to, &msg) {
                return;
            }
        }
        let msg = if self.mode == Mode::Framed {
            let mut frame = Vec::new();
            encode_sysmsg(&msg, CODEC, &mut frame).expect("encodes");
            decode_sysmsg(&frame, CODEC).expect("decodes")
        } else {
            msg
        };
        self.fifo.push_back((to, msg));
    }

    /// Records one handler call of a role and routes what it returned.
    fn outs<C: RoleCore>(&mut self, who: Dest, outs: Vec<C::Output>)
    where
        C::Output: Debug,
    {
        self.record(who, &outs);
        for out in outs {
            if let Effect::Send(to, msg) = out.into() {
                let to = match to {
                    NodeAddr::Client => Dest::Client,
                    NodeAddr::Cta(_) => Dest::Cta,
                    NodeAddr::Cpf(cpf) => Dest::Cpf(cpf.raw()),
                    NodeAddr::Upf(_) => Dest::Upf,
                };
                self.send(to, msg);
            }
        }
    }

    /// Delivers queued messages until nothing is in flight.
    fn drain(&mut self) {
        while let Some((dest, msg)) = self.fifo.pop_front() {
            self.now += Duration::from_micros(1);
            match dest {
                Dest::Client => self.to_client += 1,
                Dest::Cta => {
                    let outs = self.cta.on_message(msg, self.now);
                    self.outs::<CtaCore>(dest, outs);
                }
                Dest::Cpf(i) => {
                    if self.crashed.contains(&i) {
                        continue;
                    }
                    let outs = self.cpfs[i as usize].on_message(msg, self.now);
                    self.outs::<CpfCore>(dest, outs);
                }
                Dest::Upf => {
                    let outs = self.upf.on_message(msg, self.now);
                    self.outs::<UpfCore>(dest, outs);
                }
            }
        }
    }

    fn scan(&mut self) {
        let outs = self.cta.scan(self.now);
        self.outs::<CtaCore>(Dest::Cta, outs);
        self.drain();
    }

    /// Sends the uplink at template position `step` and lets the core settle
    /// (the downlinks between two uplinks reach the client on the way).
    fn uplink(&mut self, kind: ProcedureKind, ue: u64, procedure: u64, step: usize) {
        let steps = &kind.template().steps;
        assert_eq!(steps[step].direction, Direction::Uplink);
        let msg = match self.mode {
            Mode::Sampled => Payload::sample(steps[step].kind, ue),
            Mode::Direct | Mode::Framed => steps[step].kind.sample(ue).into(),
        };
        let mut env = Envelope::uplink(UeId::new(ue), ProcedureId::new(procedure), kind, msg)
            .from_bs(BsId::new(ue % 8));
        if step + 1 == steps.len() {
            env = env.ending_procedure();
        }
        self.send(Dest::Cta, SysMsg::Control(env));
        self.drain();
    }

    /// Runs a whole procedure, one uplink at a time.
    fn run(&mut self, kind: ProcedureKind, ue: u64, procedure: u64) {
        for (step, s) in kind.template().steps.iter().enumerate() {
            if s.direction == Direction::Uplink {
                self.uplink(kind, ue, procedure, step);
            }
        }
    }

    fn crash_cpf(&mut self, cpf: CpfId) {
        self.crashed.push(cpf.raw());
        self.send(Dest::Cta, SysMsg::CpfFailure { cpf });
        for peer in 0..self.cpfs.len() as u64 {
            if peer != cpf.raw() {
                self.send(Dest::Cpf(peer), SysMsg::CpfFailure { cpf });
            }
        }
        self.drain();
    }
}

fn transcript(mode: Mode) -> (u64, u64, World) {
    use ProcedureKind::*;
    let mut w = World::new(mode);

    // 1. The everyday script on three UEs, interleaved per phase.
    let ues = [11u64, 12, 13];
    let script = [
        InitialAttach,
        ServiceRequest,
        ServiceRequest,
        ServiceRequest,
        HandoverWithCpfChange,
        TrackingAreaUpdate,
        Detach,
    ];
    for (i, kind) in script.into_iter().enumerate() {
        if kind == Detach {
            // (A detach removes the state, so nothing checkpoints or ACKs
            // it: its one logged message waits for the timeout.)
            assert_eq!(w.cta.log_bytes(), 0, "every checkpoint was ACKed");
        }
        for ue in ues {
            w.run(kind, ue, i as u64 + 1);
        }
    }
    w.scan();

    // 2. A CPF crash mid-procedure: the CTA replays its log onto the
    //    most-synced backup and re-drives the unanswered message.
    for ue in 21..=28 {
        w.run(InitialAttach, ue, 1);
    }
    w.uplink(FastHandover, 21, 2, 0);
    w.uplink(FastHandover, 21, 2, 2);
    let primary = w.cta.primary_for(UeId::new(21)).expect("assigned");
    w.crash_cpf(primary);
    assert_eq!(w.cta.metrics().failover_replayed, 1);
    w.uplink(FastHandover, 21, 2, 4);
    w.uplink(FastHandover, 21, 2, 6);
    // The dead primary's idle UEs recover lazily, on their next message,
    // onto a backup that is already up to date.
    for ue in 21..=28 {
        w.run(TrackingAreaUpdate, ue, 3);
    }
    assert!(w.cta.metrics().failover_up_to_date > 0);

    // 3. A lost checkpoint: the scan asks the primary to re-send it.
    w.run(InitialAttach, 31, 1);
    let settled = w.cta.log_bytes();
    w.drop_rule = Some(Box::new(|to, msg| {
        matches!(msg, SysMsg::StateSync(s) if s.ue == UeId::new(31)) && to != Dest::Client
    }));
    w.run(ServiceRequest, 31, 2);
    w.drop_rule = None;
    assert!(w.cta.log_bytes() > settled);
    w.now += Duration::from_secs(5);
    w.scan();
    assert_eq!(w.cta.metrics().resyncs_requested, 1);
    assert_eq!(
        w.cta.log_bytes(),
        settled,
        "the re-sent checkpoint was ACKed"
    );

    // 4. The primary itself missed the procedure's last message: it answers
    //    the chase with ResyncBehind and the CTA replays the log to it.
    w.run(InitialAttach, 41, 1);
    w.uplink(ServiceRequest, 41, 2, 0);
    w.drop_rule = Some(Box::new(|to, msg| {
        matches!(to, Dest::Cpf(_)) && matches!(msg, SysMsg::Control(e) if e.end_of_procedure)
    }));
    w.uplink(ServiceRequest, 41, 2, 2);
    w.drop_rule = None;
    w.now += Duration::from_secs(5);
    w.scan();
    assert_eq!(w.cta.metrics().resyncs_replayed, 1);
    assert_eq!(
        w.cta.log_bytes(),
        settled,
        "the caught-up primary checkpointed"
    );

    // 5. One replica's ACK is lost: the UE's next procedure marks it
    //    outdated and it fetches fresh state from a holder.
    w.run(InitialAttach, 51, 1);
    let laggard = w.cta.backups_for(UeId::new(51))[1];
    w.drop_rule = Some(Box::new(
        move |_, msg| matches!(msg, SysMsg::SyncAck(a) if a.replica == laggard && a.ue == UeId::new(51)),
    ));
    w.run(ServiceRequest, 51, 2);
    w.run(TrackingAreaUpdate, 51, 3);
    assert!(w.cta.metrics().outdated_notices > 0);
    // ...and with the ACKs still missing, the timeout gives up on them.
    w.now += Duration::from_secs(31);
    w.scan();
    w.drop_rule = None;
    assert!(w.cta.metrics().timeout_pruned > 0);

    // 6. Downlink data for an idle UE pages it through its primary.
    w.upf.table_mut().release(UeId::new(31));
    w.send(Dest::Upf, SysMsg::DownlinkData { ue: UeId::new(31) });
    w.drain();
    assert_eq!(
        w.cpfs.iter().map(|c| c.metrics().pages_sent).sum::<u64>(),
        1
    );

    let unexpected = w.cta.metrics().unexpected_msgs
        + w.cpfs
            .iter()
            .map(|c| c.metrics().unexpected_msgs)
            .sum::<u64>()
        + w.upf.unexpected_msgs();
    assert_eq!(unexpected, 0, "the script only sends along declared flows");
    (w.hash, w.calls, w)
}

#[test]
fn transcript_is_deterministic() {
    let (a, calls_a, _) = transcript(Mode::Direct);
    let (b, calls_b, _) = transcript(Mode::Direct);
    assert_eq!((a, calls_a), (b, calls_b));
}

fn assert_pinned(mode: Mode) -> World {
    let (hash, calls, w) = transcript(mode);
    assert!(
        w.to_client > 60,
        "downlinks reached the client: {}",
        w.to_client
    );
    // The hashed text, written on every run, so a re-pin can be audited by
    // `diff` against the same file written by the parent commit.
    let file = format!("transcript-{mode:?}.txt");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, &w.rendering).expect("writes the rendering");
    if (hash, calls) != (PINNED_TRANSCRIPT_HASH, PINNED_CALLS) {
        panic!(
            "the cores' outputs changed: got ({hash:#018x}, {calls}); rendering in {}",
            path.display()
        );
    }
    w
}

#[test]
fn transcript_matches_the_pinned_hash() {
    assert_pinned(Mode::Direct);
}

#[test]
fn sampled_transcript_matches_the_pinned_hash() {
    assert_pinned(Mode::Sampled);
}

#[test]
fn framed_transcript_matches_the_pinned_hash() {
    let w = assert_pinned(Mode::Framed);
    let malformed: u64 = w
        .cpfs
        .iter()
        .map(|c| c.metrics().malformed_payloads + c.metrics().malformed_snapshots)
        .sum();
    assert_eq!(malformed, 0, "every stored image parsed when it was needed");
    let unread = w
        .cpfs
        .iter()
        .flat_map(|c| c.store().iter())
        .filter(|(_, rec)| !rec.state.is_materialised())
        .count();
    assert!(
        unread > 0,
        "and the replicas that never served did not parse"
    );
}
