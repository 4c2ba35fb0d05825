//! `live_pump`: the live path's processor cost per procedure, with no
//! simulator and no second thread.
//!
//! One `CtaCore`, five `CpfCore`s and one `UpfCore` are driven in a closed
//! loop, one procedure at a time. Every hop is `encode_sysmsg` → FIFO →
//! `decode_sysmsg` → `handle`, as on `neutrino-net`'s mesh; the UE side
//! follows `ProcedureKind::template()`. The uplink messages are built in
//! set-up, so a repeat times the control plane and not the sample builders.

use crate::alloc_meter;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{first_ue, splitmix64, Repeat, Workload};
use neutrino_codec::CodecKind;
use neutrino_common::time::Instant;
use neutrino_common::{BsId, CpfId, CtaId, ProcedureId, UeId, UpfId};
use neutrino_cpf::{CpfConfig, CpfCore, CpfOutput};
use neutrino_cta::{CtaConfig, CtaCore, CtaOutput};
use neutrino_geo::RingStack;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::{Direction, Envelope, SysMsg};
use neutrino_net::{decode_sysmsg, encode_sysmsg};
use neutrino_upf::{UpfCore, UpfOutput};
use std::collections::VecDeque;
use std::time::Instant as HostInstant;

const CPFS: u64 = 5;

/// The span and metric names of one codec's pass.
struct CodecNames {
    span: &'static str,
    encode_ns: &'static str,
    decode_ns: &'static str,
    bytes_per_msg: &'static str,
}

/// The codecs a repeat runs the whole script under.
const CODECS: [(CodecKind, CodecNames); 2] = [
    (
        CodecKind::Asn1Per,
        CodecNames {
            span: "pump.per",
            encode_ns: "framing.encode_ns.per",
            decode_ns: "framing.decode_ns.per",
            bytes_per_msg: "framing.bytes_per_msg.per",
        },
    ),
    (
        CodecKind::FastbufOptimized,
        CodecNames {
            span: "pump.fastbuf",
            encode_ns: "framing.encode_ns.fastbuf",
            decode_ns: "framing.decode_ns.fastbuf",
            bytes_per_msg: "framing.bytes_per_msg.fastbuf",
        },
    ),
];

/// The phases every UE goes through, in order, each with the metric its
/// exact message count is reported under: attach, three rounds of service
/// request, a tracking-area update, detach.
const PHASES: [(ProcedureKind, &str); 6] = [
    (ProcedureKind::InitialAttach, "pump.msgs_per_proc.attach"),
    (ProcedureKind::ServiceRequest, "pump.msgs_per_proc.sr"),
    (ProcedureKind::ServiceRequest, "pump.msgs_per_proc.sr"),
    (ProcedureKind::ServiceRequest, "pump.msgs_per_proc.sr"),
    (ProcedureKind::TrackingAreaUpdate, "pump.msgs_per_proc.tau"),
    (ProcedureKind::Detach, "pump.msgs_per_proc.detach"),
];

/// Where time goes inside the pump.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Part {
    Procedure,
    Hop,
    Encode,
    Decode,
    Cta,
    Cpf,
    Upf,
}

const PARTS: usize = 7;

impl Part {
    fn span_name(self) -> &'static str {
        match self {
            Part::Procedure => "pump.procedure",
            Part::Hop => "pump.hop",
            Part::Encode => "framing.encode",
            Part::Decode => "framing.decode",
            Part::Cta => "cta.handle",
            Part::Cpf => "cpf.handle",
            Part::Upf => "upf.handle",
        }
    }
}

/// Observer of the pump loop. The untraced pump is generic over [`NoProbe`],
/// whose calls compile to nothing.
trait Probe {
    type Mark;
    /// Called before the `n`th procedure of a pass starts.
    fn begin_procedure(&mut self, _n: u64) {}
    fn enter(&mut self, part: Part, procedure: u64) -> Self::Mark;
    fn exit(&mut self, part: Part, mark: Self::Mark);
    /// Busy nanoseconds and calls per [`Part`], if this probe counts them.
    fn busy(&self) -> Option<([u64; PARTS], [u64; PARTS])> {
        None
    }
}

struct NoProbe;

impl Probe for NoProbe {
    type Mark = ();
    #[inline(always)]
    fn enter(&mut self, _: Part, _: u64) {}
    #[inline(always)]
    fn exit(&mut self, _: Part, (): ()) {}
}

/// Adds every call to per-part busy-time and call counters, and keeps the
/// full span tree of the procedures it is told to sample.
struct BusyProbe<'a> {
    busy_ns: [u64; PARTS],
    calls: [u64; PARTS],
    tracer: &'a mut Tracer,
    /// Whether this pass keeps the span tree of every 64th procedure, and
    /// whether the procedure now running is one of them.
    keep_trees: bool,
    sampled: bool,
}

impl Probe for BusyProbe<'_> {
    type Mark = (Option<HostInstant>, Option<u32>);

    fn begin_procedure(&mut self, n: u64) {
        self.sampled = self.keep_trees && n.is_multiple_of(64);
    }

    fn busy(&self) -> Option<([u64; PARTS], [u64; PARTS])> {
        Some((self.busy_ns, self.calls))
    }

    fn enter(&mut self, part: Part, procedure: u64) -> Self::Mark {
        let span = self
            .sampled
            .then(|| self.tracer.open(part.span_name(), Some(procedure)));
        // A hop is a span of the sampled trees only: no counter reads it.
        ((part != Part::Hop).then(HostInstant::now), span)
    }

    fn exit(&mut self, part: Part, (start, span): Self::Mark) {
        if let Some(start) = start {
            self.busy_ns[part as usize] += start.elapsed().as_nanos() as u64;
            self.calls[part as usize] += 1;
        }
        if let Some(id) = span {
            self.tracer.close(id);
        }
    }
}

#[derive(Clone, Copy)]
enum Dest {
    Client,
    Cta,
    Cpf(usize),
    Upf,
}

/// The deployment and the FIFO between its nodes.
struct Pump<P: Probe> {
    codec: CodecKind,
    cta: CtaCore,
    cpfs: Vec<CpfCore>,
    upf: UpfCore,
    fifo: VecDeque<(Dest, Vec<u8>)>,
    spare: Vec<Vec<u8>>,
    msgs: u64,
    bytes: u64,
    /// Check `decode(encode(m)) == m` on every message (warm-up repeats).
    verify: bool,
    probe: P,
}

impl<P: Probe> Pump<P> {
    fn new(codec: CodecKind, verify: bool, probe: P) -> Self {
        let cpf_ids: Vec<CpfId> = (0..CPFS).map(CpfId::new).collect();
        let ring = RingStack::new(&cpf_ids, &[], 2);
        Pump {
            codec,
            cta: CtaCore::new(CtaConfig::neutrino(CtaId::new(0), codec), ring.clone()),
            cpfs: cpf_ids
                .iter()
                .map(|&id| CpfCore::new(CpfConfig::neutrino(id, ring.clone(), vec![UpfId::new(0)])))
                .collect(),
            upf: UpfCore::new(UpfId::new(0)),
            fifo: VecDeque::new(),
            spare: Vec::new(),
            msgs: 0,
            bytes: 0,
            verify,
            probe,
        }
    }

    fn send(&mut self, to: Dest, msg: &SysMsg, procedure: u64) -> Result<(), String> {
        let mut frame = self.spare.pop().unwrap_or_default();
        let mark = self.probe.enter(Part::Encode, procedure);
        let encoded = encode_sysmsg(msg, self.codec, &mut frame);
        self.probe.exit(Part::Encode, mark);
        encoded.map_err(|e| format!("encode {}: {e}", msg.label()))?;
        if self.verify {
            let back = decode_sysmsg(&frame, self.codec)
                .map_err(|e| format!("decode {}: {e}", msg.label()))?;
            if back != *msg {
                return Err(format!(
                    "{} does not survive {} framing",
                    msg.label(),
                    self.codec
                ));
            }
        }
        self.msgs += 1;
        self.bytes += frame.len() as u64;
        self.fifo.push_back((to, frame));
        Ok(())
    }

    /// Runs one procedure of `ue` to quiescence. `uplinks` are its uplink
    /// messages in template order. Returns host nanoseconds from the first
    /// uplink to the last downlink.
    fn run_procedure(
        &mut self,
        kind: ProcedureKind,
        ue: UeId,
        procedure: ProcedureId,
        uplinks: &[SysMsg],
        uid: u64,
    ) -> Result<u64, String> {
        let steps = &kind.template().steps;
        let last_downlink = steps
            .iter()
            .rposition(|s| s.direction == Direction::Downlink)
            .expect("every template has a downlink");
        let outer = self.probe.enter(Part::Procedure, uid);
        let started = HostInstant::now();
        let mut latency_ns = None;
        let (mut step, mut next_ul) = (0, 0);
        while step < steps.len() && steps[step].direction == Direction::Uplink {
            self.send(Dest::Cta, &uplinks[next_ul], uid)?;
            next_ul += 1;
            step += 1;
        }
        while let Some((dest, frame)) = self.fifo.pop_front() {
            let hop = self.probe.enter(Part::Hop, uid);
            let mark = self.probe.enter(Part::Decode, uid);
            let decoded = decode_sysmsg(&frame, self.codec);
            self.probe.exit(Part::Decode, mark);
            self.spare.push(frame);
            let msg = decoded.map_err(|e| format!("decode: {e}"))?;
            match dest {
                Dest::Client => {
                    let expected = matches!(
                        &msg,
                        SysMsg::Control(env)
                            if env.direction == Direction::Downlink
                                && env.ue == ue
                                && env.procedure == procedure
                                && step < steps.len()
                                && steps[step].direction == Direction::Downlink
                                && env.msg.kind() == steps[step].kind
                    );
                    if !expected {
                        return Err(format!(
                            "{kind} of UE {}: unexpected {} at template step {step}",
                            ue.raw(),
                            msg.label()
                        ));
                    }
                    if step == last_downlink {
                        latency_ns = Some(started.elapsed().as_nanos() as u64);
                    }
                    step += 1;
                    while step < steps.len() && steps[step].direction == Direction::Uplink {
                        self.send(Dest::Cta, &uplinks[next_ul], uid)?;
                        next_ul += 1;
                        step += 1;
                    }
                }
                Dest::Cta => {
                    let mark = self.probe.enter(Part::Cta, uid);
                    // A deterministic clock: one microsecond per message.
                    let outs = self.cta.handle(msg, Instant::from_micros(self.msgs));
                    self.probe.exit(Part::Cta, mark);
                    for out in outs {
                        match out {
                            CtaOutput::ToCpf { cpf, msg } => {
                                self.send(Dest::Cpf(cpf.raw() as usize), &msg, uid)?
                            }
                            CtaOutput::ToBs { msg, .. } => self.send(Dest::Client, &msg, uid)?,
                        }
                    }
                }
                Dest::Cpf(i) => {
                    let mark = self.probe.enter(Part::Cpf, uid);
                    let outs = self.cpfs[i].handle(msg);
                    self.probe.exit(Part::Cpf, mark);
                    for out in outs {
                        match out {
                            CpfOutput::ToCta { msg, .. } => self.send(Dest::Cta, &msg, uid)?,
                            CpfOutput::ToCpf { cpf, msg } => {
                                self.send(Dest::Cpf(cpf.raw() as usize), &msg, uid)?
                            }
                            CpfOutput::ToUpf { msg, .. } => self.send(Dest::Upf, &msg, uid)?,
                        }
                    }
                }
                Dest::Upf => {
                    let mark = self.probe.enter(Part::Upf, uid);
                    let outs = self.upf.handle(msg);
                    self.probe.exit(Part::Upf, mark);
                    for out in outs {
                        match out {
                            UpfOutput::ToCpf { cpf, msg } => {
                                self.send(Dest::Cpf(cpf.raw() as usize), &msg, uid)?
                            }
                            UpfOutput::ToCta { msg, .. } => self.send(Dest::Cta, &msg, uid)?,
                            UpfOutput::Delivered { .. } | UpfOutput::Undeliverable { .. } => {
                                return Err("user data in a control-only workload".into())
                            }
                        }
                    }
                }
            }
            self.probe.exit(Part::Hop, hop);
        }
        self.probe.exit(Part::Procedure, outer);
        if step != steps.len() {
            return Err(format!(
                "{kind} of UE {} stopped at template step {step} of {}",
                ue.raw(),
                steps.len()
            ));
        }
        latency_ns.ok_or_else(|| format!("{kind} of UE {}: no downlink", ue.raw()))
    }

    fn unexpected_msgs(&self) -> u64 {
        self.cta.metrics().unexpected_msgs
            + self
                .cpfs
                .iter()
                .map(|c| c.metrics().unexpected_msgs)
                .sum::<u64>()
            + self.upf.unexpected_msgs()
    }
}

/// One phase's pre-built inputs.
struct Phase {
    kind: ProcedureKind,
    msgs_metric: &'static str,
    procedure: ProcedureId,
    /// Per UE, the uplink messages of the procedure in template order.
    uplinks: Vec<Vec<SysMsg>>,
    /// The order UEs are visited in.
    order: Vec<u32>,
}

pub struct PumpWorkload {
    first_ue: u64,
    phases: Vec<Phase>,
    /// Warm-up repeats check every frame's round trip.
    verify: bool,
    /// Span trees are kept for every 64th procedure of the first traced
    /// repeat only; later repeats keep counters and phase spans.
    trees_kept: bool,
}

impl PumpWorkload {
    pub const UES: u64 = 4_000;

    /// Builds every uplink message and every visiting order from `seed`.
    pub fn new(seed: u64, ues: u64) -> Self {
        let first_ue = first_ue(seed);
        let mut rng = seed ^ 0x5EED_F00D;
        let phases = PHASES
            .iter()
            .enumerate()
            .map(|(i, &(kind, msgs_metric))| {
                let procedure = ProcedureId::new(i as u64 + 1);
                let steps = &kind.template().steps;
                let uplinks = (0..ues)
                    .map(|u| {
                        let ue = UeId::new(first_ue + u);
                        steps
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| s.direction == Direction::Uplink)
                            .map(|(idx, s)| {
                                let mut env =
                                    Envelope::uplink(ue, procedure, kind, s.kind.sample(ue.raw()))
                                        .from_bs(BsId::new(ue.raw() % 8));
                                if idx + 1 == steps.len() {
                                    env = env.ending_procedure();
                                }
                                SysMsg::Control(env)
                            })
                            .collect()
                    })
                    .collect();
                // Fisher-Yates on the visiting order.
                let mut order: Vec<u32> = (0..ues as u32).collect();
                for j in (1..order.len()).rev() {
                    order.swap(j, (splitmix64(&mut rng) % (j as u64 + 1)) as usize);
                }
                Phase {
                    kind,
                    msgs_metric,
                    procedure,
                    uplinks,
                    order,
                }
            })
            .collect();
        PumpWorkload {
            first_ue,
            phases,
            verify: false,
            trees_kept: false,
        }
    }

    /// Runs the whole script under one codec.
    fn pass<P: Probe>(
        &self,
        codec: CodecKind,
        probe: P,
        latencies_us: &mut Vec<f64>,
        repeat: &mut Repeat,
    ) -> Result<Pass, String> {
        let mut pump = Pump::new(codec, self.verify, probe);
        let mut procs = 0u64;
        for phase in &self.phases {
            let mut per_proc = None;
            for &u in &phase.order {
                let ue = UeId::new(self.first_ue + u64::from(u));
                // Unique per procedure: the id spans of one procedure share.
                let uid = ue.raw() * 8 + phase.procedure.raw();
                pump.probe.begin_procedure(procs);
                let before = pump.msgs;
                let ns = pump.run_procedure(
                    phase.kind,
                    ue,
                    phase.procedure,
                    &phase.uplinks[u as usize],
                    uid,
                )?;
                latencies_us.push(ns as f64 / 1e3);
                let used = pump.msgs - before;
                if *per_proc.get_or_insert(used) != used {
                    return Err(format!(
                        "{} took {used} messages for UE {}, {} for others",
                        phase.kind,
                        ue.raw(),
                        per_proc.unwrap_or(0)
                    ));
                }
                procs += 1;
            }
            repeat
                .layers
                .set(phase.msgs_metric, per_proc.unwrap_or(0) as f64);
        }
        if pump.unexpected_msgs() != 0 {
            return Err(format!(
                "{} unexpected messages in the pump",
                pump.unexpected_msgs()
            ));
        }
        Ok(Pass {
            procs,
            msgs: pump.msgs,
            bytes: pump.bytes,
            busy: pump.probe.busy(),
        })
    }
}

/// What one codec's pass over the script counted.
struct Pass {
    procs: u64,
    msgs: u64,
    bytes: u64,
    busy: Option<([u64; PARTS], [u64; PARTS])>,
}

impl Workload for PumpWorkload {
    fn warm_up(&mut self) -> Result<Repeat, String> {
        self.verify = true;
        let repeat = self.run(None);
        self.verify = false;
        repeat
    }

    fn run(&mut self, mut tracer: Option<&mut Tracer>) -> Result<Repeat, String> {
        let start = HostInstant::now();
        let mut repeat = Repeat::default();
        let mut latencies_us = Vec::new();
        let root = tracer.as_mut().map(|t| t.open("repeat", None));
        let keep_trees = tracer.is_some() && !self.trees_kept;
        let allocs_before = alloc_meter::count();
        let (mut busy_ns, mut calls) = ([0u64; PARTS], [0u64; PARTS]);
        for (codec, names) in CODECS {
            let pass = match tracer.as_mut() {
                None => self.pass(codec, NoProbe, &mut latencies_us, &mut repeat)?,
                Some(t) => {
                    let span = t.open(names.span, None);
                    let probe = BusyProbe {
                        busy_ns: [0; PARTS],
                        calls: [0; PARTS],
                        tracer: t,
                        keep_trees,
                        sampled: false,
                    };
                    let pass = self.pass(codec, probe, &mut latencies_us, &mut repeat)?;
                    t.close(span);
                    pass
                }
            };
            if let Some((b, c)) = pass.busy {
                let per_call = |p: Part| b[p as usize] as f64 / c[p as usize].max(1) as f64;
                let layers = &mut repeat.layers;
                layers.set(names.encode_ns, per_call(Part::Encode));
                layers.set(names.decode_ns, per_call(Part::Decode));
                layers.set(names.bytes_per_msg, pass.bytes as f64 / pass.msgs as f64);
                for i in 0..PARTS {
                    busy_ns[i] += b[i];
                    calls[i] += c[i];
                }
            }
            repeat.procs += pass.procs;
            repeat.events += pass.msgs;
            repeat.digest = repeat
                .digest
                .wrapping_mul(0x0000_0100_0000_01b3)
                .wrapping_add(pass.msgs ^ pass.bytes.rotate_left(32) ^ pass.procs.rotate_left(48));
        }
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.close(root);
            self.trees_kept = true;
            let l = &mut repeat.layers;
            let per_call = |p: Part| busy_ns[p as usize] as f64 / calls[p as usize].max(1) as f64;
            l.set("cta.handle_ns", per_call(Part::Cta));
            l.set("cpf.handle_ns", per_call(Part::Cpf));
            l.set("upf.handle_ns", per_call(Part::Upf));
            l.set("cta.handle_calls", calls[Part::Cta as usize] as f64);
            l.set("cpf.handle_calls", calls[Part::Cpf as usize] as f64);
            l.set("upf.handle_calls", calls[Part::Upf as usize] as f64);
            // The loop's own time: hops minus what they spent in layers.
            let in_layers: u64 = [Part::Encode, Part::Decode, Part::Cta, Part::Cpf, Part::Upf]
                .iter()
                .map(|&p| busy_ns[p as usize])
                .sum();
            let own = busy_ns[Part::Procedure as usize].saturating_sub(in_layers);
            l.set("pump.dispatch_self_ns", own as f64 / repeat.events as f64);
            l.set(
                "pump.allocs_per_msg",
                (alloc_meter::count() - allocs_before) as f64 / repeat.events as f64,
            );
        }
        repeat.wall_s = start.elapsed().as_secs_f64();
        repeat.attempted = repeat.procs;
        repeat
            .layers
            .set("pump.proc_p50_us", stats::median(&latencies_us));
        repeat
            .layers
            .set("pump.proc_p99_us", stats::supported_tail(&latencies_us).0);
        Ok(repeat)
    }
}
