//! Unit-cost probes run at the end of a traced run: what one call into a
//! layer costs on this host, measured from outside through the layer's
//! public functions. Each runs under the one workload it should move.

use crate::pump::PumpWorkload;
use crate::ring::RingWorkload;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{splitmix64, Layers, Workload};
use neutrino_bench::schedbench::{drive_heap, drive_wheel};
use neutrino_codec::CodecKind;
use neutrino_common::stats::Percentiles;
use neutrino_common::{ProcedureId, UeId};
use neutrino_core::simnode::cpf_service_time;
use neutrino_core::SystemConfig;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::{ControlMessage, Direction, Envelope, MessageKind, SysMsg};
use std::hint::black_box;
use std::time::Instant as HostInstant;

fn ns_per(iterations: u64, start: HostInstant) -> f64 {
    start.elapsed().as_nanos() as f64 / iterations as f64
}

/// `WireFormat` encode and decode on the two messages that dominate the
/// attach and service-request flows.
fn codec(layers: &mut Layers) {
    const ROUNDS: u64 = 20_000;
    let kinds = [
        MessageKind::InitialContextSetupRequest,
        MessageKind::ServiceRequest,
    ];
    for (kind, encode_key, decode_key) in [
        (
            CodecKind::Asn1Per,
            "codec.per.encode_ns",
            "codec.per.decode_ns",
        ),
        (
            CodecKind::FastbufOptimized,
            "codec.fastbuf.encode_ns",
            "codec.fastbuf.decode_ns",
        ),
    ] {
        let codec = kind.instance();
        let msgs: Vec<ControlMessage> = kinds.iter().map(|k| k.sample(7)).collect();
        let mut buf = Vec::new();
        let start = HostInstant::now();
        for _ in 0..ROUNDS {
            for m in &msgs {
                buf.clear();
                black_box(m)
                    .encode(codec.as_ref(), &mut buf)
                    .expect("sample encodes");
                black_box(&buf);
            }
        }
        layers.set(encode_key, ns_per(ROUNDS * 2, start));
        let frames: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| {
                let mut f = Vec::new();
                m.encode(codec.as_ref(), &mut f).expect("sample encodes");
                f
            })
            .collect();
        let start = HostInstant::now();
        for _ in 0..ROUNDS {
            for (k, f) in kinds.iter().zip(&frames) {
                black_box(
                    ControlMessage::decode(*k, codec.as_ref(), black_box(f)).expect("decodes"),
                );
            }
        }
        layers.set(decode_key, ns_per(ROUNDS * 2, start));
    }
}

/// Nanoseconds per push+pop pair with `pending` keys resident, on the
/// engine-like delay mix of `crates/bench`'s `schedbench` (the schedule
/// behind `engine_wheel` in `BENCH_netsim.json`). The driver fills the
/// scheduler inside the call, so a fill-only call is timed and taken off.
fn sched_ns_per_op(drive: fn(u64, u64) -> u64, pending: u64) -> f64 {
    const OPS: u64 = 300_000;
    let timed = |ops| {
        let start = HostInstant::now();
        black_box(drive(ops, pending.max(1)));
        start.elapsed().as_nanos() as f64
    };
    let fill = timed(0);
    (timed(OPS) - fill).max(0.0) / OPS as f64
}

/// Wheel against heap on either side of the recorded crossover.
fn scheduler(layers: &mut Layers) {
    for (key, drive, pending) in [
        (
            "netsim.wheel_ns_per_op.d64",
            drive_wheel as fn(u64, u64) -> u64,
            64,
        ),
        ("netsim.wheel_ns_per_op.d4096", drive_wheel, 4096),
        ("netsim.heap_ns_per_op.d64", drive_heap, 64),
        ("netsim.heap_ns_per_op.d4096", drive_heap, 4096),
    ] {
        layers.set(key, sched_ns_per_op(drive, pending));
    }
}

/// Wheel against heap at the depth this workload's own scheduler reached.
fn scheduler_at_depth(layers: &mut Layers) {
    let depth = layers.get("netsim.max_sched_depth") as u64;
    layers.set(
        "netsim.wheel_ns_per_op.at_depth",
        sched_ns_per_op(drive_wheel, depth),
    );
    layers.set(
        "netsim.heap_ns_per_op.at_depth",
        sched_ns_per_op(drive_heap, depth),
    );
}

/// `Percentiles::push` and `summary` at the sample count `sim_steady`'s
/// busiest cell reaches.
fn percentiles(layers: &mut Layers) {
    const SAMPLES: u64 = 50_000;
    let mut rng = 1u64;
    let mut p = Percentiles::new();
    let start = HostInstant::now();
    for _ in 0..SAMPLES {
        p.push((splitmix64(&mut rng) % 1_000_000) as f64 / 1e3);
    }
    layers.set("common.percentiles_push_ns", ns_per(SAMPLES, start));
    let start = HostInstant::now();
    black_box(p.summary());
    layers.set(
        "common.percentiles_summary_ns_per_sample",
        ns_per(SAMPLES, start),
    );
}

/// `cpf_service_time` over the uplink messages of attach and service
/// request, under both systems' configurations.
fn service_time(layers: &mut Layers) {
    const ROUNDS: u64 = 20_000;
    let msgs: Vec<SysMsg> = [ProcedureKind::InitialAttach, ProcedureKind::ServiceRequest]
        .iter()
        .flat_map(|&kind| {
            kind.template()
                .steps
                .iter()
                .filter(|s| s.direction == Direction::Uplink)
                .map(move |s| {
                    SysMsg::Control(Envelope::uplink(
                        UeId::new(7),
                        ProcedureId::FIRST,
                        kind,
                        s.kind.sample(7),
                    ))
                })
        })
        .collect();
    let configs = [SystemConfig::existing_epc(), SystemConfig::neutrino()];
    let start = HostInstant::now();
    for _ in 0..ROUNDS {
        for config in &configs {
            for m in &msgs {
                black_box(cpf_service_time(black_box(config), black_box(m)));
            }
        }
    }
    let calls = ROUNDS * configs.len() as u64 * msgs.len() as u64;
    layers.set("core.service_time_ns", ns_per(calls, start));
}

/// The estimated shares of `netsim.run_s`: unit costs times the exact
/// counts the run reported. Estimated, not measured; what is left over is
/// what in-program spans would have to explain. The unit costs come from the
/// pump at a tenth of the UEs and the rings at a tenth of the horizon.
fn estimate_shares(layers: &mut Layers, seed: u64) -> Result<(), String> {
    let mut scratch = Tracer::new();
    let pump = PumpWorkload::new(seed, PumpWorkload::UES / 10).run(Some(&mut scratch))?;
    let ring = RingWorkload::probe(seed).run(Some(&mut scratch))?;
    let run_ns = layers.get("netsim.run_s") * 1e9;
    let ring_key = if layers.get("netsim.max_sched_depth") < 1024.0 {
        "netsim.ring_shallow_ns_per_event"
    } else {
        "netsim.ring_deep_ns_per_event"
    };
    let engine = ring.layers.get(ring_key) * layers.get("netsim.events") / run_ns;
    let handlers = ["cta", "cpf", "upf"]
        .iter()
        .map(|role| {
            pump.layers.get(&format!("{role}.handle_ns")) * layers.get(&format!("{role}.processed"))
        })
        .sum::<f64>()
        / run_ns;
    let costing = layers.get("core.service_time_ns") * layers.get("cpf.processed") / run_ns;
    layers.set("sim.est_engine_frac", engine);
    layers.set("sim.est_handler_frac", handlers);
    layers.set("sim.est_costing_frac", costing);
    layers.set("sim.unattributed_frac", 1.0 - engine - handlers - costing);
    Ok(())
}

/// Runs the probes that belong to `workload`'s layers: each unit cost is
/// measured once per `run --trace`, under the workload it should move.
pub fn run(layers: &mut Layers, workload: &str, seed: u64) -> Result<(), String> {
    match workload {
        "engine_ring" => scheduler(layers),
        "live_pump" => {
            codec(layers);
            net::run(layers)?;
        }
        _ => {
            scheduler_at_depth(layers);
            service_time(layers);
            if workload == "sim_steady" {
                percentiles(layers);
            }
            estimate_shares(layers, seed)?;
        }
    }
    Ok(())
}

/// The thread mesh and the UDP loopback, half a second each. Informational:
/// eight threads on this host's cores and the kernel's loopback path, so
/// the numbers are the scheduler's as much as the program's.
mod net {
    use super::*;
    use neutrino_common::{BsId, CpfId, CtaId, UpfId};
    use neutrino_cpf::{CpfConfig, CpfCore};
    use neutrino_cta::{CtaConfig, CtaCore};
    use neutrino_geo::RingStack;
    use neutrino_net::mesh::{Mesh, MeshConfig, NodeAddr};
    use neutrino_net::udp::UdpEndpoint;
    use neutrino_upf::UpfCore;
    use std::time::Duration as HostDuration;

    const WINDOW: u64 = 32;
    const BUDGET: HostDuration = HostDuration::from_millis(500);
    const TIMEOUT: HostDuration = HostDuration::from_secs(2);

    fn uplink(
        ue: u64,
        procedure: u64,
        kind: ProcedureKind,
        msg: MessageKind,
        last: bool,
    ) -> SysMsg {
        let mut env = Envelope::uplink(
            UeId::new(ue),
            ProcedureId::new(procedure),
            kind,
            msg.sample(ue),
        )
        .from_bs(BsId::new(0));
        if last {
            env = env.ending_procedure();
        }
        SysMsg::Control(env)
    }

    /// 32 UEs attach, then keep one service request each in flight.
    fn mesh(layers: &mut Layers) -> Result<(), String> {
        let codec = CodecKind::FastbufOptimized;
        let cpfs: Vec<CpfId> = (0..5).map(CpfId::new).collect();
        let ring = RingStack::new(&cpfs, &[], 2);
        let mut mesh = Mesh::new(MeshConfig {
            codec,
            serialize_on_wire: true,
        });
        mesh.spawn_cta(CtaCore::new(
            CtaConfig::neutrino(CtaId::new(0), codec),
            ring.clone(),
        ));
        for &cpf in &cpfs {
            mesh.spawn_cpf(CpfCore::new(CpfConfig::neutrino(
                cpf,
                ring.clone(),
                vec![UpfId::new(0)],
            )));
        }
        mesh.spawn_upf(UpfCore::new(UpfId::new(0)));
        let cta = NodeAddr::Cta(CtaId::new(0));
        let outcome = (|| {
            let attach = ProcedureKind::InitialAttach;
            for ue in 0..WINDOW {
                for step in &attach.template().steps {
                    match step.direction {
                        Direction::Uplink => mesh.send(
                            cta,
                            &uplink(
                                ue,
                                1,
                                attach,
                                step.kind,
                                step.kind == MessageKind::AttachComplete,
                            ),
                        ),
                        Direction::Downlink => {
                            mesh.recv_timeout(TIMEOUT)
                                .ok_or("mesh: attach downlink timed out")?;
                        }
                    }
                }
            }
            let sr = ProcedureKind::ServiceRequest;
            let mut started = vec![HostInstant::now(); WINDOW as usize];
            let mut next_proc = vec![2u64; WINDOW as usize];
            for ue in 0..WINDOW {
                started[ue as usize] = HostInstant::now();
                mesh.send(cta, &uplink(ue, 2, sr, MessageKind::ServiceRequest, false));
            }
            let mut rtts_us = Vec::new();
            let begin = HostInstant::now();
            while begin.elapsed() < BUDGET {
                let SysMsg::Control(env) = mesh
                    .recv_timeout(TIMEOUT)
                    .ok_or("mesh: downlink timed out")?
                else {
                    return Err("mesh: unexpected message at the client");
                };
                let u = env.ue.raw() as usize;
                rtts_us.push(started[u].elapsed().as_nanos() as f64 / 1e3);
                let done = next_proc[u];
                mesh.send(
                    cta,
                    &uplink(
                        env.ue.raw(),
                        done,
                        sr,
                        MessageKind::InitialContextSetupResponse,
                        true,
                    ),
                );
                next_proc[u] += 1;
                started[u] = HostInstant::now();
                mesh.send(
                    cta,
                    &uplink(
                        env.ue.raw(),
                        done + 1,
                        sr,
                        MessageKind::ServiceRequest,
                        false,
                    ),
                );
            }
            Ok((rtts_us, begin.elapsed().as_secs_f64()))
        })();
        mesh.shutdown();
        let (rtts_us, secs) = outcome?;
        layers.set("net.mesh.procs_per_s", rtts_us.len() as f64 / secs);
        layers.set("net.mesh.rtt_p50_us", stats::median(&rtts_us));
        Ok(())
    }

    /// One service request bounced between two loopback endpoints.
    fn udp(layers: &mut Layers) -> Result<(), String> {
        let codec = CodecKind::FastbufOptimized;
        let bind = || UdpEndpoint::bind("127.0.0.1:0", codec).map_err(|e| format!("udp bind: {e}"));
        let (a, b) = (bind()?, bind()?);
        let addr = |e: &UdpEndpoint| e.local_addr().map_err(|e| format!("udp addr: {e}"));
        let (a_addr, b_addr) = (addr(&a)?, addr(&b)?);
        let msg = uplink(
            5,
            1,
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest,
            false,
        );
        let mut rtts_us = Vec::new();
        let begin = HostInstant::now();
        while begin.elapsed() < BUDGET {
            let start = HostInstant::now();
            a.send_to(&msg, b_addr)
                .map_err(|e| format!("udp send: {e}"))?;
            let (got, _) = b
                .recv_timeout(TIMEOUT)
                .map_err(|e| format!("udp recv: {e}"))?;
            b.send_to(&got, a_addr)
                .map_err(|e| format!("udp send: {e}"))?;
            let (back, _) = a
                .recv_timeout(TIMEOUT)
                .map_err(|e| format!("udp recv: {e}"))?;
            if back != msg {
                return Err("udp: the message changed on the loopback".into());
            }
            rtts_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        layers.set("net.udp.rtt_p50_us", stats::median(&rtts_us));
        layers.set(
            "net.udp.msgs_per_s",
            2.0 * rtts_us.len() as f64 / begin.elapsed().as_secs_f64(),
        );
        Ok(())
    }

    /// Runs both. A host that forbids loopback sockets leaves the UDP
    /// numbers at 0 and says so; nothing gates on them.
    pub fn run(layers: &mut Layers) -> Result<(), String> {
        mesh(layers)?;
        if let Err(e) = udp(layers) {
            eprintln!("net.udp.* not measured: {e}");
        }
        Ok(())
    }
}
