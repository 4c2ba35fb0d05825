//! Live (wall-clock) deployment: the same protocol cores that run in the
//! simulator, on real threads with real hop-by-hop serialization. Acts as
//! the UE/BS, runs attach + service requests, and times them — once over
//! ASN.1 PER frames and once over optimized fastbuf frames.
//!
//! ```text
//! cargo run --example live_mesh --release
//! ```

use neutrino::codec::CodecKind;
use neutrino::prelude::*;
use neutrino_cpf::{CpfConfig, CpfCore};
use neutrino_cta::{CtaConfig, CtaCore};
use neutrino_geo::RingStack;
use neutrino_messages::{Envelope, MessageKind, SysMsg};
use neutrino_net::mesh::{Mesh, MeshConfig, NodeAddr};
use neutrino_upf::UpfCore;
use std::time::{Duration as StdDuration, Instant as StdInstant};

fn build(codec: CodecKind) -> Mesh {
    let cpfs: Vec<CpfId> = (0..5).map(CpfId::new).collect();
    let ring = RingStack::new(&cpfs, &[], 2);
    let mut mesh = Mesh::new(MeshConfig {
        codec,
        ..MeshConfig::default()
    });
    mesh.spawn(CtaCore::new(
        CtaConfig::neutrino(CtaId::new(0), codec),
        ring.clone(),
    ));
    for &cpf in &cpfs {
        mesh.spawn(CpfCore::new(CpfConfig::neutrino(
            cpf,
            ring.clone(),
            vec![UpfId::new(0)],
        )));
    }
    mesh.spawn(UpfCore::new(UpfId::new(0)));
    mesh
}

/// Runs one attach + N service requests as the UE; returns mean SR latency.
fn drive(mesh: &Mesh, ue: u64, service_requests: u32) -> StdDuration {
    let timeout = StdDuration::from_secs(5);
    let ul = |proc: u64, kind: ProcedureKind, msg: MessageKind, eop: bool| {
        let mut env = Envelope::uplink(
            UeId::new(ue),
            neutrino::common::ProcedureId::new(proc),
            kind,
            msg.sample(ue),
        )
        .from_bs(BsId::new(0));
        if eop {
            env = env.ending_procedure();
        }
        mesh.send(NodeAddr::Cta(CtaId::new(0)), &SysMsg::Control(env));
    };

    // Attach.
    ul(
        1,
        ProcedureKind::InitialAttach,
        MessageKind::InitialUeMessage,
        false,
    );
    mesh.recv_timeout(timeout).expect("attach accept");
    ul(
        1,
        ProcedureKind::InitialAttach,
        MessageKind::InitialContextSetupResponse,
        false,
    );
    ul(
        1,
        ProcedureKind::InitialAttach,
        MessageKind::AttachComplete,
        true,
    );

    // Timed service requests.
    let mut total = StdDuration::ZERO;
    for i in 0..service_requests {
        let started = StdInstant::now();
        ul(
            2 + u64::from(i),
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest,
            false,
        );
        mesh.recv_timeout(timeout).expect("bearer restore");
        total += started.elapsed();
        ul(
            2 + u64::from(i),
            ProcedureKind::ServiceRequest,
            MessageKind::InitialContextSetupResponse,
            true,
        );
    }
    total / service_requests
}

fn main() {
    const ROUNDS: u32 = 2_000;
    println!("live mesh: 1 CTA, 5 CPFs, 1 UPF on real threads; frames encoded per hop");
    for codec in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
        let mesh = build(codec);
        // Warm up the thread mesh before timing.
        drive(&mesh, 1, 50);
        let mean = drive(&mesh, 2, ROUNDS);
        println!(
            "  {:<14} mean service-request round trip over {ROUNDS} runs: {:>8.1} us",
            codec.name(),
            mean.as_secs_f64() * 1e6
        );
        mesh.shutdown();
    }
    println!("(wall-clock numbers include OS scheduling; the serialization gap");
    println!(" is the paper's §4.4 effect, live on your machine)");
}
