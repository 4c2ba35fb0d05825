//! An in-process real-time deployment: every node on its own thread,
//! crossbeam channels as links.
//!
//! The mesh runs the *same* sans-IO cores as the simulator, against the
//! wall clock, through the same [`RoleCore`] contract: one generic pump per
//! thread feeds a core messages, calls `on_deadline` when its deadline
//! passes and routes its effects. Every message is actually encoded with
//! [`framing`](crate::framing) and decoded on the receiving thread — the
//! live path exercises the real serialization engine, exactly like the
//! paper's testbed.

use crate::framing::{decode_sysmsg, encode_sysmsg};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use neutrino_codec::CodecKind;
use neutrino_common::time::Instant;
use neutrino_common::CpfId;
use neutrino_cpf::CpfCore;
use neutrino_cta::CtaCore;
use neutrino_messages::flow::{Effect, Role, RoleCore};
use neutrino_messages::SysMsg;
use neutrino_upf::UpfCore;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

pub use neutrino_messages::flow::NodeAddr;

enum MeshMsg {
    /// A wire-encoded system message.
    Sys(Vec<u8>),
    Stop,
}

/// Mesh configuration.
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Codec every hop is serialized with.
    pub codec: CodecKind,
    /// Must be `true` ([`Mesh::new`] asserts it): every hop goes through
    /// the real framing layer. Kept because the frozen `benchmark/` sets it.
    pub serialize_on_wire: bool,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            codec: CodecKind::FastbufOptimized,
            serialize_on_wire: true,
        }
    }
}

#[derive(Clone)]
struct Router {
    config: MeshConfig,
    links: Arc<Mutex<HashMap<NodeAddr, Sender<MeshMsg>>>>,
    epoch: std::time::Instant,
}

impl Router {
    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn send(&self, to: NodeAddr, msg: &SysMsg) {
        let tx = match self.links.lock().get(&to) {
            Some(tx) => tx.clone(),
            None => return, // destination gone (shutdown)
        };
        // The frame crosses a channel, so it must be owned — but one Vec
        // instead of the old BytesMut-then-copy pair.
        let mut frame = Vec::new();
        if encode_sysmsg(msg, self.config.codec, &mut frame).is_ok() {
            let _ = tx.send(MeshMsg::Sys(frame));
        }
    }

    /// `None` for a frame no codec accepts (and for a stray `Stop`).
    fn decode(&self, m: MeshMsg) -> Option<SysMsg> {
        match m {
            MeshMsg::Sys(frame) => decode_sysmsg(&frame, self.config.codec).ok(),
            MeshMsg::Stop => None,
        }
    }

    fn route<O: Into<Effect>>(&self, outs: Vec<O>) {
        for out in outs {
            match out.into() {
                Effect::Send(to, msg) => self.send(to, &msg),
                // Data-plane outcomes surface to the client side.
                Effect::Delivered(ue) => self.send(NodeAddr::Client, &SysMsg::DownlinkData { ue }),
                Effect::Undeliverable(_) => {}
            }
        }
    }

    /// The one node loop: block for a message until the core's deadline,
    /// run what is due, route what comes out. `Stop` (or a closed link) ends
    /// it; an undecodable frame is counted and skipped. Returns that count.
    fn pump<C: RoleCore>(&self, mut core: C, rx: Receiver<MeshMsg>) -> u64 {
        let mut undecodable = 0;
        loop {
            // The deadline is checked before every receive, so a link that
            // is never empty cannot starve it.
            let received = match core.next_deadline() {
                None => rx.recv().ok(),
                Some(due) => {
                    let now = self.now();
                    if due <= now {
                        self.route(core.on_deadline(now));
                        continue;
                    }
                    match rx.recv_timeout((due - now).into()) {
                        Err(RecvTimeoutError::Timeout) => continue,
                        other => other.ok(),
                    }
                }
            };
            let msg = match received {
                None | Some(MeshMsg::Stop) => return undecodable,
                Some(m) => self.decode(m),
            };
            match msg {
                Some(msg) => self.route(core.on_message(msg, self.now())),
                None => undecodable += 1,
            }
        }
    }
}

/// A running mesh.
pub struct Mesh {
    router: Router,
    nodes: Vec<(NodeAddr, JoinHandle<u64>)>,
    client_rx: Receiver<MeshMsg>,
}

impl Mesh {
    /// Builds a mesh and registers the client endpoint. Panics unless
    /// `config.serialize_on_wire`: the mesh has no unserialised hop.
    pub fn new(config: MeshConfig) -> Mesh {
        assert!(config.serialize_on_wire, "every mesh hop is serialized");
        let router = Router {
            config,
            links: Arc::new(Mutex::new(HashMap::new())),
            epoch: std::time::Instant::now(),
        };
        let (tx, rx) = unbounded();
        router.links.lock().insert(NodeAddr::Client, tx);
        Mesh {
            router,
            nodes: Vec::new(),
            client_rx: rx,
        }
    }

    /// Spawns a node: a thread running the pump over `core`, reachable at
    /// `core.addr()`.
    #[expect(
        clippy::disallowed_methods,
        reason = "the mesh's one node thread: every role runs this pump"
    )]
    pub fn spawn<C: RoleCore + Send + 'static>(&mut self, core: C) {
        let addr = core.addr();
        let (tx, rx) = unbounded();
        self.router.links.lock().insert(addr, tx);
        let router = self.router.clone();
        self.nodes
            .push((addr, std::thread::spawn(move || router.pump(core, rx))));
    }

    /// [`Mesh::spawn`] for a CTA: the name the frozen `benchmark/` calls.
    pub fn spawn_cta(&mut self, core: CtaCore) {
        self.spawn(core)
    }

    /// [`Mesh::spawn`] for a CPF: the name the frozen `benchmark/` calls.
    pub fn spawn_cpf(&mut self, core: CpfCore) {
        self.spawn(core)
    }

    /// [`Mesh::spawn`] for a UPF: the name the frozen `benchmark/` calls.
    pub fn spawn_upf(&mut self, core: UpfCore) {
        self.spawn(core)
    }

    /// Crashes a CPF: stops and deregisters it, then delivers the failure
    /// notice to every CTA and every surviving CPF — the recipients
    /// `Cluster::fail_cpf_at` notifies in the simulator (failure *detection*
    /// is outside the protocol, §6.4). Returns the undecodable frames the
    /// node had skipped.
    pub fn kill(&mut self, cpf: CpfId) -> u64 {
        let dead = NodeAddr::Cpf(cpf);
        let Some(at) = self.nodes.iter().position(|(addr, _)| *addr == dead) else {
            return 0;
        };
        if let Some(tx) = self.router.links.lock().remove(&dead) {
            let _ = tx.send(MeshMsg::Stop);
        }
        let skipped = join(self.nodes.swap_remove(at).1);
        for (addr, _) in &self.nodes {
            if matches!(addr.role(), Role::Cta | Role::Cpf) {
                self.router.send(*addr, &SysMsg::CpfFailure { cpf });
            }
        }
        skipped
    }

    /// Sends a message into the mesh (as the UE/BS side).
    pub fn send(&self, to: NodeAddr, msg: &SysMsg) {
        self.router.send(to, msg);
    }

    /// Receives the next message addressed to the client, with a timeout.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<SysMsg> {
        self.router.decode(self.client_rx.recv_timeout(timeout).ok()?)
    }

    /// The elapsed mesh clock.
    pub fn now(&self) -> Instant {
        self.router.now()
    }

    /// Stops every node thread and joins them. Returns the undecodable
    /// frames the nodes had skipped.
    pub fn shutdown(self) -> u64 {
        let links: Vec<Sender<MeshMsg>> = self.router.links.lock().values().cloned().collect();
        for tx in links {
            let _ = tx.send(MeshMsg::Stop);
        }
        self.nodes.into_iter().map(|(_, h)| join(h)).sum()
    }
}

/// Joins a node thread; its panic is this thread's.
fn join(handle: JoinHandle<u64>) -> u64 {
    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutrino_common::time::Duration;
    use neutrino_common::{BsId, CtaId, ProcedureId, UeId, UpfId};
    use neutrino_cpf::CpfConfig;
    use neutrino_cta::CtaConfig;
    use neutrino_geo::RingStack;
    use neutrino_messages::procedures::ProcedureKind;
    use neutrino_messages::{Direction, Envelope, MessageKind};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The ids of a small single-region mesh.
    struct SmallDeployment {
        /// The CTA.
        cta: CtaId,
        /// The CPF pool.
        cpfs: Vec<CpfId>,
        /// The UPF.
        upf: UpfId,
        /// The client-side BS id.
        bs: BsId,
    }

    impl Default for SmallDeployment {
        fn default() -> Self {
            SmallDeployment {
                cta: CtaId::new(0),
                cpfs: (0..5).map(CpfId::new).collect(),
                upf: UpfId::new(0),
                bs: BsId::new(0),
            }
        }
    }

    fn ring(dep: &SmallDeployment) -> RingStack {
        RingStack::new(&dep.cpfs, &[], 2)
    }

    fn build_mesh(config: MeshConfig) -> (Mesh, SmallDeployment) {
        let dep = SmallDeployment::default();
        let ring = ring(&dep);
        let mut mesh = Mesh::new(config);
        mesh.spawn(CtaCore::new(
            CtaConfig::neutrino(dep.cta, config.codec),
            ring.clone(),
        ));
        for &cpf in &dep.cpfs {
            mesh.spawn(CpfCore::new(CpfConfig::neutrino(
                cpf,
                ring.clone(),
                vec![dep.upf],
            )));
        }
        mesh.spawn(UpfCore::new(dep.upf));
        (mesh, dep)
    }

    /// Drives a full attach through the live mesh as the UE/BS.
    fn attach(mesh: &Mesh, dep: &SmallDeployment, ue: u64) {
        let timeout = std::time::Duration::from_secs(5);
        let send_ul = |kind: MessageKind, eop: bool| {
            let mut env = Envelope::uplink(
                UeId::new(ue),
                ProcedureId::new(1),
                ProcedureKind::InitialAttach,
                kind.sample(ue),
            )
            .from_bs(dep.bs);
            if eop {
                env = env.ending_procedure();
            }
            mesh.send(NodeAddr::Cta(dep.cta), &SysMsg::Control(env));
        };
        let expect_dl = |kind: MessageKind| {
            let dl = mesh.recv_timeout(timeout).expect("downlink arrives");
            match dl {
                SysMsg::Control(env) => {
                    assert_eq!(env.direction, Direction::Downlink);
                    assert_eq!(env.msg.kind(), kind);
                }
                other => panic!("unexpected {}", other.label()),
            }
        };
        send_ul(MessageKind::InitialUeMessage, false);
        expect_dl(MessageKind::AuthenticationRequest);
        send_ul(MessageKind::AuthenticationResponse, false);
        expect_dl(MessageKind::SecurityModeCommand);
        send_ul(MessageKind::SecurityModeComplete, false);
        let dl = mesh.recv_timeout(timeout).expect("ICS request arrives");
        assert!(matches!(
            dl,
            SysMsg::Control(ref env)
                if env.msg.kind() == MessageKind::InitialContextSetupRequest
        ));
        send_ul(MessageKind::InitialContextSetupResponse, false);
        send_ul(MessageKind::AttachComplete, true);
    }

    /// Starts a service request for `ue` at `to` and returns the answer.
    fn service_request(mesh: &Mesh, dep: &SmallDeployment, to: NodeAddr, ue: u64) -> SysMsg {
        let env = Envelope::uplink(
            UeId::new(ue),
            ProcedureId::new(2),
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest.sample(ue),
        )
        .from_bs(dep.bs);
        mesh.send(to, &SysMsg::Control(env));
        recv(mesh)
    }

    fn recv(mesh: &Mesh) -> SysMsg {
        mesh.recv_timeout(std::time::Duration::from_secs(5))
            .expect("a response")
    }

    fn asks_re_attach(resp: &SysMsg, who: u64) -> bool {
        matches!(resp, SysMsg::AskReAttach { ue } if *ue == UeId::new(who))
    }

    fn restores_bearers(resp: &SysMsg) -> bool {
        matches!(
            resp,
            SysMsg::Control(e) if e.msg.kind() == MessageKind::InitialContextSetupRequest
        )
    }

    #[test]
    fn live_mesh_completes_attach_with_wire_serialization() {
        let (mesh, dep) = build_mesh(MeshConfig::default());
        attach(&mesh, &dep, 7);
        // A follow-up service request also completes.
        let dl = service_request(&mesh, &dep, NodeAddr::Cta(dep.cta), 7);
        assert!(restores_bearers(&dl), "{}", dl.label());
        assert_eq!(mesh.shutdown(), 0);
    }

    #[test]
    fn live_mesh_works_with_asn1_wire() {
        let (mesh, dep) = build_mesh(MeshConfig {
            codec: CodecKind::Asn1Per,
            ..MeshConfig::default()
        });
        attach(&mesh, &dep, 9);
        mesh.shutdown();
    }

    #[test]
    fn stale_ue_is_asked_to_re_attach_live() {
        let (mesh, dep) = build_mesh(MeshConfig::default());
        let resp = service_request(&mesh, &dep, NodeAddr::Cta(dep.cta), 1234);
        assert!(asks_re_attach(&resp, 1234));
        mesh.shutdown();
    }

    /// One malformed frame used to end the receiving node's thread.
    #[test]
    fn an_undecodable_frame_is_counted_and_skipped() {
        let (mesh, dep) = build_mesh(MeshConfig::default());
        let primary = ring(&dep).primary(UeId::new(7)).expect("ring is populated");
        let link = mesh.router.links.lock()[&NodeAddr::Cpf(primary)].clone();
        link.send(MeshMsg::Sys(vec![0xFF; 7])).expect("node is up");
        attach(&mesh, &dep, 7);
        assert_eq!(mesh.shutdown(), 1);
    }

    /// A message the protocol answers through `via` and the CTA to the
    /// client: once the answer is here, `via` and then the CTA have handled
    /// everything queued before it (links are FIFO). The UE is one nobody
    /// has state for, so the answer is a re-attach request.
    fn fence(mesh: &Mesh, dep: &SmallDeployment, via: NodeAddr, ue: u64) {
        assert!(asks_re_attach(&service_request(mesh, dep, via, ue), ue));
    }

    /// §4.2.5 on the live path: the primary dies, the CTA promotes a backup
    /// that holds the attach checkpoint, the UE never notices.
    fn serves_through_a_primary_crash(codec: CodecKind) {
        let (mut mesh, dep) = build_mesh(MeshConfig {
            codec,
            ..MeshConfig::default()
        });
        let ring = ring(&dep);
        let ue = 7;
        let primary = ring.primary(UeId::new(ue)).expect("ring is populated");
        attach(&mesh, &dep, ue);
        // Let replication settle without sleeping: a stranger that hashes to
        // the same primary fences CTA → primary (the checkpoints are out),
        // then one per backup fences backup → CTA (the ACKs are in).
        let stranger = (1_000..)
            .find(|s| ring.primary(UeId::new(*s)) == Some(primary))
            .expect("some UE hashes there");
        fence(&mesh, &dep, NodeAddr::Cta(dep.cta), stranger);
        for backup in ring.backups(UeId::new(ue)) {
            fence(&mesh, &dep, NodeAddr::Cpf(backup), stranger);
        }
        mesh.kill(primary);
        // The stranger was mid-procedure on the dead CPF with no replica
        // anywhere (scenario 3); the attached UE is served by a backup.
        assert!(asks_re_attach(&recv(&mesh), stranger));
        let dl = service_request(&mesh, &dep, NodeAddr::Cta(dep.cta), ue);
        assert!(restores_bearers(&dl), "{codec}: got {}", dl.label());
        mesh.shutdown();
    }

    #[test]
    fn live_mesh_serves_through_a_primary_crash() {
        serves_through_a_primary_crash(CodecKind::Asn1Per);
        serves_through_a_primary_crash(CodecKind::FastbufOptimized);
    }

    /// Asks for `on_deadline` every 50 ms and counts the calls that were due.
    struct Ticker {
        due: Instant,
        ticks: Arc<AtomicU64>,
    }

    const TICK: Duration = Duration::from_millis(50);

    impl RoleCore for Ticker {
        type Output = Effect;

        fn addr(&self) -> NodeAddr {
            NodeAddr::Upf(UpfId::new(99))
        }

        fn on_message(&mut self, _msg: SysMsg, _now: Instant) -> Vec<Effect> {
            Vec::new()
        }

        fn on_deadline(&mut self, now: Instant) -> Vec<Effect> {
            if self.due <= now {
                self.due = now + TICK;
                self.ticks.fetch_add(1, Ordering::Relaxed);
            }
            Vec::new()
        }

        fn next_deadline(&self) -> Option<Instant> {
            Some(self.due)
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "an idle pump is observed by sleeping in host time"
    )]
    fn the_pump_honours_deadlines_idle_and_under_traffic() {
        let ticks = Arc::new(AtomicU64::new(0));
        let mut mesh = Mesh::new(MeshConfig::default());
        let ticker = Ticker {
            due: mesh.now() + TICK,
            ticks: ticks.clone(),
        };
        let addr = ticker.addr();
        mesh.spawn(ticker);
        let patience = std::time::Duration::from_secs(5);
        let wait_for = |n: u64, busy: bool| {
            let begin = std::time::Instant::now();
            while ticks.load(Ordering::Relaxed) < n {
                assert!(begin.elapsed() < patience, "stuck below {n} ticks (busy: {busy})");
                if busy {
                    // Far faster than one message per 50 ms: the link is
                    // never empty when the pump looks.
                    mesh.send(addr, &SysMsg::DownlinkData { ue: UeId::new(1) });
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }
        };
        wait_for(2, false);
        let idle = ticks.load(Ordering::Relaxed);
        wait_for(idle + 2, true);
        mesh.shutdown();
    }
}
