//! Builds a complete simulated deployment from a [`SystemConfig`].

use crate::config::{SystemConfig, SystemKind};
use crate::simnode::{
    cpf_node, cta_node, upf_node, Costed, CpfNode, CtaNode, SimNode, UpfNode, UEPOP_NODE,
};
use crate::uepop::{UePopConfig, UePopResults, UePopulation, Workload};
use neutrino_common::time::{Duration, Instant};
use neutrino_common::CpfId;
use neutrino_cpf::{CpfConfig, CpfCore, CpfMetrics};
use neutrino_cta::{CtaConfig, CtaCore, CtaMetrics};
use neutrino_geo::{Deployment, RegionLayout};
use neutrino_messages::SysMsg;
use neutrino_netsim::{FaultSpec, LinkSpec, Links, NodeId, Sim, SimConfig};
use neutrino_upf::UpfCore;

/// The simulator's message type: protocol traffic plus the bootstrap kick
/// for the UE population's arrival loop.
#[derive(Debug, Clone, PartialEq)]
pub enum SimMsg {
    /// Protocol traffic.
    Sys(SysMsg),
    /// Bootstraps the arrival pump.
    Kick,
}

/// Latency of a same-region hop (BS↔CTA, CTA↔CPF, CPF↔UPF): the paper's
/// testbed is two servers on 40 GbE with DPDK kernel-bypass I/O (§6) —
/// single-digit microseconds one way.
pub const INTRA_REGION_LATENCY: Duration = Duration::from_micros(5);

/// Link latencies of the edge deployment.
#[derive(Debug, Clone, Copy)]
pub struct LinkProfile {
    /// Cross-region hops (CPF ↔ level-2 replica CPFs): different edge sites.
    pub inter_region: Duration,
    /// Maximum deterministic per-hop jitter (uniform in `0..=jitter`,
    /// re-rolled per [`ExperimentSpec::seed`](crate::experiment::ExperimentSpec::seed)).
    /// Zero — the default — keeps every link delay exact.
    pub jitter: Duration,
    /// Seeded fault injection applied to every link (loss, duplication,
    /// bounded reorder). [`FaultSpec::NONE`] — the default — keeps the
    /// fault-free event stream byte-identical to the pre-fault engine.
    pub faults: FaultSpec,
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile {
            inter_region: Duration::from_micros(500),
            jitter: Duration::ZERO,
            faults: FaultSpec::NONE,
        }
    }
}

/// A built simulation plus its id maps.
pub struct Cluster {
    /// The simulator.
    pub sim: Sim<SimMsg>,
    /// The deployment it models.
    pub deployment: Deployment,
    config: SystemConfig,
}

impl Cluster {
    /// Builds a cluster: per level-1 region one CTA, a CPF pool, UPFs; one
    /// UE-population node emulating all UEs and base stations. The engine
    /// config (runaway-event budget) and jitter seed come from the caller;
    /// [`experiment::build`](crate::experiment::build) derives both from
    /// its spec.
    ///
    /// `shards` must be 1: shim for the frozen `benchmark/` caller; a later `benchmark` PR deletes it.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_sim(
        config: SystemConfig,
        layout: RegionLayout,
        workload: Workload,
        uecfg: UePopConfig,
        links_profile: LinkProfile,
        sim_config: SimConfig,
        seed: u64,
        shards: usize,
    ) -> Cluster {
        assert_eq!(
            shards, 1,
            "the sharded engine was removed; shards must be 1"
        );
        let deployment = Deployment::build(layout, config.replicas);

        // Links: intra-region by default, cross-region overridden.
        let jitter = links_profile.jitter;
        let mut links = Links::with_default(LinkSpec {
            latency: INTRA_REGION_LATENCY,
            jitter,
        });
        links.set_seed(seed);
        links.set_fault_default(links_profile.faults);
        let inter = LinkSpec {
            latency: links_profile.inter_region,
            jitter,
        };
        for a in deployment.regions() {
            for b in deployment.regions() {
                if a.id == b.id {
                    continue;
                }
                for &ca in &a.cpfs {
                    for &cb in &b.cpfs {
                        links.set(cpf_node(ca), cpf_node(cb), inter);
                    }
                    links.set_symmetric(cta_node(b.cta), cpf_node(ca), inter);
                }
            }
        }
        let mut sim = Sim::with_config(links, sim_config);

        // UE population. All workload traffic enters through region 0's CTA
        // and CPF pool — the paper's testbed drives one pool of five CPF
        // instances (§5); sibling regions host the level-2 backup replicas
        // and handover targets.
        let population = UePopulation::new(uecfg, workload, &config, &deployment);
        sim.add_node(UEPOP_NODE, Box::new(population));

        // Per-region control plane.
        for region in deployment.regions() {
            let Some(ring) = deployment.ring_stack(region.id) else {
                continue;
            };
            let cta_cfg = CtaConfig {
                id: region.cta,
                logging: config.logging,
                failover: config.failover,
                codec: config.codec,
                admission: config.admission,
                #[cfg(feature = "test-support")]
                mutant: config.mutant,
            };
            sim.add_node(
                cta_node(region.cta),
                Box::new(CtaNode::new(
                    CtaCore::new(cta_cfg, ring.clone()),
                    config.clone(),
                )),
            );
            let remote_peers: Vec<_> = deployment
                .level2_siblings(region.id)
                .iter()
                .filter_map(|&r| deployment.region(r))
                .flat_map(|r| r.cpfs.clone())
                .collect();
            for &cpf in &region.cpfs {
                let cpf_cfg = CpfConfig {
                    id: cpf,
                    replication: config.replication,
                    ring: if config.kind == SystemKind::Neutrino {
                        Some(ring.clone())
                    } else {
                        None
                    },
                    peers: region.cpfs.clone(),
                    remote_peers: remote_peers.clone(),
                    upfs: region.upfs.clone(),
                    enforce_consistency: config.enforce_consistency(),
                    home_cta: region.cta,
                    parallel_upf: config.parallel,
                    #[cfg(feature = "test-support")]
                    mutant: config.mutant,
                };
                sim.add_node(
                    cpf_node(cpf),
                    Box::new(CpfNode::new(CpfCore::new(cpf_cfg), config.clone())),
                );
            }
            for &upf in &region.upfs {
                sim.add_node(
                    upf_node(upf),
                    Box::new(UpfNode::new(UpfCore::with_cta(upf, region.cta), config.clone())),
                );
            }
        }

        // Bootstrap the arrival pump.
        sim.inject_at(Instant::ZERO, UEPOP_NODE, SimMsg::Kick);

        Cluster {
            sim,
            deployment,
            config,
        }
    }

    /// The system configuration this cluster runs.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Crashes a CTA at `at` (failure scenario 4: its UEs re-attach through
    /// another region's CTA after their retries run out — no notice is
    /// delivered anywhere, because "we do not backup CTA state", §4.2.5).
    pub fn fail_cta_at(&mut self, at: Instant, region_index: usize) {
        let cta = self.deployment.regions()[region_index].cta;
        self.sim.crash_at(at, cta_node(cta));
    }

    /// Crashes a CPF at `at` and delivers the failure notice to every CTA
    /// and every surviving CPF right after (failure *detection* time is
    /// excluded from PCT, §6.4). CPFs need the notice too: their ring views
    /// drive checkpoint targeting, and must drop the dead peer in lockstep
    /// with the CTA's ACK expectations.
    pub fn fail_cpf_at(&mut self, at: Instant, cpf: CpfId) {
        self.sim.crash_at(at, cpf_node(cpf));
        let notice_at = at + Duration::from_micros(1);
        let ctas: Vec<_> = self.deployment.regions().iter().map(|r| r.cta).collect();
        for cta in ctas {
            self.sim.inject_at(
                notice_at,
                cta_node(cta),
                SimMsg::Sys(SysMsg::CpfFailure { cpf }),
            );
        }
        for peer in self.deployment.all_cpfs() {
            if peer != cpf {
                self.sim.inject_at(
                    notice_at,
                    cpf_node(peer),
                    SimMsg::Sys(SysMsg::CpfFailure { cpf }),
                );
            }
        }
    }

    /// Injects downlink user data for `ue` arriving at its region's first
    /// UPF at `at` (the §3.1 reachability experiments).
    pub fn inject_downlink_data_at(&mut self, at: Instant, ue: neutrino_common::UeId) {
        let upf = self.deployment.regions()[0].upfs
            [ue.raw() as usize % self.deployment.regions()[0].upfs.len().max(1)];
        self.sim
            .inject_at(at, upf_node(upf), SimMsg::Sys(SysMsg::DownlinkData { ue }));
    }

    /// Every control-plane node (CTAs, CPFs, UPFs), region by region.
    fn control_nodes(deployment: &Deployment) -> impl Iterator<Item = NodeId> + '_ {
        deployment.regions().iter().flat_map(|r| {
            std::iter::once(cta_node(r.cta))
                .chain(r.cpfs.iter().map(|&c| cpf_node(c)))
                .chain(r.upfs.iter().map(|&u| upf_node(u)))
        })
    }

    /// Runs `f` over every simulated node whose core is a `C`, in
    /// [`Cluster::control_nodes`] order (the downcast is the role filter).
    fn each_node<C: Costed + 'static>(&mut self, mut f: impl FnMut(&mut SimNode<C>)) {
        for id in Self::control_nodes(&self.deployment) {
            if let Some(node) = self.sim.node_as::<SimNode<C>>(id) {
                f(node);
            }
        }
    }

    /// Marks a UE's session idle at its UPF (emulates the S1 inactivity
    /// release, which our procedure set does not model as messages).
    pub fn release_ue_to_idle(&mut self, ue: neutrino_common::UeId) {
        self.each_node::<UpfCore>(|node| node.core_mut().table_mut().release(ue));
    }

    /// Downlink delivery log across all UPFs: `(time, ue, delivered)`.
    pub fn downlink_log(&mut self) -> Vec<(Instant, neutrino_common::UeId, bool)> {
        let mut out = Vec::new();
        self.each_node::<UpfCore>(|node| out.extend_from_slice(node.downlink_log()));
        out.sort();
        out
    }

    /// Runs until `deadline` (virtual time).
    pub fn run_until(&mut self, deadline: Instant) {
        self.sim.run_until(deadline);
    }

    /// The UE-population node (read-mostly access for invariant oracles);
    /// `None` only for a simulator the cluster did not build.
    pub fn population(&mut self) -> Option<&mut UePopulation> {
        self.sim.node_as::<UePopulation>(UEPOP_NODE)
    }

    /// Extracts the UE population's results.
    pub fn take_results(&mut self) -> UePopResults {
        self.population()
            .map(UePopulation::take_results)
            .unwrap_or_default()
    }

    /// Peak CTA log footprint across all regions (Fig. 17).
    pub fn max_log_bytes(&mut self) -> usize {
        let mut total = 0;
        self.each_node::<CtaCore>(|node| total += node.core().max_log_bytes());
        total
    }

    /// The CPF currently serving a UE, according to region 0's CTA (the
    /// entry point for all workload traffic).
    pub fn serving_cpf(&mut self, ue: neutrino_common::UeId) -> Option<CpfId> {
        let cta = self.deployment.regions()[0].cta;
        self.sim
            .node_as::<CtaNode>(cta_node(cta))?
            .core()
            .primary_for(ue)
    }

    /// The state version the UE's serving CPF holds (consistency checks).
    pub fn ue_state_version(
        &mut self,
        ue: neutrino_common::UeId,
    ) -> Option<neutrino_messages::state::StateVersion> {
        let cpf = self.serving_cpf(ue)?;
        let node = self.sim.node_as::<CpfNode>(cpf_node(cpf))?;
        node.core().store().get(ue).map(|r| r.state.version())
    }

    /// Whether the UE's serving CPF may serve it right now (fresh state).
    pub fn ue_servable(&mut self, ue: neutrino_common::UeId) -> bool {
        match self.serving_cpf(ue) {
            Some(cpf) => self
                .sim
                .node_as::<CpfNode>(cpf_node(cpf))
                .map(|n| n.core().store().servable(ue))
                .unwrap_or(false),
            None => false,
        }
    }

    /// Aggregated CTA metrics.
    pub fn cta_metrics(&mut self) -> CtaMetrics {
        let mut agg = CtaMetrics::default();
        self.each_node::<CtaCore>(|node| agg.merge(&node.core().metrics()));
        agg
    }

    /// Largest engine queue depth across the control-plane nodes (CTAs,
    /// CPFs, UPFs) — the `bounded-queue` invariant's observable. The UE
    /// population node is excluded: it models the device fleet, not a
    /// control-plane queue.
    pub fn max_control_queue_depth(&self) -> usize {
        Self::control_nodes(&self.deployment)
            .filter_map(|id| self.sim.stats(id))
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Aggregated CPF metrics.
    pub fn cpf_metrics(&mut self) -> CpfMetrics {
        let mut agg = CpfMetrics::default();
        self.each_node::<CpfCore>(|node| agg.merge(&node.core().metrics()));
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentSpec;

    /// The `benchmark/` shim: the eighth argument only ever admits 1.
    #[test]
    #[should_panic(expected = "shards must be 1")]
    fn build_with_sim_rejects_a_shard_request() {
        Cluster::build_with_sim(
            SystemConfig::neutrino(),
            RegionLayout::default(),
            Workload::from_vec(Vec::new()),
            UePopConfig::default(),
            LinkProfile::default(),
            SimConfig::default(),
            0,
            2,
        );
    }

    /// `cpf_metrics()` sums every counter the CPFs keep: one control message
    /// whose payload bytes no codec accepts, delivered to one CPF.
    #[test]
    fn cpf_metrics_reports_malformed_payloads() {
        use neutrino_codec::CodecKind;
        use neutrino_common::{ProcedureId, UeId};
        use neutrino_messages::{Envelope, MessageKind, Payload, ProcedureKind};
        let mut cluster = crate::experiment::build(ExperimentSpec::new(
            SystemConfig::neutrino(),
            Workload::from_vec(Vec::new()),
        ));
        let mut bad = Envelope::uplink(
            UeId::new(1),
            ProcedureId::FIRST,
            ProcedureKind::InitialAttach,
            MessageKind::InitialUeMessage.sample(1),
        );
        bad.msg = Payload::from_wire(MessageKind::InitialUeMessage, CodecKind::Asn1Per, &[]);
        let cpf = cluster.deployment.all_cpfs()[0];
        let at = Instant::from_micros(1);
        cluster
            .sim
            .inject_at(at, cpf_node(cpf), SimMsg::Sys(SysMsg::Control(bad)));
        cluster.run_until(Instant::from_micros(1_000_000));
        assert_eq!(cluster.cpf_metrics().malformed_payloads, 1);
    }

    /// A CTA expects replica ACKs exactly when its failover is not a
    /// re-attach, which stands for "the system replicates". Every preset
    /// must keep that premise, and its cluster's CTA must hold a completed
    /// attach in its ACK index exactly when the system replicates.
    #[test]
    fn a_cta_awaits_acks_exactly_when_its_system_replicates() {
        use crate::uepop::Arrival;
        use neutrino_common::UeId;
        use neutrino_cpf::ReplicationMode;
        use neutrino_cta::FailoverPolicy;
        use neutrino_messages::ProcedureKind;
        let presets = [
            SystemConfig::neutrino(),
            SystemConfig::neutrino_default_handover(),
            SystemConfig::neutrino_no_replication(),
            SystemConfig::neutrino_per_message(),
            SystemConfig::neutrino_no_logging(),
            SystemConfig::existing_epc(),
            SystemConfig::dpcm(),
            SystemConfig::skycore(),
        ];
        for config in presets {
            let name = config.name;
            let replicates = config.replication != ReplicationMode::None;
            let recovers_from_replicas = config.failover != FailoverPolicy::ReAttach;
            assert_eq!(replicates, recovers_from_replicas, "{name}");
            let attach = Arrival {
                at: Instant::from_millis(1),
                ue: UeId::new(1),
                kind: ProcedureKind::InitialAttach,
            };
            let spec = ExperimentSpec::new(config, Workload::from_vec(vec![attach]));
            let mut cluster = crate::experiment::build(spec);
            let (mut kept, end) = (false, Instant::from_secs(1));
            while let Some(at) = cluster.sim.next_event_at().filter(|&t| t < end) {
                cluster.run_until(at);
                cluster.each_node::<CtaCore>(|node| {
                    kept |= node.core().log().completed().next().is_some();
                });
            }
            let completed = cluster.take_results().completed;
            assert_eq!(completed, 1, "{name}: the attach completes");
            assert_eq!(kept, replicates, "{name}");
        }
    }

    #[test]
    fn experiment_spec_shards_shim_defaults_to_one() {
        let spec = ExperimentSpec::new(SystemConfig::neutrino(), Workload::from_vec(Vec::new()));
        assert_eq!(spec.shards, 1);
    }
}
