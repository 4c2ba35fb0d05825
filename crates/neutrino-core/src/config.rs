//! System configurations: the §6.2 baselines and Neutrino variants as data.

use neutrino_codec::CodecKind;
use neutrino_common::time::Duration;
use neutrino_cpf::ReplicationMode;
use neutrino_cta::{AdmissionParams, FailoverPolicy};

/// Which published system a configuration models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// The paper's system.
    Neutrino,
    /// Existing EPC (modified OpenAirInterface, §6.2).
    ExistingEpc,
    /// DPCM \[37\]: device-side state, parallelized control operations.
    Dpcm,
    /// SkyCore \[40\]: per-message state broadcast.
    SkyCore,
}

/// How inter-region handovers run (§4.3 / Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoverPolicy {
    /// UE state migrates to the target before the handover completes
    /// ("Neutrino - Default", and all non-Neutrino baselines).
    MigrateOnDemand,
    /// The target already holds a proactive level-2 replica: fast handover
    /// ("Neutrino - Proactive").
    Proactive,
}

/// CPU provisioning of the simulated nodes, mirroring §5's "five CPF
/// instances, each running on two CPU cores (one for processing requests
/// and the second one for state synchronization)".
#[derive(Debug, Clone, Copy)]
pub struct CpuProfile {
    /// Request-processing cores per CPF (the second, sync core is modeled by
    /// not charging checkpoint *encoding* to this core — §4.2.2's
    /// non-blocking replication).
    pub cpf_cores: usize,
    /// Cores per CTA (DPDK producer/consumer threads).
    pub cta_cores: usize,
    /// Cores per UPF.
    pub upf_cores: usize,
    /// Cores of the traffic-generator node (never the bottleneck).
    pub uepop_cores: usize,
    /// Fixed per-message state-machine cost on a CPF besides serialization
    /// (hash lookups, state mutation).
    pub cpf_state_update: Duration,
    /// Per-message lock/checkpoint overhead a CPF pays when replicating on
    /// *every* message (Fig. 15's "frequent state locking").
    pub per_message_lock: Duration,
    /// Per-message routing cost on the CTA.
    pub cta_route: Duration,
    /// In-memory log append cost per logged message (a map insert + clone;
    /// §6.7.2 shows it is negligible — but not zero).
    pub cta_log_append: Duration,
    /// S11 session-table operation cost on the UPF.
    pub upf_s11: Duration,
    /// Global scale on CPF service times, calibrating absolute saturation
    /// points to the paper's testbed: with 5 CPF instances, existing EPC
    /// saturates near 60K attach procedures/s (§6.3, Fig. 8). The *relative*
    /// behavior of the systems comes entirely from the measured codec costs;
    /// this factor only positions the knees on the paper's x-axis (the
    /// authors' Xeon cores run a full OAI stack per message; our CPF state
    /// machine is far leaner).
    pub cpf_scale: f64,
}

impl Default for CpuProfile {
    fn default() -> Self {
        CpuProfile {
            cpf_cores: 1,
            cta_cores: 4,
            upf_cores: 4,
            uepop_cores: 64,
            cpf_state_update: Duration::from_nanos(800),
            per_message_lock: Duration::from_micros(3),
            cta_route: Duration::from_nanos(400),
            cta_log_append: Duration::from_nanos(150),
            upf_s11: Duration::from_micros(2),
            cpf_scale: 8.0,
        }
    }
}

/// A complete system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which system this models.
    pub kind: SystemKind,
    /// Display name for experiment output.
    pub name: &'static str,
    /// Control-message serialization.
    pub codec: CodecKind,
    /// State replication mode.
    pub replication: ReplicationMode,
    /// CTA failure recovery policy.
    pub failover: FailoverPolicy,
    /// Whether the CTA keeps the in-memory message log.
    pub logging: bool,
    /// Handover policy.
    pub handover: HandoverPolicy,
    /// DPCM's parallel UPF interaction.
    pub parallel_upf: bool,
    /// DPCM's operation parallelism \[61\]: device-provided state lets the
    /// CPF overlap request parsing with response building, so a message
    /// charges `max(parse, build)` instead of their sum.
    pub parallel_ops: bool,
    /// Whether CPFs refuse to serve stale state.
    pub enforce_consistency: bool,
    /// Backup replica count N.
    pub replicas: usize,
    /// CPU provisioning.
    pub cpu: CpuProfile,
    /// CTA ingress admission gate (overload control). `None` — the stock
    /// setting for every baseline — admits everything, preserving
    /// byte-identical behavior with pre-overload-control runs.
    pub admission: Option<AdmissionParams>,
}

impl SystemConfig {
    /// This configuration with the CTA admission gate enabled.
    pub fn with_admission(mut self, params: AdmissionParams) -> Self {
        self.admission = Some(params);
        self
    }
}

impl SystemConfig {
    /// Neutrino as evaluated (§6.2): optimized FlatBuffers, per-procedure
    /// replication, message log, replay-based recovery, proactive
    /// geo-replication.
    pub fn neutrino() -> Self {
        SystemConfig {
            kind: SystemKind::Neutrino,
            name: "Neutrino",
            codec: CodecKind::FastbufOptimized,
            replication: ReplicationMode::PerProcedure,
            failover: FailoverPolicy::ReplayFromLog,
            logging: true,
            handover: HandoverPolicy::Proactive,
            parallel_upf: false,
            parallel_ops: false,
            enforce_consistency: true,
            replicas: 2,
            cpu: CpuProfile::default(),
            admission: None,
        }
    }

    /// "Neutrino - Default" (Fig. 11): no proactive replication in the
    /// handover path; state migrates on demand.
    pub fn neutrino_default_handover() -> Self {
        SystemConfig {
            name: "Neutrino-Default",
            handover: HandoverPolicy::MigrateOnDemand,
            ..Self::neutrino()
        }
    }

    /// Fig. 15's "No Rep": Neutrino without replication or logging.
    pub fn neutrino_no_replication() -> Self {
        SystemConfig {
            name: "Neutrino-NoRep",
            replication: ReplicationMode::None,
            logging: false,
            failover: FailoverPolicy::ReAttach,
            ..Self::neutrino()
        }
    }

    /// Fig. 15's "Per Msg Rep": Neutrino with per-message replication.
    pub fn neutrino_per_message() -> Self {
        SystemConfig {
            name: "Neutrino-PerMsg",
            replication: ReplicationMode::PerMessage,
            ..Self::neutrino()
        }
    }

    /// Fig. 16's "No logging": Neutrino with the CTA message log disabled.
    pub fn neutrino_no_logging() -> Self {
        SystemConfig {
            name: "Neutrino-NoLog",
            logging: false,
            ..Self::neutrino()
        }
    }

    /// Existing EPC (§6.2): ASN.1, no replication, re-attach on failure,
    /// DPDK I/O (the CTA still front-ends as the load balancer \[14\]).
    pub fn existing_epc() -> Self {
        SystemConfig {
            kind: SystemKind::ExistingEpc,
            name: "ExistingEPC",
            codec: CodecKind::Asn1Per,
            replication: ReplicationMode::None,
            failover: FailoverPolicy::ReAttach,
            logging: false,
            handover: HandoverPolicy::MigrateOnDemand,
            parallel_upf: false,
            parallel_ops: false,
            enforce_consistency: true,
            replicas: 0,
            cpu: CpuProfile::default(),
            admission: None,
        }
    }

    /// DPCM (§6.2): existing EPC with client-side state and parallelized
    /// control operations \[61\].
    pub fn dpcm() -> Self {
        SystemConfig {
            kind: SystemKind::Dpcm,
            name: "DPCM",
            parallel_upf: true,
            parallel_ops: true,
            ..Self::existing_epc()
        }
    }

    /// SkyCore (§6.2): existing EPC with user state synchronized on each
    /// control message \[40\].
    pub fn skycore() -> Self {
        SystemConfig {
            kind: SystemKind::SkyCore,
            name: "SkyCore",
            codec: CodecKind::Asn1Per,
            replication: ReplicationMode::PerMessage,
            failover: FailoverPolicy::AnyPeer,
            logging: false,
            handover: HandoverPolicy::MigrateOnDemand,
            parallel_upf: false,
            parallel_ops: false,
            enforce_consistency: false,
            replicas: 0,
            cpu: CpuProfile::default(),
            admission: None,
        }
    }

    /// The four §6.2 comparison systems in the order the figures list them.
    pub fn comparison_set() -> Vec<SystemConfig> {
        vec![
            Self::existing_epc(),
            Self::dpcm(),
            Self::skycore(),
            Self::neutrino(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_differ_in_the_right_knobs() {
        let n = SystemConfig::neutrino();
        let e = SystemConfig::existing_epc();
        let d = SystemConfig::dpcm();
        let s = SystemConfig::skycore();
        assert_eq!(n.codec, CodecKind::FastbufOptimized);
        assert_eq!(e.codec, CodecKind::Asn1Per);
        assert!(d.parallel_upf && !e.parallel_upf);
        assert_eq!(s.replication, ReplicationMode::PerMessage);
        assert_eq!(n.replication, ReplicationMode::PerProcedure);
        assert!(n.logging && !e.logging);
    }

    #[test]
    fn variants_share_the_neutrino_base() {
        let v = SystemConfig::neutrino_per_message();
        assert_eq!(v.codec, CodecKind::FastbufOptimized);
        assert_eq!(v.replication, ReplicationMode::PerMessage);
        let v = SystemConfig::neutrino_no_logging();
        assert!(!v.logging);
        assert_eq!(v.replication, ReplicationMode::PerProcedure);
        let v = SystemConfig::neutrino_default_handover();
        assert_eq!(v.handover, HandoverPolicy::MigrateOnDemand);
    }

    #[test]
    fn comparison_set_has_four_distinct_systems() {
        let set = SystemConfig::comparison_set();
        assert_eq!(set.len(), 4);
        let kinds: std::collections::BTreeSet<_> = set.iter().map(|c| c.kind as u8).collect();
        assert_eq!(kinds.len(), 4);
    }
}
