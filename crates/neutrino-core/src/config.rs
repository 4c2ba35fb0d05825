//! System configurations: the §6.2 baselines and Neutrino variants as data.

use neutrino_codec::CodecKind;
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
    /// DPCM's parallelism \[61\]: the CPF runs its UPF interaction in
    /// parallel with the procedure, and device-provided state lets it overlap
    /// request parsing with response building, so a message charges
    /// `max(parse, build)` instead of their sum.
    pub parallel: bool,
    /// Backup replica count N.
    pub replicas: usize,
    /// CTA ingress admission gate (overload control). `None` — the stock
    /// setting for every baseline — admits everything, preserving
    /// byte-identical behavior with pre-overload-control runs.
    pub admission: Option<AdmissionParams>,
    /// The protocol mutant every CTA and CPF plants (`test-support` only).
    #[cfg(feature = "test-support")]
    pub mutant: Option<neutrino_common::Mutant>,
}

impl SystemConfig {
    /// This configuration with the CTA admission gate enabled.
    pub fn with_admission(mut self, params: AdmissionParams) -> Self {
        self.admission = Some(params);
        self
    }

    /// Whether CPFs refuse to serve stale state: every system but SkyCore,
    /// whose any-peer failover serves whatever state the broadcast left.
    pub fn enforce_consistency(&self) -> bool {
        self.failover != FailoverPolicy::AnyPeer
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
            parallel: false,
            replicas: 2,
            admission: None,
            #[cfg(feature = "test-support")]
            mutant: None,
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
            parallel: false,
            replicas: 0,
            admission: None,
            #[cfg(feature = "test-support")]
            mutant: None,
        }
    }

    /// DPCM (§6.2): existing EPC with client-side state and parallelized
    /// control operations \[61\].
    pub fn dpcm() -> Self {
        SystemConfig {
            kind: SystemKind::Dpcm,
            name: "DPCM",
            parallel: true,
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
            parallel: false,
            replicas: 0,
            admission: None,
            #[cfg(feature = "test-support")]
            mutant: None,
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
        assert!(d.parallel && !e.parallel);
        assert_eq!(s.replication, ReplicationMode::PerMessage);
        assert!(!s.enforce_consistency() && n.enforce_consistency() && d.enforce_consistency());
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
