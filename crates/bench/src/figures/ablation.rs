//! Ablations beyond the paper's figures (DESIGN.md §6): the replica count
//! N, and the inter-region latency sensitivity of failure recovery — the
//! tradeoffs §4.3's footnote 14 alludes to.

use super::failure::failure_cell_outcome;
use crate::sweep::Cell;
use neutrino_common::stats::Summary;
use neutrino_common::time::Duration;
use neutrino_core::{LinkProfile, SystemConfig};
use neutrino_messages::procedures::ProcedureKind;
use serde::Serialize;

/// One replica-count ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaPoint {
    /// Backup replica count N.
    pub replicas: usize,
    /// Attach PCT summary at the probe rate.
    pub attach_p50_ms: f64,
    /// State checkpoints sent during the run.
    pub syncs_sent: u64,
    /// Peak CTA log bytes (more replicas → later full-ACK pruning).
    pub max_log_bytes: usize,
}

/// Sweeps the backup replica count N: failure-free cost of durability.
/// The paper fixes N implicitly; this quantifies the failure-free PCT and
/// sync-traffic price of each additional replica.
pub fn replica_sweep(rate_pps: u64, duration: Duration) -> Vec<Cell<ReplicaPoint>> {
    use neutrino_core::experiment::{run_experiment, ExperimentSpec};
    use neutrino_trafficgen::{uniform, UniformParams};

    [1usize, 2, 3, 4]
        .into_iter()
        .map(|replicas| {
            Box::new(move || {
                let mut config = SystemConfig::neutrino();
                config.replicas = replicas;
                let pool = (rate_pps * duration.as_nanos() / 1_000_000_000).max(1_000);
                let workload = uniform(UniformParams {
                    rate_pps,
                    duration,
                    kind: ProcedureKind::InitialAttach,
                    ues: pool,
                    first_ue: 0,
                    start: neutrino_common::time::Instant::ZERO,
                });
                let mut spec = ExperimentSpec::new(config, workload);
                spec.horizon = duration + Duration::from_secs(8);
                let mut results = run_experiment(spec);
                let s: Summary = results.summary(ProcedureKind::InitialAttach);
                ReplicaPoint {
                    replicas,
                    attach_p50_ms: s.p50,
                    syncs_sent: results.cpf.syncs_sent,
                    max_log_bytes: results.max_log_bytes,
                }
            }) as Cell<ReplicaPoint>
        })
        .collect()
}

/// One latency-sensitivity row.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyPoint {
    /// Inter-region one-way latency (µs).
    pub inter_region_us: u64,
    /// Handover-under-failure PCT median (ms) for Neutrino.
    pub neutrino_failure_p50_ms: f64,
}

/// Sweeps the inter-region link latency: how far away may the level-2
/// replicas live before failure recovery stops being cheap? (The paper's
/// two-server testbed could not expose this dimension.)
pub fn inter_region_sweep(rate_pps: u64, duration: Duration) -> Vec<Cell<LatencyPoint>> {
    [100u64, 500, 2_000, 5_000]
        .into_iter()
        .map(|us| {
            Box::new(move || {
                let links = LinkProfile {
                    inter_region: Duration::from_micros(us),
                    ..LinkProfile::default()
                };
                let point =
                    failure_cell_outcome(SystemConfig::neutrino(), rate_pps, duration, links);
                LatencyPoint {
                    inter_region_us: us,
                    neutrino_failure_p50_ms: point.summary.p50,
                }
            }) as Cell<LatencyPoint>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulation-scale test; run with --release"
    )]
    fn more_replicas_cost_more_syncs_not_more_latency() {
        let points = replica_sweep(20_000, Duration::from_millis(250))
            .into_iter()
            .map(|cell| cell())
            .collect::<Vec<_>>();
        assert_eq!(points.len(), 4);
        // Sync traffic strictly grows with N.
        for w in points.windows(2) {
            assert!(
                w[1].syncs_sent > w[0].syncs_sent,
                "N={} sent {} vs N={} sent {}",
                w[1].replicas,
                w[1].syncs_sent,
                w[0].replicas,
                w[0].syncs_sent
            );
        }
        // Replication is off the critical path (§4.2.2): failure-free PCT
        // must stay within noise across N.
        let base = points[0].attach_p50_ms;
        for p in &points {
            assert!(
                (p.attach_p50_ms - base).abs() < base * 0.3 + 0.02,
                "N={} attach p50 {} drifted from {}",
                p.replicas,
                p.attach_p50_ms,
                base
            );
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "simulation-scale test; run with --release"
    )]
    fn farther_replicas_slow_failure_recovery() {
        let points = inter_region_sweep(20_000, Duration::from_millis(250))
            .into_iter()
            .map(|cell| cell())
            .collect::<Vec<_>>();
        assert!(
            points.last().unwrap().neutrino_failure_p50_ms
                > points.first().unwrap().neutrino_failure_p50_ms,
            "recovery must pay the replica distance: {points:?}"
        );
    }

    const _: fn(u64, Duration) -> Vec<Cell<ReplicaPoint>> = replica_sweep;
}
