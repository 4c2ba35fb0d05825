//! A synthetic ng4T-like signaling trace.
//!
//! The paper replays commercial traces from ng4T \[45\] that we cannot
//! redistribute; this module generates traces with the *published*
//! statistics of real cellular control traffic instead:
//!
//! * a device issues a session (service) request on average every 106.9 s
//!   \[37\], with exponential inter-arrivals;
//! * device activity is heavily skewed (a few chatty devices dominate) —
//!   modeled with a Zipf(0.9) popularity distribution;
//! * periodic tracking-area updates and occasional detach/attach cycles;
//! * the trace is serializable (JSON lines) so runs can be archived and
//!   replayed bit-for-bit.

use neutrino_common::rng::{exponential, substream, Zipf};
use neutrino_common::time::{Duration, Instant};
use neutrino_common::UeId;
use neutrino_core::uepop::Arrival;
use neutrino_core::Workload;
use neutrino_messages::procedures::ProcedureKind;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Microseconds since trace start.
    pub at_us: u64,
    /// Device id.
    pub ue: u64,
    /// Procedure name (stable across versions).
    pub procedure: TraceProcedure,
}

/// Procedures a trace may contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TraceProcedure {
    /// Initial attach.
    Attach,
    /// Service request.
    ServiceRequest,
    /// Tracking-area update.
    Tau,
    /// Handover (inter-region).
    Handover,
    /// Detach.
    Detach,
}

impl TraceProcedure {
    /// Maps to the executed procedure kind.
    pub fn kind(self) -> ProcedureKind {
        match self {
            TraceProcedure::Attach => ProcedureKind::InitialAttach,
            TraceProcedure::ServiceRequest => ProcedureKind::ServiceRequest,
            TraceProcedure::Tau => ProcedureKind::TrackingAreaUpdate,
            TraceProcedure::Handover => ProcedureKind::HandoverWithCpfChange,
            TraceProcedure::Detach => ProcedureKind::Detach,
        }
    }
}

/// A complete trace.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Time-ordered records.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Serializes as JSON lines.
    pub fn to_jsonl(&self) -> Result<String, serde_json::Error> {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&serde_json::to_string(r)?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses JSON lines.
    pub fn from_jsonl(s: &str) -> Result<Trace, serde_json::Error> {
        let mut records = Vec::new();
        for line in s.lines() {
            if line.trim().is_empty() {
                continue;
            }
            records.push(serde_json::from_str(line)?);
        }
        Ok(Trace { records })
    }

    /// Converts into a simulator workload.
    pub fn workload(&self) -> Workload {
        let arrivals: Vec<Arrival> = self
            .records
            .iter()
            .map(|r| Arrival {
                at: Instant::from_micros(r.at_us),
                ue: UeId::new(r.ue),
                kind: r.procedure.kind(),
            })
            .collect();
        Workload::from_vec(arrivals)
    }

    /// Mean service-request inter-arrival per device, in seconds (for
    /// validating against the published 106.9 s statistic).
    pub fn mean_sr_interarrival_secs(&self) -> f64 {
        use std::collections::BTreeMap;
        let mut per_ue: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for r in &self.records {
            if r.procedure == TraceProcedure::ServiceRequest {
                per_ue.entry(r.ue).or_default().push(r.at_us);
            }
        }
        let mut gaps = Vec::new();
        for times in per_ue.values() {
            for w in times.windows(2) {
                gaps.push((w[1] - w[0]) as f64 / 1e6);
            }
        }
        if gaps.is_empty() {
            return f64::NAN;
        }
        gaps.iter().sum::<f64>() / gaps.len() as f64
    }
}

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Number of devices.
    pub devices: u64,
    /// Trace duration.
    pub duration: Duration,
    /// Mean service-request interval per device; \[37\] reports 106.9 s.
    pub mean_sr_interval: Duration,
    /// Zipf skew of device activity (0 = uniform).
    pub activity_skew: f64,
    /// Fraction of service requests replaced by TAUs (mobility signaling).
    pub tau_fraction: f64,
    /// Fraction replaced by handovers.
    pub handover_fraction: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            devices: 1_000,
            duration: Duration::from_secs(600),
            mean_sr_interval: Duration::from_secs_f64(106.9),
            activity_skew: 0.9,
            tau_fraction: 0.10,
            handover_fraction: 0.05,
            seed: 1,
        }
    }
}

/// The trace generator.
#[derive(Debug, Clone, Copy)]
pub struct TraceGenerator {
    params: TraceParams,
}

impl TraceGenerator {
    /// Creates a generator.
    pub fn new(params: TraceParams) -> Self {
        TraceGenerator { params }
    }

    /// Generates the trace: every device attaches at a random offset, then
    /// issues exponential-interval requests whose kind mixes service
    /// requests, TAUs, and handovers; a small fraction detach and re-attach.
    pub fn generate(&self) -> Trace {
        let p = self.params;
        let mut rng = substream(p.seed, "trace");
        let zipf = Zipf::new(p.devices as usize, p.activity_skew);
        // Per-device mean rate, modulated by popularity so the *population*
        // mean matches `mean_sr_interval`.
        let base_rate = 1.0 / p.mean_sr_interval.as_secs_f64();
        let horizon = p.duration.as_secs_f64();
        let mut records = Vec::new();
        // Skewed per-device weights, normalized to mean 1 over the sampled
        // population.
        let mut weights = vec![0.0f64; p.devices as usize];
        let samples = (p.devices * 4).max(10_000);
        for _ in 0..samples {
            weights[zipf.sample(&mut rng)] += 1.0;
        }
        let mean_w = samples as f64 / p.devices as f64;
        for ue in 0..p.devices {
            let w = (weights[ue as usize] / mean_w).max(0.05);
            let rate = base_rate * w;
            // Attach somewhere in the first 10% of the trace.
            let mut t = rng.gen_range(0.0..horizon * 0.1);
            records.push(TraceRecord {
                at_us: (t * 1e6) as u64,
                ue,
                procedure: TraceProcedure::Attach,
            });
            loop {
                t += exponential(&mut rng, rate);
                if t >= horizon {
                    break;
                }
                let roll: f64 = rng.gen_range(0.0f64..1.0);
                let procedure = if roll < p.handover_fraction {
                    TraceProcedure::Handover
                } else if roll < p.handover_fraction + p.tau_fraction {
                    TraceProcedure::Tau
                } else if roll > 0.995 {
                    TraceProcedure::Detach
                } else {
                    TraceProcedure::ServiceRequest
                };
                records.push(TraceRecord {
                    at_us: (t * 1e6) as u64,
                    ue,
                    procedure,
                });
                if procedure == TraceProcedure::Detach {
                    // Re-attach after a think time before more traffic.
                    t += exponential(&mut rng, rate);
                    if t >= horizon {
                        break;
                    }
                    records.push(TraceRecord {
                        at_us: (t * 1e6) as u64,
                        ue,
                        procedure: TraceProcedure::Attach,
                    });
                }
            }
        }
        records.sort_by_key(|r| r.at_us);
        Trace { records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> Trace {
        TraceGenerator::new(TraceParams {
            devices: 200,
            duration: Duration::from_secs(3_000),
            seed: 7,
            ..TraceParams::default()
        })
        .generate()
    }

    #[test]
    fn trace_is_time_ordered_and_attaches_first() {
        let t = small_trace();
        assert!(t.records.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        // Per device, the first record is an attach.
        let mut first = std::collections::BTreeMap::new();
        for r in &t.records {
            first.entry(r.ue).or_insert(r.procedure);
        }
        assert!(first.values().all(|p| *p == TraceProcedure::Attach));
        assert_eq!(first.len(), 200);
    }

    #[test]
    fn mean_sr_interval_matches_published_statistic() {
        let t = small_trace();
        let mean = t.mean_sr_interarrival_secs();
        // Zipf weighting biases the *sample* of gaps toward chatty devices;
        // accept a broad band around 106.9 s.
        assert!(
            (30.0..200.0).contains(&mean),
            "mean SR inter-arrival {mean}s is out of band"
        );
    }

    #[test]
    fn jsonl_round_trips() {
        let t = small_trace();
        let s = t.to_jsonl().unwrap();
        let back = Trace::from_jsonl(&s).unwrap();
        assert_eq!(back.records, t.records);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_trace();
        let b = small_trace();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn workload_conversion_preserves_order_and_kinds() {
        let t = small_trace();
        let n = t.records.len();
        let v: Vec<_> = t.workload().into_arrivals().collect();
        assert_eq!(v.len(), n);
        assert!(v.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(v
            .iter()
            .any(|a| a.kind == ProcedureKind::HandoverWithCpfChange));
        assert!(v
            .iter()
            .any(|a| a.kind == ProcedureKind::TrackingAreaUpdate));
    }

    #[test]
    fn activity_is_skewed() {
        let t = small_trace();
        let mut counts = std::collections::BTreeMap::new();
        for r in &t.records {
            *counts.entry(r.ue).or_insert(0usize) += 1;
        }
        let mut v: Vec<usize> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let top = v[..20].iter().sum::<usize>() as f64;
        let total = v.iter().sum::<usize>() as f64;
        assert!(
            top / total > 0.2,
            "top-10% devices should dominate: {:.2}",
            top / total
        );
    }
}
