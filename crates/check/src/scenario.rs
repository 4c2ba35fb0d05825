//! The scenario DSL: named chaos families that expand, per seed, into
//! fully concrete [`CasePlan`]s.
//!
//! A [`Scenario`] composes a system under test, a traffic profile, and
//! randomization *ranges* for the fault dimensions (link loss/duplication/
//! reorder, timed partitions, CPF crashes). [`Scenario::plan`] draws every
//! concrete value from a splitmix64 chain over the seed, so the same
//! `(scenario, seed)` pair always produces the identical plan — and the
//! plan itself is plain serializable data, so a failing case can be pinned
//! to disk and replayed byte-identically with no reference back to the
//! scenario that generated it.
//!
//! The `crash-points` family draws no crash time. It enumerates crash
//! points instead: each of its base plans is dry-run, and every delivery
//! to a CPF in that run becomes one plan that crashes that CPF at that
//! instant ([`crash_points`](crate::run::crash_points)), so each protocol
//! step a CPF takes is a step it dies at.

use neutrino_common::rng::splitmix64_next;
use neutrino_cta::AdmissionParams;
use serde::{Deserialize, Serialize};

/// One endpoint of a partition window, resolved against the deployment at
/// build time (`kind` is `"cta"` or `"cpf"`, `index` picks within region 0).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EndpointPlan {
    /// Node class: `"cta"` or `"cpf"`.
    pub kind: String,
    /// Index into region 0's nodes of that class (wrapped by modulo).
    pub index: u64,
}

/// One scheduled CPF crash. Times are relative to the measured-phase start
/// so they stay meaningful when the shrinker shortens the attach phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPlan {
    /// Nanoseconds after the measured phase starts.
    pub at_ns: u64,
    /// The victim's raw `CpfId`: any CPF of the deployment, which numbers
    /// every region's pool contiguously (region 0's is `0..5`).
    pub cpf: u64,
}

/// One timed bidirectional partition window (relative to measured start).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionPlan {
    /// Window start, milliseconds after the measured phase starts.
    pub from_ms: u64,
    /// Window end (exclusive), milliseconds after the measured phase starts.
    pub until_ms: u64,
    /// One side of the cut.
    pub a: EndpointPlan,
    /// The other side.
    pub b: EndpointPlan,
}

/// Overload-storm extras of a plan: which storm generator shapes the
/// workload, the CTA admission gate's sizing, and the queue-depth bound
/// the `bounded-queue` invariant enforces. Fields that a shape does not
/// use are zero.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StormPlan {
    /// Storm generator: `"flash-crowd"` or `"iot-burst"`.
    pub shape: String,
    /// CTA admission-gate rate (procedures/second); `0` disables the gate
    /// entirely — the configuration the storm is expected to break.
    pub admission_rate_pps: u64,
    /// Engine-queue depth cap the `bounded-queue` invariant checks against
    /// (derived from the admission sizing, kept even when the gate is
    /// disabled so the violation is observable).
    pub queue_cap: u64,
    /// Flash-crowd: steady-phase length before the blackout (ms).
    pub steady_ms: u64,
    /// Flash-crowd: outage-detection lag before the herd re-attaches (ms).
    pub surge_delay_ms: u64,
    /// Flash-crowd: the herd's aggregate re-attach rate (pps).
    pub surge_rate_pps: u64,
    /// Flash-crowd: steady traffic after the surge drains (ms).
    pub tail_ms: u64,
    /// IoT-burst: synchronized pulses after the attach pulse.
    pub pulses: u64,
    /// IoT-burst: pulse period (ms).
    pub period_ms: u64,
    /// IoT-burst: window each pulse packs the fleet into (ms).
    pub window_ms: u64,
}

/// A fully concrete, self-contained chaos schedule: everything one checked
/// run needs. Probabilities are parts-per-million integers so the JSON
/// form is byte-stable. A field this struct does not name fails the load,
/// so a pinned plan never silently replays as something other than what
/// it pinned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CasePlan {
    /// The scenario family this plan came from (informational).
    pub scenario: String,
    /// The seed it was drawn with; also the link-layer fault/jitter seed.
    pub seed: u64,
    /// System under test (a [`SystemConfig`](neutrino_core::SystemConfig)
    /// constructor name, e.g. `"neutrino"` or `"existing_epc"`).
    pub system: String,
    /// Procedure kind driven during the measured phase
    /// ([`ProcedureKind::name`](neutrino_messages::procedures::ProcedureKind::name)).
    pub kind: String,
    /// Measured-phase arrival rate (procedures/second).
    pub rate_pps: u64,
    /// UE pool size (attached before the measured phase).
    pub ues: u64,
    /// Measured-phase duration in milliseconds.
    pub duration_ms: u64,
    /// Drain margin after the measured phase (stragglers and retries).
    pub drain_ms: u64,
    /// Oracle pass interval in milliseconds.
    pub check_interval_ms: u64,
    /// Per-link loss probability, parts per million.
    pub loss_ppm: u64,
    /// Per-link duplication probability, parts per million.
    pub duplicate_ppm: u64,
    /// Per-link reorder probability, parts per million.
    pub reorder_ppm: u64,
    /// Reorder hold-back window, microseconds.
    pub reorder_window_us: u64,
    /// Per-hop jitter bound, microseconds.
    pub jitter_us: u64,
    /// Scheduled CPF crashes.
    pub crashes: Vec<CrashPlan>,
    /// Timed partition windows.
    pub partitions: Vec<PartitionPlan>,
    /// Invariants to check, by catalog name (see [`CATALOG`](crate::invariants::CATALOG)).
    pub invariants: Vec<String>,
    /// Overload-storm extras; `None` (the default, so pinned pre-storm
    /// corpus cases still parse) means the uniform workload.
    #[serde(default)]
    pub storm: Option<StormPlan>,
    /// The protocol mutant every CTA and CPF of the run plants
    /// (`test-support` only). `None` is the healthy tree, and is left out
    /// of the JSON, so a healthy plan reads the same in every build.
    #[cfg(feature = "test-support")]
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mutant: Option<neutrino_common::Mutant>,
}

impl CasePlan {
    /// The plan's name in a sweep's output: family, seed, base and crashes.
    pub fn label(&self) -> String {
        let crashes: String = self
            .crashes
            .iter()
            .map(|c| format!(", cpf {} down at +{:.6} ms", c.cpf, c.at_ns as f64 / 1e6))
            .collect();
        let (scenario, seed, system, kind) = (&self.scenario, self.seed, &self.system, &self.kind);
        format!("{scenario} seed {seed} ({system} {kind}{crashes})")
    }
}

/// A stateless splitmix64 stream — the same generator family the link
/// fault layer uses, so plans and fault draws share one reproducibility
/// story.
pub struct SplitMix(u64);

impl SplitMix {
    /// Starts a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64_next(&mut self.0)
    }

    /// Uniform draw in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Inclusive randomization range.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Lower bound.
    pub lo: u64,
    /// Upper bound (inclusive).
    pub hi: u64,
}

const fn span(lo: u64, hi: u64) -> Span {
    Span { lo, hi }
}

/// Nanoseconds per millisecond: a drawn crash lands on a whole
/// millisecond, a crash point on the nanosecond of its delivery.
pub(crate) const NS_PER_MS: u64 = 1_000_000;

/// What one plan of a family runs: a system under test, the procedure
/// kind of its measured phase and the invariants it checks.
#[derive(Debug, Clone, Copy)]
pub struct Base {
    /// System under test (config constructor name).
    pub system: &'static str,
    /// Measured-phase procedure kind.
    pub kind: &'static str,
    /// Invariants checked (catalog names).
    pub invariants: &'static [&'static str],
}

const fn base(
    system: &'static str,
    kind: &'static str,
    invariants: &'static [&'static str],
) -> Base {
    Base {
        system,
        kind,
        invariants,
    }
}

/// A named chaos family: the ranges every per-seed draw comes from.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name (the explorer's `--scenario` argument).
    pub name: &'static str,
    /// What the family stresses (shown by `explore --list`).
    pub summary: &'static str,
    /// What its plans run. A family drawing its crashes has one base; the
    /// crash-point family dry-runs each of its bases.
    pub bases: &'static [Base],
    /// Arrival rate range (pps).
    pub rate_pps: Span,
    /// UE pool range.
    pub ues: Span,
    /// Measured duration range (ms).
    pub duration_ms: Span,
    /// Loss probability range (ppm).
    pub loss_ppm: Span,
    /// Duplication probability range (ppm).
    pub duplicate_ppm: Span,
    /// Reorder probability range (ppm).
    pub reorder_ppm: Span,
    /// Jitter bound range (µs).
    pub jitter_us: Span,
    /// CPF crash count range; `None` enumerates crash points instead.
    pub crashes: Option<Span>,
    /// Partition window count range.
    pub partitions: Span,
    /// Overload-storm dimensions (`None` for uniform-workload families).
    pub storm: Option<StormSpec>,
}

/// Randomization ranges of a storm family's overload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct StormSpec {
    /// Storm generator: `"flash-crowd"` or `"iot-burst"`.
    pub shape: &'static str,
    /// CTA admission-gate rate range (pps). Always nonzero here — the
    /// registered storm families must sweep clean; tests disable the gate
    /// by zeroing the planned rate to demonstrate the violation.
    pub admission_rate_pps: Span,
    /// Flash-crowd: herd rate = steady `rate_pps` × this multiplier.
    pub surge_mult: Span,
    /// IoT-burst: pulse count range.
    pub pulses: Span,
    /// IoT-burst: pulse period range (ms).
    pub period_ms: Span,
    /// IoT-burst: pulse window range (ms).
    pub window_ms: Span,
}

/// Invariant set for systems that guarantee continuous consistency.
const NEUTRINO_INVARIANTS: &[&str] = &[
    "consistency",
    "no-lost-procedure",
    "bounded-stall",
    "session-ownership",
    "bounded-retry",
    "monotonic-checkpoint",
];

/// Invariant set for re-attach baselines: everything except continuous
/// consistency (which they violate by design after a failure).
const BASELINE_INVARIANTS: &[&str] = &[
    "no-lost-procedure",
    "bounded-stall",
    "session-ownership",
    "bounded-retry",
    "monotonic-checkpoint",
];

/// Invariant set for the overload-storm families. `bounded-retry` is
/// replaced by `no-retry-amplification`: under admission control the UE
/// population *deliberately* retransmits after every `Reject`, so the
/// drop-proportional retry budget does not apply — the amplification bound
/// (at most one re-offer per reject) does.
const STORM_INVARIANTS: &[&str] = &[
    "consistency",
    "no-lost-procedure",
    "bounded-stall",
    "session-ownership",
    "monotonic-checkpoint",
    "bounded-queue",
    "shed-priority-order",
    "no-retry-amplification",
];

/// The crash-point family's bases: five procedure kinds on Neutrino and on
/// the existing EPC, and a handover on Neutrino's default (non-proactive)
/// handover, the one flavour that migrates state between CPFs.
const POINT_BASES: &[Base] = &[
    base("neutrino", "service-request", NEUTRINO_INVARIANTS),
    base("neutrino", "tracking-area-update", NEUTRINO_INVARIANTS),
    base("neutrino", "handover-cpf-change", NEUTRINO_INVARIANTS),
    base("neutrino", "detach", NEUTRINO_INVARIANTS),
    base("neutrino", "initial-attach", NEUTRINO_INVARIANTS),
    base("existing_epc", "service-request", BASELINE_INVARIANTS),
    base("existing_epc", "tracking-area-update", BASELINE_INVARIANTS),
    base("existing_epc", "handover-cpf-change", BASELINE_INVARIANTS),
    base("existing_epc", "detach", BASELINE_INVARIANTS),
    base("existing_epc", "initial-attach", BASELINE_INVARIANTS),
    base(
        "neutrino_default_handover",
        "handover-cpf-change",
        NEUTRINO_INVARIANTS,
    ),
];

/// Oracle pass interval of a crash-point plan: a recovery step is
/// milliseconds long, so the passes look at every millisecond.
const POINT_CHECK_INTERVAL_MS: u64 = 1;

const NEUTRINO: &[Base] = &[base("neutrino", "service-request", NEUTRINO_INVARIANTS)];

impl Scenario {
    /// Every built-in scenario.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "crash-points",
                summary: "each CPF crashed at each delivery it receives in 4-UE runs",
                bases: POINT_BASES,
                rate_pps: span(100, 100),
                ues: span(4, 4),
                duration_ms: span(200, 200),
                loss_ppm: span(50_000, 50_000),
                duplicate_ppm: span(0, 0),
                reorder_ppm: span(0, 0),
                jitter_us: span(0, 0),
                crashes: None,
                partitions: span(0, 0),
                storm: None,
            },
            Scenario {
                name: "partition",
                summary: "timed CTA–CPF / CPF–CPF partitions, no crash",
                bases: NEUTRINO,
                rate_pps: span(8_000, 20_000),
                ues: span(1_500, 2_500),
                duration_ms: span(250, 450),
                loss_ppm: span(0, 10_000),
                duplicate_ppm: span(0, 5_000),
                reorder_ppm: span(0, 15_000),
                jitter_us: span(0, 20),
                crashes: Some(span(0, 0)),
                partitions: span(1, 2),
                storm: None,
            },
            Scenario {
                name: "chaos",
                summary: "crash + partitions + heavy loss/dup/reorder at once",
                bases: NEUTRINO,
                rate_pps: span(6_000, 18_000),
                ues: span(1_200, 2_400),
                duration_ms: span(250, 500),
                loss_ppm: span(5_000, 50_000),
                duplicate_ppm: span(0, 20_000),
                reorder_ppm: span(5_000, 60_000),
                jitter_us: span(0, 40),
                crashes: Some(span(0, 2)),
                partitions: span(0, 2),
                storm: None,
            },
            Scenario {
                name: "flash-crowd-reattach",
                summary: "regional blackout, then the whole population re-attaches at once",
                bases: &[Base {
                    system: "neutrino",
                    kind: "service-request",
                    invariants: STORM_INVARIANTS,
                }],
                rate_pps: span(400, 800),
                ues: span(6_000, 10_000),
                duration_ms: span(1_000, 2_000),
                loss_ppm: span(0, 5_000),
                duplicate_ppm: span(0, 3_000),
                reorder_ppm: span(0, 10_000),
                jitter_us: span(0, 20),
                crashes: Some(span(1, 2)),
                partitions: span(0, 0),
                storm: Some(StormSpec {
                    shape: "flash-crowd",
                    admission_rate_pps: span(2_500, 4_000),
                    surge_mult: span(300, 500),
                    pulses: span(0, 0),
                    period_ms: span(0, 0),
                    window_ms: span(0, 0),
                }),
            },
            Scenario {
                name: "iot-burst-storm",
                summary: "IoT fleet wakes in synchronized diurnal pulses",
                bases: &[Base {
                    system: "neutrino",
                    kind: "tracking-area-update",
                    invariants: STORM_INVARIANTS,
                }],
                rate_pps: span(1_000, 1_000),
                ues: span(2_000, 4_000),
                duration_ms: span(6_000, 12_000),
                loss_ppm: span(0, 5_000),
                duplicate_ppm: span(0, 3_000),
                reorder_ppm: span(0, 10_000),
                jitter_us: span(0, 20),
                crashes: Some(span(0, 0)),
                partitions: span(0, 0),
                storm: Some(StormSpec {
                    shape: "iot-burst",
                    admission_rate_pps: span(1_500, 3_000),
                    surge_mult: span(0, 0),
                    pulses: span(2, 3),
                    period_ms: span(3_000, 5_000),
                    window_ms: span(50, 150),
                }),
            },
        ]
    }

    /// Looks a scenario up by name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.name == name)
    }

    /// Every plan of this family for `seed`: a drawn family's one plan, or
    /// the crash points of each base plan of the crash-point family. Pure:
    /// the same `(scenario, seed)` always yields the identical plans.
    pub fn plans(&self, seed: u64) -> Vec<CasePlan> {
        if self.crashes.is_some() {
            return vec![self.plan(seed)];
        }
        self.bases
            .iter()
            .flat_map(|b| crate::run::crash_points(&self.draw(seed, b)))
            .collect()
    }

    /// The plan this family draws for `seed` from its first base; for the
    /// crash-point family, that base's crash-free plan.
    pub fn plan(&self, seed: u64) -> CasePlan {
        self.draw(seed, &self.bases[0])
    }

    fn draw(&self, seed: u64, base: &Base) -> CasePlan {
        // Salt the stream with the scenario name so two scenarios sharing a
        // seed do not share their draw sequence.
        let salt = self
            .name
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            });
        let mut rng = SplitMix::new(seed ^ salt);
        let duration_ms = rng.range(self.duration_ms.lo, self.duration_ms.hi);
        let count = self.crashes.map_or(0, |c| rng.range(c.lo, c.hi));
        let crashes = (0..count)
            .map(|_| CrashPlan {
                // Land well inside the measured window so traffic is
                // flowing both before and after the crash.
                at_ns: rng.range(20, duration_ms.saturating_sub(40).max(21)) * NS_PER_MS,
                cpf: rng.range(0, 4),
            })
            .collect();
        let partitions = (0..rng.range(self.partitions.lo, self.partitions.hi))
            .map(|_| {
                let from_ms = rng.range(10, duration_ms.saturating_sub(80).max(11));
                let len_ms = rng.range(20, 80);
                // Cut either the CTA↔CPF hop or a CPF↔CPF pair; never the
                // UE side, so the retry machinery always keeps cycling.
                let (a, b) = if rng.range(0, 1) == 0 {
                    (
                        EndpointPlan { kind: "cta".into(), index: 0 },
                        EndpointPlan { kind: "cpf".into(), index: rng.range(0, 4) },
                    )
                } else {
                    let x = rng.range(0, 4);
                    (
                        EndpointPlan { kind: "cpf".into(), index: x },
                        EndpointPlan { kind: "cpf".into(), index: (x + 1 + rng.range(0, 3)) % 5 },
                    )
                };
                PartitionPlan {
                    from_ms,
                    until_ms: (from_ms + len_ms).min(duration_ms),
                    a,
                    b,
                }
            })
            .collect();
        // Field draws stay in this exact order: reordering them would
        // silently change every existing (scenario, seed) plan.
        let rate_pps = rng.range(self.rate_pps.lo, self.rate_pps.hi);
        let ues = rng.range(self.ues.lo, self.ues.hi);
        let loss_ppm = rng.range(self.loss_ppm.lo, self.loss_ppm.hi);
        let duplicate_ppm = rng.range(self.duplicate_ppm.lo, self.duplicate_ppm.hi);
        let reorder_ppm = rng.range(self.reorder_ppm.lo, self.reorder_ppm.hi);
        let reorder_window_us = rng.range(100, 400);
        let jitter_us = rng.range(self.jitter_us.lo, self.jitter_us.hi);
        // Storm draws come after every pre-existing draw, so non-storm
        // scenarios (which skip this block) keep their historic plans.
        let mut crashes: Vec<CrashPlan> = crashes;
        let storm = self.storm.map(|sp| {
            let admission_rate_pps = rng.range(sp.admission_rate_pps.lo, sp.admission_rate_pps.hi);
            let plan = StormPlan {
                shape: sp.shape.to_string(),
                admission_rate_pps,
                queue_cap: AdmissionParams::for_rate(admission_rate_pps).queue_cap(),
                steady_ms: duration_ms,
                surge_delay_ms: rng.range(200, 500),
                surge_rate_pps: rate_pps * rng.range(sp.surge_mult.lo.max(1), sp.surge_mult.hi.max(1)),
                tail_ms: 1_000,
                pulses: rng.range(sp.pulses.lo, sp.pulses.hi),
                period_ms: rng.range(sp.period_ms.lo, sp.period_ms.hi),
                window_ms: rng.range(sp.window_ms.lo, sp.window_ms.hi),
            };
            if sp.shape == "flash-crowd" {
                // The blackout IS the regional failure: every scheduled
                // crash lands exactly when the steady phase ends.
                for c in &mut crashes {
                    c.at_ns = plan.steady_ms * NS_PER_MS;
                }
            }
            plan
        });
        CasePlan {
            scenario: self.name.to_string(),
            seed,
            system: base.system.to_string(),
            kind: base.kind.to_string(),
            rate_pps,
            ues,
            duration_ms,
            drain_ms: 10_000,
            check_interval_ms: match self.crashes {
                Some(_) => 25,
                None => POINT_CHECK_INTERVAL_MS,
            },
            loss_ppm,
            duplicate_ppm,
            reorder_ppm,
            reorder_window_us,
            jitter_us,
            crashes,
            partitions,
            invariants: base.invariants.iter().map(|s| s.to_string()).collect(),
            storm,
            #[cfg(feature = "test-support")]
            mutant: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let s = Scenario::by_name("chaos").unwrap();
        assert_eq!(s.plan(7), s.plan(7));
        assert_ne!(s.plan(7), s.plan(8));
    }

    #[test]
    fn scenario_names_are_unique_and_resolvable() {
        let all = Scenario::all();
        for s in &all {
            assert_eq!(Scenario::by_name(s.name).unwrap().name, s.name);
        }
        let names: std::collections::HashSet<_> = all.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn plans_round_trip_through_json() {
        for s in Scenario::all() {
            let plan = s.plan(42);
            let json = serde_json::to_string_pretty(&plan).unwrap();
            let back: CasePlan = serde_json::from_str(&json).unwrap();
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn draws_land_in_their_spans() {
        let s = Scenario::by_name("chaos").unwrap();
        for seed in 0..50 {
            let p = s.plan(seed);
            assert!(p.rate_pps >= s.rate_pps.lo && p.rate_pps <= s.rate_pps.hi);
            assert!(p.ues >= s.ues.lo && p.ues <= s.ues.hi);
            assert!(p.duration_ms >= s.duration_ms.lo && p.duration_ms <= s.duration_ms.hi);
            assert!(p.crashes.len() as u64 <= s.crashes.unwrap().hi);
            assert!(p.partitions.len() as u64 <= s.partitions.hi);
            for w in &p.partitions {
                assert!(w.from_ms < w.until_ms);
                assert!(w.until_ms <= p.duration_ms);
            }
        }
    }
}
