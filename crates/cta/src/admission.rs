//! CTA ingress admission control: priority-classed token-bucket shedding.
//!
//! The paper never takes Neutrino past saturation, but the signaling-storm
//! literature (synchronized IoT populations, regional blackout re-attach
//! waves) makes overload the common failure mode of real MMEs. This module
//! gives the CTA a deterministic ingress gate:
//!
//! * a single **token bucket** (integer nano-tokens, lazily refilled from
//!   the sim clock — no wall clock, no RNG) models the aggregate admission
//!   budget;
//! * each [`AdmissionClass`] admits only while the bucket holds at least a
//!   class-specific **reserve threshold**. Reserves grow with distance from
//!   the top priority, so as the bucket drains the classes shut off in
//!   strict priority order: detach first, then attach, then
//!   service-request, and handover last (it has no reserve at all).
//!
//! Shedding is explicit: the caller turns a [`AdmissionDecision::Shed`]
//! into a `SysMsg::Reject { class, retry_after_ms }` so the UE can back off
//! for a bounded, computed interval instead of blindly retransmitting into
//! the storm. Admission is charged **once per procedure**: retransmits and
//! later steps of an already-admitted procedure always pass, which is what
//! guarantees zero `failed_procedures` for admitted work.
//!
//! The bucket also records *evidence* for the `shed-priority-order`
//! invariant: the minimum token level at which each class was admitted and
//! the maximum level at which it was shed. Priority order holds iff every
//! higher class's worst shed happened at a strictly lower level than every
//! lower class's best admit.

use neutrino_common::time::Instant;
use neutrino_common::{ProcedureId, UeId, UeMap};
use neutrino_messages::sysmsg::AdmissionClass;

/// Nano-tokens per whole token. One admitted procedure costs one token.
const TOKEN: u64 = 1_000_000_000;

/// Static parameters of the CTA ingress admission gate, built from the
/// admission rate by [`AdmissionParams::for_rate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionParams {
    /// Sustained admission rate, in procedures per second.
    pub(crate) rate_pps: u64,
    /// Bucket capacity in whole tokens: the largest burst admitted at once.
    pub(crate) burst: u64,
    /// Engine-queue depth the admission gate is sized to keep every node
    /// under.
    pub(crate) queue_cap: u64,
    /// Floor added to every computed `retry_after_ms` so rejected UEs never
    /// re-offer instantly even when the bucket is about to refill.
    pub(crate) retry_after_base_ms: u64,
}

impl AdmissionParams {
    /// Gate sized for a sustained `rate_pps` admission rate. The burst
    /// bucket holds an eighth of a second of work: everything the bucket
    /// admits at one instant lands in downstream queues, so the burst —
    /// not the rate — is what the queue cap (a quarter-second of work)
    /// must absorb.
    pub fn for_rate(rate_pps: u64) -> Self {
        let rate_pps = rate_pps.max(1);
        AdmissionParams {
            rate_pps,
            burst: (rate_pps / 8).max(8),
            queue_cap: (rate_pps / 4).max(64),
            retry_after_base_ms: 20,
        }
    }

    /// Engine-queue depth the gate is sized to keep every node under; the
    /// `bounded-queue` invariant checks observed depths against it.
    pub fn queue_cap(&self) -> u64 {
        self.queue_cap
    }

    /// Reserve threshold for a class, in nano-tokens: the bucket level that
    /// must *remain* after admitting one procedure of this class. Handover
    /// runs the bucket to empty; each lower class keeps a progressively
    /// larger cushion for the classes above it.
    fn reserve(&self, class: AdmissionClass) -> u64 {
        let burst_nanos = self.burst.saturating_mul(TOKEN);
        match class {
            AdmissionClass::Handover => 0,
            AdmissionClass::ServiceRequest => burst_nanos / 8,
            AdmissionClass::Attach => burst_nanos / 4,
            AdmissionClass::Detach => burst_nanos / 2,
        }
    }
}

/// Outcome of one admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Let the uplink through (and remember the procedure as charged).
    Admit,
    /// Shed the uplink; the UE should wait at least this long before
    /// re-offering.
    Shed {
        /// Bounded hint: when the bucket is expected to readmit this class.
        retry_after_ms: u64,
    },
}

/// Deterministic token-bucket admission state for one CTA.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    params: AdmissionParams,
    /// Current bucket level in nano-tokens.
    tokens: u64,
    /// Sim time of the last lazy refill.
    refilled_at: Instant,
    /// Highest procedure id already admitted per UE: later steps and
    /// retransmits of these pass without spending tokens.
    charged: UeMap<ProcedureId>,
    /// Lowest post-refill token level at which each class was admitted.
    min_admit_tokens: [Option<u64>; 4],
    /// Highest post-refill token level at which each class was shed.
    max_shed_tokens: [Option<u64>; 4],
}

impl AdmissionControl {
    /// A full bucket at time zero.
    pub fn new(params: AdmissionParams) -> Self {
        AdmissionControl {
            params,
            tokens: params.burst.saturating_mul(TOKEN),
            refilled_at: Instant::ZERO,
            charged: UeMap::new(),
            min_admit_tokens: [None; 4],
            max_shed_tokens: [None; 4],
        }
    }

    /// Lazily refill the bucket up to `now`. `rate_pps` tokens/second is
    /// exactly `rate_pps` nano-tokens per nanosecond, so the arithmetic is
    /// integer and replay-exact.
    fn refill(&mut self, now: Instant) {
        let dt = now.saturating_since(self.refilled_at).as_nanos();
        if dt > 0 {
            let cap = self.params.burst.saturating_mul(TOKEN);
            self.tokens = self.tokens.saturating_add(dt.saturating_mul(self.params.rate_pps)).min(cap);
            self.refilled_at = now;
        }
    }

    /// Decide whether to admit the first uplink of `(ue, procedure)` in
    /// `class` at `now`. Subsequent calls for an already-admitted procedure
    /// (retransmits, later steps routed through here) admit for free.
    pub fn decide(
        &mut self,
        ue: UeId,
        procedure: ProcedureId,
        class: AdmissionClass,
        now: Instant,
    ) -> AdmissionDecision {
        if self.charged.get(ue).is_some_and(|&p| procedure <= p) {
            return AdmissionDecision::Admit;
        }
        self.refill(now);
        let need = self.params.reserve(class).saturating_add(TOKEN);
        let idx = class.raw() as usize;
        if self.tokens >= need {
            let level = self.tokens;
            self.min_admit_tokens[idx] =
                Some(self.min_admit_tokens[idx].map_or(level, |m| m.min(level)));
            self.tokens -= TOKEN;
            self.charged.insert(ue, procedure);
            AdmissionDecision::Admit
        } else {
            self.max_shed_tokens[idx] =
                Some(self.max_shed_tokens[idx].map_or(self.tokens, |m| m.max(self.tokens)));
            AdmissionDecision::Shed { retry_after_ms: self.retry_after_ms(need) }
        }
    }

    /// How long until the bucket refills from its current level to `need`,
    /// rounded up to whole milliseconds, plus the configured floor.
    fn retry_after_ms(&self, need: u64) -> u64 {
        let deficit = need.saturating_sub(self.tokens);
        let ns = deficit.div_ceil(self.params.rate_pps.max(1));
        self.params.retry_after_base_ms + ns.div_ceil(1_000_000)
    }

    /// True while the bucket is drained below the detach reserve — i.e. at
    /// least one class is currently being shed. The CTA uses this as its
    /// degradation signal (defer replication-ACK sweeps and resync chases).
    pub fn under_pressure(&mut self, now: Instant) -> bool {
        self.refill(now);
        self.tokens < self.params.reserve(AdmissionClass::Detach).saturating_add(TOKEN)
    }

    /// Forget the admission charge for a finished procedure so the map
    /// doesn't grow without bound across a long run.
    pub fn release(&mut self, ue: UeId, procedure: ProcedureId) {
        if self.charged.get(ue).is_some_and(|&p| p <= procedure) {
            self.charged.remove(ue);
        }
    }

    /// Evidence for `shed-priority-order`: per class (priority order), the
    /// lowest token level admitted at and the highest level shed at.
    pub fn priority_evidence(&self) -> ([Option<u64>; 4], [Option<u64>; 4]) {
        (self.min_admit_tokens, self.max_shed_tokens)
    }

    /// Test support (`test-support` only): forge raw priority evidence for
    /// `class`. The public [`AdmissionControl::decide`] path cannot produce
    /// an inverted ladder (that is the property), so oracle kill-switch
    /// tests plant the evidence directly.
    #[cfg(feature = "test-support")]
    pub fn force_priority_evidence(
        &mut self,
        class: AdmissionClass,
        min_admit: Option<u64>,
        max_shed: Option<u64>,
    ) {
        let idx = class.raw() as usize;
        if min_admit.is_some() {
            self.min_admit_tokens[idx] = min_admit;
        }
        if max_shed.is_some() {
            self.max_shed_tokens[idx] = max_shed;
        }
    }
}

/// Check the `shed-priority-order` property against recorded evidence:
/// for every pair of classes `(hi, lo)` with `hi` higher priority, every
/// shed of `hi` must have happened at a token level strictly below every
/// admit of `lo` — otherwise a higher class was turned away while a lower
/// class was still being served. Returns the first offending pair.
pub fn priority_order_violation(
    min_admit: &[Option<u64>; 4],
    max_shed: &[Option<u64>; 4],
) -> Option<(AdmissionClass, AdmissionClass)> {
    for hi in AdmissionClass::ALL {
        for lo in AdmissionClass::ALL {
            if hi.raw() >= lo.raw() {
                continue;
            }
            if let (Some(shed_hi), Some(admit_lo)) =
                (max_shed[hi.raw() as usize], min_admit[lo.raw() as usize])
            {
                if shed_hi >= admit_lo {
                    return Some((*hi, *lo));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutrino_common::time::Duration;

    fn params() -> AdmissionParams {
        AdmissionParams { rate_pps: 100, burst: 8, queue_cap: 64, retry_after_base_ms: 20 }
    }

    #[test]
    fn full_bucket_admits_every_class() {
        let mut a = AdmissionControl::new(params());
        for (i, class) in AdmissionClass::ALL.iter().copied().enumerate() {
            let d = a.decide(UeId::new(i as u64), ProcedureId::new(1), class, Instant::ZERO);
            assert_eq!(d, AdmissionDecision::Admit, "{class:?}");
        }
    }

    #[test]
    fn classes_shut_off_in_priority_order_as_bucket_drains() {
        let mut a = AdmissionControl::new(params());
        // Drain with handovers (no reserve) and watch the reserved classes
        // shut off from lowest priority to highest.
        let mut cut_off = Vec::new();
        for i in 0..64u64 {
            for class in [AdmissionClass::Detach, AdmissionClass::Attach, AdmissionClass::ServiceRequest] {
                if cut_off.contains(&class) {
                    continue;
                }
                let probe = a
                    .clone()
                    .decide(UeId::new(1000 + i), ProcedureId::new(1), class, Instant::ZERO);
                if matches!(probe, AdmissionDecision::Shed { .. }) {
                    cut_off.push(class);
                }
            }
            let d = a.decide(UeId::new(i), ProcedureId::new(1), AdmissionClass::Handover, Instant::ZERO);
            if matches!(d, AdmissionDecision::Shed { .. }) {
                break;
            }
        }
        assert_eq!(
            cut_off,
            vec![AdmissionClass::Detach, AdmissionClass::Attach, AdmissionClass::ServiceRequest],
            "lower classes must shut off first"
        );
    }

    #[test]
    fn retransmit_of_admitted_procedure_is_free() {
        let mut a = AdmissionControl::new(params());
        let ue = UeId::new(7);
        assert_eq!(
            a.decide(ue, ProcedureId::new(3), AdmissionClass::Attach, Instant::ZERO),
            AdmissionDecision::Admit
        );
        let before = a.tokens;
        assert_eq!(
            a.decide(ue, ProcedureId::new(3), AdmissionClass::Attach, Instant::ZERO),
            AdmissionDecision::Admit
        );
        assert_eq!(a.tokens, before, "retransmit must not spend a token");
    }

    #[test]
    fn refill_is_deterministic_and_bounded() {
        let mut a = AdmissionControl::new(params());
        // Empty the bucket.
        for i in 0..8u64 {
            assert_eq!(
                a.decide(UeId::new(i), ProcedureId::new(1), AdmissionClass::Handover, Instant::ZERO),
                AdmissionDecision::Admit
            );
        }
        let d = a.decide(UeId::new(99), ProcedureId::new(1), AdmissionClass::Handover, Instant::ZERO);
        let AdmissionDecision::Shed { retry_after_ms } = d else {
            panic!("empty bucket must shed, got {d:?}")
        };
        // 1 token at 100/s = 10ms, plus the 20ms floor.
        assert_eq!(retry_after_ms, 30);
        // 10ms later exactly one token has accrued.
        let later = Instant::ZERO + Duration::from_millis(10);
        assert_eq!(
            a.decide(UeId::new(99), ProcedureId::new(1), AdmissionClass::Handover, later),
            AdmissionDecision::Admit
        );
        // Bucket never exceeds its cap.
        a.refill(Instant::ZERO + Duration::from_secs(3600));
        assert_eq!(a.tokens, 8 * TOKEN);
    }

    #[test]
    fn pressure_tracks_detach_reserve() {
        let mut a = AdmissionControl::new(params());
        assert!(!a.under_pressure(Instant::ZERO));
        for i in 0..5u64 {
            a.decide(UeId::new(i), ProcedureId::new(1), AdmissionClass::Handover, Instant::ZERO);
        }
        // 3 tokens left < detach reserve (4) + 1.
        assert!(a.under_pressure(Instant::ZERO));
    }

    #[test]
    fn evidence_violation_detector_works() {
        // Clean evidence: every shed below every lower-class admit.
        let min_admit = [None, Some(3 * TOKEN), Some(5 * TOKEN), Some(7 * TOKEN)];
        let max_shed = [Some(TOKEN / 2), Some(TOKEN), Some(2 * TOKEN), Some(4 * TOKEN)];
        assert_eq!(priority_order_violation(&min_admit, &max_shed), None);
        // Handover shed at a level where attach was still admitted.
        let bad_shed = [Some(6 * TOKEN), None, None, None];
        assert_eq!(
            priority_order_violation(&min_admit, &bad_shed),
            Some((AdmissionClass::Handover, AdmissionClass::ServiceRequest))
        );
    }

    #[test]
    fn release_forgets_charge() {
        let mut a = AdmissionControl::new(params());
        let ue = UeId::new(1);
        a.decide(ue, ProcedureId::new(2), AdmissionClass::Attach, Instant::ZERO);
        a.release(ue, ProcedureId::new(2));
        assert!(a.charged.is_empty());
    }
}
