//! The two synthetic traffic patterns of §6.1.

use neutrino_common::time::{Duration, Instant};
use neutrino_common::UeId;
use neutrino_core::uepop::Arrival;
use neutrino_core::Workload;
use neutrino_messages::procedures::ProcedureKind;

/// Parameters of the uniform pattern: "a pre-specified number of control
/// procedure requests per second" (the PPS x-axes of Figs. 7, 8, 10, 11,
/// 15, 16).
#[derive(Debug, Clone, Copy)]
pub struct UniformParams {
    /// Procedures per second.
    pub rate_pps: u64,
    /// Measurement duration.
    pub duration: Duration,
    /// Procedure kind under test.
    pub kind: ProcedureKind,
    /// UE pool size (each arrival cycles through the pool).
    pub ues: u64,
    /// First UE id (so pools can be disjoint across phases).
    pub first_ue: u64,
    /// When the first arrival fires.
    pub start: Instant,
}

impl UniformParams {
    /// A pool sized so that each UE is busy a small fraction of the time
    /// even near saturation.
    pub fn pool_for_rate(rate_pps: u64) -> u64 {
        (rate_pps / 8).clamp(2_000, 200_000)
    }
}

/// Uniform arrivals: exact `rate_pps` spacing, cycling through the pool.
pub fn uniform(p: UniformParams) -> Workload {
    let spacing_ns = 1_000_000_000u64 / p.rate_pps.max(1);
    let total = (p.duration.as_nanos() / spacing_ns.max(1)).max(1);
    let kind = p.kind;
    let (ues, first_ue, start) = (p.ues.max(1), p.first_ue, p.start);
    Workload::new((0..total).map(move |i| Arrival {
        at: start + Duration::from_nanos(i * spacing_ns),
        ue: UeId::new(first_ue + (i % ues)),
        kind,
    }))
}

/// Uniform arrivals preceded by an attach phase that registers the whole
/// pool (so non-attach procedures find attached UEs). The attach phase runs
/// at `attach_rate_pps`, then the measured phase starts.
pub fn uniform_with_pool(p: UniformParams, attach_rate_pps: u64) -> (Workload, Instant) {
    let attach_spacing = 1_000_000_000u64 / attach_rate_pps.max(1);
    let attach_end =
        p.start + Duration::from_nanos(p.ues * attach_spacing) + Duration::from_millis(200);
    let attach = (0..p.ues).map(move |i| Arrival {
        at: p.start + Duration::from_nanos(i * attach_spacing),
        ue: UeId::new(p.first_ue + i),
        kind: ProcedureKind::InitialAttach,
    });
    let measured = uniform(UniformParams {
        start: attach_end,
        ..p
    });
    (
        Workload::new(attach.chain(measured.into_arrivals())),
        attach_end,
    )
}

/// Parameters of the bursty IoT pattern (Figs. 9, 17): N devices issuing
/// requests in a synchronized window.
#[derive(Debug, Clone, Copy)]
pub struct BurstParams {
    /// Number of active devices.
    pub active_users: u64,
    /// The window all requests land in (the paper's 10 Gbps arrival process
    /// drains a burst in well under a second).
    pub window: Duration,
    /// Procedure each device runs.
    pub kind: ProcedureKind,
    /// First UE id.
    pub first_ue: u64,
    /// Burst start.
    pub start: Instant,
}

/// A synchronized burst: device `i` fires at `start + i·window/N` — the
/// pathological IoT wake-up the paper stresses.
pub fn bursty_attach(p: BurstParams) -> Workload {
    let n = p.active_users.max(1);
    let step_ns = p.window.as_nanos() / n;
    let (kind, first_ue, start) = (p.kind, p.first_ue, p.start);
    Workload::new((0..n).map(move |i| Arrival {
        at: start + Duration::from_nanos(i * step_ns),
        ue: UeId::new(first_ue + i),
        kind,
    }))
}

/// Parameters of the flash-crowd re-attach storm: a regional blackout
/// (injected by the caller via `Cluster::fail_cpf_at` at the end of the
/// steady phase — see [`FlashCrowdSchedule::blackout_at`]) followed by the
/// whole population re-attaching in a synchronized herd at many times the
/// steady rate.
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowdParams {
    /// Population size.
    pub ues: u64,
    /// First UE id.
    pub first_ue: u64,
    /// Steady background service-request rate before and after the storm.
    pub steady_pps: u64,
    /// Initial pool-attach rate; `0` picks a fast default. Callers running
    /// under an admission gate should pace this below the gate's rate so
    /// the pre-storm phase registers cleanly.
    pub attach_pps: u64,
    /// Steady-phase length; the regional blackout hits when it ends (the
    /// caller injects the matching node failures at that instant).
    pub steady: Duration,
    /// Outage-detection lag before the herd starts re-attaching.
    pub surge_delay: Duration,
    /// The herd's aggregate re-attach rate (the "100×" of the scenario).
    pub surge_rate_pps: u64,
    /// Steady traffic duration after the surge drains.
    pub tail: Duration,
    /// Workload start.
    pub start: Instant,
}

/// Key instants of a generated flash crowd, for scenario assertions.
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowdSchedule {
    /// End of the initial attach phase / start of steady traffic.
    pub steady_start: Instant,
    /// The regional blackout instant (end of the steady phase); the caller
    /// injects the matching node failures here.
    pub blackout_at: Instant,
    /// First re-attach of the herd.
    pub surge_start: Instant,
    /// Last re-attach of the herd.
    pub surge_end: Instant,
    /// Last arrival of the workload.
    pub end: Instant,
}

/// The flash-crowd re-attach storm: attach the pool, run steady
/// service-request traffic up to the blackout, then re-attach the entire
/// population at `surge_rate_pps`, then resume steady traffic for `tail`.
pub fn flash_crowd_reattach(p: FlashCrowdParams) -> (Workload, FlashCrowdSchedule) {
    let n = p.ues.max(1);
    let steady_pps = p.steady_pps.max(1);
    // Attach the pool before the steady phase; fast by default, paced by
    // the caller when an admission gate fronts the CTA.
    let attach_pps = if p.attach_pps > 0 {
        p.attach_pps
    } else {
        (steady_pps * 10).max(10_000)
    };
    let attach_spacing = 1_000_000_000u64 / attach_pps;
    let steady_start =
        p.start + Duration::from_nanos(n * attach_spacing) + Duration::from_millis(200);
    let attach = (0..n).map(move |i| Arrival {
        at: p.start + Duration::from_nanos(i * attach_spacing),
        ue: UeId::new(p.first_ue + i),
        kind: ProcedureKind::InitialAttach,
    });
    // Steady service requests until the blackout.
    let blackout_at = steady_start + p.steady;
    let pre = uniform(UniformParams {
        rate_pps: steady_pps,
        duration: p.steady,
        kind: ProcedureKind::ServiceRequest,
        ues: n,
        first_ue: p.first_ue,
        start: steady_start,
    });
    // The herd: every UE re-attaches, synchronized, at the surge rate.
    let surge_start = blackout_at + p.surge_delay;
    let surge_spacing = 1_000_000_000u64 / p.surge_rate_pps.max(1);
    let surge_end = surge_start + Duration::from_nanos((n - 1) * surge_spacing);
    let surge = (0..n).map(move |i| Arrival {
        at: surge_start + Duration::from_nanos(i * surge_spacing),
        ue: UeId::new(p.first_ue + i),
        kind: ProcedureKind::InitialAttach,
    });
    // Steady traffic resumes once the surge has drained.
    let tail_start = surge_end + Duration::from_millis(500);
    let post = uniform(UniformParams {
        rate_pps: steady_pps,
        duration: p.tail,
        kind: ProcedureKind::ServiceRequest,
        ues: n,
        first_ue: p.first_ue,
        start: tail_start,
    });
    let end = tail_start + p.tail;
    (
        Workload::new(
            attach
                .chain(pre.into_arrivals())
                .chain(surge)
                .chain(post.into_arrivals()),
        ),
        FlashCrowdSchedule {
            steady_start,
            blackout_at,
            surge_start,
            surge_end,
            end,
        },
    )
}

/// Parameters of the IoT burst storm: a fleet of devices waking in
/// synchronized pulses (the diurnal reporting pattern, compressed to
/// simulation scale).
#[derive(Debug, Clone, Copy)]
pub struct IotStormParams {
    /// Fleet size.
    pub devices: u64,
    /// First UE id.
    pub first_ue: u64,
    /// Number of synchronized pulses after the initial attach pulse.
    pub pulses: u64,
    /// Pulse period (the compressed "diurnal" cycle).
    pub period: Duration,
    /// The tight window each pulse packs the whole fleet into.
    pub window: Duration,
    /// Procedure each device runs per pulse (tracking-area updates or
    /// service requests; the first pulse is always the fleet attaching).
    pub kind: ProcedureKind,
    /// First pulse start.
    pub start: Instant,
}

/// The IoT burst storm: pulse 0 attaches the whole fleet inside `window`;
/// each subsequent pulse packs the fleet's `kind` procedures into the same
/// window, `period` apart — synchronized wake-ups with idle gaps between.
pub fn iot_burst_storm(p: IotStormParams) -> Workload {
    let n = p.devices.max(1);
    let step_ns = p.window.as_nanos() / n;
    let pulses = p.pulses.max(1);
    Workload::new((0..=pulses).flat_map(move |pulse| {
        let pulse_start = p.start + Duration::from_nanos(pulse * p.period.as_nanos());
        let kind = if pulse == 0 {
            ProcedureKind::InitialAttach
        } else {
            p.kind
        };
        (0..n).map(move |i| Arrival {
            at: pulse_start + Duration::from_nanos(i * step_ns),
            ue: UeId::new(p.first_ue + i),
            kind,
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_hits_the_requested_rate() {
        let w = uniform(UniformParams {
            rate_pps: 10_000,
            duration: Duration::from_secs(2),
            kind: ProcedureKind::ServiceRequest,
            ues: 100,
            first_ue: 0,
            start: Instant::ZERO,
        });
        let v: Vec<_> = w.into_arrivals().collect();
        assert_eq!(v.len(), 20_000);
        let last = v.last().unwrap().at;
        assert!(last < Instant::from_secs(2));
        // Exact spacing.
        assert_eq!(v[1].at - v[0].at, Duration::from_micros(100));
        // Cycles through the pool.
        assert_eq!(v[0].ue, UeId::new(0));
        assert_eq!(v[100].ue, UeId::new(0));
        assert_eq!(v[101].ue, UeId::new(1));
    }

    #[test]
    fn uniform_with_pool_attaches_everyone_first() {
        let (w, measured_start) = uniform_with_pool(
            UniformParams {
                rate_pps: 1_000,
                duration: Duration::from_millis(100),
                kind: ProcedureKind::ServiceRequest,
                ues: 50,
                first_ue: 0,
                start: Instant::ZERO,
            },
            10_000,
        );
        let v: Vec<_> = w.into_arrivals().collect();
        let attaches: Vec<_> = v
            .iter()
            .filter(|a| a.kind == ProcedureKind::InitialAttach)
            .collect();
        assert_eq!(attaches.len(), 50);
        assert!(attaches.iter().all(|a| a.at < measured_start));
        let srs: Vec<_> = v
            .iter()
            .filter(|a| a.kind == ProcedureKind::ServiceRequest)
            .collect();
        assert_eq!(srs.len(), 100);
        assert!(srs.iter().all(|a| a.at >= measured_start));
        // Every UE attached exactly once.
        let set: std::collections::BTreeSet<_> = attaches.iter().map(|a| a.ue).collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn burst_lands_inside_the_window() {
        let w = bursty_attach(BurstParams {
            active_users: 10_000,
            window: Duration::from_millis(50),
            kind: ProcedureKind::InitialAttach,
            first_ue: 1_000_000,
            start: Instant::from_secs(1),
        });
        let v: Vec<_> = w.into_arrivals().collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().all(|a| a.at >= Instant::from_secs(1)));
        assert!(v
            .iter()
            .all(|a| a.at <= Instant::from_secs(1) + Duration::from_millis(50)));
        // Distinct devices.
        let set: std::collections::BTreeSet<_> = v.iter().map(|a| a.ue).collect();
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn flash_crowd_phases_are_ordered_and_complete() {
        let p = FlashCrowdParams {
            ues: 200,
            first_ue: 0,
            steady_pps: 100,
            attach_pps: 0,
            steady: Duration::from_secs(5),
            surge_delay: Duration::from_millis(300),
            surge_rate_pps: 10_000,
            tail: Duration::from_secs(2),
            start: Instant::ZERO,
        };
        let (w, sched) = flash_crowd_reattach(p);
        let v: Vec<_> = w.into_arrivals().collect();
        // Arrivals are time-ordered (phases chain without overlap).
        assert!(v.windows(2).all(|ab| ab[0].at <= ab[1].at));
        // Initial attach covers the whole pool before steady traffic.
        let initial: Vec<_> = v
            .iter()
            .filter(|a| a.kind == ProcedureKind::InitialAttach && a.at < sched.steady_start)
            .collect();
        assert_eq!(initial.len(), 200);
        // The herd: every UE re-attaches inside the surge window at the
        // surge rate's exact spacing.
        let herd: Vec<_> = v
            .iter()
            .filter(|a| a.kind == ProcedureKind::InitialAttach && a.at >= sched.surge_start)
            .collect();
        assert_eq!(herd.len(), 200);
        assert_eq!(sched.blackout_at, sched.steady_start + Duration::from_secs(5));
        assert_eq!(sched.surge_start, sched.blackout_at + Duration::from_millis(300));
        assert!(herd.iter().all(|a| a.at <= sched.surge_end));
        assert_eq!(herd[1].at - herd[0].at, Duration::from_micros(100));
        let set: std::collections::BTreeSet<_> = herd.iter().map(|a| a.ue).collect();
        assert_eq!(set.len(), 200);
        // Steady traffic resumes after the surge drains.
        assert!(v
            .iter()
            .any(|a| a.kind == ProcedureKind::ServiceRequest && a.at > sched.surge_end));
        // Nothing lands inside the dead zone between blackout and surge.
        assert!(!v
            .iter()
            .any(|a| a.at >= sched.blackout_at && a.at < sched.surge_start));
    }

    #[test]
    fn iot_storm_pulses_are_synchronized() {
        let p = IotStormParams {
            devices: 1_000,
            first_ue: 500_000,
            pulses: 3,
            period: Duration::from_secs(10),
            window: Duration::from_millis(100),
            kind: ProcedureKind::TrackingAreaUpdate,
            start: Instant::from_secs(1),
        };
        let v: Vec<_> = iot_burst_storm(p).into_arrivals().collect();
        // Pulse 0 attaches + 3 TAU pulses.
        assert_eq!(v.len(), 4_000);
        let attaches: Vec<_> = v
            .iter()
            .filter(|a| a.kind == ProcedureKind::InitialAttach)
            .collect();
        assert_eq!(attaches.len(), 1_000);
        assert!(attaches
            .iter()
            .all(|a| a.at <= Instant::from_secs(1) + Duration::from_millis(100)));
        // Each later pulse packs the fleet into its own window, period apart.
        for pulse in 1..=3u64 {
            let lo = Instant::from_secs(1) + Duration::from_secs(10 * pulse);
            let hi = lo + Duration::from_millis(100);
            let in_pulse = v
                .iter()
                .filter(|a| a.kind == ProcedureKind::TrackingAreaUpdate)
                .filter(|a| a.at >= lo && a.at <= hi)
                .count();
            assert_eq!(in_pulse, 1_000);
        }
        // Idle gaps between pulses.
        let gap_lo = Instant::from_secs(1) + Duration::from_millis(200);
        let gap_hi = Instant::from_secs(10);
        assert!(!v.iter().any(|a| a.at > gap_lo && a.at < gap_hi));
    }

    #[test]
    fn pool_sizing_is_bounded() {
        assert_eq!(UniformParams::pool_for_rate(1_000), 2_000);
        assert_eq!(UniformParams::pool_for_rate(160_000), 20_000);
        assert_eq!(UniformParams::pool_for_rate(10_000_000), 200_000);
    }
}
