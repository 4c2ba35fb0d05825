//! The UE/BS population: the paper's DPDK traffic generator (§5) as a
//! simulator node.
//!
//! One node emulates every UE and base station: it starts control
//! procedures according to a workload schedule, walks each procedure's
//! template (sending uplink steps, reacting to downlink steps), measures
//! procedure completion times at the UE exactly as §6 defines them
//! (including re-attach time after failures), and applies UE-side
//! serialization costs.

use crate::cluster::SimMsg;
use crate::config::SystemConfig;
use crate::simnode::cta_node;
use neutrino_codec::CodecKind;
use neutrino_common::rng::splitmix64;
use neutrino_common::stats::Percentiles;
use neutrino_common::time::{Duration, Instant};
use neutrino_common::{BsId, CtaId, ProcedureId, UeId, UeMap};
use neutrino_geo::Deployment;
use neutrino_messages::costs::CostTable;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::{Direction, Envelope, Payload, SysMsg};
use neutrino_netsim::{Node, NodeEvent, Outbox};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

/// One scheduled procedure start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the UE initiates the procedure.
    pub at: Instant,
    /// Which UE.
    pub ue: UeId,
    /// Which procedure.
    pub kind: ProcedureKind,
}

/// A time-ordered stream of procedure starts.
pub struct Workload {
    arrivals: Box<dyn Iterator<Item = Arrival> + Send>,
}

impl Workload {
    /// Wraps an arrival iterator (must be time-ordered).
    pub fn new(arrivals: impl Iterator<Item = Arrival> + Send + 'static) -> Self {
        Workload {
            arrivals: Box::new(arrivals),
        }
    }

    /// A workload from a pre-built vector.
    pub fn from_vec(mut v: Vec<Arrival>) -> Self {
        v.sort_by_key(|a| a.at);
        Self::new(v.into_iter())
    }

    /// Unwraps the arrival stream (for adapters).
    pub fn into_arrivals(self) -> Box<dyn Iterator<Item = Arrival> + Send> {
        self.arrivals
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Workload(..)")
    }
}

/// Routing of UEs to regions: a UE with id `u` uses entry `u % len`.
#[derive(Debug, Clone)]
struct RegionRoute {
    /// The region's CTA.
    cta: CtaId,
    /// The region's base stations (UE `u` camps on `bss[u % len]`).
    bss: Vec<BsId>,
}

/// UE population configuration.
#[derive(Debug, Clone)]
pub struct UePopConfig {
    /// How long a UE waits for a response before retrying.
    pub retry_timeout: Duration,
    /// Record every k-th completed PCT sample (1 = all).
    pub pct_sample_every: u64,
    /// UEs whose data-access interruption windows are recorded (the app
    /// experiments' probe UEs).
    pub record_windows_for: BTreeSet<UeId>,
}

impl Default for UePopConfig {
    fn default() -> Self {
        UePopConfig {
            retry_timeout: Duration::from_secs(1),
            pct_sample_every: 1,
            record_windows_for: BTreeSet::new(),
        }
    }
}

/// Generator cores (never the bottleneck).
const CORES: usize = 64;
/// Retransmissions of one uplink before the UE gives up and re-attaches.
pub const MAX_RETRIES: u32 = 2;
/// Total retry *budget* per procedure: retransmissions, reject re-offers,
/// and re-attach restarts all draw from it. Once spent, the UE abandons the
/// procedure (`retries_exhausted`) instead of looping forever on a CTA that
/// stays unreachable.
const MAX_ATTEMPTS: u32 = 16;
/// Base of the exponential backoff a UE adds on top of a `Reject`'s
/// `retry_after_ms` when the CTA gates admission: overload control is
/// end-to-end, so the UEs spread their re-offers instead of re-offering in
/// lockstep the moment `retry_after` elapses. Without a gate only the
/// jitter remains.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Ceiling of the exponential backoff term.
const BACKOFF_CAP: Duration = Duration::from_secs(4);

/// A completed procedure's data-access interruption window at a probe UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcedureWindow {
    /// The UE.
    pub ue: UeId,
    /// The procedure run's id (unique per UE).
    pub procedure: ProcedureId,
    /// What ran.
    pub kind: ProcedureKind,
    /// When the UE initiated it.
    pub start: Instant,
    /// When the UE regained data access (the critical step's arrival).
    pub end: Instant,
}

/// Aggregated results extracted after a run.
#[derive(Debug, Default)]
pub struct UePopResults {
    /// PCT distributions per procedure kind (milliseconds).
    pub pct: BTreeMap<ProcedureKind, Percentiles>,
    /// Interruption windows of probe UEs.
    pub windows: Vec<ProcedureWindow>,
    /// Procedures started.
    pub started: u64,
    /// Procedures whose critical path completed.
    pub completed: u64,
    /// Re-attaches performed (failure recovery).
    pub re_attached: u64,
    /// Arrivals skipped because the UE was mid-procedure.
    pub skipped_busy: u64,
    /// Retransmissions sent.
    pub retransmissions: u64,
    /// Procedures still in flight when results were extracted (0 after a
    /// fully drained run — the liveness check).
    pub incomplete: u64,
    /// Paging messages received (downlink reachability).
    pub paged: u64,
    /// Procedures abandoned because their retry budget ran out.
    pub retries_exhausted: u64,
    /// `Reject` frames received from the admission gate.
    pub rejected: u64,
    /// `SysMsg` variants delivered to the UE side that the flow contract
    /// says it never receives (misrouted traffic — counted, never silently
    /// swallowed).
    pub unexpected_msgs: u64,
}

#[derive(Debug, Clone)]
struct Active {
    kind: ProcedureKind,
    /// The kind PCT is reported under (survives re-attach recovery).
    report_kind: ProcedureKind,
    procedure: ProcedureId,
    next_step: usize,
    started: Instant,
    critical_done: bool,
    retries: u32,
    last_progress: Instant,
    /// The template step of the last uplink sent, which a retransmission
    /// rebuilds (step 0 goes out as the procedure starts).
    last_uplink: usize,
    /// Lifetime retry-budget charges (survives re-attach restarts).
    budget_used: u32,
    /// When the UE next acts unless a downlink comes first. Only [`arm`]
    /// sets it; a retry timer firing before it was superseded.
    deadline: Instant,
    /// Set while honoring a `Reject`: the deadline re-offers rather than
    /// retries.
    deferred: bool,
}

/// Sets `a`'s one deadline `after` from now and the timer that wakes `ue`
/// for it.
fn arm(a: &mut Active, ue: UeId, after: Duration, out: &mut Outbox<SimMsg>) {
    a.deadline = out.now() + after;
    out.set_timer(after, ue.raw());
}

/// Everything the population keeps per UE: one record, one lookup per
/// event. Created at the UE's first procedure and kept for the run (the
/// procedure counter must outlive every procedure).
#[derive(Debug, Default)]
struct UeRecord {
    /// The procedure in flight, if any.
    active: Option<Active>,
    /// Procedure ids handed out so far.
    proc_seq: u64,
    /// Which entry of `routes` the UE currently camps on. Everyone starts
    /// on route 0; a UE that exhausts its retries *twice in a row* (its CTA
    /// looks dead, not merely overloaded) advances to the next route —
    /// §4.2.5 scenario 4: "the UE executes the Re-Attach procedure through
    /// a new CTA".
    route: usize,
    /// Consecutive give-ups (reset by any completed procedure).
    give_ups: u32,
}

const ARRIVAL_TIMER: u64 = u64::MAX;

/// The base station and CTA of a UE camping on entry `route` of `routes`.
fn route_of(routes: &[RegionRoute], ue: UeId, route: usize) -> (BsId, CtaId) {
    let r = &routes[route % routes.len()];
    let bs = r.bss[ue.raw() as usize % r.bss.len().max(1)];
    (bs, r.cta)
}

/// Sends step `step_idx` of `active`'s template to `ue`'s CTA on `route`.
/// The envelope is a function of these arguments alone, and a UE's route
/// changes only on a give-up, which starts a fresh procedure — so sending
/// `active.last_uplink` again repeats the last uplink exactly.
fn send_uplink(
    routes: &[RegionRoute],
    ue: UeId,
    route: usize,
    active: &Active,
    step_idx: usize,
    out: &mut Outbox<SimMsg>,
) {
    let (bs, cta) = route_of(routes, ue, route);
    let template = active.kind.template();
    let step = template.steps[step_idx];
    debug_assert_eq!(step.direction, Direction::Uplink);
    let mut env = Envelope::uplink(
        ue,
        active.procedure,
        active.kind,
        Payload::sample(step.kind, ue.raw()),
    )
    .from_bs(bs);
    if step_idx + 1 == template.steps.len() {
        env = env.ending_procedure();
    }
    out.send(cta_node(cta), SimMsg::Sys(SysMsg::Control(env)));
}

/// The UE/BS population node.
pub struct UePopulation {
    config: UePopConfig,
    /// Serialization in use on the UE/BS side: the system's.
    codec: CodecKind,
    /// Region routing table, one route per region: route 0 (region 0)
    /// carries all traffic — the paper's testbed shape; the rest are
    /// fallbacks for CTA-failure recovery (§4.2.5 scenario 4).
    routes: Vec<RegionRoute>,
    /// Whether the CTA gates admission, which turns on the backoff.
    gated: bool,
    workload: Workload,
    pending_arrival: Option<Arrival>,
    ues: UeMap<UeRecord>,
    results: UePopResults,
    costs: &'static CostTable,
}

impl UePopulation {
    /// Creates the population of `system` over a workload, its UEs camped
    /// on `deployment`'s regions.
    pub fn new(
        config: UePopConfig,
        workload: Workload,
        system: &SystemConfig,
        deployment: &Deployment,
    ) -> Self {
        let routes = deployment
            .regions()
            .iter()
            .map(|r| RegionRoute {
                cta: r.cta,
                bss: r.bss.clone(),
            })
            .collect();
        UePopulation {
            config,
            codec: system.codec,
            routes,
            gated: system.admission.is_some(),
            workload,
            pending_arrival: None,
            ues: UeMap::new(),
            results: UePopResults::default(),
            costs: CostTable::baked(),
        }
    }

    /// Takes the results (leaves defaults behind).
    pub fn take_results(&mut self) -> UePopResults {
        let in_flight = self
            .ues
            .values_mut()
            .filter(|rec| rec.active.is_some())
            .count();
        self.results.incomplete = in_flight as u64;
        std::mem::take(&mut self.results)
    }

    /// Read access to results.
    pub fn results(&self) -> &UePopResults {
        &self.results
    }

    /// Mutable access to results (`test-support` only). Test harnesses use
    /// this to plant counter states that exercise oracle kill-switches.
    #[cfg(feature = "test-support")]
    pub fn results_mut(&mut self) -> &mut UePopResults {
        &mut self.results
    }

    /// Read-only snapshot of every in-flight procedure, sorted by UE id:
    /// `(ue, started, last_progress, retries)`. Mid-run liveness oracles
    /// use `last_progress` to bound how long a UE may sit without the
    /// retry machinery moving it forward.
    pub fn active_procedures(&self) -> Vec<(UeId, Instant, Instant, u32)> {
        self.ues
            .iter_sorted()
            .filter_map(|(ue, rec)| {
                let a = rec.active.as_ref()?;
                Some((*ue, a.started, a.last_progress, a.retries))
            })
            .collect()
    }

    /// The population's configuration (retry policy).
    pub fn config(&self) -> &UePopConfig {
        &self.config
    }

    fn is_active(&self, ue: UeId) -> bool {
        self.ues.get(ue).is_some_and(|rec| rec.active.is_some())
    }

    /// Starts `kind` for `ue`, replacing whatever it had in flight.
    fn start_procedure(
        &mut self,
        ue: UeId,
        kind: ProcedureKind,
        report_kind: ProcedureKind,
        started: Instant,
        budget_used: u32,
        out: &mut Outbox<SimMsg>,
    ) {
        let rec = self.ues.entry(ue).or_default();
        rec.proc_seq += 1;
        self.results.started += 1;
        let active = rec.active.insert(Active {
            kind,
            report_kind,
            procedure: ProcedureId::new(rec.proc_seq),
            next_step: 1, // step 0 goes out right now
            started,
            critical_done: false,
            retries: 0,
            last_progress: out.now(),
            last_uplink: 0,
            budget_used,
            deadline: out.now(),
            deferred: false,
        });
        send_uplink(&self.routes, ue, rec.route, active, 0, out);
        arm(active, ue, self.config.retry_timeout, out);
    }

    /// Abandons `rec`'s procedure: its retry budget ran out.
    fn abandon(rec: &mut UeRecord, results: &mut UePopResults) {
        rec.active = None;
        rec.give_ups = 0;
        results.retries_exhausted += 1;
    }

    /// `active` just passed its critical step at `now`: count it and record
    /// its PCT (and its window, for a probe UE).
    fn record_completion(
        config: &UePopConfig,
        results: &mut UePopResults,
        ue: UeId,
        active: &Active,
        now: Instant,
    ) {
        results.completed += 1;
        let pct = now.saturating_since(active.started);
        let kind = active.report_kind;
        let every = config.pct_sample_every.max(1);
        if results.completed.is_multiple_of(every) {
            results.pct.entry(kind).or_default().push_duration_ms(pct);
        }
        if config.record_windows_for.contains(&ue) {
            results.windows.push(ProcedureWindow {
                ue,
                procedure: active.procedure,
                kind,
                start: active.started,
                end: now,
            });
        }
    }

    fn on_downlink(&mut self, env: Envelope, out: &mut Outbox<SimMsg>) {
        let ue = env.ue;
        let now = out.now();
        // An unsolicited page: respond with a service request (idle →
        // connected) unless a procedure is already running.
        if env.msg.kind() == neutrino_messages::MessageKind::Paging {
            self.results.paged += 1;
            if !self.is_active(ue) {
                self.start_procedure(
                    ue,
                    ProcedureKind::ServiceRequest,
                    ProcedureKind::ServiceRequest,
                    now,
                    0,
                    out,
                );
            }
            return;
        }
        let Some(rec) = self.ues.get_mut(ue) else {
            return;
        };
        let route = rec.route;
        let Some(active) = rec.active.as_mut().filter(|a| a.procedure == env.procedure) else {
            return; // stale or duplicate downlink
        };
        let template = active.kind.template();
        // Accept the downlink if it is the next expected DL step (skip
        // duplicates of already-passed steps).
        let pos = template.steps[active.next_step..]
            .iter()
            .position(|s| s.direction == Direction::Downlink && s.kind == env.msg.kind());
        match pos {
            Some(rel) => active.next_step += rel + 1,
            None => return, // duplicate from a replayed recovery: ignore
        }
        active.last_progress = now;
        active.retries = 0;
        // Did we just pass the critical step?
        if active.next_step > template.completion_index() && !active.critical_done {
            active.critical_done = true;
            rec.give_ups = 0;
            Self::record_completion(&self.config, &mut self.results, ue, active, now);
        }
        // Send consecutive uplink steps that follow.
        while active.next_step < template.steps.len()
            && template.steps[active.next_step].direction == Direction::Uplink
        {
            active.last_uplink = active.next_step;
            send_uplink(&self.routes, ue, route, active, active.next_step, out);
            active.next_step += 1;
        }
        // Finished the whole template?
        if active.next_step >= template.steps.len() {
            rec.active = None;
        } else {
            arm(active, ue, self.config.retry_timeout, out);
        }
    }

    fn on_ask_re_attach(&mut self, ue: UeId, out: &mut Outbox<SimMsg>) {
        let now = out.now();
        let (report_kind, started, budget) =
            match self.ues.get(ue).and_then(|rec| rec.active.as_ref()) {
                // Failure mid-procedure: the PCT keeps accumulating from the
                // original start, as §6.4 measures it — and the restart draws
                // from the same retry budget.
                Some(a) => (a.report_kind, a.started, a.budget_used + 1),
                // Idle UE told to re-attach: a fresh re-attach procedure.
                None => (ProcedureKind::ReAttach, now, 0),
            };
        if budget > MAX_ATTEMPTS {
            if let Some(rec) = self.ues.get_mut(ue) {
                Self::abandon(rec, &mut self.results);
            }
            return;
        }
        self.results.re_attached += 1;
        self.start_procedure(ue, ProcedureKind::ReAttach, report_kind, started, budget, out);
    }

    fn on_retry_timer(&mut self, ue: UeId, out: &mut Outbox<SimMsg>) {
        let now = out.now();
        let Some(rec) = self.ues.get_mut(ue) else {
            return;
        };
        let Some(a) = rec.active.as_mut().filter(|a| now >= a.deadline) else {
            return; // the procedure is gone, or a later arm superseded this timer
        };
        if a.deferred {
            // The `Reject`'s deferral is over: re-offer the shed procedure
            // start (already charged to the budget when the Reject arrived).
            a.deferred = false;
            a.last_progress = now;
        } else {
            a.retries += 1;
            if a.retries > MAX_RETRIES {
                // One silent procedure can be overload; two consecutive dead
                // re-attach attempts mean the CTA itself is gone — scenario 4
                // (§4.2.5): re-attach through the next one.
                rec.give_ups += 1;
                if rec.give_ups >= 2 {
                    rec.route = (rec.route + 1) % self.routes.len().max(1);
                }
                self.on_ask_re_attach(ue, out);
                return;
            }
            // Retransmit the last uplink — one budget charge per resend.
            a.budget_used += 1;
            if a.budget_used > MAX_ATTEMPTS {
                Self::abandon(rec, &mut self.results);
                return;
            }
        }
        self.results.retransmissions += 1;
        send_uplink(&self.routes, ue, rec.route, a, a.last_uplink, out);
        arm(a, ue, self.config.retry_timeout, out);
    }

    /// The CTA's admission gate shed this UE's procedure start. Honor the
    /// `retry_after_ms` hint plus deterministic jittered exponential
    /// backoff, then re-offer — unless the retry budget is spent.
    fn on_reject(&mut self, ue: UeId, retry_after_ms: u64, out: &mut Outbox<SimMsg>) {
        let now = out.now();
        let Some(rec) = self.ues.get_mut(ue) else {
            return;
        };
        let Some(a) = rec.active.as_mut() else {
            return; // stale reject for an abandoned procedure
        };
        self.results.rejected += 1;
        a.budget_used += 1;
        if a.budget_used > MAX_ATTEMPTS {
            Self::abandon(rec, &mut self.results);
            return;
        }
        // Exponential term behind a gate: base << attempt, capped. Without
        // one only the jitter window remains.
        let expo_ns = if self.gated {
            (BACKOFF_BASE.as_nanos() << a.budget_used.min(16)).min(BACKOFF_CAP.as_nanos())
        } else {
            0
        };
        // Stateless splitmix64 jitter keyed on (ue, attempt): no shared RNG
        // state, so the draw is identical under any worker interleaving.
        let jitter_window = (expo_ns / 2).max(1_000_000); // ≥ 1ms to break sync
        let jitter_ns = splitmix64(
            ue.raw()
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(a.budget_used)),
        ) % jitter_window;
        let wait = Duration::from_millis(retry_after_ms)
            + Duration::from_nanos(expo_ns / 2 + jitter_ns);
        a.deferred = true;
        a.last_progress = now;
        a.retries = 0;
        arm(a, ue, wait, out);
    }

    fn pump_arrivals(&mut self, out: &mut Outbox<SimMsg>) {
        let now = out.now();
        loop {
            let arrival = match self
                .pending_arrival
                .take()
                .or_else(|| self.workload.arrivals.next())
            {
                Some(a) => a,
                None => return, // workload exhausted
            };
            if arrival.at > now {
                self.pending_arrival = Some(arrival);
                out.set_timer(arrival.at.saturating_since(now), ARRIVAL_TIMER);
                return;
            }
            if self.is_active(arrival.ue) {
                self.results.skipped_busy += 1;
                continue;
            }
            self.start_procedure(arrival.ue, arrival.kind, arrival.kind, arrival.at, 0, out);
        }
    }
}

impl Node<SimMsg> for UePopulation {
    fn service_time(&self, msg: &SimMsg) -> Duration {
        match msg {
            SimMsg::Sys(SysMsg::Control(env)) => {
                // UE/BS-side parse of the downlink.
                self.costs
                    .sim_cost(self.codec, env.msg.kind())
                    .map(|c| c.access)
                    .unwrap_or(Duration::from_nanos(500))
            }
            SimMsg::Sys(SysMsg::AskReAttach { .. }) => Duration::from_nanos(500),
            SimMsg::Sys(SysMsg::Reject { .. }) => Duration::from_nanos(500),
            _ => Duration::ZERO,
        }
    }

    fn handle(&mut self, event: NodeEvent<SimMsg>, out: &mut Outbox<SimMsg>) {
        match event {
            NodeEvent::Message { msg, .. } => match msg {
                SimMsg::Kick => self.pump_arrivals(out),
                SimMsg::Sys(SysMsg::Control(env)) if env.direction == Direction::Downlink => {
                    self.on_downlink(env, out);
                }
                SimMsg::Sys(SysMsg::AskReAttach { ue }) => {
                    self.on_ask_re_attach(ue, out);
                }
                SimMsg::Sys(SysMsg::Reject { ue, retry_after_ms, .. }) => {
                    self.on_reject(ue, retry_after_ms, out);
                }
                // A misrouted SysMsg, an uplink `Control` too, is counted, not
                // dropped: a checked case fails on it.
                _ => self.results.unexpected_msgs += 1,
            },
            NodeEvent::Timer { id: ARRIVAL_TIMER } => self.pump_arrivals(out),
            NodeEvent::Timer { id } => self.on_retry_timer(UeId::new(id), out),
        }
    }

    fn cores(&self) -> usize {
        CORES
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simnode::UEPOP_NODE;
    use neutrino_cta::AdmissionParams;
    use neutrino_geo::RegionLayout;
    use neutrino_messages::sysmsg::AdmissionClass;
    use neutrino_netsim::{LinkSpec, Links, NodeId, Sim};

    /// Region 0's CTA, where every UE starts.
    fn cta() -> NodeId {
        cta_node(CtaId::new(0))
    }

    /// A simulator holding `system`'s population over `arrivals` and, at
    /// region 0's CTA, `cta`; every hop takes 5 µs.
    fn population_sim(
        system: &SystemConfig,
        config: UePopConfig,
        arrivals: Vec<Arrival>,
        cta: impl Node<SimMsg> + 'static,
    ) -> Sim<SimMsg> {
        let deployment = Deployment::build(RegionLayout::default(), system.replicas);
        let pop = UePopulation::new(config, Workload::from_vec(arrivals), system, &deployment);
        let mut sim = Sim::new(Links::with_default(LinkSpec::fixed(Duration::from_micros(5))));
        sim.add_node(UEPOP_NODE, Box::new(pop));
        sim.add_node(self::cta(), Box::new(cta));
        sim.inject_at(Instant::ZERO, UEPOP_NODE, SimMsg::Kick);
        sim
    }

    #[test]
    fn workload_from_vec_sorts() {
        let w = Workload::from_vec(vec![
            Arrival {
                at: Instant::from_millis(5),
                ue: UeId::new(2),
                kind: ProcedureKind::ServiceRequest,
            },
            Arrival {
                at: Instant::from_millis(1),
                ue: UeId::new(1),
                kind: ProcedureKind::InitialAttach,
            },
        ]);
        let v: Vec<_> = w.arrivals.collect();
        assert_eq!(v[0].ue, UeId::new(1));
        assert_eq!(v[1].ue, UeId::new(2));
    }

    #[test]
    fn route_is_deterministic() {
        let deployment = Deployment::build(RegionLayout::default(), 2);
        let pop = UePopulation::new(
            UePopConfig::default(),
            Workload::from_vec(Vec::new()),
            &SystemConfig::neutrino(),
            &deployment,
        );
        let a = route_of(&pop.routes, UeId::new(17), 0);
        let b = route_of(&pop.routes, UeId::new(17), 0);
        assert_eq!(a, b);
        assert_eq!(a, (BsId::new(1), CtaId::new(0)));
        assert_eq!(route_of(&pop.routes, UeId::new(17), 1).1, CtaId::new(1));
    }

    #[test]
    fn a_ue_record_keeps_no_envelope() {
        // Pinned: a run holds one slab entry per UE it ever saw.
        assert_eq!(std::mem::size_of::<(UeId, UeRecord)>(), 96);
    }

    /// A CTA that records every uplink and answers only the first
    /// `answer` of them, each with the downlink step that follows it.
    struct SilentCta {
        seen: Vec<Envelope>,
        answer: usize,
    }

    impl Node<SimMsg> for SilentCta {
        fn service_time(&self, _: &SimMsg) -> Duration {
            Duration::ZERO
        }

        fn handle(&mut self, event: NodeEvent<SimMsg>, out: &mut Outbox<SimMsg>) {
            let NodeEvent::Message { msg: SimMsg::Sys(SysMsg::Control(env)), .. } = event else {
                return;
            };
            if self.seen.len() < self.answer {
                let steps = &env.proc_kind.template().steps;
                let next = 1 + steps.iter().position(|s| s.kind == env.msg.kind()).unwrap();
                let msg = Payload::sample(steps[next].kind, env.ue.raw());
                let reply =
                    Envelope::downlink(env.ue, env.procedure, env.proc_kind, msg).from_bs(env.bs);
                out.send(UEPOP_NODE, SimMsg::Sys(SysMsg::Control(reply)));
            }
            self.seen.push(env);
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_retransmission_is_the_uplink_it_repeats() {
        let kind = ProcedureKind::InitialAttach;
        // Answered 0, 1 or 2 times, the UE repeats step 0, 2 or 4: one
        // resend per `retry_timeout` from its last progress at ≈ 0 s, and a
        // re-attach only at ≈ 3 s.
        for (answer, step) in [(0, 0), (1, 2), (2, 4)] {
            let ue = UeId::new(7);
            let arrival = Arrival { at: Instant::ZERO, ue, kind };
            let silent = SilentCta { seen: Vec::new(), answer };
            let config = UePopConfig::default();
            let mut sim =
                population_sim(&SystemConfig::neutrino(), config, vec![arrival], silent);
            sim.run_until(Instant::from_millis(2_500));
            let seen = std::mem::take(&mut sim.node_as::<SilentCta>(cta()).unwrap().seen);
            let repeated = &seen[answer..];
            let first = &repeated[0];
            assert_eq!(first.msg.kind(), kind.template().steps[step].kind);
            assert_eq!((first.ue, first.procedure, first.bs), (ue, ProcedureId::new(1), BsId::new(7)));
            assert!(repeated.iter().all(|env| env == first), "{repeated:?}");
            let results = sim.node_as::<UePopulation>(UEPOP_NODE).unwrap().results();
            assert_eq!((results.retransmissions, results.re_attached), (2, 0), "{answer} answers");
            assert_eq!(repeated.len(), 3);
        }
        // One reject, then silence: the re-offer's deadline supersedes the
        // start's, so the UE resends at re-offer + 1 s and + 2 s and gives
        // up only at + 3 s.
        let gated = SystemConfig::neutrino().with_admission(AdmissionParams::for_rate(1_000));
        let arrival = Arrival { at: Instant::ZERO, ue: UeId::new(7), kind };
        let gate = GateCta { rejects: 1, arrivals: Vec::new() };
        let config = UePopConfig::default();
        let timeout = config.retry_timeout;
        let mut sim = population_sim(&gated, config, vec![arrival], gate);
        sim.run_until(Instant::from_millis(2_600));
        let arrivals = std::mem::take(&mut sim.node_as::<GateCta>(cta()).unwrap().arrivals);
        assert_eq!(arrivals.len(), 4, "{arrivals:?}");
        for pair in arrivals[1..].windows(2) {
            assert_eq!(pair[1].saturating_since(pair[0]), timeout, "{arrivals:?}");
        }
        let results = sim.node_as::<UePopulation>(UEPOP_NODE).unwrap().results();
        assert_eq!((results.retransmissions, results.re_attached), (3, 0));
    }

    #[test]
    fn misrouted_sysmsg_is_counted_not_swallowed() {
        // The flow contract says the UE side never receives MigrationAck (it
        // is a CPF→CPF message) nor an uplink — each must land in the
        // counter, not vanish or panic.
        let ue = UeId::new(7);
        let kind = ProcedureKind::InitialAttach;
        let body = Payload::sample(kind.template().steps[0].kind, ue.raw());
        let uplink = Envelope::uplink(ue, ProcedureId::new(1), kind, body);
        for misrouted in [SysMsg::MigrationAck { ue }, SysMsg::Control(uplink)] {
            let silent = SilentCta { seen: Vec::new(), answer: 0 };
            let config = UePopConfig::default();
            let mut sim = population_sim(&SystemConfig::neutrino(), config, Vec::new(), silent);
            sim.inject_at(Instant::ZERO, UEPOP_NODE, SimMsg::Sys(misrouted));
            sim.run_until(Instant::from_millis(1));
            let pop = sim.node_as::<UePopulation>(UEPOP_NODE).unwrap();
            assert_eq!(pop.results().unexpected_msgs, 1);
        }
    }

    /// The `retry_after` a [`GateCta`] sends.
    const RETRY_AFTER: Duration = Duration::from_millis(20);

    /// A CTA whose gate sheds the first `rejects` uplinks it sees; it
    /// records when every uplink arrived.
    struct GateCta {
        rejects: usize,
        arrivals: Vec<Instant>,
    }

    impl Node<SimMsg> for GateCta {
        fn service_time(&self, _: &SimMsg) -> Duration {
            Duration::ZERO
        }

        fn handle(&mut self, event: NodeEvent<SimMsg>, out: &mut Outbox<SimMsg>) {
            let NodeEvent::Message { msg: SimMsg::Sys(SysMsg::Control(env)), .. } = event else {
                return;
            };
            if self.arrivals.len() < self.rejects {
                let reject = SysMsg::Reject {
                    ue: env.ue,
                    class: AdmissionClass::Attach,
                    retry_after_ms: RETRY_AFTER.as_nanos() / 1_000_000,
                };
                out.send(UEPOP_NODE, SimMsg::Sys(reject));
            }
            self.arrivals.push(out.now());
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_rejected_ue_backs_off_only_behind_a_gate() {
        // Seven rejects reach attempt 7, where 50 ms · 2^7 passes the cap.
        const REJECTS: usize = 7;
        // Two 5 µs hops and the UE's parse of the reject, with room to spare.
        let hops = Duration::from_micros(20);
        let gated = SystemConfig::neutrino().with_admission(AdmissionParams::for_rate(1_000));
        for system in [gated, SystemConfig::neutrino()] {
            let ue = UeId::new(7);
            let arrival = Arrival { at: Instant::ZERO, ue, kind: ProcedureKind::InitialAttach };
            let gate = GateCta { rejects: REJECTS, arrivals: Vec::new() };
            let config = UePopConfig::default();
            let mut sim = population_sim(&system, config, vec![arrival], gate);
            sim.run_until(Instant::from_secs(30));
            let arrivals = std::mem::take(&mut sim.node_as::<GateCta>(cta()).unwrap().arrivals);
            assert!(arrivals.len() > REJECTS, "{arrivals:?}");
            for (attempt, pair) in (1u32..).zip(arrivals[..=REJECTS].windows(2)) {
                // Behind a gate the UE waits at least half the exponential
                // term; the jitter window is that half, or 1 ms without one.
                let half = if system.admission.is_some() {
                    (BACKOFF_BASE.as_nanos() << attempt).min(BACKOFF_CAP.as_nanos()) / 2
                } else {
                    0
                };
                let waited = pair[1].saturating_since(pair[0]) - RETRY_AFTER;
                let earliest = Duration::from_nanos(half);
                let latest = earliest + Duration::from_nanos(half.max(1_000_000)) + hops;
                assert!(
                    earliest <= waited && waited < latest,
                    "{}: attempt {attempt} waited {waited:?} past retry_after, \
                     outside [{earliest:?}, {latest:?})",
                    system.name
                );
            }
        }
    }
}
