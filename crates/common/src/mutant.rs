//! One-line protocol mutants: per-run data that makes a CTA or CPF core
//! take a deliberately wrong branch, so a test can measure what the
//! verification stack catches. `Mutant` exists only under this crate's
//! `test-support` feature; [`mutant!`](crate::mutant!) names a site in
//! every build.

/// One protocol mutant: one conditional at one site of a core, named for
/// what the mutated core does.
#[cfg(feature = "test-support")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Mutant {
    /// CPF `apply_sync` adopts a checkpoint older than the one it holds.
    NoVersionGuard,
    /// CPF `apply_sync` adopts a checkpoint at or below its outdated mark.
    AdoptBelowOutdatedMark,
    /// CTA `UeSlot::ack` appends an ACK instead of inserting it sorted.
    UnsortedAcks,
    /// A straggler uplink of a completed procedure re-marks the UE in flight.
    StragglerInFlight,
    /// An end-of-procedure uplink clears any in-flight procedure.
    EndClearsAnyInFlight,
    /// Failover promotes the first eligible backup, not the furthest synced.
    FirstEligibleBackup,
    /// `on_cpf_failure` re-drives no in-flight UE.
    NoStuckRedrive,
    /// `on_cpf_failure` keeps the dead replica's ACKs.
    NoAckPurge,
    /// A CPF serves outdated state although consistency is enforced.
    ServeOutdated,
    /// Failover replays *and* forwards the uplink it is routing.
    ReplayAndForward,
    /// A replica ACKs a checkpoint it refused.
    AckRefusedSync,
    /// `replay_covers` is the pre-fix contiguity scan: a procedure id that
    /// no message of reached the CTA reads as a gap no replay can close.
    ReplayFloor,
    /// Failover forwards the uplink before it replays the log.
    ForwardBeforeReplay,
    /// The CTA keeps a checkpoint ACK only when it sorts first.
    AckRaceFirstOnly,
    /// The CTA records a replica as synced only when it sorts first.
    SyncedRaceFirstOnly,
}

/// `mutant!(planted, Name => mutated; healthy)`: `mutated` when `planted`
/// (an `Option<Mutant>`) is `Some(Mutant::Name)`, else `healthy`.
///
/// The `cfg` is the expanding crate's, whose `test-support` feature must
/// enable this crate's. Without it the expansion is `healthy` alone:
/// neither `planted` nor `mutated` is compiled.
#[macro_export]
macro_rules! mutant {
    ($planted:expr, $name:ident => $mutated:expr; $healthy:expr) => {{
        #[cfg(feature = "test-support")]
        let value = if $planted == Some($crate::Mutant::$name) {
            $mutated
        } else {
            $healthy
        };
        #[cfg(not(feature = "test-support"))]
        let value = $healthy;
        value
    }};
}
