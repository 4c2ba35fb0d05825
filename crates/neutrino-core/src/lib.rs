//! System assembly: Neutrino and its baselines, end to end.
//!
//! This crate wires the sans-IO protocol cores (`neutrino-cta`,
//! `neutrino-cpf`, `neutrino-upf`) into a complete simulated deployment on
//! the `neutrino-netsim` engine, reproducing the paper's testbed (§6.1):
//! a UE/BS traffic generator, per-region CTAs, CPF pools (5 instances by
//! default), and UPFs — with per-message CPU costs taken from the calibrated
//! serialization cost table.
//!
//! * [`config`] — [`SystemConfig`]: every §6.2 baseline (existing EPC,
//!   DPCM, SkyCore) and every Neutrino variant (default, proactive,
//!   no-replication, per-message replication, no-logging) as data.
//! * [`simnode`] — `netsim` adapters around the protocol cores, charging
//!   calibrated service times.
//! * [`uepop`] — the UE/BS population: drives procedures, measures PCTs,
//!   handles re-attach requests and retransmissions (the paper's DPDK
//!   traffic generator, §5).
//! * [`cluster`] — builds the simulation from a [`SystemConfig`] +
//!   deployment layout.
//! * [`experiment`] — one-call experiment runner returning PCT
//!   distributions and system metrics.
//! * [`audit`] — post-failure cross-node consistency audit (CTA log vs CPF
//!   stores vs UPF session tables).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod audit;
pub mod cluster;
pub mod config;
pub mod experiment;
pub mod simnode;
pub mod uepop;

pub use audit::{audit_cluster, AuditReport, Divergence};
pub use cluster::{Cluster, LinkProfile, SimMsg};
pub use config::{HandoverPolicy, SystemConfig, SystemKind};
pub use experiment::{run_experiment, ExperimentSpec, FailureSpec, RunResults};
pub use uepop::{Arrival, ProcedureWindow, UePopConfig, UePopulation, Workload};
