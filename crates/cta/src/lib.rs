//! The Control Traffic Aggregator (CTA) — §4.2.3–4.2.5.
//!
//! The CTA sits between base stations and the CPF pool. It is
//! (i) the front-end load balancer (consistent hashing over the level-1
//! ring), (ii) the keeper of the in-memory message log that makes fast
//! failure recovery possible, and (iii) the failure-recovery coordinator
//! that picks (and if necessary catches up) a backup CPF when a primary
//! dies.
//!
//! [`CtaCore`] is a sans-IO state machine: drivers feed it messages and the
//! current time, it returns [`CtaOutput`]s. The discrete-event simulator and
//! the real-time driver both run the exact same code.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod admission;
pub mod core;
pub mod log;

pub use crate::core::{CtaConfig, CtaCore, CtaMetrics, CtaOutput, FailoverPolicy};
pub use admission::{AdmissionControl, AdmissionDecision, AdmissionParams};
pub use log::{MessageLog, ProcedureLog};
