//! Cellular control-message model: a faithful subset of the S1AP (3GPP TS
//! 36.413) and NAS (TS 24.301) messages that the paper's four control
//! procedures exchange, plus Neutrino's internal replication messages.
//!
//! Every message type provides:
//!
//! * a typed Rust struct with the information elements (IEs) the procedure
//!   logic reads;
//! * a [`codec`](neutrino_codec) schema ([`wire::Wire::schema`]) describing
//!   its ASN.1-like layout — nested IEs, optionals, constrained integers and
//!   the unions (`CHOICE`s) whose svtable optimization §4.4 introduces;
//! * a lossless field stream into any codec's sink and back out of its
//!   source ([`wire::Wire::put`] / [`wire::Wire::take`]), so any of the
//!   seven wire formats can carry it;
//! * a [`wire::Wire::sample`] instance with realistic field contents, used
//!   by the calibration pass and the Fig. 18–20 benchmarks.
//!
//! [`control::ControlMessage`] is the sum type the control plane routes, and
//! [`procedures`] defines the message sequences of each control procedure
//! (initial attach, service request, handover with CPF change, fast
//! handover, re-attach, detach).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod control;
pub mod costs;
pub mod flow;
pub mod ies;
pub mod nas;
pub mod payload;
pub mod procedures;
pub mod s1ap;
pub mod snapshot;
pub mod state;
pub mod sysmsg;
pub mod wire;

pub use control::{ControlMessage, Direction, Envelope, MessageKind};
pub use flow::{Effect, FlowSpec, NodeAddr, Role, RoleCore, FLOWS};
pub use payload::Payload;
pub use procedures::{ProcedureKind, ProcedureTemplate};
pub use snapshot::Snapshot;
pub use sysmsg::{AdmissionClass, SysMsg};
pub use wire::Wire;
