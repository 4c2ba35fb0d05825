//! The User Plane Function (UPF) substrate.
//!
//! The paper interfaces Intel's 5G UPF with Neutrino over S11 (§6.6); this
//! crate is the from-scratch stand-in: a session/bearer manager answering
//! S11 requests. Downlink data is delivered while its UE's session is
//! active; an idle session raises a Downlink Data Notification to the CTA,
//! and no session means the UE is unreachable (the §3.1 reachability path).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod session;

pub use session::{SessionState, SessionTable, UpfCore, UpfOutput};
