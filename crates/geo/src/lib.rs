//! Geographic structure for proactive geo-replication (§4.3).
//!
//! Three pieces:
//!
//! * [`geohash`] — the paper's 2-bit-per-character geohash (one bit of
//!   longitude, one of latitude per character), so dropping one character
//!   grows the region exactly 4×: a level-2 region is the four level-1
//!   regions sharing a geohash prefix.
//! * [`region`] — the deployment model: level-1 regions (multiple BSs, one
//!   CTA, a CPF pool) grouped into level-2 regions.
//! * [`ring`] — consistent hash rings over CPFs, and the two-level
//!   [`ring::RingStack`] each CTA holds: the level-1 ring picks the primary
//!   CPF for a UE; the level-2 ring (CPFs of the level-2 region *excluding*
//!   the level-1 members) picks the N backup replicas, so a UE handing over
//!   to a neighboring region finds its state already there.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod geohash;
pub mod region;
pub mod ring;

pub use geohash::GeoHash;
pub use region::{Deployment, Level1Region, RegionLayout};
pub use ring::{ConsistentRing, RingStack};
