//! Strongly-typed identifiers for cellular core entities.
//!
//! Every entity in the system gets its own newtype so that a CPF id can never
//! be confused with a CTA id at a call site. All ids are `Copy`, ordered, and
//! hashable so they can key maps and sort deterministically in the simulator.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Wraps a raw numeric identifier.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric identifier.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

id_type!(
    /// International Mobile Subscriber Identity — the permanent identity of a
    /// subscriber. Used only during initial attach; afterwards the network
    /// refers to the UE by its [`Tmsi`].
    Imsi,
    "imsi-"
);

id_type!(
    /// MME Temporary Mobile Subscriber Identity (M-TMSI).
    ///
    /// The paper (§4.3, footnote 15) keys the consistent hash rings on the
    /// M-TMSI when the UE is idle and on the S1AP UE id when active, and has
    /// the CTA assign both the same value at initial attach — we therefore
    /// use a single [`UeId`] for hashing and keep `Tmsi` as the NAS-visible
    /// temporary identity.
    Tmsi,
    "tmsi-"
);

id_type!(
    /// The network-internal identity a CTA uses to route a UE's control
    /// traffic. Assigned at initial attach; equal-valued with the S1AP UE id
    /// as in the paper.
    UeId,
    "ue-"
);

id_type!(
    /// A base station (eNodeB / gNB).
    BsId,
    "bs-"
);

id_type!(
    /// A Control Traffic Aggregator node.
    CtaId,
    "cta-"
);

id_type!(
    /// A Control Plane Function instance (the re-architected MME / AMF+SMF).
    CpfId,
    "cpf-"
);

id_type!(
    /// A User Plane Function instance.
    UpfId,
    "upf-"
);

id_type!(
    /// A data session (PDN connection) on a UPF.
    SessionId,
    "sess-"
);

id_type!(
    /// A bearer within a session (E-RAB).
    BearerId,
    "bearer-"
);

id_type!(
    /// A level-1 location region (tracking/registration area analogue).
    RegionId,
    "region-"
);

/// Identifies one run of a control procedure for one UE.
///
/// Procedure ids are unique per UE and monotonically increasing, so
/// `(UeId, ProcedureId)` names a unique procedure execution across the whole
/// deployment. The CTA uses them to group logged messages into procedures.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcedureId(pub u64);

impl ProcedureId {
    /// The first procedure a UE ever runs (its initial attach).
    pub const FIRST: ProcedureId = ProcedureId(1);

    /// Wraps a raw procedure sequence number.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw sequence number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The procedure that follows this one for the same UE.
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

impl fmt::Debug for ProcedureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc-{}", self.0)
    }
}

impl fmt::Display for ProcedureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ids_do_not_cross_types() {
        // Compile-time property really, but assert the basic contracts.
        let a = CpfId::new(3);
        let b = CtaId::new(3);
        assert_eq!(a.raw(), b.raw());
        assert_eq!(format!("{a}"), "cpf-3");
        assert_eq!(format!("{b}"), "cta-3");
    }

    #[test]
    fn ids_order_and_hash() {
        let mut set = BTreeSet::new();
        for i in 0..100 {
            set.insert(UeId::new(i));
        }
        assert_eq!(set.len(), 100);
        assert!(UeId::new(1) < UeId::new(2));
    }

    #[test]
    fn procedure_id_advances() {
        let p = ProcedureId::FIRST;
        assert_eq!(p.next().raw(), 2);
        assert_eq!(p.next().next(), ProcedureId::new(3));
    }

    #[test]
    fn display_matches_debug() {
        let u = UeId::new(42);
        assert_eq!(format!("{u}"), format!("{u:?}"));
    }
}
