//! Identifiers used throughout the LWFS protocol.
//!
//! All identifiers are small, fixed-size, `Copy` values so they can cross the
//! wire cheaply and live in server-side tables without allocation. Every type
//! is a newtype wrapper: the compiler prevents, say, passing an [`ObjId`]
//! where a [`ContainerId`] is expected — a class of bug that matters in a
//! security protocol where the container is the unit of access control.

/// A physical node in the machine (compute node, I/O node, or service node).
///
/// Mirrors a Portals *nid*. Nodes are the unit of allocation in the
/// space-shared MPP model (paper §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A process on a node. Mirrors a Portals *pid*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// Fully-qualified process address: `(nid, pid)`.
///
/// This is the only addressing the connectionless transport needs — there is
/// no connection handle, per design rule 2 of paper §2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId {
    pub nid: NodeId,
    pub pid: Pid,
}

impl ProcessId {
    pub const fn new(nid: u32, pid: u32) -> Self {
        Self { nid: NodeId(nid), pid: Pid(pid) }
    }
}

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.nid.0, self.pid.0)
    }
}

/// A container of objects — the unit of coarse-grained access control
/// (paper §3.1.1). Every object belongs to exactly one container and all
/// objects in a container share one access-control policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(pub u64);

/// A storage object within a container.
///
/// LWFS knows nothing about the organization of objects inside a container;
/// higher layers (naming service, file-system libraries) impose structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u64);

/// An authenticated principal (user identity) as established by the external
/// authentication mechanism (e.g. Kerberos).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrincipalId(pub u64);

/// A distributed transaction identifier (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

/// Monotonic per-sender operation sequence number, used to match replies to
/// requests on the connectionless transport and to make server-side request
/// reordering observable in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpNum(pub u64);

impl OpNum {
    pub fn next(self) -> OpNum {
        OpNum(self.0 + 1)
    }
}

/// A validity window for credentials and capabilities, expressed in protocol
/// time (nanoseconds since an epoch chosen by the deployment).
///
/// Credentials carry a lifetime modifier limiting how long they remain valid
/// (paper §3.1.2); capabilities are bounded by the issuing instance of the
/// authorization service *and* by the credential that obtained them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lifetime {
    /// Inclusive start of validity.
    pub not_before: u64,
    /// Exclusive end of validity.
    pub not_after: u64,
}

impl Lifetime {
    /// A lifetime covering `[start, start + duration)`.
    pub const fn starting_at(start: u64, duration: u64) -> Self {
        Self { not_before: start, not_after: start.saturating_add(duration) }
    }

    /// A lifetime that never expires. Used by tests and by deployments that
    /// rely exclusively on explicit revocation.
    pub const UNBOUNDED: Lifetime = Lifetime { not_before: 0, not_after: u64::MAX };

    /// Is `now` inside the validity window?
    pub fn valid_at(&self, now: u64) -> bool {
        now >= self.not_before && now < self.not_after
    }

    /// Like [`valid_at`](Lifetime::valid_at), but tolerating `skew`
    /// nanoseconds of clock disagreement between the minting process and the
    /// verifying process. Only the *start* of the window is widened: a
    /// freshly minted credential must not be rejected as not-yet-valid by a
    /// verifier whose clock runs a little behind the issuer's, but expiry is
    /// a security boundary and is never extended.
    pub fn valid_at_with_skew(&self, now: u64, skew: u64) -> bool {
        now.saturating_add(skew) >= self.not_before && now < self.not_after
    }

    /// The intersection of two lifetimes (empty windows report invalid for
    /// every instant, which is the safe default).
    pub fn intersect(&self, other: &Lifetime) -> Lifetime {
        Lifetime {
            not_before: self.not_before.max(other.not_before),
            not_after: self.not_after.min(other.not_after),
        }
    }
}

macro_rules! display_u64_id {
    ($($t:ident => $tag:literal),* $(,)?) => {
        $(impl std::fmt::Display for $t {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        })*
    };
}
display_u64_id!(ContainerId => "cid:", ObjId => "oid:", PrincipalId => "uid:", TxnId => "txn:", OpNum => "op:");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display() {
        assert_eq!(ProcessId::new(3, 7).to_string(), "3:7");
    }

    #[test]
    fn lifetime_window_edges() {
        let lt = Lifetime::starting_at(100, 50);
        assert!(!lt.valid_at(99));
        assert!(lt.valid_at(100));
        assert!(lt.valid_at(149));
        assert!(!lt.valid_at(150));
    }

    #[test]
    fn skew_widens_start_but_not_expiry() {
        // Regression for cross-process clock skew: a cap minted by a process
        // whose clock runs ahead must still be honored by a verifier a few
        // ticks behind — but skew must never stretch the expiry.
        let lt = Lifetime::starting_at(100, 50);
        assert!(!lt.valid_at(95));
        assert!(lt.valid_at_with_skew(95, 10));
        assert!(!lt.valid_at_with_skew(95, 0));
        assert!(!lt.valid_at_with_skew(89, 10));
        assert!(!lt.valid_at_with_skew(150, 10));
        assert!(!lt.valid_at_with_skew(150, u64::MAX));
        assert!(lt.valid_at_with_skew(149, 10));
    }

    #[test]
    fn lifetime_unbounded_always_valid() {
        assert!(Lifetime::UNBOUNDED.valid_at(0));
        assert!(Lifetime::UNBOUNDED.valid_at(u64::MAX - 1));
    }

    #[test]
    fn lifetime_saturates() {
        let lt = Lifetime::starting_at(u64::MAX - 5, 100);
        assert!(lt.valid_at(u64::MAX - 1));
    }

    #[test]
    fn lifetime_intersection() {
        let a = Lifetime::starting_at(0, 100);
        let b = Lifetime::starting_at(50, 100);
        let i = a.intersect(&b);
        assert_eq!(i.not_before, 50);
        assert_eq!(i.not_after, 100);
        assert!(i.valid_at(75));
        assert!(!i.valid_at(100));
    }

    #[test]
    fn empty_intersection_is_never_valid() {
        let a = Lifetime::starting_at(0, 10);
        let b = Lifetime::starting_at(20, 10);
        let i = a.intersect(&b);
        for t in 0..40 {
            assert!(!i.valid_at(t));
        }
    }

    #[test]
    fn opnum_increments() {
        assert_eq!(OpNum(3).next(), OpNum(4));
    }

    #[test]
    fn ids_are_distinct_types() {
        // Compile-time property, spot-checked: hashing and ordering work.
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ContainerId(1));
        set.insert(ContainerId(2));
        set.insert(ContainerId(1));
        assert_eq!(set.len(), 2);
    }
}
