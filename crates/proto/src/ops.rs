//! Operation bitmasks for capability-based authorization.
//!
//! A capability entitles its holder to perform a *set of operations* on a
//! container (paper §3.1.2). We represent the set as a bitmask so that the
//! authorization service can grant, verify, and — crucially — *partially
//! revoke* rights (e.g. revoke write while read stays valid, the `chmod`
//! example of §3.1.4) with cheap bit arithmetic.

/// A set of operations on a container of objects.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OpMask(u32);

impl OpMask {
    /// Read data from objects in the container.
    pub const READ: OpMask = OpMask(1 << 0);
    /// Write data to objects in the container.
    pub const WRITE: OpMask = OpMask(1 << 1);
    /// Create new objects in the container.
    pub const CREATE: OpMask = OpMask(1 << 2);
    /// Remove objects from the container.
    pub const REMOVE: OpMask = OpMask(1 << 3);
    /// Read object attributes (size, times).
    pub const GETATTR: OpMask = OpMask(1 << 4);
    /// Modify object attributes.
    pub const SETATTR: OpMask = OpMask(1 << 5);
    /// Change the access-control policy of the container itself.
    pub const ADMIN: OpMask = OpMask(1 << 6);
    /// Participate in distributed transactions touching the container.
    pub const TXN: OpMask = OpMask(1 << 7);
    /// Acquire locks scoped to the container.
    pub const LOCK: OpMask = OpMask(1 << 8);

    /// The empty set.
    pub const NONE: OpMask = OpMask(0);

    /// Every operation. Granted to a container's creator.
    pub const ALL: OpMask = OpMask(0x1FF);

    /// Typical rights needed to dump a checkpoint: create objects and write
    /// them, plus transaction participation (paper §4, Figure 8).
    pub const CHECKPOINT: OpMask =
        OpMask(Self::CREATE.0 | Self::WRITE.0 | Self::GETATTR.0 | Self::TXN.0);

    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Reconstruct from raw bits, keeping only defined operations.
    pub const fn from_bits_truncate(bits: u32) -> OpMask {
        OpMask(bits & Self::ALL.0)
    }

    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Does this mask include *all* operations in `other`?
    pub const fn contains(self, other: OpMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// Does this mask include *any* operation in `other`?
    pub const fn intersects(self, other: OpMask) -> bool {
        self.0 & other.0 != 0
    }

    pub const fn union(self, other: OpMask) -> OpMask {
        OpMask(self.0 | other.0)
    }

    pub const fn intersection(self, other: OpMask) -> OpMask {
        OpMask(self.0 & other.0)
    }

    /// Remove `other`'s operations from this mask — the primitive behind
    /// partial revocation.
    pub const fn difference(self, other: OpMask) -> OpMask {
        OpMask(self.0 & !other.0)
    }

    /// Number of distinct operations in the mask.
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterate the individual operations in the mask, one bit per item.
    pub fn iter(self) -> impl Iterator<Item = OpMask> {
        (0..32)
            .map(|b| OpMask(1 << b))
            .filter(move |op| self.intersects(*op) && OpMask::ALL.contains(*op))
    }

    /// Short human-readable name for a single-bit mask, used in traces.
    pub fn name(self) -> &'static str {
        match self {
            OpMask::READ => "read",
            OpMask::WRITE => "write",
            OpMask::CREATE => "create",
            OpMask::REMOVE => "remove",
            OpMask::GETATTR => "getattr",
            OpMask::SETATTR => "setattr",
            OpMask::ADMIN => "admin",
            OpMask::TXN => "txn",
            OpMask::LOCK => "lock",
            _ => "compound",
        }
    }
}

impl std::ops::BitOr for OpMask {
    type Output = OpMask;
    fn bitor(self, rhs: OpMask) -> OpMask {
        self.union(rhs)
    }
}

impl std::ops::BitAnd for OpMask {
    type Output = OpMask;
    fn bitand(self, rhs: OpMask) -> OpMask {
        self.intersection(rhs)
    }
}

impl std::ops::Sub for OpMask {
    type Output = OpMask;
    fn sub(self, rhs: OpMask) -> OpMask {
        self.difference(rhs)
    }
}

impl std::fmt::Debug for OpMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "OpMask(none)");
        }
        write!(f, "OpMask(")?;
        let mut first = true;
        for op in self.iter() {
            if !first {
                write!(f, "|")?;
            }
            write!(f, "{}", op.name())?;
            first = false;
        }
        write!(f, ")")
    }
}

impl std::fmt::Display for OpMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_intersects() {
        let rw = OpMask::READ | OpMask::WRITE;
        assert!(rw.contains(OpMask::READ));
        assert!(rw.contains(OpMask::WRITE));
        assert!(!rw.contains(OpMask::CREATE));
        assert!(rw.intersects(OpMask::READ | OpMask::CREATE));
        assert!(!rw.intersects(OpMask::CREATE));
    }

    #[test]
    fn partial_revocation_keeps_other_bits() {
        // The chmod example from §3.1.4: revoking write must not touch read.
        let rw = OpMask::READ | OpMask::WRITE;
        let after = rw - OpMask::WRITE;
        assert!(after.contains(OpMask::READ));
        assert!(!after.intersects(OpMask::WRITE));
    }

    #[test]
    fn all_contains_every_named_op() {
        for op in [
            OpMask::READ,
            OpMask::WRITE,
            OpMask::CREATE,
            OpMask::REMOVE,
            OpMask::GETATTR,
            OpMask::SETATTR,
            OpMask::ADMIN,
            OpMask::TXN,
            OpMask::LOCK,
        ] {
            assert!(OpMask::ALL.contains(op), "{op}");
        }
    }

    #[test]
    fn from_bits_truncate_drops_undefined() {
        let m = OpMask::from_bits_truncate(u32::MAX);
        assert_eq!(m, OpMask::ALL);
    }

    #[test]
    fn iter_yields_single_bits() {
        let m = OpMask::READ | OpMask::CREATE | OpMask::TXN;
        let ops: Vec<_> = m.iter().collect();
        assert_eq!(ops.len(), 3);
        for op in ops {
            assert_eq!(op.len(), 1);
            assert!(m.contains(op));
        }
    }

    #[test]
    fn checkpoint_mask_matches_figure8_needs() {
        assert!(OpMask::CHECKPOINT.contains(OpMask::CREATE));
        assert!(OpMask::CHECKPOINT.contains(OpMask::WRITE));
        assert!(OpMask::CHECKPOINT.contains(OpMask::TXN));
        assert!(!OpMask::CHECKPOINT.contains(OpMask::ADMIN));
    }

    #[test]
    fn debug_format_lists_names() {
        let s = format!("{:?}", OpMask::READ | OpMask::WRITE);
        assert!(s.contains("read"));
        assert!(s.contains("write"));
    }

    #[test]
    fn empty_mask_properties() {
        assert!(OpMask::NONE.is_empty());
        assert_eq!(OpMask::NONE.len(), 0);
        assert!(OpMask::ALL.contains(OpMask::NONE));
        assert!(!OpMask::NONE.intersects(OpMask::ALL));
    }
}
