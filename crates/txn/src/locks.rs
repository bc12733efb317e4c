//! Shared/exclusive byte-range locks.
//!
//! The LWFS-core does not impose locking on anyone — the checkpoint case
//! study never takes a lock, which is precisely its performance story. The
//! lock service exists for layered file systems that *choose* POSIX-style
//! consistency (Figure 2, "Traditional PFS: striping, file locks, POSIX
//! consistency"): our Lustre-like baseline uses this table for shared-file
//! extent locks.
//!
//! Grant rules: any number of `Shared` locks may overlap; an `Exclusive`
//! lock conflicts with every overlapping lock held by another owner.
//! Acquisition is non-blocking ([`Error::WouldBlock`] on conflict); waiting
//! is the caller's retry loop, which keeps the single-threaded service
//! handler non-blocking. Re-acquisition by the same owner is permitted.

use std::collections::HashMap;

use lwfs_proto::{Error, LockId, LockMode, LockResource, ProcessId, Result};
use parking_lot::Mutex;

/// A granted lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockGrant {
    pub id: LockId,
    pub owner: ProcessId,
    pub resource: LockResource,
    pub mode: LockMode,
}

#[derive(Debug, Default)]
struct TableState {
    held: HashMap<LockId, LockGrant>,
    next_id: u64,
    /// Counters for contention reporting.
    granted: u64,
    refused: u64,
}

/// The lock table.
#[derive(Debug, Default)]
pub struct LockTable {
    state: Mutex<TableState>,
}

impl LockTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to acquire a lock; `Err(WouldBlock)` on conflict.
    pub fn try_acquire(
        &self,
        owner: ProcessId,
        resource: LockResource,
        mode: LockMode,
    ) -> Result<LockId> {
        let mut st = self.state.lock();
        let conflict = st.held.values().any(|g| {
            g.owner != owner
                && g.resource.overlaps(&resource)
                && (mode == LockMode::Exclusive || g.mode == LockMode::Exclusive)
        });
        if conflict {
            st.refused += 1;
            return Err(Error::WouldBlock);
        }
        let id = LockId(st.next_id);
        st.next_id += 1;
        st.held.insert(id, LockGrant { id, owner, resource, mode });
        st.granted += 1;
        Ok(id)
    }

    /// Release a lock; only the owner may release it.
    pub fn release(&self, owner: ProcessId, id: LockId) -> Result<()> {
        let mut st = self.state.lock();
        match st.held.get(&id) {
            None => Err(Error::Internal(format!("release of unknown lock {id:?}"))),
            Some(g) if g.owner != owner => Err(Error::AccessDenied),
            Some(_) => {
                st.held.remove(&id);
                Ok(())
            }
        }
    }

    pub fn held_count(&self) -> usize {
        self.state.lock().held.len()
    }

    /// (granted, refused) counters — refusals measure lock contention, the
    /// mechanism behind the shared-file slowdown in Figure 9.
    pub fn contention(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.granted, st.refused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_proto::{ContainerId, ObjId};

    const P1: ProcessId = ProcessId::new(1, 0);
    const P2: ProcessId = ProcessId::new(2, 0);

    fn res(start: u64, end: u64) -> LockResource {
        LockResource::range(ContainerId(1), ObjId(1), start, end)
    }

    #[test]
    fn shared_locks_coexist() {
        let t = LockTable::new();
        t.try_acquire(P1, res(0, 100), LockMode::Shared).unwrap();
        t.try_acquire(P2, res(50, 150), LockMode::Shared).unwrap();
        assert_eq!(t.held_count(), 2);
    }

    #[test]
    fn exclusive_conflicts_with_overlap() {
        let t = LockTable::new();
        t.try_acquire(P1, res(0, 100), LockMode::Exclusive).unwrap();
        assert_eq!(
            t.try_acquire(P2, res(50, 150), LockMode::Exclusive).unwrap_err(),
            Error::WouldBlock
        );
        assert_eq!(
            t.try_acquire(P2, res(50, 150), LockMode::Shared).unwrap_err(),
            Error::WouldBlock
        );
        let (granted, refused) = t.contention();
        assert_eq!((granted, refused), (1, 2));
    }

    #[test]
    fn disjoint_exclusive_ranges_coexist() {
        // The checkpoint story: non-overlapping writes need no waiting.
        let t = LockTable::new();
        t.try_acquire(P1, res(0, 100), LockMode::Exclusive).unwrap();
        t.try_acquire(P2, res(100, 200), LockMode::Exclusive).unwrap();
        assert_eq!(t.held_count(), 2);
    }

    #[test]
    fn different_objects_never_conflict() {
        let t = LockTable::new();
        let a = LockResource::whole_object(ContainerId(1), ObjId(1));
        let b = LockResource::whole_object(ContainerId(1), ObjId(2));
        t.try_acquire(P1, a, LockMode::Exclusive).unwrap();
        t.try_acquire(P2, b, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn same_owner_may_overlap_itself() {
        let t = LockTable::new();
        t.try_acquire(P1, res(0, 100), LockMode::Exclusive).unwrap();
        t.try_acquire(P1, res(0, 100), LockMode::Exclusive).unwrap();
        assert_eq!(t.held_count(), 2);
    }

    #[test]
    fn release_frees_the_range() {
        let t = LockTable::new();
        let id = t.try_acquire(P1, res(0, 100), LockMode::Exclusive).unwrap();
        assert!(t.try_acquire(P2, res(0, 100), LockMode::Exclusive).is_err());
        t.release(P1, id).unwrap();
        t.try_acquire(P2, res(0, 100), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn only_owner_may_release() {
        let t = LockTable::new();
        let id = t.try_acquire(P1, res(0, 100), LockMode::Shared).unwrap();
        assert_eq!(t.release(P2, id).unwrap_err(), Error::AccessDenied);
        assert_eq!(t.held_count(), 1);
    }

    #[test]
    fn release_unknown_lock_errors() {
        let t = LockTable::new();
        assert!(t.release(P1, LockId(42)).is_err());
    }

    #[test]
    fn whole_object_lock_blocks_every_range() {
        let t = LockTable::new();
        let whole = LockResource::whole_object(ContainerId(1), ObjId(1));
        t.try_acquire(P1, whole, LockMode::Exclusive).unwrap();
        assert!(t.try_acquire(P2, res(u64::MAX - 10, u64::MAX), LockMode::Shared).is_err());
    }

    proptest::proptest! {
        /// Safety invariant: at no point do two different owners hold
        /// overlapping locks where either is exclusive.
        #[test]
        fn prop_no_conflicting_grants(
            ops in proptest::collection::vec(
                (0u32..3, 0u64..200, 1u64..100, proptest::bool::ANY), 1..60)
        ) {
            let t = LockTable::new();
            let mut grants: Vec<LockGrant> = Vec::new();
            for (owner, start, len, exclusive) in ops {
                let owner = ProcessId::new(owner, 0);
                let r = res(start, start + len);
                let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                if let Ok(id) = t.try_acquire(owner, r, mode) {
                    grants.push(LockGrant { id, owner, resource: r, mode });
                }
            }
            for (i, a) in grants.iter().enumerate() {
                for b in &grants[i + 1..] {
                    if a.owner != b.owner && a.resource.overlaps(&b.resource) {
                        proptest::prop_assert!(
                            a.mode == LockMode::Shared && b.mode == LockMode::Shared,
                            "conflicting grant: {a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }
}
