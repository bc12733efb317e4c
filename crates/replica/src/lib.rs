//! **Primary/backup replication** for LWFS storage groups.
//!
//! The paper's storage servers are independently addressable and
//! stateless toward each other; a server loss loses its objects until a
//! restart replays the WAL. This crate adds the coordination layer for
//! *replicated storage groups*: `R` physical servers form a group whose
//! head (the primary) executes mutations and ships the resulting WAL
//! frames — the exact bytes its own log carries — to the backups *before*
//! acknowledging the client. Backups feed the frames through the same
//! replay machinery crash recovery uses, so replicated state and
//! crash-recovered state come from one code path.
//!
//! Pieces:
//!
//! * [`ReplicaState`] — the per-server role/epoch state machine the
//!   storage server consults on every request: am I the primary, whom do
//!   I ship to, what epoch am I in.
//! * [`ReplyCache`] — bounded `(origin, opnum)` → encoded-reply map that
//!   makes client retries (and re-shipped WAL batches) idempotent.
//! * [`directory`] — the group-map service clients query to discover the
//!   current primaries, plus the promotion helpers the cluster control
//!   plane uses when a primary dies.
//!
//! The storage server owns the data path (what to ship, when to ack);
//! this crate owns membership, roles, epochs, and dedup.

#![forbid(unsafe_code)]

pub mod directory;
pub mod reply_cache;

pub use directory::{install_primary, promote, remove_backup, spawn_directory, DirectoryHandle};
pub use reply_cache::{ReplyCache, DEFAULT_MAX_ORIGINS, DEFAULT_PER_ORIGIN_CAP};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use lwfs_proto::ProcessId;
use parking_lot::RwLock;

/// A replica's role within its group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Executes mutations and ships WAL frames to `backups` before acking.
    Primary { backups: Vec<ProcessId> },
    /// Applies shipped frames; rejects client mutations with `NotPrimary`.
    Backup,
}

/// Static replication settings handed to a storage server at spawn.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Which group this server belongs to.
    pub group: u32,
    /// The map epoch this configuration was drawn from.
    pub epoch: u64,
    /// Initial role.
    pub role: ReplicaRole,
    /// The group's current primary, as known to a *backup* — the only
    /// sender whose `ReplShip`s it accepts. `None` on the primary itself.
    /// Updated by the control plane on promotion ([`ReplicaState::set_primary`]).
    pub primary: Option<ProcessId>,
    /// The group directory service a primary reports dropped backups to,
    /// so the published map never keeps naming an out-of-sync member.
    pub directory: ProcessId,
    /// Total time a primary keeps retrying one `ReplShip` before declaring
    /// the backup dead and continuing without it.
    pub ship_deadline: Duration,
}

impl ReplicaConfig {
    /// Lead `group`, shipping to `backups` (none: a group of one, which
    /// never ships and so never reports to `directory`).
    pub fn primary(group: u32, backups: Vec<ProcessId>, directory: ProcessId) -> Self {
        Self {
            group,
            epoch: 1,
            role: ReplicaRole::Primary { backups },
            primary: None,
            directory,
            ship_deadline: Duration::from_secs(2),
        }
    }

    /// Back up `group`, accepting ships only from `primary`.
    pub fn backup(group: u32, primary: ProcessId, directory: ProcessId) -> Self {
        Self {
            group,
            epoch: 1,
            role: ReplicaRole::Backup,
            primary: Some(primary),
            directory,
            ship_deadline: Duration::from_secs(2),
        }
    }

    /// Override the per-ship total retry budget.
    pub fn with_ship_deadline(mut self, deadline: Duration) -> Self {
        self.ship_deadline = deadline;
        self
    }
}

/// Live replication state a storage server consults on every request.
///
/// Epochs only move forward ([`observe_epoch`](Self::observe_epoch) is a
/// `fetch_max`), and a promotion is a single role swap under the lock —
/// requests racing a promotion see either the old backup role (and return
/// `NotPrimary`, prompting a client retry) or the new primary role, never
/// a torn state.
#[derive(Debug)]
pub struct ReplicaState {
    group: u32,
    epoch: AtomicU64,
    role: RwLock<ReplicaRole>,
    /// The group's current primary as a backup knows it (`None` on the
    /// primary itself). Ships from any other sender are refused — the
    /// backup-side authorization check for the one server-to-server op.
    primary: RwLock<Option<ProcessId>>,
    /// Primary: next ship sequence number (allocated per shipped batch).
    next_seq: AtomicU64,
    /// Highest ship sequence applied locally (backup) or fully acked by
    /// every backup (primary). `next_seq - 1 - acked_seq` is the lag.
    acked_seq: AtomicU64,
    /// Reply dedup for client retries and re-shipped batches.
    pub replies: ReplyCache,
    /// The directory to report dropped backups to (primaries only use it).
    pub directory: ProcessId,
    /// See [`ReplicaConfig::ship_deadline`].
    pub ship_deadline: Duration,
}

impl ReplicaState {
    pub fn new(cfg: ReplicaConfig) -> Self {
        Self {
            group: cfg.group,
            epoch: AtomicU64::new(cfg.epoch),
            role: RwLock::new(cfg.role),
            primary: RwLock::new(cfg.primary),
            next_seq: AtomicU64::new(1),
            acked_seq: AtomicU64::new(0),
            replies: ReplyCache::default(),
            directory: cfg.directory,
            ship_deadline: cfg.ship_deadline,
        }
    }

    pub fn group(&self) -> u32 {
        self.group
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Fold in an epoch observed on the wire; epochs never move backward.
    /// Returns the resulting epoch.
    pub fn observe_epoch(&self, seen: u64) -> u64 {
        self.epoch.fetch_max(seen, Ordering::SeqCst).max(seen)
    }

    pub fn is_primary(&self) -> bool {
        matches!(*self.role.read(), ReplicaRole::Primary { .. })
    }

    pub fn is_backup(&self) -> bool {
        !self.is_primary()
    }

    /// Whether this replica currently ships to anyone: a primary with at
    /// least one backup. A group of one never does.
    pub fn has_backups(&self) -> bool {
        matches!(&*self.role.read(), ReplicaRole::Primary { backups } if !backups.is_empty())
    }

    /// The current ship targets (empty when backup or when every backup
    /// has been dropped).
    pub fn backups(&self) -> Vec<ProcessId> {
        match &*self.role.read() {
            ReplicaRole::Primary { backups } => backups.clone(),
            ReplicaRole::Backup => Vec::new(),
        }
    }

    /// Allocate the next ship sequence number (primary only).
    pub fn alloc_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Record that ship `seq` is fully acknowledged (primary) or applied
    /// (backup).
    pub fn record_acked(&self, seq: u64) {
        self.acked_seq.fetch_max(seq, Ordering::SeqCst);
    }

    /// Highest ship sequence this replica has applied (backup) or had
    /// fully acknowledged (primary). The control plane compares this
    /// across survivors to promote the most caught-up member.
    pub fn applied_seq(&self) -> u64 {
        self.acked_seq.load(Ordering::SeqCst)
    }

    /// The sender this replica accepts `ReplShip`s from (`None` when this
    /// replica is itself the primary).
    pub fn known_primary(&self) -> Option<ProcessId> {
        *self.primary.read()
    }

    /// Control-plane notification that `primary` now leads the group at
    /// `epoch` — installed on surviving backups *before* the map is
    /// published, so the new primary's first ship is never refused.
    pub fn set_primary(&self, epoch: u64, primary: ProcessId) {
        self.observe_epoch(epoch);
        *self.primary.write() = Some(primary);
    }

    /// Ship batches allocated but not yet fully acknowledged — the
    /// replication lag a primary exports as `storage.repl_lag`.
    pub fn lag(&self) -> u64 {
        let allocated = self.next_seq.load(Ordering::SeqCst) - 1;
        allocated.saturating_sub(self.acked_seq.load(Ordering::SeqCst))
    }

    /// Become the group's primary at `epoch` with the given ship targets.
    /// Idempotent for repeated promotions at the same epoch.
    pub fn promote(&self, epoch: u64, backups: Vec<ProcessId>) {
        // Order matters: requests fence on the role, so the epoch must be
        // current by the time the first request sees `Primary`.
        self.observe_epoch(epoch);
        *self.primary.write() = None;
        *self.role.write() = ReplicaRole::Primary { backups };
    }

    /// Stop shipping to `id` (it died or fell irrecoverably behind).
    /// Returns whether it was actually a ship target.
    pub fn drop_backup(&self, id: ProcessId) -> bool {
        match &mut *self.role.write() {
            ReplicaRole::Primary { backups } => {
                let before = backups.len();
                backups.retain(|b| *b != id);
                backups.len() != before
            }
            ReplicaRole::Backup => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> ProcessId {
        ProcessId::new(n, 0)
    }

    #[test]
    fn epoch_is_monotonic() {
        let st = ReplicaState::new(ReplicaConfig::backup(0, pid(1), pid(99)));
        assert_eq!(st.epoch(), 1);
        assert_eq!(st.observe_epoch(5), 5);
        assert_eq!(st.observe_epoch(3), 5, "stale epochs never win");
        assert_eq!(st.epoch(), 5);
    }

    #[test]
    fn promotion_swaps_role_and_epoch_atomically() {
        let st = ReplicaState::new(ReplicaConfig::backup(2, pid(1), pid(99)));
        assert!(st.is_backup());
        assert!(st.backups().is_empty());
        assert_eq!(st.known_primary(), Some(pid(1)));
        st.promote(7, vec![pid(9)]);
        assert!(st.is_primary());
        assert_eq!(st.epoch(), 7);
        assert_eq!(st.backups(), vec![pid(9)]);
        assert_eq!(st.known_primary(), None, "a primary has no upstream");
    }

    #[test]
    fn set_primary_retargets_ship_acceptance() {
        let st = ReplicaState::new(ReplicaConfig::backup(0, pid(1), pid(99)));
        st.set_primary(4, pid(2));
        assert_eq!(st.known_primary(), Some(pid(2)));
        assert_eq!(st.epoch(), 4, "the new leadership epoch is folded in");
    }

    #[test]
    fn drop_backup_shrinks_ship_set() {
        let st = ReplicaState::new(ReplicaConfig::primary(0, vec![pid(1), pid(2)], pid(99)));
        assert!(st.drop_backup(pid(1)));
        assert!(!st.drop_backup(pid(1)), "already gone");
        assert_eq!(st.backups(), vec![pid(2)]);
        assert!(st.has_backups());
        assert!(st.drop_backup(pid(2)));
        assert!(!st.has_backups(), "a primary whose backups are gone is a group of one");
        let st = ReplicaState::new(ReplicaConfig::backup(0, pid(1), pid(99)));
        assert!(!st.drop_backup(pid(1)), "backups ship to nobody");
        assert!(!st.has_backups());
    }

    #[test]
    fn lag_tracks_allocated_minus_acked() {
        let st = ReplicaState::new(ReplicaConfig::primary(0, vec![pid(1)], pid(99)));
        assert_eq!(st.lag(), 0);
        let a = st.alloc_seq();
        let b = st.alloc_seq();
        assert_eq!((a, b), (1, 2));
        assert_eq!(st.lag(), 2);
        st.record_acked(a);
        assert_eq!(st.lag(), 1);
        st.record_acked(b);
        assert_eq!(st.lag(), 0);
        st.record_acked(a); // out-of-order ack never regresses
        assert_eq!(st.lag(), 0);
    }
}
