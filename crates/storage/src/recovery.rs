//! Crash recovery: rebuild a storage server's state from its write-ahead
//! log.
//!
//! The log is **redo-only** — it records the forward effect of every
//! acknowledged mutation, tagged with the transaction (if any) that staged
//! it. Replay applies the records in append order to a fresh
//! [`ObjectStore`] and reconstructs each open transaction's *undo* journal
//! as it goes: [`ObjectStore::write`] returns the preimage of the region
//! it overwrites, so the undo entries a replayed transaction would need
//! are recomputed exactly as the live server computed them. Because
//! dependent requests were ordered by the conflict tracker before their
//! records reached the log (and transaction control records are barriers),
//! in-order replay reproduces the live byte history.
//!
//! Transaction outcomes fall out of the record stream:
//!
//! * `TxnCommit` in the log → the staged effects are permanent; the
//!   reconstructed undo journal is dropped.
//! * `TxnAbort` in the log → the live server rolled the effects back
//!   *without logging the undo applications* (they are derived state);
//!   replay performs the same rollback from its reconstructed journal.
//!   Nothing is ever double-applied because the undos exist only here.
//! * `Active` at end of log → the crash hit before phase 1 completed:
//!   presumed abort. Rolled back and discarded.
//! * `Prepared` at end of log → the participant voted yes and must not
//!   decide unilaterally: the journal is restored **in doubt** and the
//!   coordinator's `TxnCommit`/`TxnAbort` (possibly via
//!   `Coordinator::resolve`) finishes the job.

use lwfs_proto::{Error, Result};
use lwfs_txn::{JournalState, JournalStore};
use lwfs_wal::WalRecord;

use crate::server::{remove_staged, write_staged, UndoOp};
use crate::store::ObjectStore;

/// What a replay pass did, for recovery observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Records applied.
    pub records: u64,
    /// Transactions still `Active` at end of log, rolled back (presumed
    /// abort).
    pub rolled_back: usize,
    /// Transactions restored in the `Prepared` state, awaiting the
    /// coordinator's verdict.
    pub in_doubt: usize,
}

/// Apply `records` (in log order) to empty `store`/`journal` state.
///
/// `now` stamps object metadata recreated by undo of a transactional
/// remove (every other timestamp comes from the records themselves).
pub(crate) fn replay(
    records: &[WalRecord],
    store: &ObjectStore,
    journal: &JournalStore<UndoOp>,
    now: u64,
) -> Result<RecoveryOutcome> {
    apply_records(records, store, journal, now)?;

    // End of log: transactions never prepared are presumed aborted; the
    // prepared ones are exactly the in-doubt set.
    let mut outcome = RecoveryOutcome { records: records.len() as u64, ..Default::default() };
    for (txn, state) in journal.txns() {
        match state {
            JournalState::Active => {
                for undo in journal.abort(txn).into_iter().rev() {
                    apply_undo(store, undo, now);
                }
                outcome.rolled_back += 1;
            }
            JournalState::Prepared => outcome.in_doubt += 1,
        }
    }
    Ok(outcome)
}

/// Apply `records` to live state *without* the end-of-log presumed-abort
/// pass.
///
/// This is the record-application half of [`replay`], split out because a
/// replication backup feeds shipped records through it continuously: the
/// backup's log has no "end" while the primary is alive, so transactions
/// that are merely still open must not be rolled back. Only a genuine
/// restart ([`replay`]) may presume abort. Keeping both paths on this one
/// function is the point of log-shipping replication — replicated state
/// and crash-recovered state are produced by the same code.
pub(crate) fn apply_records(
    records: &[WalRecord],
    store: &ObjectStore,
    journal: &JournalStore<UndoOp>,
    now: u64,
) -> Result<()> {
    for rec in records {
        match rec {
            WalRecord::Create { txn, container, obj, now } => {
                store.create(*container, Some(*obj), *now)?;
                if let Some(t) = txn {
                    journal.stage(*t, UndoOp::RemoveObject(*container, *obj))?;
                }
            }
            WalRecord::Write { txn, container, obj, offset, data, now } => {
                // Copied once, into a chunk the object then keeps whole.
                let chunk = store.chunk_of(data);
                write_staged(store, journal, *txn, *container, *obj, *offset, &chunk, *now)?;
            }
            WalRecord::Remove { txn, container, obj } => {
                remove_staged(store, journal, *txn, *container, *obj)?;
            }
            WalRecord::TxnPrepare { txn } => {
                journal.prepare(*txn);
            }
            WalRecord::TxnCommit { txn } => {
                // Effects were applied in order as we replayed; commit just
                // forgets the undo journal. The record always follows its
                // prepare (the live server logs prepare before voting), so
                // a failure here means the log itself is inconsistent.
                journal.commit(*txn).map_err(|e| {
                    Error::Internal(format!("wal replay: commit record for {txn} invalid: {e}"))
                })?;
            }
            WalRecord::TxnAbort { txn } => {
                let undos = journal.abort(*txn);
                for undo in undos.into_iter().rev() {
                    apply_undo(store, undo, now);
                }
            }
        }
    }
    Ok(())
}

/// Undo one staged effect — on abort in the live server, and for the
/// presumed-abort pass here. Best-effort by construction: each entry
/// restores state that existed when it was staged.
pub(crate) fn apply_undo(store: &ObjectStore, undo: UndoOp, now: u64) {
    let _ = match undo {
        UndoOp::RemoveObject(container, oid) => store.remove(container, oid),
        UndoOp::UndoWrite(oid, pre) => store.undo_write(oid, pre),
        UndoOp::RestoreObject(container, oid, bytes) => store.restore(container, oid, bytes, now),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use bytes::Bytes;
    use lwfs_proto::{ContainerId, ObjId, TxnId};

    const C: ContainerId = ContainerId(1);

    fn fresh() -> (ObjectStore, JournalStore<UndoOp>) {
        (ObjectStore::new(StoreConfig::default()), JournalStore::new())
    }

    fn create(txn: Option<u64>, obj: u64) -> WalRecord {
        WalRecord::Create { txn: txn.map(TxnId), container: C, obj: ObjId(obj), now: 5 }
    }

    fn write(txn: Option<u64>, obj: u64, offset: u64, data: &[u8]) -> WalRecord {
        WalRecord::Write {
            txn: txn.map(TxnId),
            container: C,
            obj: ObjId(obj),
            offset,
            data: Bytes::copy_from_slice(data),
            now: 6,
        }
    }

    #[test]
    fn non_transactional_history_replays_exactly() {
        let (store, journal) = fresh();
        let recs = vec![
            create(None, 0),
            write(None, 0, 0, b"hello world"),
            write(None, 0, 6, b"there"),
            create(None, 1),
            write(None, 1, 0, b"second"),
            WalRecord::Remove { txn: None, container: C, obj: ObjId(1) },
        ];
        let out = replay(&recs, &store, &journal, 99).unwrap();
        assert_eq!(out, RecoveryOutcome { records: 6, rolled_back: 0, in_doubt: 0 });
        assert_eq!(store.read(C, ObjId(0), 0, 64).unwrap(), b"hello there");
        assert!(store.read(C, ObjId(1), 0, 1).is_err());
        assert_eq!(store.object_count(), 1);
    }

    #[test]
    fn committed_txn_effects_survive() {
        let (store, journal) = fresh();
        let recs = vec![
            create(Some(7), 0),
            write(Some(7), 0, 0, b"committed"),
            WalRecord::TxnPrepare { txn: TxnId(7) },
            WalRecord::TxnCommit { txn: TxnId(7) },
        ];
        let out = replay(&recs, &store, &journal, 0).unwrap();
        assert_eq!(out.in_doubt, 0);
        assert_eq!(store.read(C, ObjId(0), 0, 16).unwrap(), b"committed");
        assert_eq!(journal.active_txns(), 0);
    }

    #[test]
    fn aborted_txn_is_rolled_back_via_reconstructed_undos() {
        let (store, journal) = fresh();
        let recs = vec![
            create(None, 0),
            write(None, 0, 0, b"base state"),
            write(Some(3), 0, 0, b"OVERWRITE"),
            create(Some(3), 9),
            WalRecord::TxnAbort { txn: TxnId(3) },
        ];
        replay(&recs, &store, &journal, 0).unwrap();
        assert_eq!(store.read(C, ObjId(0), 0, 16).unwrap(), b"base state");
        assert!(store.read(C, ObjId(9), 0, 1).is_err(), "staged create rolled back");
    }

    #[test]
    fn active_txn_at_end_of_log_is_presumed_aborted() {
        let (store, journal) = fresh();
        let recs = vec![
            create(None, 0),
            write(None, 0, 0, b"durable"),
            create(Some(5), 1),
            write(Some(5), 1, 0, b"staged only"),
        ];
        let out = replay(&recs, &store, &journal, 0).unwrap();
        assert_eq!(out.rolled_back, 1);
        assert_eq!(store.read(C, ObjId(0), 0, 16).unwrap(), b"durable");
        assert!(store.read(C, ObjId(1), 0, 1).is_err());
        assert_eq!(journal.active_txns(), 0);
    }

    #[test]
    fn prepared_txn_is_restored_in_doubt() {
        let (store, journal) = fresh();
        let recs = vec![
            create(Some(8), 0),
            write(Some(8), 0, 0, b"in doubt"),
            WalRecord::TxnPrepare { txn: TxnId(8) },
        ];
        let out = replay(&recs, &store, &journal, 0).unwrap();
        assert_eq!(out.in_doubt, 1);
        assert_eq!(journal.state(TxnId(8)), Some(JournalState::Prepared));
        assert_eq!(journal.staged_ops(TxnId(8)), 2);
        // The effects are applied (they become permanent on commit) …
        assert_eq!(store.read(C, ObjId(0), 0, 16).unwrap(), b"in doubt");
        // … and a later abort still has the undos to roll them back.
        for undo in journal.abort(TxnId(8)).into_iter().rev() {
            apply_undo(&store, undo, 0);
        }
        assert!(store.read(C, ObjId(0), 0, 1).is_err());
    }

    #[test]
    fn apply_records_keeps_open_txns_active_for_backups() {
        // The live-backup path must not presume abort: the primary's log
        // simply hasn't ended yet. A later shipped TxnCommit completes the
        // transaction exactly as a logged commit would.
        let (store, journal) = fresh();
        let recs = vec![create(Some(5), 1), write(Some(5), 1, 0, b"staged")];
        apply_records(&recs, &store, &journal, 0).unwrap();
        assert_eq!(journal.state(TxnId(5)), Some(JournalState::Active));
        assert_eq!(store.read(C, ObjId(1), 0, 16).unwrap(), b"staged");

        apply_records(
            &[WalRecord::TxnPrepare { txn: TxnId(5) }, WalRecord::TxnCommit { txn: TxnId(5) }],
            &store,
            &journal,
            0,
        )
        .unwrap();
        assert_eq!(journal.state(TxnId(5)), None);
        assert_eq!(store.read(C, ObjId(1), 0, 16).unwrap(), b"staged");
    }

    #[test]
    fn transactional_remove_restores_on_rollback() {
        let (store, journal) = fresh();
        let recs = vec![
            create(None, 0),
            write(None, 0, 0, b"precious"),
            WalRecord::Remove { txn: Some(TxnId(4)), container: C, obj: ObjId(0) },
        ];
        replay(&recs, &store, &journal, 42).unwrap();
        // Presumed abort restored the removed object.
        assert_eq!(store.read(C, ObjId(0), 0, 16).unwrap(), b"precious");
    }

    #[test]
    fn replay_keeps_id_allocator_ahead_of_history() {
        let (store, journal) = fresh();
        replay(&[create(None, 17)], &store, &journal, 0).unwrap();
        let next = store.create(C, None, 0).unwrap();
        assert!(next.0 > 17, "fresh ids must not collide with replayed ones");
    }
}
