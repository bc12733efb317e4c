//! Transaction participation (§3.4): undo entries, votes and rollback.

use lwfs_obs::OpTrace;
use lwfs_proto::{ContainerId, ObjId, ReplyBody, TxnId};
use lwfs_txn::JournalState;
use lwfs_wal::WalRecord;

use super::{wal_spans, StorageServer};
use crate::buffers::FrameBatch;
use crate::store::{ObjectBytes, WritePreimage};

/// Undo journal entries for transactional rollback (§3.4). Never logged:
/// the write-ahead log records forward effects only, and recovery
/// recomputes these from in-order replay (see [`crate::recovery`]).
pub(crate) enum UndoOp {
    /// Creation is undone by removal.
    RemoveObject(ContainerId, ObjId),
    /// A write is undone by swapping back the chunks it displaced.
    UndoWrite(ObjId, WritePreimage),
    /// A removal is undone by restoring the object's chunk table.
    RestoreObject(ContainerId, ObjId, ObjectBytes),
}

impl StorageServer {
    /// Abort `txn`'s journal and undo its staged effects, newest first —
    /// with the same undo application crash replay uses.
    fn roll_back(&self, txn: TxnId) {
        let now = self.clock.now();
        for undo in self.journal.abort(txn).into_iter().rev() {
            crate::recovery::apply_undo(&self.store, undo, now);
        }
    }

    /// Phase 1: vote, and log a yes vote before it leaves.
    pub(super) fn txn_prepare(
        &self,
        txn: TxnId,
        mut trace: Option<&mut OpTrace<'_>>,
        frames: &mut FrameBatch,
    ) -> ReplyBody {
        let vote = self.journal.prepare(txn);
        if vote {
            // The yes vote must be durable before it reaches the coordinator
            // (forces an fsync under every sync policy); a vote we cannot
            // persist is a vote we cannot honor after a crash, so it becomes a no.
            match self.log_append(&WalRecord::TxnPrepare { txn }, frames) {
                Ok(timing) => wal_spans(&mut trace, timing),
                Err(_) => {
                    self.roll_back(txn);
                    return ReplyBody::TxnVote(false);
                }
            }
        }
        ReplyBody::TxnVote(vote)
    }

    /// Phase 2, commit: log the decision, then forget the undo journal.
    pub(super) fn txn_commit(
        &self,
        txn: TxnId,
        mut trace: Option<&mut OpTrace<'_>>,
        frames: &mut FrameBatch,
    ) -> ReplyBody {
        // Log the decision first: if the append fails the journal stays
        // Prepared (in doubt), and the coordinator retries or resolves later.
        if self.journal.state(txn) == Some(JournalState::Prepared) {
            match self.log_append(&WalRecord::TxnCommit { txn }, frames) {
                Ok(timing) => wal_spans(&mut trace, timing),
                Err(e) => return ReplyBody::Err(e),
            }
        }
        match self.journal.commit(txn) {
            Ok(_undos) => {
                // Commit = forget the undo log; effects already applied.
                self.stats.txn_commits.inc();
                ReplyBody::TxnCommitted
            }
            Err(e) => ReplyBody::Err(e),
        }
    }

    /// Phase 2, abort: log the decision, then roll the effects back.
    pub(super) fn txn_abort(
        &self,
        txn: TxnId,
        mut trace: Option<&mut OpTrace<'_>>,
        frames: &mut FrameBatch,
    ) -> ReplyBody {
        // Best-effort: a lost abort record costs nothing — replay presumes
        // abort for transactions with no decision record.
        if let Ok(timing) = self.log_append(&WalRecord::TxnAbort { txn }, frames) {
            wal_spans(&mut trace, timing);
        }
        self.roll_back(txn);
        self.stats.txn_aborts.inc();
        ReplyBody::TxnAborted
    }
}
