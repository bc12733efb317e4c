//! The data operations: create, remove, and the server-directed write
//! (pull) and read (push) of Figure 6.

use std::sync::Arc;

use bytes::Bytes;
use lwfs_obs::OpTrace;
use lwfs_portals::{Endpoint, RpcClient};
use lwfs_proto::{
    Capability, ContainerId, Encode, Error, ObjId, OpMask, Request, RequestBody, Result, TxnId,
};
use lwfs_txn::{JournalState, JournalStore};
use lwfs_wal::{WalRecord, WriteRef};

use super::{wal_spans, StorageServer, UndoOp};
use crate::buffers::FrameBatch;
use crate::store::{Chunk, ObjectStore, CHUNK_SIZE};

/// Apply one piece of a write, keeping what it displaced for undo only
/// under a transaction (otherwise it goes back to the free list). Shared
/// by the live write path and log application (replay, backup apply).
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_staged(
    store: &ObjectStore,
    journal: &JournalStore<UndoOp>,
    txn: Option<TxnId>,
    container: ContainerId,
    oid: ObjId,
    offset: u64,
    chunk: &Arc<Chunk>,
    now: u64,
) -> Result<()> {
    let pre = store.write_chunk(container, oid, offset, chunk, now, txn.is_some())?;
    match txn {
        Some(txn) => journal.stage(txn, UndoOp::UndoWrite(oid, pre)),
        None => Ok(()),
    }
}

/// Remove an object; under a transaction its chunk table moves into the
/// undo journal instead of being copied there. Shared like [`write_staged`].
pub(crate) fn remove_staged(
    store: &ObjectStore,
    journal: &JournalStore<UndoOp>,
    txn: Option<TxnId>,
    container: ContainerId,
    oid: ObjId,
) -> Result<()> {
    let Some(txn) = txn else {
        return store.remove(container, oid);
    };
    // The journal refuses to stage after prepare; refuse first, while the
    // object is still in the store.
    if journal.state(txn) == Some(JournalState::Prepared) {
        return Err(Error::Internal(format!("stage after prepare in {txn}")));
    }
    let bytes = store.take(container, oid)?;
    journal.stage(txn, UndoOp::RestoreObject(container, oid, bytes))
}

impl StorageServer {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn do_create(
        &self,
        client: &RpcClient<'_>,
        token: &Bytes,
        txn: Option<TxnId>,
        cap: &Capability,
        want: Option<ObjId>,
        mut trace: Option<&mut OpTrace<'_>>,
        frames: &mut FrameBatch,
    ) -> Result<ObjId> {
        self.authorize(client, token, cap, OpMask::CREATE, want.map_or(0, |o| o.0))?;
        if let Some(t) = trace.as_deref_mut() {
            t.stage("authorize");
        }
        let now = self.clock.now();
        let oid = self.store.create(cap.container(), want, now)?;
        if let Some(txn) = txn {
            self.journal.stage(txn, UndoOp::RemoveObject(cap.container(), oid))?;
        }
        let timing = self.log_append(
            &WalRecord::Create { txn, container: cap.container(), obj: oid, now },
            frames,
        )?;
        wal_spans(&mut trace, timing);
        self.stats.creates.inc();
        Ok(oid)
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn do_remove(
        &self,
        client: &RpcClient<'_>,
        token: &Bytes,
        txn: Option<TxnId>,
        cap: &Capability,
        oid: ObjId,
        mut trace: Option<&mut OpTrace<'_>>,
        frames: &mut FrameBatch,
    ) -> Result<()> {
        self.authorize(client, token, cap, OpMask::REMOVE, oid.0)?;
        if let Some(t) = trace.as_deref_mut() {
            t.stage("authorize");
        }
        remove_staged(&self.store, &self.journal, txn, cap.container(), oid)?;
        let rec = WalRecord::Remove { txn, container: cap.container(), obj: oid };
        let timing = self.log_append(&rec, frames)?;
        wal_spans(&mut trace, timing);
        self.stats.removes.inc();
        Ok(())
    }

    /// Server-directed write: pull `len` bytes from the client's MD in
    /// pieces cut at chunk boundaries, each into a chunk from the store's
    /// free list that the object then installs (an unaligned first or last
    /// piece is copied into the chunk it lands in). Everything that can
    /// refuse the whole write (the capability, the object, the extent) is
    /// judged before the first pull.
    ///
    /// The per-request `trace` (when present) is decomposed into the
    /// Figure 6 stages: `authorize`, then `pull`, `store_write` and
    /// `wal_append` per piece.
    pub(super) fn do_write(
        &self,
        ep: &Endpoint,
        client: &RpcClient<'_>,
        req: &Request,
        mut trace: Option<&mut OpTrace<'_>>,
        frames: &mut FrameBatch,
    ) -> Result<u64> {
        let &RequestBody::Write { txn, ref cap, obj: oid, offset, len, md } = &req.body else {
            unreachable!("caller matched Write");
        };
        self.authorize(client, &req.token, cap, OpMask::WRITE, oid.0)?;
        // Pre-flight the object so a bad id fails before moving data.
        let container = self.store.container_of(oid)?;
        if container != cap.container() {
            return Err(Error::AccessDenied);
        }
        if let Some(t) = trace.as_deref_mut() {
            t.stage("authorize");
        }
        // The whole extent is judged before the first byte moves: a length
        // this server would refuse at the last piece is refused now.
        let end = self.store.check_extent(offset, len)?;
        let now = self.clock.now();
        let size = CHUNK_SIZE as u64;
        let mut moved: u64 = 0;
        while moved < len {
            let at = offset + moved;
            let n = (len - moved).min(size - at % size) as usize;
            // One-sided pull from the client's posted descriptor, straight
            // into the empty chunk.
            let mut chunk = self.store.chunk(n);
            ep.get_into(req.reply_to, md.match_bits, moved, n, chunk.buf_mut())?;
            if let Some(t) = trace.as_deref_mut() {
                t.stage("pull");
            }
            if moved == 0 {
                // Room for the request, once, now that the first pull has
                // shown the descriptor is really there: for every piece's
                // frame when they stay batched for the ship, and for the
                // whole extent in the object's chunk table. Both fail with
                // an error, not an abort, when the allocator cannot meet
                // them.
                if self.replica.has_backups() {
                    let pieces = (offset % size).saturating_add(len).div_ceil(size);
                    let rec = WriteRef { txn, container, obj: oid, offset, data: &[], now };
                    let framing = (lwfs_proto::frame::HEADER_LEN + rec.encoded_len()) as u64;
                    let bytes = pieces.saturating_mul(framing).saturating_add(len);
                    frames.reserve(usize::try_from(bytes).unwrap_or(usize::MAX))?;
                }
                self.store.reserve(container, oid, end)?;
            }
            let chunk = Arc::new(chunk);
            write_staged(&self.store, &self.journal, txn, container, oid, at, &chunk, now)?;
            if let Some(t) = trace.as_deref_mut() {
                t.stage("store_write");
            }
            // One record per piece, in pull order: replay reproduces the
            // exact same sequence of store writes. It is framed once,
            // straight from the chunk, for the log append and the ship to
            // share.
            let rec = WriteRef { txn, container, obj: oid, offset: at, data: &chunk, now };
            let timing = self.log_frame(&rec, false, frames)?;
            if let Some(t) = trace.as_deref_mut() {
                t.stage("wal_append");
            }
            wal_spans(&mut trace, timing);
            self.stats.bytes_pulled.add(n as u64);
            moved += n as u64;
        }
        self.stats.writes.inc();
        Ok(moved)
    }

    /// Server-directed read: push object bytes into the client's MD,
    /// straight from handles to the object's chunks.
    pub(super) fn do_read(
        &self,
        ep: &Endpoint,
        client: &RpcClient<'_>,
        req: &Request,
    ) -> Result<u64> {
        let &RequestBody::Read { ref cap, obj: oid, offset, len, md } = &req.body else {
            unreachable!("caller matched Read");
        };
        self.authorize(client, &req.token, cap, OpMask::READ, oid.0)?;
        let mut moved: u64 = 0;
        for (chunk, range) in self.store.read_chunks(cap.container(), oid, offset, len)? {
            let n = range.len() as u64;
            ep.put(req.reply_to, md.match_bits, moved, &chunk[range])?;
            self.stats.bytes_pushed.add(n);
            moved += n;
        }
        self.stats.reads.inc();
        Ok(moved)
    }
}
