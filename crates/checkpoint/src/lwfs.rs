//! The lightweight checkpoint of Figure 8, line for line.
//!
//! ```text
//! MAIN()                          CHECKPOINT(state, path, caps)
//! 1: cred ← GETCREDS()            1: txnid ← BEGINTXN()
//! 2: cid  ← CREATECONTAINER(cred) 2: obj ← CREATEOBJ(txnid, caps)
//! 3: caps ← GETCAPS(cid)          3: DUMPSTATE(txnid, state, obj, caps)
//! 4: while not done:              4: if rank = 0: mdobj ← CREATEOBJ(...)
//! 5:   state ← COMPUTE()          7: GATHERMETADATA(mdobj, 0)
//! 6:   CHECKPOINT(state, …)       9: if rank = 0: CREATENAME(txnid, path, mdobj)
//!                                 11: ENDTXN(txnid)
//! ```
//!
//! Each rank creates and dumps to its own object, *in parallel, with no
//! locks and no central metadata service on the data path* — that absence
//! is the entire performance argument of the paper.

use std::time::Instant;

use bytes::Bytes;
use lwfs_core::{CapSet, LwfsClient};
use lwfs_portals::Group;
use lwfs_proto::{Decode as _, Encode as _, Error, ProcessId, Result, TxnId};

use crate::metadata::{CkptEntry, CkptMetadata};
use crate::CkptReport;

/// Per-rank state for lightweight checkpointing.
pub struct LwfsCheckpointer<'a> {
    client: &'a LwfsClient,
    group: Group,
    rank: usize,
    caps: CapSet,
    /// Name-space prefix for checkpoint datasets (e.g. `/ckpt/jobname`).
    path_prefix: String,
    /// Distinct collective tags per epoch derive from this base.
    tag_base: u64,
}

impl<'a> LwfsCheckpointer<'a> {
    pub fn new(
        client: &'a LwfsClient,
        group: Group,
        rank: usize,
        caps: CapSet,
        path_prefix: impl Into<String>,
    ) -> Self {
        Self { client, group, rank, caps, path_prefix: path_prefix.into(), tag_base: 0x0C11 }
    }

    /// Placement: rank `r` dumps to storage group `r mod groups`.
    fn server_for_rank(&self, rank: usize) -> usize {
        rank % self.client.storage_targets()
    }

    /// Commit `txn` across the storage targets it touched (plus the naming
    /// service when it bound or removed a name). Targets become 2PC
    /// participants only here, after the transaction's own data calls, so
    /// a failover they rode through names the new primary.
    fn commit(&self, txn: TxnId, servers: &[usize], naming: bool) -> Result<()> {
        let mut participants: Vec<ProcessId> = Vec::with_capacity(servers.len() + 1);
        for &server in servers {
            let addr = self.client.txn_participant(server)?;
            if !participants.contains(&addr) {
                participants.push(addr);
            }
        }
        if naming {
            participants.push(self.client.addrs().naming);
        }
        if !self.client.txn_commit(txn, participants)?.is_committed() {
            return Err(Error::TxnAborted(txn));
        }
        Ok(())
    }

    fn path(&self, epoch: u64) -> String {
        format!("{}/{epoch:06}", self.path_prefix)
    }

    /// One checkpoint epoch (the `CHECKPOINT` procedure of Figure 8).
    ///
    /// Returns per-phase timings measured on this rank; the caller reduces
    /// max-over-ranks as the paper does.
    pub fn checkpoint(&self, epoch: u64, state: &[u8]) -> Result<CkptReport> {
        let server = self.server_for_rank(self.rank);
        let tag = self.tag_base + epoch * 4;

        // 1: BEGINTXN — each rank's transaction covers its own tasks.
        let txn = self.client.txn_begin()?;
        let mut servers = vec![server];

        // 2: CREATEOBJ — independently, in parallel, at the rank's own
        // storage server. No central metadata service involved.
        let t0 = Instant::now();
        let obj = self.client.create_obj(server, &self.caps, Some(txn), None)?;
        let create_secs = t0.elapsed().as_secs_f64();

        // 3: DUMPSTATE — server-directed write + sync.
        let t1 = Instant::now();
        self.client.write(server, &self.caps, Some(txn), obj, 0, state)?;
        self.client.sync(server, &self.caps, Some(obj))?;

        // 7: GATHERMETADATA — log-tree gather of (rank, server, obj, len)
        // to rank 0.
        let entry = CkptEntry {
            rank: self.rank as u32,
            server: server as u32,
            obj,
            len: state.len() as u64,
        };
        let gathered = self.client.gather(&self.group, self.rank, 0, tag, entry.to_bytes())?;

        // 4–6, 8–10 (rank 0 only): metadata object + CREATENAME.
        let names = gathered.is_some();
        if let Some(blobs) = gathered {
            let mut entries = Vec::with_capacity(blobs.len());
            for blob in blobs {
                entries.push(CkptEntry::from_bytes(blob)?);
            }
            let metadata = CkptMetadata { epoch, entries };
            if !metadata.is_complete(self.group.size() as u32) {
                return Err(Error::Internal("incomplete metadata gather".into()));
            }
            let md_server = self.server_for_rank(0);
            let mdobj = self.client.create_obj(md_server, &self.caps, Some(txn), None)?;
            self.client.write(md_server, &self.caps, Some(txn), mdobj, 0, &metadata.to_bytes())?;
            self.client.sync(md_server, &self.caps, Some(mdobj))?;
            // 9: CREATENAME — bind the dataset name to the metadata object.
            self.client.name_create(Some(txn), &self.path(epoch), self.caps.container()?, mdobj)?;
            servers.push(md_server);
        }

        // 11: ENDTXN — two-phase commit across this rank's participants.
        self.commit(txn, &servers, names)?;
        let dump_secs = t1.elapsed().as_secs_f64();

        Ok(CkptReport { create_secs, dump_secs, bytes: state.len() as u64 })
    }

    /// Restore this rank's state from the checkpoint named `epoch`.
    ///
    /// Rank 0 resolves the name and reads the metadata object, then
    /// broadcasts the metadata; every rank reads its own object.
    pub fn restore(&self, epoch: u64) -> Result<Vec<u8>> {
        let tag = self.tag_base + epoch * 4 + 2;
        let metadata = if self.rank == 0 {
            let (_cid, mdobj) = self.client.name_lookup(&self.path(epoch))?;
            let md_server = self.server_for_rank(0);
            let attr = self.client.getattr(md_server, &self.caps, mdobj)?;
            let raw = self.client.read(md_server, &self.caps, mdobj, 0, attr.size as usize)?;
            let md = CkptMetadata::from_bytes(Bytes::from(raw))?;
            let wire = md.to_bytes();
            self.client.broadcast(&self.group, self.rank, 0, tag, Some(wire))?;
            md
        } else {
            let wire = self.client.broadcast(&self.group, self.rank, 0, tag, None)?;
            CkptMetadata::from_bytes(wire)?
        };
        if metadata.epoch != epoch {
            return Err(Error::Internal(format!(
                "restored metadata is for epoch {}, wanted {epoch}",
                metadata.epoch
            )));
        }
        let entry = metadata
            .entry(self.rank as u32)
            .ok_or_else(|| Error::Internal(format!("no entry for rank {}", self.rank)))?;
        self.client.read(entry.server as usize, &self.caps, entry.obj, 0, entry.len as usize)
    }

    /// List available checkpoints under the prefix.
    pub fn list(&self) -> Result<Vec<String>> {
        self.client.name_list(&self.path_prefix)
    }

    /// The newest committed checkpoint epoch, if any — what a restarting
    /// application restores from. Epoch numbers are zero-padded in the
    /// namespace, so lexicographic order is numeric order.
    pub fn latest_epoch(&self) -> Result<Option<u64>> {
        let names = self.list()?;
        Ok(names.iter().filter_map(|n| n.rsplit('/').next()?.parse::<u64>().ok()).max())
    }

    /// Delete every checkpoint except the newest `keep` — the retention
    /// sweep a long-running job performs so checkpoints do not accumulate.
    /// Returns the epochs removed.
    ///
    /// Each removal is transactional: the name, the metadata object, and
    /// every rank's data object disappear together, so a crash mid-sweep
    /// never leaves a named-but-gutted checkpoint. Call from one rank only
    /// (rank 0, conventionally).
    pub fn retain_latest(&self, keep: usize) -> Result<Vec<u64>> {
        let mut epochs: Vec<u64> =
            self.list()?.iter().filter_map(|n| n.rsplit('/').next()?.parse::<u64>().ok()).collect();
        epochs.sort_unstable();
        let doomed: Vec<u64> =
            epochs.iter().copied().take(epochs.len().saturating_sub(keep)).collect();
        for &epoch in &doomed {
            let path = self.path(epoch);
            let (_cid, mdobj) = self.client.name_lookup(&path)?;
            let md_server = self.server_for_rank(0);
            let attr = self.client.getattr(md_server, &self.caps, mdobj)?;
            let raw = self.client.read(md_server, &self.caps, mdobj, 0, attr.size as usize)?;
            let metadata = CkptMetadata::from_bytes(Bytes::from(raw))?;

            let txn = self.client.txn_begin()?;
            let mut servers = vec![md_server];
            self.client.name_remove(Some(txn), &path)?;
            for entry in &metadata.entries {
                let server = entry.server as usize;
                self.client.remove_obj(server, &self.caps, Some(txn), entry.obj)?;
                servers.push(server);
            }
            self.client.remove_obj(md_server, &self.caps, Some(txn), mdobj)?;
            self.commit(txn, &servers, true)?;
        }
        Ok(doomed)
    }
}
