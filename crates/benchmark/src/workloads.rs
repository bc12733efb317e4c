//! The six workloads: cluster shape, op, and sizes — and the ops
//! themselves, each in two forms.
//!
//! The *plain* form is the program's own entry point
//! (`LwfsCheckpointer::checkpoint` / `restore`); the *stepped* form makes
//! the same public `LwfsClient` calls one by one with a span around each.
//! End-to-end numbers come from the plain form only. The stepped form is a
//! copy kept honest by the traced run's second reconciliation check: if its
//! median drifts from the plain form's, the run fails.

use std::path::PathBuf;

use bytes::Bytes;
use lwfs_cap::CapMode;
use lwfs_checkpoint::{CkptEntry, CkptMetadata, LwfsCheckpointer};
use lwfs_core::{CapSet, ClusterConfig, LwfsClient, LwfsCluster, TransportKind};
use lwfs_portals::Group;
use lwfs_proto::{Decode as _, Encode as _, Error, ObjId, OpMask, ProcessId, Result};
use lwfs_storage::StorageConfig;
use lwfs_wal::{SyncPolicy, WalConfig};

use crate::payload::{mix, Payload, Rng};
use crate::spec::Workload;
use crate::trace::Recorder;

/// Every workload runs two rank threads (clients `nid` 0 and 1).
pub const RANKS: usize = 2;
/// Worker threads per storage server. The program's default follows host
/// parallelism, which would make every number machine-dependent.
pub const STORAGE_WORKERS: usize = 2;
/// Name-space prefix of the checkpoint datasets.
pub const PREFIX: &str = "/ckpt/bench";
/// `LwfsCheckpointer`'s collective tag base, which the stepped ops share.
const TAG_BASE: u64 = 0x0C11;
/// Epochs the pruning workloads keep.
pub const RETAIN: usize = 2;
/// Epochs `ckpt_restore` preloads and then reads in seeded order.
pub const PRELOADED: u64 = 8;
/// Objects per rank in `repl_write`'s ring.
pub const RING: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One `LwfsCheckpointer::checkpoint` (Figure 8).
    Epoch,
    /// One `LwfsCheckpointer::restore`.
    Restore,
    /// `write` at offset 0 + `sync` on the next ring object.
    ReplWrite,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub workload: Workload,
    pub transport: TransportKind,
    /// Storage groups (= servers at R=1).
    pub groups: usize,
    pub replication: usize,
    pub wal: bool,
    pub cap_mode: CapMode,
    pub op: OpKind,
    pub bytes_per_rank: usize,
    /// Timed ops at `--scale 1`.
    pub timed_ops: u64,
    /// Rank 0 calls `retain_latest(RETAIN)` every this many epochs (0 =
    /// never). Without it the in-memory store grows without bound and the
    /// 4 MiB workload turns bimodal.
    pub prune_every: u64,
}

pub fn def(workload: Workload) -> Def {
    let base = Def {
        workload,
        transport: TransportKind::InProcess,
        groups: 2,
        replication: 1,
        wal: false,
        cap_mode: CapMode::Legacy,
        op: OpKind::Epoch,
        bytes_per_rank: 4 << 20,
        timed_ops: 2500,
        prune_every: 8,
    };
    match workload {
        Workload::CkptDump => base,
        Workload::CkptCreate => Def {
            cap_mode: CapMode::Signed,
            bytes_per_rank: 4 << 10,
            timed_ops: 16000,
            prune_every: 64,
            ..base
        },
        Workload::CkptDumpTcp => Def {
            transport: TransportKind::Tcp,
            cap_mode: CapMode::Signed,
            bytes_per_rank: 1 << 20,
            timed_ops: 1500,
            ..base
        },
        Workload::CkptDurable => {
            Def { wal: true, bytes_per_rank: 512 << 10, timed_ops: 1500, ..base }
        }
        Workload::ReplWrite => Def {
            replication: 2,
            op: OpKind::ReplWrite,
            bytes_per_rank: 256 << 10,
            timed_ops: 4000,
            prune_every: 0,
            ..base
        },
        Workload::CkptRestore => {
            Def { op: OpKind::Restore, timed_ops: 10000, prune_every: 0, ..base }
        }
    }
}

/// What one rank thread owns.
pub struct RankState {
    pub rank: usize,
    pub client: LwfsClient,
    pub payload: Payload,
    /// `repl_write`: this rank's objects in seeded order, and the op that
    /// last wrote each.
    pub ring: Vec<ObjId>,
    pub last_write: Vec<Option<u64>>,
}

/// A booted cluster with logged-in ranks: everything between process start
/// and the first op.
pub struct Env {
    pub def: Def,
    pub seed: u64,
    pub caps: CapSet,
    pub group: Group,
    pub ranks: Vec<RankState>,
    /// Root of the per-server log directories (`ckpt_durable` only);
    /// deleted on drop.
    pub wal_root: Option<PathBuf>,
    // Last: servers stop (and close their logs) before the directory goes.
    pub cluster: LwfsCluster,
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(root) = &self.wal_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

fn internal(what: impl std::fmt::Display) -> Error {
    Error::Internal(what.to_string())
}

/// Log in `n` clients on compute nids `first_nid..`, sharing one credential.
pub fn login(cluster: &LwfsCluster, first_nid: u32, n: usize) -> Result<Vec<LwfsClient>> {
    let mut clients: Vec<LwfsClient> =
        (0..n as u32).map(|r| cluster.client(first_nid + r, 0)).collect();
    let ticket = cluster.kdc().kinit("app", "secret").map_err(|e| internal(format!("{e:?}")))?;
    let cred = clients[0].get_cred(ticket)?;
    clients[1..].iter_mut().for_each(|c| c.adopt_cred(cred));
    Ok(clients)
}

pub fn group_of(clients: &[LwfsClient]) -> Group {
    Group::new(clients.iter().map(LwfsClient::id).collect())
}

impl Env {
    /// Boot the workload's cluster and log the ranks in. `wal_root`, when
    /// the workload logs, must be a fresh directory this run owns.
    pub fn boot(def: Def, seed: u64, wal_root: Option<PathBuf>) -> Result<Env> {
        let wal = wal_root
            .as_ref()
            .map(|dir| WalConfig { sync: SyncPolicy::EveryN(64), ..WalConfig::new(dir.clone()) });
        let cluster = LwfsCluster::boot(ClusterConfig {
            storage_servers: def.groups,
            replication: def.replication,
            storage: StorageConfig { workers: STORAGE_WORKERS, wal, ..Default::default() },
            transport: def.transport,
            cap_mode: def.cap_mode,
            ..Default::default()
        });
        let clients = login(&cluster, 0, RANKS)?;
        let cid = clients[0].create_container()?;
        let caps = clients[0].get_caps(cid, OpMask::ALL)?;
        let group = group_of(&clients);
        let mut ranks = Vec::with_capacity(RANKS);
        for (rank, client) in clients.into_iter().enumerate() {
            let mut ring = Vec::new();
            if def.op == OpKind::ReplWrite {
                // Rank r writes to group r only, so the two ship paths
                // never share a primary.
                for _ in 0..RING {
                    ring.push(client.create_obj(rank % def.groups, &caps, None, None)?);
                }
                Rng::new(seed ^ rank as u64).shuffle(&mut ring);
            }
            ranks.push(RankState {
                rank,
                client,
                payload: Payload::new(seed, rank, def.bytes_per_rank),
                last_write: vec![None; ring.len()],
                ring,
            });
        }
        Ok(Env { def, seed, caps, group, ranks, wal_root, cluster })
    }

    /// Bytes held by every live server's object store.
    pub fn store_bytes(&self) -> u64 {
        (0..self.cluster.storage_count())
            .filter(|&i| self.cluster.storage_alive(i))
            .map(|i| self.cluster.storage_server(i).store().bytes_stored())
            .sum()
    }

    /// Bytes on disk under the WAL root (0 without a WAL).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_root.as_deref().map_or(0, crate::sys::dir_bytes)
    }
}

/// The epoch `ckpt_restore`'s op `i` reads: a seeded sequence both ranks
/// compute alike.
pub fn restore_epoch(seed: u64, op: u64) -> u64 {
    mix(seed ^ mix(op)) % PRELOADED
}

pub fn checkpointer<'a>(
    client: &'a LwfsClient,
    group: &Group,
    rank: usize,
    caps: &CapSet,
) -> LwfsCheckpointer<'a> {
    LwfsCheckpointer::new(client, group.clone(), rank, caps.clone(), PREFIX)
}

fn path(epoch: u64) -> String {
    format!("{PREFIX}/{epoch:06}")
}

/// `LwfsCheckpointer::checkpoint`, call by call.
pub fn checkpoint_stepped(
    rec: &mut Recorder,
    client: &LwfsClient,
    group: &Group,
    rank: usize,
    caps: &CapSet,
    epoch: u64,
    state: &[u8],
) -> Result<()> {
    let server = rank % client.storage_count();
    let tag = TAG_BASE + epoch * 4;

    let txn = rec.call("txn.begin", || client.txn_begin())?;
    let mut participants: Vec<ProcessId> = vec![client.addrs().storage[server]];
    let obj = rec.call("storage.create", || client.create_obj(server, caps, Some(txn), None))?;
    rec.call("storage.write", || client.write(server, caps, Some(txn), obj, 0, state))?;
    rec.call("storage.sync", || client.sync(server, caps, Some(obj)))?;

    let entry =
        CkptEntry { rank: rank as u32, server: server as u32, obj, len: state.len() as u64 };
    let gathered =
        rec.call("portals.gather", || client.gather(group, rank, 0, tag, entry.to_bytes()))?;
    if let Some(blobs) = gathered {
        let entries = blobs.into_iter().map(CkptEntry::from_bytes).collect::<Result<Vec<_>>>()?;
        let metadata = CkptMetadata { epoch, entries };
        if !metadata.is_complete(group.size() as u32) {
            return Err(internal("incomplete metadata gather"));
        }
        let md_server = 0;
        let mdobj =
            rec.call("storage.create", || client.create_obj(md_server, caps, Some(txn), None))?;
        let wire = metadata.to_bytes();
        rec.call("storage.write", || client.write(md_server, caps, Some(txn), mdobj, 0, &wire))?;
        rec.call("storage.sync", || client.sync(md_server, caps, Some(mdobj)))?;
        let cid = caps.container()?;
        rec.call("naming.create", || client.name_create(Some(txn), &path(epoch), cid, mdobj))?;
        if md_server != server {
            participants.push(client.addrs().storage[md_server]);
        }
        participants.push(client.addrs().naming);
    }
    let outcome = rec.call("txn.commit", || client.txn_commit(txn, participants))?;
    if !outcome.is_committed() {
        return Err(Error::TxnAborted(txn));
    }
    Ok(())
}

/// `LwfsCheckpointer::restore`, call by call.
pub fn restore_stepped(
    rec: &mut Recorder,
    client: &LwfsClient,
    group: &Group,
    rank: usize,
    caps: &CapSet,
    epoch: u64,
) -> Result<Vec<u8>> {
    let tag = TAG_BASE + epoch * 4 + 2;
    let metadata = if rank == 0 {
        let (_cid, mdobj) = rec.call("naming.lookup", || client.name_lookup(&path(epoch)))?;
        let attr = rec.call("storage.getattr", || client.getattr(0, caps, mdobj))?;
        let raw =
            rec.call("storage.read", || client.read(0, caps, mdobj, 0, attr.size as usize))?;
        let md = CkptMetadata::from_bytes(Bytes::from(raw))?;
        let wire = md.to_bytes();
        rec.call("portals.bcast", || client.broadcast(group, rank, 0, tag, Some(wire)))?;
        md
    } else {
        let wire = rec.call("portals.bcast", || client.broadcast(group, rank, 0, tag, None))?;
        CkptMetadata::from_bytes(wire)?
    };
    if metadata.epoch != epoch {
        return Err(internal(format!("metadata is for epoch {}, wanted {epoch}", metadata.epoch)));
    }
    let entry = *metadata.entry(rank as u32).ok_or_else(|| internal("no entry for this rank"))?;
    rec.call("storage.read", || {
        client.read(entry.server as usize, caps, entry.obj, 0, entry.len as usize)
    })
}

/// `repl_write`'s op. Primitive client calls, because a checkpoint epoch
/// aborts under replication (see the README's known gap).
pub fn repl_write(
    rec: Option<&mut Recorder>,
    client: &LwfsClient,
    caps: &CapSet,
    group_idx: usize,
    obj: ObjId,
    data: &[u8],
) -> Result<()> {
    let write = || client.write(group_idx, caps, None, obj, 0, data);
    let sync = || client.sync(group_idx, caps, Some(obj));
    let written = match rec {
        Some(rec) => {
            let n = rec.call("storage.write", write)?;
            rec.call("storage.sync", sync)?;
            n
        }
        None => {
            let n = write()?;
            sync()?;
            n
        }
    };
    if written != data.len() as u64 {
        return Err(internal(format!("short write: {written} of {}", data.len())));
    }
    Ok(())
}
