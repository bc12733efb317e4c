//! The storage server: RPC surface, server-directed data movement,
//! capability enforcement, and transaction participation.
//!
//! The server runs its own loop (rather than the generic service runner)
//! so requests can overlap. The loop is a **pool of workers that take
//! turns receiving**: the worker holding the receive turn waits for the
//! next request, tickets it in arrival order, passes the turn on and runs
//! the full authorize → pull/push → store → reply path itself, so
//! independent requests overlap and no request crosses a thread hand-off
//! on its way to the worker that runs it. Dependent requests (same
//! object, overlapping ranges, ≥1 write) are held back by the in-flight
//! [`ConflictTracker`](crate::ConflictTracker) and execute in arrival
//! order. The endpoint's intake answers telemetry scrapes where they are
//! delivered, so a scrape never waits for a worker. Each data request
//! moves its bulk payload with one-sided operations against the
//! *client's* pinned memory descriptor, landing straight in the object
//! store's chunks — the complete Figure 6 pipeline:
//!
//! ```text
//! client:     post MD, send small request ─▶ server queue
//! worker i:   in its receive turn: receive, ticket in arrival order
//!             wait for conflicting earlier tickets (usually none)
//!             authorize (cap cache / verify-through)
//!             for each chunk: GET from client MD into a recycled chunk,
//!                             install it in the object, frame the record
//!                             from the chunk, log it
//!             ship the frames to the backups (a group primary), await acks
//!             reply WriteDone
//! ```
//!
//! A read `PUT`s straight from the object's chunks. Each record is framed
//! once, from its chunk, into the worker's own reused `FrameBatch`; the
//! log appends those frames and the ship carries them, encoded once
//! (`buffers::WorkerBuffers`). A frame the log failed to append leaves
//! the batch.
//!
//! With `workers = 1` the pipeline is the serial paper-faithful loop. On a
//! memory-only store no order beats arrival order, so §3.2's reordering of
//! independent requests is not applied. Figure 6's bound on transfers in
//! flight is the worker count: a request moves bytes only on the worker
//! that received it. While every worker is busy, requests wait in the
//! transport's bounded eager queue, so it (and ultimately the §3.2 client
//! back-off loop) provides end-to-end flow control.
//!
//! The request path is split along its seams: the loop and the request
//! dispatch (`dispatch`), the data operations (`data`), ship-before-ack
//! and the backup's apply (`replicate`), and 2PC participation (`txn`).

mod data;
mod dispatch;
mod replicate;
mod txn;

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lwfs_auth::Clock;
use lwfs_authz::CachedCapVerifier;
use lwfs_cap::{LocalCapVerifier, PublicKey};
use lwfs_obs::{Counter, OpTrace, Registry};
use lwfs_portals::{Network, RpcClient, ServiceHandle};
use lwfs_proto::{Capability, Encode, Error, OpMask, ProcessId, Result, TxnId};
use lwfs_replica::{ReplicaConfig, ReplicaState};
use lwfs_txn::{JournalState, JournalStore};
use lwfs_wal::{AppendTiming, Wal, WalConfig, WalRecord};

use crate::buffers::FrameBatch;
use crate::store::{ObjectStore, StoreConfig, CHUNK_SIZE};

pub(crate) use data::{remove_staged, write_staged};
pub(crate) use txn::UndoOp;

/// Storage-server configuration.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Worker threads running the authorize → transfer → store → reply
    /// path, and so the requests that may move bytes at once (Figure 6's
    /// bound). `1` reproduces the serial paper-faithful loop exactly; the
    /// default matches the host's available parallelism.
    pub workers: usize,
    /// Object-store configuration.
    pub store: StoreConfig,
    /// Write-ahead logging. When set, every mutation is appended to the
    /// log *before* its reply is sent, and a server spawned over a
    /// non-empty log directory replays it — restoring objects and in-doubt
    /// prepared transactions — before serving the first request. `None`
    /// (the default) keeps the server purely in-memory.
    pub wal: Option<WalConfig>,
    /// Replication role within the server's storage group. A primary
    /// ships every mutation's WAL records to its backups before
    /// acknowledging the client; a backup applies shipped records and
    /// rejects client mutations with [`Error::NotPrimary`]. The default is
    /// a group of one: a primary with no backups, which ships nothing.
    pub replica: ReplicaConfig,
    /// Self-certifying capability enforcement (`CapMode::Signed`): every
    /// data operation and every inbound ship must carry a signed token.
    /// `None` (the default) is the legacy verify-through-only server.
    pub signed: Option<SignedCapConfig>,
}

/// Configuration of local (signature-based) capability verification.
#[derive(Debug, Clone)]
pub struct SignedCapConfig {
    /// The issuer's ed25519 public key — the *only* secret-free state a
    /// storage server needs to judge any capability in the cluster.
    pub public_key: [u8; 32],
    /// Group-scoped, holder-bound token this server presents on outbound
    /// `ReplShip`s (primaries of replicated groups only).
    pub ship_token: Option<Bytes>,
}

/// Clock-skew tolerance for signed-token start times. OS processes of one
/// deployment start seconds apart; without tolerance a fresh token minted
/// on a slightly-ahead clock is rejected as not-yet-valid. Widens
/// `not_before` only — expiry is never extended.
const CLOCK_SKEW: Duration = Duration::from_secs(1);

impl Default for StorageConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            store: StoreConfig::default(),
            wal: None,
            // A group of one has no backups to drop, so it never reports
            // to the directory this names.
            replica: ReplicaConfig::primary(0, Vec::new(), ProcessId::new(0, 0)),
            signed: None,
        }
    }
}

/// Operation counters (read concurrently by experiments).
///
/// Each field is a [`Counter`] registered under `storage.*` in the
/// fabric's metric registry, so these show up in snapshots alongside
/// the transport and authorization metrics while remaining directly
/// readable here (`Counter` keeps the `AtomicU64` surface).
///
/// Registry names carry no server id: when several storage servers share
/// one network, they share these counters, which therefore read as the
/// *fabric-level aggregate* (the registry view a monitoring scrape
/// wants). Experiments needing per-server attribution count on the
/// client side or run single-server clusters.
#[derive(Debug)]
pub struct StorageStats {
    pub creates: Arc<Counter>,
    pub removes: Arc<Counter>,
    pub writes: Arc<Counter>,
    pub reads: Arc<Counter>,
    pub syncs: Arc<Counter>,
    pub bytes_pulled: Arc<Counter>,
    pub bytes_pushed: Arc<Counter>,
    pub txn_commits: Arc<Counter>,
    pub txn_aborts: Arc<Counter>,
    /// Times a worker had to wait for an earlier conflicting in-flight
    /// request before executing (the serialization cost of dependence).
    pub conflict_defers: Arc<Counter>,
    /// Mutations whose WAL records a primary shipped to its backups.
    pub repl_ships: Arc<Counter>,
    /// Extra ship attempts beyond the first (lost or rejected ships).
    pub ship_retries: Arc<Counter>,
    /// Ships abandoned at the deadline: the backup was dropped from the
    /// group (availability over replication).
    pub ship_failures: Arc<Counter>,
    /// Retried mutations answered from the reply cache instead of being
    /// re-applied — the exactly-once machinery doing its job.
    pub dedup_hits: Arc<Counter>,
}

impl Default for StorageStats {
    fn default() -> Self {
        Self::with_registry(&Registry::new())
    }
}

impl StorageStats {
    /// Build the stats block with its counters registered under
    /// `storage.*` in `registry`.
    pub fn with_registry(registry: &Registry) -> Self {
        Self {
            creates: registry.counter("storage.creates"),
            removes: registry.counter("storage.removes"),
            writes: registry.counter("storage.writes"),
            reads: registry.counter("storage.reads"),
            syncs: registry.counter("storage.syncs"),
            bytes_pulled: registry.counter("storage.bytes_pulled"),
            bytes_pushed: registry.counter("storage.bytes_pushed"),
            txn_commits: registry.counter("storage.txn_commits"),
            txn_aborts: registry.counter("storage.txn_aborts"),
            conflict_defers: registry.counter("storage.conflict_defer"),
            repl_ships: registry.counter("storage.repl_ships"),
            ship_retries: registry.counter("storage.ship_retries"),
            ship_failures: registry.counter("storage.ship_failures"),
            dedup_hits: registry.counter("storage.dedup_hits"),
        }
    }

    pub fn data_ops(&self) -> u64 {
        self.creates.get() + self.removes.get() + self.writes.get() + self.reads.get()
    }
}

/// Attach the WAL append/fsync intervals just measured to the request's
/// causal trace (no-op when the request is untraced; the fsync span is
/// omitted when the sync policy deferred the flush).
fn wal_spans(trace: &mut Option<&mut OpTrace<'_>>, timing: AppendTiming) {
    if let Some(t) = trace.as_deref_mut() {
        if timing.append_ns > 0 {
            t.span_with_duration("wal", "append", timing.append_ns);
        }
        if timing.fsync_ns > 0 {
            t.span_with_duration("wal", "fsync", timing.fsync_ns);
        }
    }
}

/// Shared (inspectable) state of a running storage server.
pub struct StorageServer {
    site: ProcessId,

    config: StorageConfig,
    store: ObjectStore,
    /// Verify-through capability cache bound to the authorization
    /// service: the legacy mode's capability path.
    verifier: CachedCapVerifier,
    /// Local signature-based capability enforcement, when the cluster
    /// runs `CapMode::Signed`.
    signed: Option<SignedCaps>,
    clock: Arc<dyn Clock>,
    journal: JournalStore<UndoOp>,
    /// The write-ahead log, when durability is configured.
    wal: Option<Wal>,
    /// Replication role/epoch state within the server's group.
    replica: ReplicaState,
    stats: StorageStats,
    /// The fabric-wide metric registry (shared through the `Network`).
    obs: Arc<Registry>,
}

/// Runtime state for signed-capability enforcement.
struct SignedCaps {
    verifier: LocalCapVerifier,
    /// Token presented on outbound ships (empty = none configured).
    ship_token: Bytes,
}

impl StorageServer {
    /// Spawn a storage server at `id`.
    ///
    /// `verifier` is the verify-through capability cache bound to the
    /// authorization service; it checks every capability unless the
    /// cluster runs signed caps, whose tokens verify locally.
    ///
    /// With [`StorageConfig::wal`] set, the server first **recovers**: it
    /// opens the log directory (repairing any torn tail), replays the
    /// record stream into its object store, rolls back transactions the
    /// crash caught before phase 1, and restores prepared ones in doubt.
    /// Only then does it register on the network — a client can never
    /// observe a half-recovered server.
    ///
    /// # Panics
    /// Panics if the log cannot be opened or replayed: serving requests
    /// from an empty store while a history exists on disk would silently
    /// discard committed data.
    pub fn spawn(
        net: &Network,
        id: ProcessId,
        config: StorageConfig,
        verifier: CachedCapVerifier,
        clock: Arc<dyn Clock>,
    ) -> (ServiceHandle, Arc<StorageServer>) {
        let obs = Arc::clone(net.obs());
        let store = ObjectStore::with_chunks(config.store.clone(), CHUNK_SIZE, &obs);
        let journal = JournalStore::new();
        let wal = config.wal.as_ref().map(|wal_cfg| {
            let start = std::time::Instant::now();
            let wal = Wal::open(wal_cfg.clone(), &obs)
                .unwrap_or_else(|e| panic!("storage server {id}: wal open failed: {e}"));
            let log = lwfs_wal::read_log(wal.dir())
                .unwrap_or_else(|e| panic!("storage server {id}: wal scan failed: {e}"));
            let outcome = crate::recovery::replay(&log.records, &store, &journal, clock.now())
                .unwrap_or_else(|e| panic!("storage server {id}: wal replay failed: {e}"));
            obs.counter("wal.replay_records").add(outcome.records);
            obs.gauge("storage.recovery_ms").set(start.elapsed().as_millis() as i64);
            obs.gauge("storage.recovered_objects").set(store.object_count() as i64);
            obs.gauge("storage.in_doubt_txns").set(outcome.in_doubt as i64);
            if outcome.records > 0 {
                obs.events().record(
                    id.nid.0,
                    "wal.recovery",
                    format!(
                        "replayed {} records: {} objects restored, {} txns in doubt",
                        outcome.records,
                        store.object_count(),
                        outcome.in_doubt
                    ),
                );
            }
            wal
        });
        let replica = ReplicaState::new(config.replica.clone());
        obs.gauge("storage.repl_epoch").set(replica.epoch() as i64);
        obs.gauge("storage.repl_lag").set(0);
        let signed = config.signed.as_ref().map(|sc| {
            let public = PublicKey::from_bytes(&sc.public_key)
                .unwrap_or_else(|| panic!("storage server {id}: invalid issuer public key"));
            SignedCaps {
                verifier: LocalCapVerifier::with_registry(
                    public,
                    CLOCK_SKEW.as_nanos() as u64,
                    &obs,
                ),
                ship_token: sc.ship_token.clone().unwrap_or_default(),
            }
        });
        let server = Arc::new(StorageServer {
            site: id,
            store,
            verifier,
            signed,
            clock,
            journal,
            wal,
            replica,
            stats: StorageStats::with_registry(&obs),
            obs,
            config,
        });
        let ep = net.register_with_intake(id, server.obs.gauge("storage.queue_depth"));
        let srv = Arc::clone(&server);
        let handle =
            ServiceHandle::spawn(id, format!("lwfs-storage-{id}"), move |stop| srv.run(ep, stop));
        (handle, server)
    }

    /// The server's own process address (its back-pointer identity at the
    /// authorization service).
    pub fn site(&self) -> ProcessId {
        self.site
    }

    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    pub fn cap_cache_stats(&self) -> lwfs_authz::CapCacheStats {
        self.verifier.stats()
    }

    /// Prepared transactions held **in doubt**, sorted by id — after a
    /// restart, the set a coordinator must resolve.
    pub fn in_doubt_txns(&self) -> Vec<TxnId> {
        self.journal
            .txns()
            .into_iter()
            .filter(|(_, s)| *s == JournalState::Prepared)
            .map(|(t, _)| t)
            .collect()
    }

    /// The write-ahead log directory, when durability is configured.
    pub fn wal_dir(&self) -> Option<&std::path::Path> {
        self.wal.as_ref().map(|w| w.dir())
    }

    /// Replication state within the server's group.
    pub fn replica(&self) -> &ReplicaState {
        &self.replica
    }

    /// Control-plane promotion: become the group's primary at `epoch`,
    /// shipping to `backups` from now on. Requests racing the promotion
    /// see either the old backup role (and are retried by the client) or
    /// the new primary role, never both.
    pub fn promote(&self, epoch: u64, backups: Vec<ProcessId>) {
        let prev = self.replica.epoch();
        self.replica.promote(epoch, backups);
        self.obs.gauge("storage.repl_epoch").set(epoch as i64);
        self.obs.events().record(
            self.site.nid.0,
            "repl.epoch_bump",
            format!(
                "group {}: epoch {prev} -> {epoch} (promoted to primary)",
                self.replica.group()
            ),
        );
    }

    /// Control-plane notification that `primary` leads this server's group
    /// from `epoch` on: accept ships only from it. Installed on surviving
    /// backups *before* the new map is published, so the new primary's
    /// first ship is never refused.
    pub fn set_primary(&self, epoch: u64, primary: ProcessId) {
        self.replica.set_primary(epoch, primary);
    }

    /// Log `rec`: [`log_frame`](Self::log_frame) with the record's own
    /// [`WalRecord::forces_sync`].
    fn log_append(&self, rec: &WalRecord, frames: &mut FrameBatch) -> Result<AppendTiming> {
        self.log_frame(rec, rec.forces_sync(), frames)
    }

    /// Frame `rec` once, into the request's `frames`, and append that
    /// frame to the write-ahead log (when one is configured). Called after
    /// the in-memory effect is applied and before the reply is sent: an
    /// operation is acknowledged only once its record is framed (and, per
    /// the sync policy, durable).
    ///
    /// When this server is a primary with backups the frame stays in the
    /// batch, so the completed mutation is shipped to them — the same
    /// bytes the log carries — before the client is acked. Otherwise, or
    /// when the append fails, the frame leaves the batch again, and with
    /// neither a log nor backups nothing is framed at all.
    fn log_frame(
        &self,
        rec: &impl Encode,
        forces_sync: bool,
        frames: &mut FrameBatch,
    ) -> Result<AppendTiming> {
        let ships = self.replica.has_backups();
        if self.wal.is_none() && !ships {
            return Ok(AppendTiming::default());
        }
        let frame = frames.push(rec)?;
        let logged = match &self.wal {
            Some(w) => w.append_frame(frame, forces_sync),
            None => Ok(AppendTiming::default()),
        };
        if logged.is_err() {
            // A record the log does not hold is not shipped either.
            frames.pop();
        } else if !ships {
            frames.clear();
        }
        logged
    }

    fn authorize(
        &self,
        client: &RpcClient<'_>,
        token: &Bytes,
        cap: &Capability,
        need: OpMask,
        obj: u64,
    ) -> Result<()> {
        if let Some(signed) = &self.signed {
            // Self-certifying path: the local verdict is final — a missing,
            // forged, revoked, or expired token is refused here, never
            // "rescued" by a verify-through round trip (that would put the
            // authorization service back on the data path exactly when an
            // attacker controls the traffic).
            if token.is_empty() {
                return Err(Error::AccessDenied);
            }
            return signed.verifier.check(token, need, cap.container(), obj, self.clock.now(), 0);
        }
        self.verifier.check(client, cap, need, self.clock.now())
    }
}
