//! The storage server: RPC surface, server-directed data movement,
//! capability enforcement, and transaction participation.
//!
//! The server runs its own loop (rather than the generic service runner)
//! so requests can overlap. The loop is a **pipelined dispatcher**: the
//! main thread receives one request at a time and hands it, ticketed in
//! arrival order, to a pool of worker threads that run the full
//! authorize → pull/push → store → reply path, so independent requests
//! overlap. Dependent requests (same object, overlapping ranges, ≥1
//! write) are held back by the in-flight [`ConflictTracker`] and execute
//! in arrival order. Each data request moves its bulk payload with
//! one-sided operations against the *client's* pinned memory descriptor,
//! staged through the server's bounded [`PinnedBufferPool`] — the
//! complete Figure 6 pipeline:
//!
//! ```text
//! client:     post MD, send small request ─▶ server queue
//! dispatcher: receive, ticket in arrival order, hand to workers
//! worker i:   wait for conflicting earlier tickets (usually none)
//!             authorize (cap cache / verify-through)
//!             for each chunk: acquire pinned buffer, GET from client MD,
//!                             write to object store, release buffer
//!             reply WriteDone
//! ```
//!
//! With `workers = 1` the pipeline degenerates to exactly the serial
//! paper-faithful loop: one consumer draining a FIFO of tickets. §3.2
//! also lets a server reorder independent queued requests for the
//! device's sake; the object store is memory-only, so no order is better
//! than arrival order, and none is applied. The [`PinnedBufferPool`]
//! stays the admission throttle — more workers than buffers just means
//! more `ServerBusy` rejections, and the bounded job queue blocks the
//! dispatcher so the transport's eager queue (and ultimately the §3.2
//! client back-off loop) still provides end-to-end flow control.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use lwfs_auth::Clock;
use lwfs_authz::CachedCapVerifier;
use lwfs_cap::{LocalCapVerifier, PublicKey};
use lwfs_obs::{Counter, OpTrace, Registry};
use lwfs_portals::{
    retry, Endpoint, Event, Network, RetryPolicy, RpcClient, ServiceHandle, REQUEST_MATCH,
};
use lwfs_proto::{
    Capability, ContainerId, Decode as _, Encode as _, Error, MdHandle, ObjId, OpMask, ProcessId,
    Reply, ReplyBody, Request, RequestBody, Result, TraceContext, TxnId,
};
use lwfs_replica::{ReplicaConfig, ReplicaState};
use lwfs_txn::{JournalState, JournalStore};
use lwfs_wal::{AppendTiming, Wal, WalConfig, WalRecord};

use crate::buffers::PinnedBufferPool;
use crate::dispatch::{AccessSummary, ConflictTracker, WorkQueue};
use crate::store::{ObjectStore, StoreConfig, WritePreimage};

/// Storage-server configuration.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Bytes per one-sided transfer chunk (each chunk crosses a pinned
    /// buffer).
    pub chunk_size: usize,
    /// Number of pinned transfer buffers.
    pub pool_buffers: usize,
    /// Worker threads running the authorize → transfer → store → reply
    /// path. `1` reproduces the serial paper-faithful loop exactly;
    /// the default matches the host's available parallelism.
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
    /// Tolerance for tokens minted by a process whose clock runs slightly
    /// ahead of ours (widens `not_before` only, never expiry).
    pub clock_skew: Duration,
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self {
            chunk_size: 256 * 1024,
            pool_buffers: 8,
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
    pub busy_rejects: Arc<Counter>,
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
            busy_rejects: registry.counter("storage.busy_rejects"),
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

/// The `component.op` label a request is traced under.
fn op_label(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::CreateObj { .. } => "storage.create",
        RequestBody::RemoveObj { .. } => "storage.remove",
        RequestBody::Write { .. } => "storage.write",
        RequestBody::Read { .. } => "storage.read",
        RequestBody::GetAttr { .. } => "storage.getattr",
        RequestBody::Sync { .. } => "storage.sync",
        RequestBody::ListObjs { .. } => "storage.list",
        RequestBody::InvalidateCaps { .. } => "storage.invalidate_caps",
        RequestBody::TxnPrepare { .. } => "storage.txn_prepare",
        RequestBody::TxnCommit { .. } => "storage.txn_commit",
        RequestBody::TxnAbort { .. } => "storage.txn_abort",
        RequestBody::ReplShip { .. } => "storage.repl_ship",
        RequestBody::PushEpochs { .. } => "storage.push_epochs",
        _ => "storage.other",
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

/// Client-visible mutations subject to replication: fenced to the primary,
/// deduplicated by `(client, opnum)`, and shipped before ack. Reads are
/// served by any in-sync member; `Sync` and cache control touch no
/// replicated state.
fn replicated_mutation(body: &RequestBody) -> bool {
    matches!(
        body,
        RequestBody::CreateObj { .. }
            | RequestBody::RemoveObj { .. }
            | RequestBody::Write { .. }
            | RequestBody::TxnPrepare { .. }
            | RequestBody::TxnCommit { .. }
            | RequestBody::TxnAbort { .. }
    )
}

fn encode_reply_body(body: &ReplyBody) -> Bytes {
    let mut buf = BytesMut::new();
    body.encode(&mut buf);
    buf.freeze()
}

fn decode_reply_body(wire: &Bytes) -> Result<ReplyBody> {
    let mut buf = wire.clone();
    ReplyBody::decode(&mut buf)
}

/// What a ship or a drop report retries. `Unreachable` counts: a
/// partition may heal, and ship-before-ack means the client is not acked
/// until the backup has the records or is formally dropped.
fn ship_retryable(e: &Error) -> bool {
    matches!(e, Error::Timeout | Error::ServerBusy | Error::Unreachable)
}

/// One unit of work handed from the dispatcher to the worker pool: the
/// request, its conflict-ordering ticket, and its in-progress trace.
struct Job<'s> {
    ticket: u64,
    req: Request,
    trace: OpTrace<'s>,
}

/// Undo journal entries for transactional rollback (§3.4). Never logged:
/// the write-ahead log records forward effects only, and recovery
/// recomputes these from in-order replay (see [`crate::recovery`]).
pub(crate) enum UndoOp {
    /// Creation is undone by removal.
    RemoveObject(ContainerId, ObjId),
    /// A write is undone by restoring its preimage.
    UndoWrite(ObjId, WritePreimage),
    /// A removal is undone by restoring the full object.
    RestoreObject(ContainerId, ObjId, Vec<u8>),
}

/// Apply one chunk of a write, keeping its preimage for undo only when it
/// belongs to a transaction — an untransacted write is final, and copying
/// out the bytes it overwrites would be a pass nobody reads. Shared by the
/// live write path and log application (replay, backup apply).
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_staged(
    store: &ObjectStore,
    journal: &JournalStore<UndoOp>,
    txn: Option<TxnId>,
    container: ContainerId,
    oid: ObjId,
    offset: u64,
    data: &[u8],
    now: u64,
) -> Result<()> {
    match txn {
        Some(txn) => {
            let pre = store.write(container, oid, offset, data, now)?;
            journal.stage(txn, UndoOp::UndoWrite(oid, pre))
        }
        None => store.write_final(container, oid, offset, data, now),
    }
}

/// Remove an object; under a transaction its bytes move into the undo
/// journal instead of being copied there. Shared like [`write_staged`].
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
    let data = store.take(container, oid)?;
    journal.stage(txn, UndoOp::RestoreObject(container, oid, data))
}

/// Shared (inspectable) state of a running storage server.
pub struct StorageServer {
    site: ProcessId,

    config: StorageConfig,
    store: ObjectStore,
    pool: PinnedBufferPool,
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
        let store = ObjectStore::new(config.store.clone());
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
                    sc.clock_skew.as_nanos().min(u128::from(u64::MAX)) as u64,
                    &obs,
                ),
                ship_token: sc.ship_token.clone().unwrap_or_default(),
            }
        });
        let server = Arc::new(StorageServer {
            site: id,
            store,
            pool: PinnedBufferPool::with_gauge(
                config.pool_buffers,
                config.chunk_size,
                Some(obs.gauge("storage.pool_in_use")),
            ),
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
        let ep = net.register(id);
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

    pub fn pool(&self) -> &PinnedBufferPool {
        &self.pool
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

    /// Append `rec` to the write-ahead log (no-op when none is
    /// configured). Called after the in-memory effect is applied and
    /// before the reply is sent: an operation is acknowledged only once
    /// its record is framed (and, per the sync policy, durable).
    ///
    /// When this server is a primary with backups the record is also
    /// collected into the request's `recs` buffer so the completed
    /// mutation can be shipped to them — the same bytes the log carries —
    /// before the client is acked.
    ///
    /// Callers whose record carries bulk bytes ask [`logs`](Self::logs)
    /// first and build nothing when nobody would read it.
    fn log_append(&self, rec: WalRecord, recs: &mut Vec<WalRecord>) -> Result<AppendTiming> {
        let timing = match &self.wal {
            Some(w) => w.append(&rec)?,
            None => AppendTiming::default(),
        };
        if self.replica.has_backups() {
            recs.push(rec);
        }
        Ok(timing)
    }

    /// Whether a mutation's record goes anywhere — a log, a backup, or both.
    fn logs(&self) -> bool {
        self.wal.is_some() || self.replica.has_backups()
    }

    /// Append a record shipped *to* this backup: log only, no re-ship
    /// buffer (backups ship to nobody).
    fn log_append_shipped(&self, rec: &WalRecord) -> Result<AppendTiming> {
        match &self.wal {
            Some(w) => w.append(rec),
            None => Ok(AppendTiming::default()),
        }
    }

    // ------------------------------------------------------------------
    // Main loop: pipelined dispatcher + worker pool
    // ------------------------------------------------------------------

    fn run(&self, ep: Endpoint, stop: &AtomicBool) {
        let workers = self.config.workers.max(1);
        // Bounded hand-off: when workers fall behind, the dispatcher blocks
        // here, the transport's eager queue fills, and clients see
        // `ServerBusy` — the §3.2 back-pressure chain, undisturbed.
        let queue: WorkQueue<Job<'_>> = WorkQueue::bounded(64.max(workers * 2));
        let tracker = ConflictTracker::new();
        std::thread::scope(|s| {
            for idx in 0..workers {
                let (ep, queue, tracker) = (&ep, &queue, &tracker);
                s.spawn(move || self.worker_loop(idx, ep, queue, tracker));
            }
            self.dispatch_loop(&ep, &queue, &tracker, stop);
            // Stop: let the workers drain what was already dispatched.
            queue.close();
        });
    }

    /// The dispatcher: receive one request, ticket it in arrival order,
    /// hand it off. Tickets are the only order workers honour: the
    /// conflict tracker serializes dependent tickets by it.
    fn dispatch_loop<'s>(
        &'s self,
        ep: &Endpoint,
        queue: &WorkQueue<Job<'s>>,
        tracker: &ConflictTracker,
        stop: &AtomicBool,
    ) {
        // Additive (not `set`): every server in the network shares this
        // fabric-level gauge, so it reads as total requests waiting for a
        // worker.
        let queue_depth = self.obs.gauge("storage.queue_depth");
        let mut next_ticket: u64 = 0;
        let poll = Duration::from_millis(5);
        while !stop.load(Ordering::SeqCst) {
            let ev = match ep.recv_match(
                poll,
                |e| matches!(e, Event::Message { match_bits, .. } if *match_bits == REQUEST_MATCH),
            ) {
                Ok(ev) => ev,
                Err(Error::Timeout) => continue,
                Err(_) => break,
            };
            let Some(req) = ev.message_data().and_then(|d| Request::from_bytes(d.clone()).ok())
            else {
                continue;
            };
            // Telemetry scrapes are annotation traffic, answered straight
            // from the dispatcher: a control request would conflict-
            // serialize behind every in-flight mutation, so a queued scrape
            // stalls for exactly as long as the stalled write it is trying
            // to observe — the monitor would lose its window cadence at the
            // moment the cluster degrades. Answering here also keeps the
            // scrape out of the trace and latency series it reads.
            if let Some(scrape) = lwfs_portals::telemetry::answer(&self.obs, &req.body) {
                let rep = Reply::new(req.opnum, scrape);
                let _ =
                    ep.send(req.reply_to, lwfs_portals::reply_match(req.opnum.0), rep.to_bytes());
                continue;
            }
            // Traced from arrival, so `queue_wait` (and the end-to-end
            // total) covers the time spent waiting for a worker.
            let trace = self
                .obs
                .trace(req.req_id, op_label(&req.body))
                .on_node(self.site.nid.0)
                .in_trace(req.trace.trace_id);
            let ticket = next_ticket;
            next_ticket += 1;
            // Register *before* pushing, in ticket order, so a worker
            // popping this job sees every earlier in-flight conflict.
            tracker.register(ticket, AccessSummary::of(&req));
            queue_depth.inc();
            if queue.push(Job { ticket, req, trace }).is_err() {
                queue_depth.dec();
                tracker.complete(ticket);
                return; // queue closed under us: shutting down
            }
        }
    }

    /// One worker: pop tickets in FIFO order, wait out conflicts with
    /// earlier in-flight tickets, then run the full request path.
    ///
    /// Deadlock-free by construction: jobs are pushed and popped in ticket
    /// order, so the smallest incomplete ticket is always already on a
    /// worker — and `wait_turn` only ever waits on smaller tickets.
    fn worker_loop<'s>(
        &'s self,
        idx: usize,
        ep: &Endpoint,
        queue: &WorkQueue<Job<'s>>,
        tracker: &ConflictTracker,
    ) {
        // Workers share the endpoint's opnum allocator so their
        // verify-through RPCs can interleave without reply collisions.
        let client = RpcClient::new(ep);
        let queue_depth = self.obs.gauge("storage.queue_depth");
        let dispatch = self.obs.histogram("storage.dispatch_ns");
        let worker_dispatch = self.obs.histogram(&format!("storage.worker{idx}.dispatch_ns"));
        let in_flight = self.obs.gauge("storage.in_flight");
        let srv_in_flight = self.obs.gauge(&format!("storage.srv{}.in_flight", self.site.nid.0));
        while let Some(Job { ticket, req, mut trace }) = queue.pop() {
            queue_depth.dec();
            if tracker.wait_turn(ticket) {
                self.stats.conflict_defers.inc();
            }
            in_flight.inc();
            srv_in_flight.inc();
            let waited = trace.stage("queue_wait");
            dispatch.record(waited);
            worker_dispatch.record(waited);
            // Every child request this job issues (verify-through to the
            // authorization service, ships, drop reports) carries the
            // incoming trace with this request as the parent — the causal
            // chain is *propagated*, never re-derived.
            client.set_trace(TraceContext {
                trace_id: req.trace.trace_id,
                parent_req_id: req.req_id,
            });
            let body = self.handle(ep, &client, &req, Some(&mut trace));
            let rep = Reply::new(req.opnum, body);
            let _ = ep.send(req.reply_to, lwfs_portals::reply_match(req.opnum.0), rep.to_bytes());
            trace.stage("reply");
            trace.finish();
            // Complete only after the reply is on the wire: a dependent
            // request must not observe the store before our reply orders
            // ahead of it at the client.
            tracker.complete(ticket);
            srv_in_flight.dec();
            in_flight.dec();
        }
    }

    // ------------------------------------------------------------------
    // Authorization
    // ------------------------------------------------------------------

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

    // ------------------------------------------------------------------
    // Request dispatch
    // ------------------------------------------------------------------

    /// Full request path: replication fencing and dedup around
    /// [`execute`](Self::execute), then ship-before-ack when this server
    /// is a group primary.
    fn handle(
        &self,
        ep: &Endpoint,
        client: &RpcClient<'_>,
        req: &Request,
        mut trace: Option<&mut OpTrace<'_>>,
    ) -> ReplyBody {
        let repl = &self.replica;
        if matches!(req.body, RequestBody::ReplShip { .. }) {
            return self.handle_repl_ship(req, trace);
        }
        let mutation = replicated_mutation(&req.body);
        if mutation {
            if repl.is_backup() {
                // Mutations go to the primary; the client refreshes its
                // group map and re-sends.
                return ReplyBody::Err(Error::NotPrimary);
            }
            // Epoch fencing, primary side. The client's epoch is
            // *compared*, never folded in — an `observe_epoch` here
            // would let one rogue request inflate our epoch and fence
            // out every honest client; epochs advance only through the
            // control plane and authenticated ships. A mutation stamped
            // below our epoch routed on a retired map: refuse it so the
            // client refreshes. Epoch 0 means "no epoch info"
            // (transaction coordinators, direct callers) and always
            // passes.
            if req.epoch != 0 && req.epoch < repl.epoch() {
                return ReplyBody::Err(Error::NotPrimary);
            }
            // A retry of a mutation we already acked (the client failed
            // over, or our ack was lost) is answered from the cache —
            // never re-applied.
            if let Some(cached) = repl.replies.get(req.reply_to, req.opnum) {
                self.stats.dedup_hits.inc();
                if let Ok(body) = decode_reply_body(&cached) {
                    return body;
                }
            }
        } else if repl.is_backup() && req.epoch > repl.epoch() {
            // Read-path fencing on a backup: the client routes by a map
            // newer than any epoch our primary or the control plane has
            // shown us. We may be the member that map just dropped
            // (ships stopped reaching us), so refusing is the only safe
            // answer — the client's sweep moves on to an in-sync
            // member instead of reading stale data here.
            return ReplyBody::Err(Error::NotPrimary);
        }

        let mut recs = Vec::new();
        let body = self.execute(ep, client, req, trace.as_deref_mut(), &mut recs);

        if mutation {
            // Ship whatever was logged — even when the op ultimately
            // failed, the backups must mirror any partial effects the
            // log already carries. (Records are collected only while
            // there are backups to ship them to.)
            if !recs.is_empty() {
                self.ship(ep, req, &recs, &body, trace);
            }
            // Cache the reply for dedup. Transient errors are *not*
            // cached: they mean "nothing happened, try again", and a
            // cached ServerBusy would make the retry loop permanent.
            if !matches!(&body, ReplyBody::Err(e) if e.is_transient()) {
                repl.replies.put(req.reply_to, req.opnum, encode_reply_body(&body));
            }
        }
        body
    }

    /// Execute one request against local state, collecting the WAL records
    /// it produced into `recs` (for replication shipping).
    fn execute(
        &self,
        ep: &Endpoint,
        client: &RpcClient<'_>,
        req: &Request,
        mut trace: Option<&mut OpTrace<'_>>,
        recs: &mut Vec<WalRecord>,
    ) -> ReplyBody {
        match &req.body {
            RequestBody::CreateObj { txn, cap, obj } => self
                .do_create(client, &req.token, *txn, cap, *obj, trace, recs)
                .map_or_else(ReplyBody::Err, ReplyBody::ObjCreated),
            RequestBody::RemoveObj { txn, cap, obj } => {
                match self.do_remove(client, &req.token, *txn, cap, *obj, trace, recs) {
                    Ok(()) => ReplyBody::ObjRemoved,
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::Write { txn, cap, obj, offset, len, md } => {
                match self.do_write(
                    ep,
                    client,
                    &req.token,
                    *txn,
                    cap,
                    *obj,
                    *offset,
                    *len,
                    *md,
                    req.reply_to,
                    trace,
                    recs,
                ) {
                    Ok(n) => ReplyBody::WriteDone { len: n },
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::Read { cap, obj, offset, len, md } => {
                match self.do_read(
                    ep,
                    client,
                    &req.token,
                    cap,
                    *obj,
                    *offset,
                    *len,
                    *md,
                    req.reply_to,
                ) {
                    Ok(n) => ReplyBody::ReadDone { len: n },
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::GetAttr { cap, obj } => {
                match self
                    .authorize(client, &req.token, cap, OpMask::GETATTR, obj.0)
                    .and_then(|()| self.store.getattr(cap.container(), *obj))
                {
                    Ok(attr) => ReplyBody::Attr(attr),
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::Sync { cap, obj } => {
                match self
                    .authorize(client, &req.token, cap, OpMask::WRITE, obj.map_or(0, |o| o.0))
                    .and_then(|()| self.store.sync(*obj))
                {
                    Ok(_) => {
                        self.stats.syncs.inc();
                        ReplyBody::Synced
                    }
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::ListObjs { cap } => {
                match self.authorize(client, &req.token, cap, OpMask::GETATTR, 0) {
                    Ok(()) => ReplyBody::Objs(self.store.list(cap.container())),
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::InvalidateCaps { authz_epoch: _, keys } => {
                let dropped = self.verifier.invalidate(keys);
                ReplyBody::CapsInvalidated { dropped }
            }
            RequestBody::PushEpochs { epochs } => {
                // Epochs merge monotonically (max wins), so this needs no
                // sender authentication — like `InvalidateCaps`, the push
                // can only ever *narrow* what the server accepts.
                if let Some(signed) = &self.signed {
                    for b in epochs {
                        signed.verifier.observe_epoch(b.container, b.epoch);
                    }
                }
                ReplyBody::EpochsPushed
            }
            RequestBody::TxnPrepare { txn } => {
                let vote = self.journal.prepare(*txn);
                if vote {
                    // The yes vote must be durable before it reaches the
                    // coordinator (forces an fsync under every sync policy);
                    // a vote we cannot persist is a vote we cannot honor
                    // after a crash, so it becomes a no.
                    match self.log_append(WalRecord::TxnPrepare { txn: *txn }, recs) {
                        Ok(timing) => wal_spans(&mut trace, timing),
                        Err(_) => {
                            self.roll_back(*txn);
                            return ReplyBody::TxnVote(false);
                        }
                    }
                }
                ReplyBody::TxnVote(vote)
            }
            RequestBody::TxnCommit { txn } => {
                // Log the decision before applying it: if the append fails
                // the journal stays Prepared (in doubt) and the coordinator
                // retries or resolves after restart.
                if self.journal.state(*txn) == Some(JournalState::Prepared) {
                    match self.log_append(WalRecord::TxnCommit { txn: *txn }, recs) {
                        Ok(timing) => wal_spans(&mut trace, timing),
                        Err(e) => return ReplyBody::Err(e),
                    }
                }
                match self.journal.commit(*txn) {
                    Ok(_undos) => {
                        // Commit = forget the undo log; effects already applied.
                        self.stats.txn_commits.inc();
                        ReplyBody::TxnCommitted
                    }
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::TxnAbort { txn } => {
                // Best-effort: a lost abort record costs nothing — replay
                // presumes abort for transactions with no decision record.
                if let Ok(timing) = self.log_append(WalRecord::TxnAbort { txn: *txn }, recs) {
                    wal_spans(&mut trace, timing);
                }
                self.roll_back(*txn);
                self.stats.txn_aborts.inc();
                ReplyBody::TxnAborted
            }
            RequestBody::Ping => ReplyBody::Pong,
            other => {
                ReplyBody::Err(Error::Malformed(format!("storage service cannot handle {other:?}")))
            }
        }
    }

    // ------------------------------------------------------------------
    // Replication: ship-before-ack and the backup apply path
    // ------------------------------------------------------------------

    /// How a primary retries a ship or a drop report: 200 µs doubling to
    /// 20 ms, within the group's ship deadline.
    fn ship_policy(&self) -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_micros(200),
            cap: Duration::from_millis(20),
            deadline: self.replica.ship_deadline,
        }
    }

    /// Ship one completed mutation's WAL records to every backup and wait
    /// for their acks — *before* the caller sends the client reply, so an
    /// acknowledged mutation is always on every in-sync replica.
    ///
    /// A backup that cannot ack within the ship deadline is dropped from
    /// the group (availability over replication): the write completes on
    /// the surviving members and the primary reports the drop to the
    /// group directory ([`report_dropped_backup`](Self::report_dropped_backup))
    /// so the republished map stops routing reads to — and can never
    /// promote — the out-of-sync member.
    fn ship(
        &self,
        ep: &Endpoint,
        req: &Request,
        recs: &[WalRecord],
        body: &ReplyBody,
        mut trace: Option<&mut OpTrace<'_>>,
    ) {
        let repl = &self.replica;
        let backups = repl.backups();
        if backups.is_empty() {
            return;
        }
        let seq = repl.alloc_seq();
        let lag = self.obs.gauge("storage.repl_lag");
        lag.set(repl.lag() as i64);
        // The frames are byte-identical to what our own log carries; the
        // backup re-verifies the same CRCs the disk format uses.
        let frames: Vec<Bytes> = recs.iter().map(lwfs_wal::frame_record).collect();
        let reply = encode_reply_body(body);
        let epoch = repl.epoch();
        let start = Instant::now();
        // The ship is a child of the mutation being replicated: the backup
        // traces its apply under the same trace id.
        let trace_ctx = TraceContext { trace_id: req.trace.trace_id, parent_req_id: req.req_id };
        // Per-attempt reply timeout well under the total deadline, so a
        // dropped ship is re-sent (the backup's cache dedups) instead of
        // eating the whole budget in one wait.
        let mut ship_client = RpcClient::new(ep);
        ship_client.reply_timeout = (repl.ship_deadline / 4).max(Duration::from_millis(50));
        let token = self.signed.as_ref().map(|s| s.ship_token.clone()).unwrap_or_default();
        for backup in backups {
            let ship_body = RequestBody::ReplShip {
                group: repl.group(),
                epoch,
                seq,
                origin: req.reply_to,
                origin_opnum: req.opnum,
                records: frames.clone(),
                reply: reply.clone(),
            };
            // One request for every attempt: a re-sent ship keeps its opnum.
            let ship = Request::new(ep.next_opnum(), ep.id(), ship_body)
                .with_trace(trace_ctx)
                .with_token(token.clone());
            let mut attempts: u64 = 0;
            let backup_start = Instant::now();
            let outcome = retry::with_backoff(&self.ship_policy(), ship_retryable, || {
                attempts += 1;
                match ship_client.send_once(backup, &ship)? {
                    ReplyBody::ReplAck { .. } => Ok(()),
                    other => Err(Error::Internal(format!("unexpected ship reply {other:?}"))),
                }
            });
            let ship_ns = backup_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            if let Some(t) = trace.as_deref_mut() {
                // One span per backup; the retry window gets its own span
                // so outlier traces show *where* the deadline went.
                t.span_with_duration("repl", "ship", ship_ns);
                if attempts > 1 {
                    t.span_with_duration("repl", "ship_retry", ship_ns);
                }
            }
            self.stats.repl_ships.inc();
            if attempts > 1 {
                self.stats.ship_retries.add(attempts - 1);
            }
            if outcome.is_err() {
                repl.drop_backup(backup);
                self.stats.ship_failures.inc();
                // Journal the eviction *before* reporting it: the event
                // order (evict → directory republish) is the causal story
                // an operator reads back after an availability incident.
                self.obs.events().record(
                    self.site.nid.0,
                    "repl.evict_backup",
                    format!(
                        "group {} epoch {epoch}: backup {backup} missed the ship deadline \
                         after {attempts} attempts",
                        repl.group()
                    ),
                );
                self.report_dropped_backup(ep, backup, trace_ctx);
            }
        }
        repl.record_acked(seq);
        lag.set(repl.lag() as i64);
        self.obs.histogram("storage.ship_ns").record(start.elapsed().as_nanos() as u64);
    }

    /// Tell the group directory that `backup` missed the ship deadline and
    /// left this primary's ship set, so the map is republished without it:
    /// clients stop sweeping reads to the out-of-sync replica, and a later
    /// election can never promote it over members that hold the
    /// acknowledged writes it missed.
    ///
    /// The republished map's epoch comes back in the reply and is folded
    /// in here; the next ship carries it to the surviving backups, while
    /// the dropped member — which no longer receives ships — stays behind
    /// and starts fencing fresh-map reads (see `handle`).
    fn report_dropped_backup(&self, ep: &Endpoint, backup: ProcessId, trace_ctx: TraceContext) {
        let repl = &self.replica;
        let dir = repl.directory;
        let body =
            RequestBody::ReportDroppedBackup { group: repl.group(), epoch: repl.epoch(), backup };
        // The drop report is a child of the mutation whose ship failed.
        let report = Request::new(ep.next_opnum(), ep.id(), body).with_trace(trace_ctx);
        let client = RpcClient::new(ep);
        let outcome = retry::with_backoff(&self.ship_policy(), ship_retryable, || {
            match client.send_once(dir, &report)? {
                ReplyBody::GroupMapReply(map) => Ok(map.epoch),
                other => Err(Error::Internal(format!("unexpected directory reply {other:?}"))),
            }
        });
        match outcome {
            Ok(epoch) => {
                repl.observe_epoch(epoch);
                self.obs.counter("storage.drop_reports").inc();
            }
            // `AccessDenied` means the published map no longer names us
            // primary — we were deposed mid-ship and the new leadership
            // owns membership now. Either way the local ship set already
            // shrank; the report is best-effort.
            Err(_) => {
                self.obs.counter("storage.drop_report_failures").inc();
            }
        }
    }

    /// Backup side of the ship: verify, log, apply through the crash
    /// recovery machinery, cache the primary's reply for dedup, ack.
    ///
    /// The ship request arrives stamped with the originating mutation's
    /// [`TraceContext`], so the `log`/`apply` stages recorded here land in
    /// the *client's* trace — the backup is one more node on its timeline.
    fn handle_repl_ship(&self, req: &Request, mut trace: Option<&mut OpTrace<'_>>) -> ReplyBody {
        let repl = &self.replica;
        let RequestBody::ReplShip { group, epoch, seq, origin, origin_opnum, records, reply } =
            &req.body
        else {
            unreachable!("caller matched ReplShip");
        };
        if *group != repl.group() {
            return ReplyBody::Err(Error::Malformed(format!(
                "ship for group {group} at a member of group {}",
                repl.group()
            )));
        }
        // Fencing: a ship from a deposed primary (older epoch) is refused;
        // so is any ship once *we* are the primary.
        if *epoch < repl.epoch() || repl.is_primary() {
            return ReplyBody::Err(Error::NotPrimary);
        }
        // Sender authorization. Ships apply WAL records without capability
        // checks, so the one acceptable sender is the group's current
        // primary — as installed by the control plane at spawn or
        // promotion, never learned from the wire. A rogue endpoint that
        // read the topology off the public `GetGroupMap` is refused before
        // anything is logged, applied, or cached.
        if repl.known_primary() != Some(req.reply_to) {
            return ReplyBody::Err(Error::AccessDenied);
        }
        // Cryptographic sender authentication: the ship must carry a
        // group-scoped token bound to the sending node. The known-primary
        // check above pins *which* process may ship; this one proves the
        // bytes actually come from a holder the issuer authorized for the
        // group, so a spoofed `reply_to` is not enough.
        if let Some(signed) = &self.signed {
            if req.token.is_empty() {
                return ReplyBody::Err(Error::AccessDenied);
            }
            if let Err(e) = signed.verifier.check_group(
                &req.token,
                *group,
                self.clock.now(),
                req.reply_to.nid.0,
            ) {
                return ReplyBody::Err(e);
            }
        }
        repl.observe_epoch(*epoch);
        // A re-shipped batch (our earlier ack was lost) is acked from the
        // cache, never re-applied.
        if repl.replies.get(*origin, *origin_opnum).is_some() {
            self.stats.dedup_hits.inc();
            repl.record_acked(*seq);
            return ReplyBody::ReplAck { seq: *seq };
        }
        let mut recs = Vec::with_capacity(records.len());
        for frame in records {
            match lwfs_wal::unframe_record(frame) {
                Ok(rec) => recs.push(rec),
                Err(e) => return ReplyBody::Err(e),
            }
        }
        // Our own log first (the records must survive *our* crash before
        // the primary treats them as replicated), then the same in-order
        // application crash replay uses — minus its end-of-log
        // presumed-abort pass, because the primary's log has not ended.
        let mut timing = AppendTiming::default();
        for rec in &recs {
            match self.log_append_shipped(rec) {
                Ok(t) => {
                    timing.append_ns += t.append_ns;
                    timing.fsync_ns += t.fsync_ns;
                }
                Err(e) => return ReplyBody::Err(e),
            }
        }
        if let Some(t) = trace.as_mut() {
            t.stage("log");
        }
        wal_spans(&mut trace, timing);
        if let Err(e) =
            crate::recovery::apply_records(&recs, &self.store, &self.journal, self.clock.now())
        {
            return ReplyBody::Err(e);
        }
        if let Some(t) = trace.as_mut() {
            t.stage("apply");
        }
        repl.replies.put(*origin, *origin_opnum, reply.clone());
        repl.record_acked(*seq);
        ReplyBody::ReplAck { seq: *seq }
    }

    /// Abort `txn`'s journal and undo its staged effects, newest first —
    /// with the same undo application crash replay uses.
    fn roll_back(&self, txn: TxnId) {
        let now = self.clock.now();
        for undo in self.journal.abort(txn).into_iter().rev() {
            crate::recovery::apply_undo(&self.store, undo, now);
        }
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn do_create(
        &self,
        client: &RpcClient<'_>,
        token: &Bytes,
        txn: Option<TxnId>,
        cap: &Capability,
        want: Option<ObjId>,
        mut trace: Option<&mut OpTrace<'_>>,
        recs: &mut Vec<WalRecord>,
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
            WalRecord::Create { txn, container: cap.container(), obj: oid, now },
            recs,
        )?;
        wal_spans(&mut trace, timing);
        self.stats.creates.inc();
        Ok(oid)
    }

    #[allow(clippy::too_many_arguments)]
    fn do_remove(
        &self,
        client: &RpcClient<'_>,
        token: &Bytes,
        txn: Option<TxnId>,
        cap: &Capability,
        oid: ObjId,
        mut trace: Option<&mut OpTrace<'_>>,
        recs: &mut Vec<WalRecord>,
    ) -> Result<()> {
        self.authorize(client, token, cap, OpMask::REMOVE, oid.0)?;
        if let Some(t) = trace.as_deref_mut() {
            t.stage("authorize");
        }
        remove_staged(&self.store, &self.journal, txn, cap.container(), oid)?;
        let timing =
            self.log_append(WalRecord::Remove { txn, container: cap.container(), obj: oid }, recs)?;
        wal_spans(&mut trace, timing);
        self.stats.removes.inc();
        Ok(())
    }

    /// Server-directed write: pull `len` bytes from the client's MD in
    /// chunks through the pinned pool, writing each chunk to the store.
    ///
    /// The per-request `trace` (when present) is decomposed into the
    /// Figure 6 stages: `authorize`, then one `pull` + `store_write` span
    /// pair per chunk crossing the pinned pool.
    #[allow(clippy::too_many_arguments)]
    fn do_write(
        &self,
        ep: &Endpoint,
        client: &RpcClient<'_>,
        token: &Bytes,
        txn: Option<TxnId>,
        cap: &Capability,
        oid: ObjId,
        offset: u64,
        len: u64,
        md: MdHandle,
        requester: ProcessId,
        mut trace: Option<&mut OpTrace<'_>>,
        recs: &mut Vec<WalRecord>,
    ) -> Result<u64> {
        self.authorize(client, token, cap, OpMask::WRITE, oid.0)?;
        // Pre-flight the object so a bad id fails before moving data.
        let container = self.store.container_of(oid)?;
        if container != cap.container() {
            return Err(Error::AccessDenied);
        }
        if let Some(t) = trace.as_deref_mut() {
            t.stage("authorize");
        }
        // The whole extent is judged before the first byte moves: a length
        // this server would refuse at the last chunk is refused now.
        let end = self.store.check_extent(offset, len)?;
        let now = self.clock.now();
        let mut moved: u64 = 0;
        while moved < len {
            let chunk = ((len - moved) as usize).min(self.config.chunk_size);
            let mut pinned = match self.pool.try_acquire() {
                Some(b) => b,
                None => {
                    // Pool exhausted: reject; the client backs off and
                    // re-sends (flow control of §3.2).
                    self.stats.busy_rejects.inc();
                    return Err(Error::ServerBusy);
                }
            };
            // One-sided pull from the client's posted descriptor, straight
            // into the pinned buffer.
            let buf = &mut pinned.as_mut_slice()[..chunk];
            ep.get_into(requester, md.match_bits, moved, buf)?;
            if let Some(t) = trace.as_deref_mut() {
                t.stage("pull");
            }
            if moved == 0 {
                // Room for the request's whole extent, once, now that the
                // first pull has shown the descriptor is really there.
                self.store.reserve(container, oid, end)?;
            }
            let at = offset + moved;
            write_staged(&self.store, &self.journal, txn, container, oid, at, buf, now)?;
            if let Some(t) = trace.as_deref_mut() {
                t.stage("store_write");
            }
            // One record per chunk, in pull order: replay reproduces the
            // exact same sequence of store writes. Its payload is copied out
            // of the pinned buffer once, for the log append and the ship to
            // share — and not at all when there is neither.
            let timing = if self.logs() {
                let data = Bytes::copy_from_slice(buf);
                let rec = WalRecord::Write { txn, container, obj: oid, offset: at, data, now };
                self.log_append(rec, recs)?
            } else {
                AppendTiming::default()
            };
            if let Some(t) = trace.as_deref_mut() {
                t.stage("wal_append");
            }
            wal_spans(&mut trace, timing);
            self.stats.bytes_pulled.add(chunk as u64);
            moved += chunk as u64;
        }
        self.stats.writes.inc();
        Ok(moved)
    }

    /// Server-directed read: push object bytes into the client's MD.
    #[allow(clippy::too_many_arguments)]
    fn do_read(
        &self,
        ep: &Endpoint,
        client: &RpcClient<'_>,
        token: &Bytes,
        cap: &Capability,
        oid: ObjId,
        offset: u64,
        len: u64,
        md: MdHandle,
        requester: ProcessId,
    ) -> Result<u64> {
        self.authorize(client, token, cap, OpMask::READ, oid.0)?;
        let mut moved: u64 = 0;
        while moved < len {
            let chunk = ((len - moved) as usize).min(self.config.chunk_size);
            let mut pinned = match self.pool.try_acquire() {
                Some(b) => b,
                None => {
                    self.stats.busy_rejects.inc();
                    return Err(Error::ServerBusy);
                }
            };
            // Object bytes go straight into the pinned buffer, and from
            // there into the client's descriptor.
            let buf = &mut pinned.as_mut_slice()[..chunk];
            let n = self.store.read_into(cap.container(), oid, offset + moved, buf)?;
            if n == 0 {
                break; // end of object: short read
            }
            ep.put(requester, md.match_bits, moved, &buf[..n])?;
            self.stats.bytes_pushed.add(n as u64);
            moved += n as u64;
            if n < chunk {
                break;
            }
        }
        self.stats.reads.inc();
        Ok(moved)
    }
}
