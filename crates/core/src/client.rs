//! The LWFS-core client API.
//!
//! One `LwfsClient` per application process. Method names track the
//! pseudocode of Figure 8 (`get_cred`, `create_container`, `get_caps`,
//! `create_obj`, …). Bulk I/O uses the server-directed protocol: the client
//! posts a memory descriptor and sends a small request; the storage server
//! pulls or pushes the data one-sidedly.
//!
//! Distribution policy is deliberately **absent** (paper §3: "expose the
//! parallelism of the storage servers to clients to allow for efficient
//! data access and control over data distribution"): every data call names
//! its storage group (at R = 1, a single server) explicitly by index;
//! layering crates (checkpoint, PFS) implement their own placement.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lwfs_portals::{
    collective, retry, Endpoint, Group, MdOptions, MemDesc, RetryPolicy, RpcClient, BULK_SPACE,
};
use lwfs_proto::{
    ContainerId, Credential, Error, GroupMap, LockId, LockMode, LockResource, MdHandle, ObjAttr,
    ObjId, OpMask, ProcessId, ReplicaGroup, ReplyBody, Request, RequestBody, Result, TxnId,
};
use lwfs_txn::{Coordinator, TxnOutcome};
use parking_lot::Mutex;

use crate::caps::CapSet;
use crate::cluster::ClusterAddrs;

/// An application process's handle on the LWFS services.
pub struct LwfsClient {
    ep: Endpoint,
    addrs: ClusterAddrs,
    cred: Option<Credential>,
    rpc_timeout: std::time::Duration,
    /// The group map data calls route by: the boot map until a routing
    /// failure in a group with another member fetches the directory's.
    groups: Mutex<Arc<GroupMap>>,
}

/// How a data operation backs off while it re-targets across timeouts,
/// `NotPrimary` redirects, back-pressure and map refreshes: 200 µs
/// doubling to 10 ms, giving up with `RetriesExhausted` after 15 s.
const FAILOVER: RetryPolicy = RetryPolicy {
    base: Duration::from_micros(200),
    cap: Duration::from_millis(10),
    deadline: Duration::from_secs(15),
};

/// Group `server` of `map`: what a data call's `server` argument names.
fn group(map: &GroupMap, server: usize) -> Result<&ReplicaGroup> {
    map.groups.get(server).ok_or_else(|| Error::Internal(format!("no storage group {server}")))
}

/// A failure the failover loop may retry: routing (the target is dead,
/// cut off or no longer leads) or back-pressure (`ServerBusy`).
fn retryable(e: &Error) -> bool {
    matches!(e, Error::Timeout | Error::Unreachable | Error::NotPrimary | Error::ServerBusy)
}

impl LwfsClient {
    pub fn new(ep: Endpoint, addrs: ClusterAddrs) -> Self {
        let groups = Mutex::new(Arc::new(addrs.group_map()));
        Self { ep, addrs, cred: None, rpc_timeout: std::time::Duration::from_secs(5), groups }
    }

    /// Change how long each RPC waits for its reply (default 5 s). Tests
    /// that inject message loss lower this so retries converge quickly.
    pub fn set_rpc_timeout(&mut self, timeout: std::time::Duration) {
        self.rpc_timeout = timeout;
    }

    pub fn id(&self) -> ProcessId {
        self.ep.id()
    }

    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    pub fn addrs(&self) -> &ClusterAddrs {
        &self.addrs
    }

    /// Number of storage servers visible to this client.
    pub fn storage_count(&self) -> usize {
        self.addrs.storage.len()
    }

    fn rpc(&self) -> RpcClient<'_> {
        let mut rpc = RpcClient::new(&self.ep);
        rpc.reply_timeout = self.rpc_timeout;
        rpc
    }

    fn cred(&self) -> Result<Credential> {
        self.cred.ok_or(Error::BadCredential)
    }

    // ------------------------------------------------------------------
    // Authentication (Figure 8: GETCREDS)
    // ------------------------------------------------------------------

    /// Exchange an external-mechanism token for a credential and remember
    /// it.
    pub fn get_cred(&mut self, mechanism_token: Vec<u8>) -> Result<Credential> {
        match self.rpc().call(self.addrs.auth, RequestBody::GetCred { mechanism_token })? {
            ReplyBody::Cred(cred) => {
                self.cred = Some(cred);
                Ok(cred)
            }
            other => Err(unexpected(other)),
        }
    }

    /// Adopt a credential obtained by another process (credentials are
    /// fully transferable, §3.1.2).
    pub fn adopt_cred(&mut self, cred: Credential) {
        self.cred = Some(cred);
    }

    /// The credential this client currently holds, if authenticated.
    pub fn current_cred(&self) -> Option<Credential> {
        self.cred
    }

    /// Revoke this process's credential (application shutdown): at the
    /// authentication service, which is the source of truth, and then at
    /// the authorization service, whose first-contact cache (Figure 4-a)
    /// would otherwise keep honouring every copy it has already seen.
    pub fn revoke_cred(&mut self) -> Result<()> {
        let cred = self.cred()?;
        for service in [self.addrs.auth, self.addrs.authz] {
            match self.rpc().call(service, RequestBody::RevokeCred { cred })? {
                ReplyBody::CredRevoked => {}
                other => return Err(unexpected(other)),
            }
        }
        self.cred = None;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Authorization (Figure 8: CREATECONTAINER / GETCAPS)
    // ------------------------------------------------------------------

    pub fn create_container(&self) -> Result<ContainerId> {
        let cred = self.cred()?;
        match self.rpc().call(self.addrs.authz, RequestBody::CreateContainer { cred })? {
            ReplyBody::ContainerCreated(cid) => Ok(cid),
            other => Err(unexpected(other)),
        }
    }

    pub fn get_caps(&self, container: ContainerId, ops: OpMask) -> Result<CapSet> {
        let cred = self.cred()?;
        match self.rpc().call(self.addrs.authz, RequestBody::GetCaps { cred, container, ops })? {
            ReplyBody::Caps { caps, tokens } => Ok(CapSet::with_tokens(caps, tokens)),
            other => Err(unexpected(other)),
        }
    }

    /// Change a container's policy (requires an ADMIN capability in
    /// `caps`): grant and/or revoke operations for `principal`.
    pub fn mod_policy(
        &self,
        caps: &CapSet,
        principal: lwfs_proto::PrincipalId,
        grant: OpMask,
        revoke: OpMask,
    ) -> Result<()> {
        let cap = caps.for_op(OpMask::ADMIN)?;
        match self.rpc().call(
            self.addrs.authz,
            RequestBody::ModPolicy { cap, container: cap.container(), principal, grant, revoke },
        )? {
            ReplyBody::PolicyChanged { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Distribute capabilities across an SPMD group with the log-tree
    /// scatter of Figure 4-a step 3. Rank `root` passes `Some(caps)`; all
    /// ranks receive the set.
    pub fn scatter_caps(
        &self,
        group: &Group,
        rank: usize,
        root: usize,
        tag: u64,
        caps: Option<&CapSet>,
    ) -> Result<CapSet> {
        let payload = caps.map(|c| c.to_wire());
        let wire = collective::broadcast(&self.ep, group, rank, root, tag, payload)?;
        CapSet::from_wire(wire)
    }

    /// Broadcast raw bytes across an SPMD group (log tree). Rank `root`
    /// passes `Some(data)`; every rank receives the payload.
    pub fn broadcast(
        &self,
        group: &Group,
        rank: usize,
        root: usize,
        tag: u64,
        data: Option<Bytes>,
    ) -> Result<Bytes> {
        collective::broadcast(&self.ep, group, rank, root, tag, data)
    }

    /// Barrier across an SPMD group (checkpoint epochs use this).
    pub fn barrier(&self, group: &Group, rank: usize, tag: u64) -> Result<()> {
        collective::barrier(&self.ep, group, rank, tag)
    }

    /// Gather per-rank byte blobs to `root` (metadata collection in
    /// Figure 8's GATHERMETADATA).
    pub fn gather(
        &self,
        group: &Group,
        rank: usize,
        root: usize,
        tag: u64,
        data: Bytes,
    ) -> Result<Option<Vec<Bytes>>> {
        collective::gather(&self.ep, group, rank, root, tag, data)
    }

    // ------------------------------------------------------------------
    // Group routing
    //
    // `server` indexes storage *groups*; the directory's epoch-numbered
    // map says which physical server currently leads each. At R = 1 every
    // group has one member, and the boot map never changes. Mutations go
    // to the primary with one opnum for the whole retry loop — the
    // servers' reply caches dedup by `(client, opnum)`, so a re-send
    // after a timeout or a failover can never double-apply. Reads are
    // served by any in-sync member (every member is in sync: the primary
    // ships before acking).
    // ------------------------------------------------------------------

    /// The map this client currently routes by.
    fn group_map(&self) -> Arc<GroupMap> {
        Arc::clone(&self.groups.lock())
    }

    /// Fetch the directory's current map and route by it from now on.
    fn refresh_group_map(&self) -> Result<Arc<GroupMap>> {
        let map = match self.rpc().call(self.addrs.directory, RequestBody::GetGroupMap)? {
            ReplyBody::GroupMapReply(map) => Arc::new(map),
            other => return Err(unexpected(other)),
        };
        *self.groups.lock() = Arc::clone(&map);
        Ok(map)
    }

    /// Run `attempt` against group `server` of the current map under the
    /// [`FAILOVER`] back-off until it succeeds, fails for good, or the
    /// deadline passes. `ServerBusy` is back-pressure, not stale routing:
    /// it is retried at every group size and keeps the map. Any other
    /// retryable failure is retried only while the group has another
    /// member to fail over to, after fetching a fresh map — so a group of
    /// one returns the error at once and never contacts the directory.
    fn fail_over(
        &self,
        server: usize,
        trace: &mut lwfs_obs::OpTrace<'_>,
        mut attempt: impl FnMut(&ReplicaGroup, u64, &mut lwfs_obs::OpTrace<'_>) -> Result<ReplyBody>,
    ) -> Result<ReplyBody> {
        let mut map = self.group_map();
        let mut stale = false;
        let lone = Cell::new(false);
        retry::with_backoff(
            &FAILOVER,
            |e| retryable(e) && (matches!(e, Error::ServerBusy) || !lone.get()),
            || {
                if stale {
                    // A directory hiccup is itself transient: keep the old
                    // map and retry.
                    if let Ok(fresh) = self.refresh_group_map() {
                        map = fresh;
                    }
                    trace.stage("map_refresh");
                }
                let g = group(&map, server)?;
                lone.set(g.members.len() < 2);
                let outcome = attempt(g, map.epoch, trace);
                stale = matches!(&outcome, Err(e) if !matches!(e, Error::ServerBusy));
                outcome
            },
        )
    }

    /// How many storage groups the `server` argument of a data call can
    /// name. Placement (`rank % targets`) belongs here, not on
    /// [`storage_count`](Self::storage_count), which counts physical
    /// servers.
    pub fn storage_targets(&self) -> usize {
        self.group_map().groups.len()
    }

    /// The process a two-phase commit names for work done on storage
    /// target `server` — 2PC addresses processes, not groups, so this is
    /// the group's current primary per the routing map. Resolve it after
    /// the transaction's own data calls: a failover they rode through has
    /// refreshed the map by then.
    pub fn txn_participant(&self, server: usize) -> Result<ProcessId> {
        group(&self.group_map(), server)?.primary().ok_or(Error::Unreachable)
    }

    /// Route a mutation to the primary of group `server`, transparently
    /// failing over (see [`fail_over`](Self::fail_over)): the *same
    /// request* (same opnum) is re-sent until it is answered or the
    /// failover deadline converts the transients into `RetriesExhausted`.
    /// The signed capability token rides the request envelope (empty =
    /// legacy, no token).
    fn storage_mutate_with_token(
        &self,
        server: usize,
        body: RequestBody,
        token: Bytes,
    ) -> Result<ReplyBody> {
        let mut req = Request::new(self.ep.next_opnum(), self.ep.id(), body).with_token(token);
        // The whole retry loop re-sends one `(reply_to, opnum)` pair, so
        // its request id — and therefore the distributed trace id every
        // server joins — is known up front. Tracing the loop under that id
        // puts the client's own sends and map refreshes on the same
        // timeline as the primary, its WAL, and every backup.
        let mut trace =
            self.ep.obs().trace(req.req_id, "client.mutate").on_node(self.ep.id().nid.0);
        let rpc = self.rpc();
        self.fail_over(server, &mut trace, |g, epoch, trace| {
            let outcome = match g.primary() {
                // An empty group (every member dead) has nobody to send to.
                None => Err(Error::Unreachable),
                Some(target) => {
                    req.epoch = epoch;
                    rpc.send_once(target, &req)
                }
            };
            trace.stage("send");
            outcome
        })
    }

    /// Route a read-only operation to any live member of group `server`,
    /// preferring the primary and falling back across the backups; a
    /// sweep that fails on every member is retried as
    /// [`fail_over`](Self::fail_over) decides.
    ///
    /// Every probe is stamped with the map epoch: a backup that was
    /// dropped from the group (and so never saw the epoch advance) fences
    /// the read with `NotPrimary` instead of serving stale data, and the
    /// sweep moves on to an in-sync member.
    fn storage_read_with_token(
        &self,
        server: usize,
        body: RequestBody,
        token: Bytes,
    ) -> Result<ReplyBody> {
        // Each probe allocates a fresh opnum (reads are never deduped), so
        // the sweep has no single wire-level request id; the trace anchors
        // on a reserved opnum of its own and stays client-local.
        let anchor = self.ep.next_opnum();
        let mut trace = self
            .ep
            .obs()
            .trace(lwfs_proto::derive_req_id(self.ep.id(), anchor), "client.read")
            .on_node(self.ep.id().nid.0);
        let rpc = self.rpc();
        self.fail_over(server, &mut trace, |g, epoch, trace| {
            // The sweep's verdict: a routing failure on any member outranks
            // back-pressure on the others.
            let mut failure = None;
            for &member in &g.members {
                let req = Request::new(self.ep.next_opnum(), self.ep.id(), body.clone())
                    .with_epoch(epoch)
                    .with_token(token.clone());
                let outcome = rpc.send_once(member, &req);
                trace.stage("probe");
                match outcome {
                    Err(e) if retryable(&e) => {
                        if failure.is_none() || !matches!(e, Error::ServerBusy) {
                            failure = Some(e);
                        }
                    }
                    other => return other,
                }
            }
            Err(failure.unwrap_or(Error::Unreachable))
        })
    }

    // ------------------------------------------------------------------
    // Object I/O (Figure 8: CREATEOBJ / DUMPSTATE; §3.2 data movement)
    // ------------------------------------------------------------------

    /// Create an object on storage group `server`.
    pub fn create_obj(
        &self,
        server: usize,
        caps: &CapSet,
        txn: Option<TxnId>,
        want: Option<ObjId>,
    ) -> Result<ObjId> {
        let cap = caps.for_op(OpMask::CREATE)?;
        let token = caps.token_for_op(OpMask::CREATE);
        match self.storage_mutate_with_token(
            server,
            RequestBody::CreateObj { txn, cap, obj: want },
            token,
        )? {
            ReplyBody::ObjCreated(oid) => Ok(oid),
            other => Err(unexpected(other)),
        }
    }

    pub fn remove_obj(
        &self,
        server: usize,
        caps: &CapSet,
        txn: Option<TxnId>,
        obj: ObjId,
    ) -> Result<()> {
        let cap = caps.for_op(OpMask::REMOVE)?;
        let token = caps.token_for_op(OpMask::REMOVE);
        match self.storage_mutate_with_token(
            server,
            RequestBody::RemoveObj { txn, cap, obj },
            token,
        )? {
            ReplyBody::ObjRemoved => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Write `data` at `offset`: post the payload as a memory descriptor
    /// and let the server pull it (Figure 6).
    pub fn write(
        &self,
        server: usize,
        caps: &CapSet,
        txn: Option<TxnId>,
        obj: ObjId,
        offset: u64,
        data: &[u8],
    ) -> Result<u64> {
        let cap = caps.for_op(OpMask::WRITE)?;
        let mb = self.ep.match_bits().alloc(BULK_SPACE);
        self.ep.post_md(mb, MemDesc::from_vec(data.to_vec(), MdOptions::for_remote_get()))?;
        let result = self.storage_mutate_with_token(
            server,
            RequestBody::Write {
                txn,
                cap,
                obj,
                offset,
                len: data.len() as u64,
                md: MdHandle { match_bits: mb },
            },
            caps.token_for_op(OpMask::WRITE),
        );
        self.ep.unlink_md(mb);
        match result? {
            ReplyBody::WriteDone { len } => Ok(len),
            other => Err(unexpected(other)),
        }
    }

    /// Read up to `len` bytes at `offset`: post a writable descriptor and
    /// let the server push into it.
    pub fn read(
        &self,
        server: usize,
        caps: &CapSet,
        obj: ObjId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        let cap = caps.for_op(OpMask::READ)?;
        let mb = self.ep.match_bits().alloc(BULK_SPACE);
        self.ep.post_md(mb, MemDesc::zeroed(len, MdOptions::for_remote_put()))?;
        let result = self.storage_read_with_token(
            server,
            RequestBody::Read {
                cap,
                obj,
                offset,
                len: len as u64,
                md: MdHandle { match_bits: mb },
            },
            caps.token_for_op(OpMask::READ),
        );
        let md = self
            .ep
            .unlink_md(mb)
            .ok_or_else(|| Error::Internal("read descriptor vanished during transfer".into()))?;
        match result? {
            ReplyBody::ReadDone { len } => {
                // Unlinked and the server has replied: the descriptor's
                // buffer *is* the result, no copy out of it.
                let mut data = md.into_vec();
                data.truncate(len as usize);
                Ok(data)
            }
            other => Err(unexpected(other)),
        }
    }

    pub fn getattr(&self, server: usize, caps: &CapSet, obj: ObjId) -> Result<ObjAttr> {
        let cap = caps.for_op(OpMask::GETATTR)?;
        let token = caps.token_for_op(OpMask::GETATTR);
        match self.storage_read_with_token(server, RequestBody::GetAttr { cap, obj }, token)? {
            ReplyBody::Attr(attr) => Ok(attr),
            other => Err(unexpected(other)),
        }
    }

    /// Flush an object (or everything) on a storage server.
    pub fn sync(&self, server: usize, caps: &CapSet, obj: Option<ObjId>) -> Result<()> {
        let cap = caps.for_op(OpMask::WRITE)?;
        let token = caps.token_for_op(OpMask::WRITE);
        match self.storage_read_with_token(server, RequestBody::Sync { cap, obj }, token)? {
            ReplyBody::Synced => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn list_objs(&self, server: usize, caps: &CapSet) -> Result<Vec<ObjId>> {
        let cap = caps.for_op(OpMask::GETATTR)?;
        let token = caps.token_for_op(OpMask::GETATTR);
        match self.storage_read_with_token(server, RequestBody::ListObjs { cap }, token)? {
            ReplyBody::Objs(objs) => Ok(objs),
            other => Err(unexpected(other)),
        }
    }

    // ------------------------------------------------------------------
    // Naming (client extension)
    // ------------------------------------------------------------------

    pub fn name_create(
        &self,
        txn: Option<TxnId>,
        path: &str,
        container: ContainerId,
        obj: ObjId,
    ) -> Result<()> {
        match self.rpc().call(
            self.addrs.naming,
            RequestBody::NameCreate { txn, path: path.to_string(), container, obj },
        )? {
            ReplyBody::NameCreated => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn name_lookup(&self, path: &str) -> Result<(ContainerId, ObjId)> {
        match self
            .rpc()
            .call(self.addrs.naming, RequestBody::NameLookup { path: path.to_string() })?
        {
            ReplyBody::NameObj { container, obj } => Ok((container, obj)),
            other => Err(unexpected(other)),
        }
    }

    pub fn name_remove(&self, txn: Option<TxnId>, path: &str) -> Result<()> {
        match self
            .rpc()
            .call(self.addrs.naming, RequestBody::NameRemove { txn, path: path.to_string() })?
        {
            ReplyBody::NameRemoved => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn name_list(&self, prefix: &str) -> Result<Vec<String>> {
        match self
            .rpc()
            .call(self.addrs.naming, RequestBody::NameList { prefix: prefix.to_string() })?
        {
            ReplyBody::Names(names) => Ok(names),
            other => Err(unexpected(other)),
        }
    }

    // ------------------------------------------------------------------
    // Transactions (Figure 8: BEGINTXN / ENDTXN) and locks (§3.4)
    // ------------------------------------------------------------------

    /// Allocate a transaction id.
    pub fn txn_begin(&self) -> Result<TxnId> {
        let cred = self.cred()?;
        match self.rpc().call(self.addrs.txnlock, RequestBody::TxnBegin { cred })? {
            ReplyBody::TxnStarted(txn) => Ok(txn),
            other => Err(unexpected(other)),
        }
    }

    /// Two-phase commit across `participants` (Figure 8: ENDTXN).
    pub fn txn_commit(&self, txn: TxnId, participants: Vec<ProcessId>) -> Result<TxnOutcome> {
        let rpc = self.rpc();
        Coordinator::new(&rpc, participants).commit(txn)
    }

    /// Abort across `participants`.
    pub fn txn_abort(&self, txn: TxnId, participants: Vec<ProcessId>) -> Result<()> {
        let rpc = self.rpc();
        Coordinator::new(&rpc, participants).abort(txn)
    }

    /// Phase 1 only: collect votes without deciding. Returns the
    /// participants that voted no (empty = unanimous yes). Crash-recovery
    /// tests use this to leave participants durably prepared and in doubt.
    pub fn txn_prepare(&self, txn: TxnId, participants: Vec<ProcessId>) -> Result<Vec<ProcessId>> {
        let rpc = self.rpc();
        Coordinator::new(&rpc, participants).prepare(txn)
    }

    /// Drive phase 2 of an already-prepared transaction to `commit` or
    /// abort — the coordinator's side of resolving participants that
    /// restarted in doubt. Participants that no longer know the
    /// transaction are treated as already resolved.
    pub fn txn_resolve(
        &self,
        txn: TxnId,
        participants: Vec<ProcessId>,
        commit: bool,
    ) -> Result<()> {
        let rpc = self.rpc();
        Coordinator::new(&rpc, participants).resolve(txn, commit)
    }

    /// Acquire a lock; when `wait`, retries `WouldBlock` with backoff.
    pub fn lock_acquire(
        &self,
        caps: &CapSet,
        resource: LockResource,
        mode: LockMode,
        wait: bool,
    ) -> Result<LockId> {
        let cap = caps.for_op(OpMask::LOCK)?;
        if wait {
            let rpc = self.rpc();
            lwfs_txn::server::acquire_lock_waiting(&rpc, self.addrs.txnlock, cap, resource, mode)
        } else {
            match self.rpc().call(
                self.addrs.txnlock,
                RequestBody::LockAcquire { cap, resource, mode, wait: false },
            )? {
                ReplyBody::LockGranted(id) => Ok(id),
                other => Err(unexpected(other)),
            }
        }
    }

    pub fn lock_release(&self, caps: &CapSet, lock: LockId) -> Result<()> {
        let cap = caps.for_op(OpMask::LOCK)?;
        match self.rpc().call(self.addrs.txnlock, RequestBody::LockRelease { cap, lock })? {
            ReplyBody::LockReleased => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(body: ReplyBody) -> Error {
    Error::Internal(format!("unexpected reply {body:?}"))
}
