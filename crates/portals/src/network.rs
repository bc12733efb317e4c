//! The network fabric: endpoint registry, delivery, and fault injection.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lwfs_obs::{Gauge, Registry};
use parking_lot::{Condvar, Mutex, RwLock};

use lwfs_proto::rng::ChaCha8;
use lwfs_proto::{Decode as _, Encode as _, Error, NodeId, ProcessId, Reply, Request, Result};

use crate::buffer::MemDesc;
use crate::endpoint::Endpoint;
use crate::event::Event;
use crate::stats::NetStats;
use crate::transport::RemoteFabric;
use crate::REQUEST_MATCH;

/// Configuration for a network instance.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Depth of each endpoint's eager-message queue. A full queue rejects
    /// the sender with [`Error::ServerBusy`] — the transport-level analogue
    /// of an I/O node's buffers filling under a request burst (§3.2).
    pub eager_queue_depth: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self { eager_queue_depth: 64 * 1024 }
    }
}

/// Seed of every fabric's drop roll, so a seeded fault run replays.
const FAULT_SEED: u64 = 0x5EED;

/// Injectable failures, applied on the initiator side of each operation.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that an eager message is silently lost.
    pub drop_rate: f64,
    /// Nodes cut off from the fabric; any operation touching them fails
    /// with [`Error::Unreachable`].
    pub partitioned: HashSet<NodeId>,
    /// Individual processes that have "crashed".
    pub dead: HashSet<ProcessId>,
}

impl FaultPlan {
    fn blocks(&self, a: ProcessId, b: ProcessId) -> bool {
        self.partitioned.contains(&a.nid)
            || self.partitioned.contains(&b.nid)
            || self.dead.contains(&a)
            || self.dead.contains(&b)
    }
}

/// Per-endpoint delivery state: a bounded event queue protected by a mutex
/// and condition variable. A condvar (rather than a channel) is what makes
/// *selective* receive safe when several threads share one endpoint: every
/// enqueue wakes all waiters, and each waiter rescans the queue for the
/// events it cares about.
pub(crate) struct EndpointState {
    pub queue: Mutex<VecDeque<Event>>,
    pub cond: Condvar,
    pub capacity: usize,
    pub mds: Mutex<HashMap<u64, MemDesc>>,
    /// Endpoint-wide operation-number allocator
    /// ([`Endpoint::next_opnum`](crate::Endpoint::next_opnum)).
    pub opnums: AtomicU64,
    /// Requests delivered and not yet received, on an endpoint registered
    /// with an intake ([`Network::register_with_intake`]).
    pub waiting: Option<Arc<Gauge>>,
}

impl EndpointState {
    /// The gauge `ev` counts in: a request to an intake endpoint.
    fn waits_in(&self, ev: &Event) -> Option<&Gauge> {
        self.waiting.as_deref().filter(|_| is_request(ev))
    }

    /// Remove the queued event at `pos`: a receiver takes it.
    pub fn take(&self, q: &mut VecDeque<Event>, pos: usize) -> Event {
        let ev = q.remove(pos).expect("position just found");
        if let Some(waiting) = self.waits_in(&ev) {
            waiting.dec();
        }
        ev
    }

    /// Enqueue an event; returns `false` when the queue is full.
    ///
    /// `on_accept` runs under the queue lock *before* the event becomes
    /// visible — senders use it to record statistics so that a receiver
    /// can never observe a message whose accounting has not landed yet.
    pub fn deliver(&self, ev: Event, on_accept: impl FnOnce()) -> bool {
        let mut q = self.queue.lock();
        if q.len() >= self.capacity {
            return false;
        }
        on_accept();
        if let Some(waiting) = self.waits_in(&ev) {
            waiting.inc();
        }
        q.push_back(ev);
        drop(q);
        self.cond.notify_all();
        true
    }
}

impl Drop for EndpointState {
    /// An endpoint leaves the fabric with its queue: requests no receiver
    /// took (a crashed server's) stop waiting.
    fn drop(&mut self) {
        if let Some(waiting) = &self.waiting {
            let left = self.queue.lock().iter().filter(|ev| is_request(ev)).count();
            waiting.add(-(left as i64));
        }
    }
}

fn is_request(ev: &Event) -> bool {
    matches!(ev, Event::Message { match_bits, .. } if *match_bits == REQUEST_MATCH)
}

pub(crate) struct NetworkInner {
    pub config: NetworkConfig,
    pub endpoints: RwLock<HashMap<ProcessId, Arc<EndpointState>>>,
    /// Shared metric registry; every service on this fabric registers
    /// its `component.op.stat` metrics here (see `lwfs-obs`).
    pub obs: Arc<Registry>,
    /// Behind an `Arc` so [`Network::sibling`] fabrics (one per simulated
    /// node, linked by a socket transport in one test process) share one
    /// counter plane the way the historical single network did.
    pub stats: Arc<NetStats>,
    pub faults: Arc<RwLock<FaultPlan>>,
    pub rng: Mutex<ChaCha8>,
    pub match_alloc: Arc<AtomicU64>,
    /// Transport for processes the local registry does not know. `None`
    /// (the default) keeps the historical in-process behavior: unknown
    /// targets are simply [`Error::Unreachable`].
    pub remote: RwLock<Option<Arc<dyn RemoteFabric>>>,
}

impl NetworkInner {
    pub fn lookup(&self, id: ProcessId) -> Result<Arc<EndpointState>> {
        self.endpoints.read().get(&id).cloned().ok_or(Error::Unreachable)
    }

    pub fn remote(&self) -> Option<Arc<dyn RemoteFabric>> {
        self.remote.read().clone()
    }

    /// Returns `true` if a probabilistic drop fires.
    pub fn roll_drop(&self) -> bool {
        let rate = self.faults.read().drop_rate;
        if rate <= 0.0 {
            return false;
        }
        self.rng.lock().gen_bool(rate.min(1.0))
    }

    pub fn check_reachable(&self, from: ProcessId, to: ProcessId) -> Result<()> {
        if self.faults.read().blocks(from, to) {
            Err(Error::Unreachable)
        } else {
            Ok(())
        }
    }

    /// Execute a one-sided write against a *local* descriptor. Shared by
    /// [`Endpoint::put`] and the inbound half of a remote fabric, so both
    /// transports enforce identical MD semantics (permissions, auto-unlink,
    /// completion events, byte accounting).
    pub fn local_put(
        &self,
        from: ProcessId,
        target: ProcessId,
        match_bits: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let state = self.lookup(target)?;
        let md = state
            .mds
            .lock()
            .get(&match_bits)
            .ok_or_else(|| Error::Malformed(format!("no md at {match_bits:#x} on {target}")))?
            .clone();
        if !md.options().allow_put {
            return Err(Error::AccessDenied);
        }
        md.remote_write(offset, data)?;
        if md.consume_op() {
            state.mds.lock().remove(&match_bits);
        }
        self.stats.record_put(from, data.len());
        if md.options().deliver_events {
            // Best effort: a full event queue loses the notification, which
            // is exactly what a real NIC event queue overflow does.
            let _ =
                state.deliver(Event::PutEnd { from, match_bits, offset, len: data.len() }, || {});
        }
        Ok(())
    }

    /// Execute a one-sided read against a *local* descriptor (see
    /// [`NetworkInner::local_put`]). `read` receives the requested range in
    /// place: the in-process initiator copies it straight into its own
    /// buffer, the inbound half of a remote fabric into its reply.
    pub fn local_get<R>(
        &self,
        from: ProcessId,
        target: ProcessId,
        match_bits: u64,
        offset: u64,
        len: usize,
        read: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let state = self.lookup(target)?;
        let md = state
            .mds
            .lock()
            .get(&match_bits)
            .ok_or_else(|| Error::Malformed(format!("no md at {match_bits:#x} on {target}")))?
            .clone();
        if !md.options().allow_get {
            return Err(Error::AccessDenied);
        }
        let out = md.remote_read(offset, len, read)?;
        if md.consume_op() {
            state.mds.lock().remove(&match_bits);
        }
        self.stats.record_get(from, len);
        if md.options().deliver_events {
            let _ = state.deliver(Event::GetEnd { from, match_bits, offset, len }, || {});
        }
        Ok(out)
    }

    /// Deliver an eager message to a *local* endpoint's bounded queue.
    /// Shared by [`Endpoint::send`] and the inbound half of a remote
    /// fabric. A full queue is [`Error::ServerBusy`]; on the wire that
    /// verdict cannot reach the sender synchronously, so the fabric drops
    /// the frame and the sender discovers the loss via its reply timeout.
    /// A scrape to an intake endpoint is answered here instead
    /// ([`Network::register_with_intake`]).
    pub fn local_send(
        &self,
        from: ProcessId,
        target: ProcessId,
        match_bits: u64,
        data: Bytes,
    ) -> Result<()> {
        let state = self.lookup(target)?;
        let len = data.len();
        if state.waiting.is_some()
            && match_bits == REQUEST_MATCH
            && self.answer_scrape(from, target, &data)
        {
            return Ok(());
        }
        // Statistics are recorded inside `deliver`, before the message is
        // visible to the receiver, so counters are always consistent with
        // what any observer has seen.
        let ev = Event::Message { from, match_bits, data, arrived: Instant::now() };
        if state.deliver(ev, || self.stats.record_send(from, len)) {
            Ok(())
        } else {
            self.stats.record_reject();
            Err(Error::ServerBusy)
        }
    }

    /// Answer `data` on `server`'s behalf, from this network's registry,
    /// if it is a monitoring scrape; returns whether it was one.
    fn answer_scrape(&self, from: ProcessId, server: ProcessId, data: &Bytes) -> bool {
        let Ok(req) = Request::from_bytes(data.clone()) else { return false };
        let Some(body) = crate::telemetry::answer(&self.obs, &req.body) else { return false };
        self.stats.record_send(from, data.len());
        let reply = Reply::new(req.opnum, body).to_bytes();
        // A vanished scraper is not the server's problem; drop the reply.
        let _ = self.send(server, req.reply_to, crate::reply_match(req.opnum.0), reply);
        true
    }

    /// Send an eager message from `from`; see [`Endpoint::send`].
    pub fn send(
        &self,
        from: ProcessId,
        target: ProcessId,
        match_bits: u64,
        data: Bytes,
    ) -> Result<()> {
        self.check_reachable(from, target)?;
        if self.roll_drop() {
            // Silently lost; the sender finds out via timeout.
            self.stats.record_drop();
            return Ok(());
        }
        if self.endpoints.read().contains_key(&target) {
            return self.local_send(from, target, match_bits, data);
        }
        match self.remote() {
            Some(fabric) => fabric.send(from, target, match_bits, data),
            None => Err(Error::Unreachable),
        }
    }
}

/// An in-process network fabric.
///
/// Create one per simulated machine, then [`register`](Network::register)
/// an [`Endpoint`] for every process (service or application rank).
#[derive(Clone)]
pub struct Network {
    pub(crate) inner: Arc<NetworkInner>,
}

impl Network {
    pub fn new(config: NetworkConfig) -> Self {
        let obs = Arc::new(Registry::new());
        let stats = Arc::new(NetStats::with_registry(&obs));
        Self {
            inner: Arc::new(NetworkInner {
                config,
                endpoints: RwLock::new(HashMap::new()),
                obs,
                stats,
                faults: Arc::new(RwLock::new(FaultPlan::default())),
                rng: Mutex::new(ChaCha8::seed_from_u64(FAULT_SEED)),
                match_alloc: Arc::new(AtomicU64::new(1)),
                remote: RwLock::new(None),
            }),
        }
    }

    /// A new fabric for *another node of the same cluster*: its own
    /// endpoint registry (processes on that node) but the observability
    /// plane — metric registry, transport counters, fault plan, match-bit
    /// allocator — shared with `self`.
    ///
    /// This is how a one-process test cluster runs one `Network` per
    /// simulated machine, linked by a socket fabric, while the harness
    /// keeps the God's-eye view a single shared network historically gave
    /// it: one `set_faults` partitions every node, one registry snapshot
    /// sees every service.
    pub fn sibling(&self) -> Network {
        Self {
            inner: Arc::new(NetworkInner {
                config: self.inner.config.clone(),
                endpoints: RwLock::new(HashMap::new()),
                obs: Arc::clone(&self.inner.obs),
                stats: Arc::clone(&self.inner.stats),
                faults: Arc::clone(&self.inner.faults),
                rng: Mutex::new(ChaCha8::seed_from_u64(FAULT_SEED)),
                match_alloc: Arc::clone(&self.inner.match_alloc),
                remote: RwLock::new(None),
            }),
        }
    }

    /// Attach the transport used for processes this registry does not
    /// hold. Operations addressed to unknown targets are routed through
    /// it instead of failing with [`Error::Unreachable`].
    pub fn set_remote(&self, fabric: Arc<dyn RemoteFabric>) {
        *self.inner.remote.write() = Some(fabric);
    }

    /// Detach the remote transport (used on teardown so the fabric's
    /// threads are not kept alive by the network's reference).
    pub fn clear_remote(&self) {
        *self.inner.remote.write() = None;
    }

    /// Register a process and obtain its endpoint.
    ///
    /// # Panics
    /// Panics if `id` is already registered — duplicate process ids are a
    /// harness bug, not a runtime condition.
    pub fn register(&self, id: ProcessId) -> Endpoint {
        self.register_endpoint(id, None)
    }

    /// Register a server whose own workers take turns receiving. Its
    /// intake is the delivery point, which, unlike a receiver, is never
    /// vacant: a monitoring scrape is answered there and never queues
    /// (however busy the workers), and `waiting` counts the requests
    /// delivered and not yet received — +1 on delivery, −1 when a
    /// receiver takes one, minus what is left when the endpoint drops.
    ///
    /// # Panics
    /// Panics if `id` is already registered, like [`register`](Self::register).
    pub fn register_with_intake(&self, id: ProcessId, waiting: Arc<Gauge>) -> Endpoint {
        self.register_endpoint(id, Some(waiting))
    }

    fn register_endpoint(&self, id: ProcessId, waiting: Option<Arc<Gauge>>) -> Endpoint {
        let state = Arc::new(EndpointState {
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            capacity: self.inner.config.eager_queue_depth,
            mds: Mutex::new(HashMap::new()),
            opnums: AtomicU64::new(1),
            waiting,
        });
        let prev = self.inner.endpoints.write().insert(id, Arc::clone(&state));
        assert!(prev.is_none(), "duplicate endpoint registration for {id}");
        Endpoint::new(id, Arc::clone(&self.inner), state)
    }

    /// Remove a process from the fabric (its queued events are dropped).
    pub fn unregister(&self, id: ProcessId) {
        self.inner.endpoints.write().remove(&id);
    }

    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// The metric registry shared by every service on this fabric.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.inner.obs
    }

    /// Replace the active fault plan.
    pub fn set_faults(&self, plan: FaultPlan) {
        *self.inner.faults.write() = plan;
    }

    /// Convenience: clear all injected faults.
    pub fn heal(&self) {
        self.set_faults(FaultPlan::default());
    }

    /// The active fault plan (shared with sibling fabrics).
    pub fn faults(&self) -> FaultPlan {
        self.inner.faults.read().clone()
    }

    // ------------------------------------------------------------------
    // Inbound entry points for a remote fabric
    // ------------------------------------------------------------------
    //
    // Traffic arriving over a [`RemoteFabric`] re-enters the local
    // delivery path here. Reachability is re-checked on the receiving
    // side: the initiator checked its own plan before the frame left, so
    // under one broadcast plan a partition is symmetric — frames already
    // in flight when the partition lands are discarded at the boundary,
    // exactly as the in-process fabric refuses them at the send site.

    /// Deliver an eager message that arrived over the remote transport.
    pub fn deliver_send(
        &self,
        from: ProcessId,
        to: ProcessId,
        match_bits: u64,
        data: Bytes,
    ) -> Result<()> {
        self.inner.check_reachable(from, to)?;
        self.inner.local_send(from, to, match_bits, data)
    }

    /// Execute a one-sided write that arrived over the remote transport.
    pub fn deliver_put(
        &self,
        from: ProcessId,
        to: ProcessId,
        match_bits: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        self.inner.check_reachable(from, to)?;
        self.inner.local_put(from, to, match_bits, offset, data)
    }

    /// Execute a one-sided read that arrived over the remote transport.
    pub fn deliver_get(
        &self,
        from: ProcessId,
        to: ProcessId,
        match_bits: u64,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        self.inner.check_reachable(from, to)?;
        self.inner.local_get(from, to, match_bits, offset, len, <[u8]>::to_vec)
    }

    /// Number of registered endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.inner.endpoints.read().len()
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new(NetworkConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_count() {
        let net = Network::default();
        let _a = net.register(ProcessId::new(0, 0));
        let _b = net.register(ProcessId::new(1, 0));
        assert_eq!(net.endpoint_count(), 2);
        net.unregister(ProcessId::new(0, 0));
        assert_eq!(net.endpoint_count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate endpoint")]
    fn duplicate_registration_panics() {
        let net = Network::default();
        let _a = net.register(ProcessId::new(0, 0));
        let _b = net.register(ProcessId::new(0, 0));
    }

    #[test]
    fn fault_plan_blocks_partitioned_nodes() {
        let mut plan = FaultPlan::default();
        plan.partitioned.insert(NodeId(3));
        assert!(plan.blocks(ProcessId::new(3, 0), ProcessId::new(1, 0)));
        assert!(plan.blocks(ProcessId::new(1, 0), ProcessId::new(3, 9)));
        assert!(!plan.blocks(ProcessId::new(1, 0), ProcessId::new(2, 0)));
    }

    #[test]
    fn fault_plan_blocks_dead_processes() {
        let mut plan = FaultPlan::default();
        plan.dead.insert(ProcessId::new(5, 1));
        assert!(plan.blocks(ProcessId::new(5, 1), ProcessId::new(0, 0)));
        assert!(!plan.blocks(ProcessId::new(5, 0), ProcessId::new(0, 0)));
    }

    #[test]
    fn drop_roll_deterministic_per_seed() {
        let (a, b) = (Network::default(), Network::default());
        a.set_faults(FaultPlan { drop_rate: 0.5, ..Default::default() });
        b.set_faults(FaultPlan { drop_rate: 0.5, ..Default::default() });
        let rolls_a: Vec<bool> = (0..64).map(|_| a.inner.roll_drop()).collect();
        let rolls_b: Vec<bool> = (0..64).map(|_| b.inner.roll_drop()).collect();
        assert_eq!(rolls_a, rolls_b);
        assert!(rolls_a.iter().any(|x| *x));
        assert!(rolls_a.iter().any(|x| !*x));
    }

    #[test]
    fn an_intake_answers_scrapes_at_delivery_and_counts_requests_until_taken() {
        use crate::rpc::RpcClient;
        use lwfs_proto::{Encode as _, OpNum, ReplyBody, RequestBody};
        use std::time::Duration;

        let net = Network::default();
        let waiting = net.obs().gauge("test.waiting");
        let server = net.register_with_intake(ProcessId::new(7, 0), Arc::clone(&waiting));
        let client_ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&client_ep);
        // Nothing ever receives on `server`, yet the scrape is answered.
        let scrape = RequestBody::GetTelemetry { events_from: 0 };
        assert!(matches!(client.call(server.id(), scrape).unwrap(), ReplyBody::Telemetry(_)));
        assert_eq!((server.stashed(), waiting.get()), (0, 0), "a scrape never queues");

        // Any other request waits for a receiver, counted until one takes it.
        let ping = |n| {
            let req = Request::new(OpNum(n), client_ep.id(), RequestBody::Ping);
            client_ep.send(server.id(), REQUEST_MATCH, req.to_bytes()).unwrap();
        };
        ping(100);
        ping(101);
        assert_eq!((server.stashed(), waiting.get()), (2, 2));
        server.recv(Duration::ZERO).unwrap();
        assert_eq!(waiting.get(), 1);
        // Traffic to the server that is not a request is not counted.
        client_ep.send(server.id(), crate::reply_match(5), Bytes::new()).unwrap();
        assert_eq!((server.stashed(), waiting.get()), (2, 1));

        // The request nobody took leaves the gauge with the endpoint.
        net.unregister(server.id());
        drop(server);
        assert_eq!(waiting.get(), 0);
    }

    #[test]
    fn zero_drop_rate_never_drops() {
        let net = Network::default();
        for _ in 0..100 {
            assert!(!net.inner.roll_drop());
        }
    }
}
