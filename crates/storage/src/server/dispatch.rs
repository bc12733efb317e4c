//! The server loop: a pool of workers that take turns receiving, and the
//! request path each worker runs on what it received (replication
//! fencing, dedup, [`execute`](StorageServer::execute), ship-before-ack).
//! The conflict tracker it drives lives in [`crate::dispatch`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use lwfs_obs::OpTrace;
use lwfs_portals::{Endpoint, Event, RpcClient, REQUEST_MATCH};
use lwfs_proto::{
    Decode as _, Encode, Error, OpMask, Reply, ReplyBody, Request, RequestBody, TraceContext,
};
use parking_lot::Mutex;

use super::StorageServer;
use crate::buffers::{FrameBatch, WorkerBuffers};
use crate::dispatch::{AccessSummary, ConflictTracker};

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

impl StorageServer {
    /// Serve on `ep` until `stop`: `workers` threads, this one among them,
    /// take turns receiving and each runs what it received.
    pub(super) fn run(&self, ep: Endpoint, stop: &AtomicBool) {
        // The receive turn: its holder waits on the endpoint, and the
        // ticket it guards is the next arrival's.
        let turn = Mutex::new(0u64);
        let tracker = ConflictTracker::new();
        std::thread::scope(|s| {
            for idx in 1..self.config.workers.max(1) {
                let (ep, turn, tracker) = (&ep, &turn, &tracker);
                s.spawn(move || self.worker_loop(idx, ep, turn, tracker, stop));
            }
            self.worker_loop(0, &ep, &turn, &tracker, stop);
        });
    }

    /// Take the receive turn and wait for the next request; ticket it in
    /// arrival order and register it with the conflict tracker before the
    /// turn passes on. Tickets are the only order workers honour: the
    /// tracker serializes dependent tickets by it. `None` once `stop` is
    /// raised.
    fn receive<'s>(
        &'s self,
        ep: &Endpoint,
        turn: &Mutex<u64>,
        tracker: &ConflictTracker,
        stop: &AtomicBool,
    ) -> Option<(u64, Request, OpTrace<'s>)> {
        let mut next_ticket = turn.lock();
        let poll = Duration::from_millis(5);
        while !stop.load(Ordering::SeqCst) {
            let ev = match ep.recv_match(
                poll,
                |e| matches!(e, Event::Message { match_bits, .. } if *match_bits == REQUEST_MATCH),
            ) {
                Ok(ev) => ev,
                Err(Error::Timeout) => continue,
                Err(_) => return None,
            };
            let Event::Message { data, arrived, .. } = ev else { continue };
            // The request's byte fields are views of the message: from
            // here on the request is their only holder (see `worker_loop`).
            let Ok(req) = Request::from_bytes(data) else { continue };
            // Traced from arrival, so `queue_wait` (and the end-to-end
            // total) covers the time spent waiting for a worker.
            let trace = self
                .obs
                .trace(req.req_id, op_label(&req.body))
                .since(arrived)
                .on_node(self.site.nid.0)
                .in_trace(req.trace.trace_id);
            let ticket = *next_ticket;
            *next_ticket += 1;
            tracker.register(ticket, AccessSummary::of(&req));
            return Some((ticket, req, trace));
        }
        None
    }

    /// One worker: receive in its turn, wait out conflicts with earlier
    /// in-flight tickets, then run the full request path.
    ///
    /// Deadlock-free by construction: each ticket is held by the worker
    /// that received it, so the smallest incomplete ticket is always
    /// running — and `wait_turn` only ever waits on smaller tickets.
    fn worker_loop(
        &self,
        idx: usize,
        ep: &Endpoint,
        turn: &Mutex<u64>,
        tracker: &ConflictTracker,
        stop: &AtomicBool,
    ) {
        // Workers share the endpoint's opnum allocator so their
        // verify-through RPCs can interleave without reply collisions.
        let client = RpcClient::new(ep);
        let dispatch = self.obs.histogram("storage.dispatch_ns");
        let worker_dispatch = self.obs.histogram(&format!("storage.worker{idx}.dispatch_ns"));
        let in_flight = self.obs.gauge("storage.in_flight");
        let srv_in_flight = self.obs.gauge(&format!("storage.srv{}.in_flight", self.site.nid.0));
        let share = self.config.pool_buffers * self.config.chunk_size / self.config.workers.max(1);
        let mut bufs = WorkerBuffers::new(share, self.config.chunk_size);
        while let Some((ticket, req, mut trace)) = self.receive(ep, turn, tracker, stop) {
            if tracker.wait_turn(ticket) {
                self.stats.conflict_defers.inc();
            }
            in_flight.inc();
            srv_in_flight.inc();
            let waited = trace.stage("queue_wait");
            dispatch.record(waited);
            worker_dispatch.record(waited);
            // Every child request this one issues (verify-through to the
            // authorization service, ships, drop reports) carries the
            // incoming trace with this request as the parent — the causal
            // chain is *propagated*, never re-derived.
            client.set_trace(TraceContext {
                trace_id: req.trace.trace_id,
                parent_req_id: req.req_id,
            });
            let body = self.handle(ep, &client, &req, Some(&mut trace), &mut bufs);
            let (reply_to, opnum) = (req.reply_to, req.opnum);
            // Release the request and the worker's buffers before replying:
            // a ship's records are views of the primary's ship buffer, and
            // the primary takes that buffer back on our ack only if nothing
            // else holds it; and a client that reads the heap once its
            // reply lands sees no buffer this worker was about to free.
            drop(req);
            bufs.end_request();
            let rep = Reply::new(opnum, body);
            let _ = ep.send(reply_to, lwfs_portals::reply_match(opnum.0), rep.to_bytes());
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

    /// Full request path: replication fencing and dedup around
    /// [`execute`](Self::execute), then ship-before-ack when this server
    /// is a group primary.
    fn handle(
        &self,
        ep: &Endpoint,
        client: &RpcClient<'_>,
        req: &Request,
        mut trace: Option<&mut OpTrace<'_>>,
        bufs: &mut WorkerBuffers,
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
                if let Ok(body) = ReplyBody::decode(&mut cached.clone()) {
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

        let body = self.execute(ep, client, req, trace.as_deref_mut(), &mut bufs.frames);

        if mutation {
            // Ship whatever was logged — even when the op ultimately
            // failed, the backups must mirror any partial effects the
            // log already carries. (Frames stay batched only while
            // there are backups to ship them to.)
            if !bufs.frames.is_empty() {
                self.ship(ep, req, bufs, &body, trace);
            }
            // Cache the reply for dedup. Transient errors are *not*
            // cached: they mean "nothing happened, try again", and a
            // cached ServerBusy would make the retry loop permanent.
            if !matches!(&body, ReplyBody::Err(e) if e.is_transient()) {
                repl.replies.put(req.reply_to, req.opnum, body.to_bytes());
            }
        }
        body
    }

    /// Execute one request against local state, framing the WAL records
    /// it produced into `frames` (for replication shipping).
    fn execute(
        &self,
        ep: &Endpoint,
        client: &RpcClient<'_>,
        req: &Request,
        trace: Option<&mut OpTrace<'_>>,
        frames: &mut FrameBatch,
    ) -> ReplyBody {
        match &req.body {
            RequestBody::CreateObj { txn, cap, obj } => self
                .do_create(client, &req.token, *txn, cap, *obj, trace, frames)
                .map_or_else(ReplyBody::Err, ReplyBody::ObjCreated),
            RequestBody::RemoveObj { txn, cap, obj } => {
                match self.do_remove(client, &req.token, *txn, cap, *obj, trace, frames) {
                    Ok(()) => ReplyBody::ObjRemoved,
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::Write { .. } => match self.do_write(ep, client, req, trace, frames) {
                Ok(n) => ReplyBody::WriteDone { len: n },
                Err(e) => ReplyBody::Err(e),
            },
            RequestBody::Read { .. } => match self.do_read(ep, client, req) {
                Ok(n) => ReplyBody::ReadDone { len: n },
                Err(e) => ReplyBody::Err(e),
            },
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
            RequestBody::TxnPrepare { txn } => self.txn_prepare(*txn, trace, frames),
            RequestBody::TxnCommit { txn } => self.txn_commit(*txn, trace, frames),
            RequestBody::TxnAbort { txn } => self.txn_abort(*txn, trace, frames),
            RequestBody::Ping => ReplyBody::Pong,
            other => {
                ReplyBody::Err(Error::Malformed(format!("storage service cannot handle {other:?}")))
            }
        }
    }
}
