//! Synchronous request/reply on top of the one-sided substrate.
//!
//! An RPC here is exactly the paper's "small request" (Figure 6, step 1):
//! the client eagerly sends an encoded [`Request`] to the server's
//! well-known request queue and waits for a [`Reply`] matched by operation
//! number. Bulk data never flows through this path.
//!
//! The client implements the flow-control loop of §3.2: a server whose
//! queue is full rejects the request ([`Error::ServerBusy`]) and the client
//! backs off and re-sends. [`RpcClient::call`] re-sends the *same* request
//! (one opnum) under `BUSY`, whether the transport refused it or the
//! server answered busy; a busy reply is never cached, so the re-send
//! repeats nothing that happened.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use lwfs_proto::{
    Decode, Encode, Error, OpNum, ProcessId, Reply, ReplyBody, Request, RequestBody, Result,
    TraceContext,
};

use crate::endpoint::Endpoint;
use crate::event::Event;
use crate::retry::{self, RetryPolicy};
use crate::{reply_match, REQUEST_MATCH};

/// The §3.2 back-off of a call refused with `ServerBusy`: 50 µs doubling
/// to 20 ms, for at most one default reply timeout.
const BUSY: RetryPolicy = RetryPolicy {
    base: Duration::from_micros(50),
    cap: Duration::from_millis(20),
    deadline: Duration::from_secs(5),
};

/// Client-side RPC state for one endpoint.
pub struct RpcClient<'a> {
    ep: &'a Endpoint,
    /// Ambient causal context stamped into every outgoing request. Two
    /// atomics rather than a `Mutex<TraceContext>` so the client stays
    /// usable from `&self` across worker threads; the pair is not read
    /// atomically, which is fine — a worker sets it once before a burst of
    /// child calls and the ids only ever travel together.
    trace_id: AtomicU64,
    parent_req_id: AtomicU64,
    /// How long to wait for a reply before giving up (default 5 s).
    pub reply_timeout: Duration,
}

impl<'a> RpcClient<'a> {
    /// Build a client over `ep`. Opnums come from the endpoint's own
    /// allocator ([`Endpoint::next_opnum`]), so every client over one
    /// endpoint — the worker threads of one server, the short-lived
    /// clients a long-lived handle builds per call — draws distinct ones,
    /// and a server's `(origin, opnum)` reply cache can never answer a new
    /// operation with an old one's reply.
    pub fn new(ep: &'a Endpoint) -> Self {
        Self {
            ep,
            trace_id: AtomicU64::new(0),
            parent_req_id: AtomicU64::new(0),
            reply_timeout: Duration::from_secs(5),
        }
    }

    /// Set the ambient [`TraceContext`] propagated into every subsequent
    /// [`call`](Self::call). A server handling a traced request installs
    /// `{trace_id: req.trace.trace_id, parent_req_id: req.req_id}` here
    /// before issuing child requests (ReplShip, verify-through, drop
    /// reports), so the whole fan-out shares one trace. A zero `trace_id`
    /// clears the context (requests revert to self-rooted traces).
    pub fn set_trace(&self, ctx: TraceContext) {
        self.trace_id.store(ctx.trace_id, Ordering::Relaxed);
        self.parent_req_id.store(ctx.parent_req_id, Ordering::Relaxed);
    }

    /// The ambient trace context child calls currently inherit.
    pub fn trace(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id.load(Ordering::Relaxed),
            parent_req_id: self.parent_req_id.load(Ordering::Relaxed),
        }
    }

    pub fn endpoint(&self) -> &Endpoint {
        self.ep
    }

    /// Issue `body` to `server` and wait for the matched reply body.
    ///
    /// Error replies from the server are surfaced as `Err`, except
    /// `ServerBusy` — from the transport or the server — which re-sends
    /// the same request under `BUSY`.
    pub fn call(&self, server: ProcessId, body: RequestBody) -> Result<ReplyBody> {
        self.call_with_token(server, body, Bytes::new())
    }

    /// [`call`](Self::call) with a self-certifying capability token in the
    /// request envelope. An empty token encodes as absent, so
    /// this is exactly `call` for legacy traffic.
    pub fn call_with_token(
        &self,
        server: ProcessId,
        body: RequestBody,
        token: Bytes,
    ) -> Result<ReplyBody> {
        let req = Request::new(self.ep.next_opnum(), self.ep.id(), body)
            .with_trace(self.trace())
            .with_token(token);
        // Encoded once: every re-send is the same bytes.
        let wire = req.to_bytes();
        retry::with_backoff(
            &BUSY,
            |e| matches!(e, Error::ServerBusy),
            || self.send_encoded(server, req.opnum, wire.clone()),
        )
    }

    /// Send the already-built `req` to `server` once and wait for the
    /// reply matched by its opnum: [`send_encoded`](Self::send_encoded)
    /// of its bytes, for a caller that changes the request between
    /// attempts.
    pub fn send_once(&self, server: ProcessId, req: &Request) -> Result<ReplyBody> {
        self.send_encoded(server, req.opnum, req.to_bytes())
    }

    /// Send `wire`, an encoded request numbered `opnum`, to `server` once
    /// and wait for the reply matched by that opnum — the unit every
    /// retry loop repeats. Re-sending one request keeps its opnum, so a
    /// server's reply cache answers a retried mutation instead of applying
    /// it twice; re-sending its bytes encodes it only once.
    pub fn send_encoded(&self, server: ProcessId, opnum: OpNum, wire: Bytes) -> Result<ReplyBody> {
        self.ep.send(server, REQUEST_MATCH, wire)?;
        let want = reply_match(opnum.0);
        let ev = self.ep.recv_match(
            self.reply_timeout,
            |e| matches!(e, Event::Message { match_bits, .. } if *match_bits == want),
        )?;
        let data = ev
            .message_data()
            .ok_or_else(|| Error::Internal("reply event without payload".into()))?
            .clone();
        let reply = Reply::from_bytes(data)?;
        debug_assert_eq!(reply.opnum, opnum);
        reply.into_result()
    }
}

/// Server-side RPC helper: decode requests, send matched replies.
pub struct RpcServer<'a> {
    ep: &'a Endpoint,
}

impl<'a> RpcServer<'a> {
    pub fn new(ep: &'a Endpoint) -> Self {
        Self { ep }
    }

    pub fn endpoint(&self) -> &Endpoint {
        self.ep
    }

    /// Wait for the next incoming request.
    pub fn next_request(&self, timeout: Duration) -> Result<Request> {
        let ev = self.ep.recv_match(
            timeout,
            |e| matches!(e, Event::Message { match_bits, .. } if *match_bits == REQUEST_MATCH),
        )?;
        let data = ev
            .message_data()
            .ok_or_else(|| Error::Internal("request event without payload".into()))?
            .clone();
        Request::from_bytes(data)
    }

    /// Send a reply for `req`.
    pub fn reply(&self, req: &Request, body: ReplyBody) -> Result<()> {
        let rep = Reply::new(req.opnum, body);
        self.ep.send(req.reply_to, reply_match(req.opnum.0), rep.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, NetworkConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn basic_rpc_roundtrip() {
        let net = Network::default();
        let client_ep = net.register(ProcessId::new(0, 0));
        let server_ep = net.register(ProcessId::new(1, 0));
        let server_id = server_ep.id();

        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let srv = RpcServer::new(&server_ep);
            while !stop2.load(Ordering::Relaxed) {
                let Ok(req) = srv.next_request(Duration::from_millis(10)) else { continue };
                let body = match req.body {
                    RequestBody::Ping => ReplyBody::Pong,
                    _ => ReplyBody::Err(Error::Internal("unexpected".into())),
                };
                srv.reply(&req, body).unwrap();
            }
        });

        let client = RpcClient::new(&client_ep);
        for _ in 0..10 {
            assert_eq!(client.call(server_id, RequestBody::Ping).unwrap(), ReplyBody::Pong);
        }
        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn error_reply_surfaces_as_err() {
        let net = Network::default();
        let client_ep = net.register(ProcessId::new(0, 0));
        let server_ep = net.register(ProcessId::new(1, 0));
        let server_id = server_ep.id();

        let handle = std::thread::spawn(move || {
            let srv = RpcServer::new(&server_ep);
            let req = srv.next_request(Duration::from_secs(1)).unwrap();
            srv.reply(&req, ReplyBody::Err(Error::AccessDenied)).unwrap();
        });

        let client = RpcClient::new(&client_ep);
        assert_eq!(client.call(server_id, RequestBody::Ping).unwrap_err(), Error::AccessDenied);
        handle.join().unwrap();
    }

    #[test]
    fn rpc_to_unregistered_process_fails_fast() {
        let net = Network::default();
        let client_ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&client_ep);
        assert_eq!(
            client.call(ProcessId::new(99, 0), RequestBody::Ping).unwrap_err(),
            Error::Unreachable
        );
    }

    #[test]
    fn reply_timeout_when_server_silent() {
        let net = Network::default();
        let client_ep = net.register(ProcessId::new(0, 0));
        let server_ep = net.register(ProcessId::new(1, 0));
        let client = RpcClient::new(&client_ep);
        // Server never drains; queue accepts the request, reply never comes.
        let mut c = client;
        c.reply_timeout = Duration::from_millis(50);
        assert_eq!(c.call(server_ep.id(), RequestBody::Ping).unwrap_err(), Error::Timeout);
    }

    #[test]
    fn busy_transport_triggers_resend_loop() {
        // Queue depth 1: the first unconsumed message blocks the second.
        let net = Network::new(NetworkConfig { eager_queue_depth: 1 });
        let client_ep = net.register(ProcessId::new(0, 0));
        let server_ep = net.register(ProcessId::new(1, 0));
        let server_id = server_ep.id();

        let handle = std::thread::spawn(move || {
            let srv = RpcServer::new(&server_ep);
            // Drain slowly so the client sees at least one rejection.
            for _ in 0..2 {
                std::thread::sleep(Duration::from_millis(30));
                let req = srv.next_request(Duration::from_secs(2)).unwrap();
                srv.reply(&req, ReplyBody::Pong).unwrap();
            }
        });

        let client_ep2 = net.register(ProcessId::new(2, 0));
        let c2 = RpcClient::new(&client_ep2);
        // Fill the queue with one request, then race a second one in.
        let t = std::thread::spawn(move || {
            let c1 = RpcClient::new(&client_ep);
            c1.call(server_id, RequestBody::Ping)
        });
        std::thread::sleep(Duration::from_millis(5));
        let r2 = c2.call(server_id, RequestBody::Ping);
        assert_eq!(r2.unwrap(), ReplyBody::Pong);
        assert!(t.join().unwrap().is_ok());
        handle.join().unwrap();
    }

    #[test]
    fn busy_reply_resends_the_same_request() {
        // The server logic (not the transport) answers busy twice: `call`
        // backs off and re-sends one request, so all three arrivals carry
        // one opnum and the third answer is the result.
        let net = Network::default();
        let client_ep = net.register(ProcessId::new(0, 0));
        let server_ep = net.register(ProcessId::new(1, 0));
        let server_id = server_ep.id();
        let handle = std::thread::spawn(move || {
            let srv = RpcServer::new(&server_ep);
            (0..3)
                .map(|i| {
                    let req = srv.next_request(Duration::from_secs(2)).unwrap();
                    let body =
                        if i < 2 { ReplyBody::Err(Error::ServerBusy) } else { ReplyBody::Pong };
                    srv.reply(&req, body).unwrap();
                    req.opnum
                })
                .collect::<Vec<_>>()
        });
        let client = RpcClient::new(&client_ep);
        assert_eq!(client.call(server_id, RequestBody::Ping).unwrap(), ReplyBody::Pong);
        let seen = handle.join().unwrap();
        assert!(seen.iter().all(|op| *op == seen[0]), "re-sends changed the opnum: {seen:?}");
    }

    #[test]
    fn clients_on_one_endpoint_never_repeat_an_opnum() {
        // Two clients over one endpoint, each built with `new` (as a
        // server's worker threads and a client handle's per-call clients
        // are): their interleaved calls carry distinct opnums, so replies
        // never cross-match and a reply cache keyed by `(origin, opnum)`
        // never confuses two operations.
        let net = Network::default();
        let ep = net.register(ProcessId::new(0, 0));
        let server_ep = net.register(ProcessId::new(1, 0));
        let server_id = server_ep.id();
        let handle = std::thread::spawn(move || {
            let srv = RpcServer::new(&server_ep);
            (0..6)
                .map(|_| {
                    let req = srv.next_request(Duration::from_secs(2)).unwrap();
                    srv.reply(&req, ReplyBody::Pong).unwrap();
                    req.opnum
                })
                .collect::<Vec<_>>()
        });
        let c1 = RpcClient::new(&ep);
        let c2 = RpcClient::new(&ep);
        for i in 0..6 {
            let c = if i % 2 == 0 { &c1 } else { &c2 };
            assert_eq!(c.call(server_id, RequestBody::Ping).unwrap(), ReplyBody::Pong);
        }
        let seen = handle.join().unwrap();
        let mut unique = seen.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seen.len(), "interleaved calls repeated an opnum: {seen:?}");
    }

    #[test]
    fn ambient_trace_context_rides_every_call() {
        let net = Network::default();
        let client_ep = net.register(ProcessId::new(0, 0));
        let server_ep = net.register(ProcessId::new(1, 0));
        let server_id = server_ep.id();

        let handle = std::thread::spawn(move || {
            let srv = RpcServer::new(&server_ep);
            let mut seen = Vec::new();
            for _ in 0..3 {
                let req = srv.next_request(Duration::from_secs(2)).unwrap();
                seen.push((req.req_id, req.trace));
                srv.reply(&req, ReplyBody::Pong).unwrap();
            }
            seen
        });

        let client = RpcClient::new(&client_ep);
        // Untraced: the request self-roots at its own req_id.
        client.call(server_id, RequestBody::Ping).unwrap();
        // Traced: the ambient context overrides the self-root.
        let ctx = TraceContext { trace_id: 0xABCD, parent_req_id: 7 };
        client.set_trace(ctx);
        client.call(server_id, RequestBody::Ping).unwrap();
        // Cleared: back to self-rooted.
        client.set_trace(TraceContext::default());
        client.call(server_id, RequestBody::Ping).unwrap();

        let seen = handle.join().unwrap();
        assert_eq!(seen[0].1, TraceContext { trace_id: seen[0].0, parent_req_id: 0 });
        assert_eq!(seen[1].1, ctx);
        assert_eq!(seen[2].1, TraceContext { trace_id: seen[2].0, parent_req_id: 0 });
    }

    #[test]
    fn interleaved_replies_match_correct_calls() {
        // Server answers requests out of order; opnum matching must pair
        // each reply with its call.
        let net = Network::default();
        let client_ep = Arc::new(net.register(ProcessId::new(0, 0)));
        let server_ep = net.register(ProcessId::new(1, 0));
        let server_id = server_ep.id();

        let handle = std::thread::spawn(move || {
            let srv = RpcServer::new(&server_ep);
            let r1 = srv.next_request(Duration::from_secs(2)).unwrap();
            let r2 = srv.next_request(Duration::from_secs(2)).unwrap();
            // Reply in reverse order.
            srv.reply(&r2, ReplyBody::WriteDone { len: 2 }).unwrap();
            srv.reply(&r1, ReplyBody::WriteDone { len: 1 }).unwrap();
        });

        // Two calls from the same endpoint, issued from two threads.
        let ep2 = Arc::clone(&client_ep);
        let t1 = std::thread::spawn(move || {
            let c = RpcClient::new(&ep2);
            c.call(server_id, RequestBody::Ping)
        });
        std::thread::sleep(Duration::from_millis(10));
        // Second call: new client struct but same endpoint; the
        // endpoint's allocator keeps the two opnums distinct.
        let c2 = RpcClient::new(&client_ep);
        let r2 = c2.call(server_id, RequestBody::Ping).unwrap();
        let r1 = t1.join().unwrap().unwrap();
        assert_eq!(r1, ReplyBody::WriteDone { len: 1 });
        assert_eq!(r2, ReplyBody::WriteDone { len: 2 });
        handle.join().unwrap();
    }
}
