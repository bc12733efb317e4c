//! The socket fabric: portals one-sided semantics over real TCP.
//!
//! One [`SocketFabric`] serves one [`Network`] (one node): an acceptor
//! thread on the node's listening socket, and per connection a reader
//! thread (frames in → local delivery) and a writer thread draining a
//! **bounded** frame queue — the transport-level analogue of the eager
//! queue, so a peer that cannot drain its socket back-pressures senders
//! with the same [`Error::ServerBusy`] the in-process fabric produces.
//!
//! Connections are established two ways, mirroring the paper's
//! connectionless addressing discipline:
//!
//! * **Manifest dialing.** Service nodes are listed in the [`Manifest`];
//!   the first operation addressed to one dials it and the connection is
//!   kept, multiplexed, for every future operation toward that node.
//! * **Learned routes.** Compute processes are *not* dialable. A server
//!   records which connection each `from` nid last arrived on and routes
//!   replies — and server-directed one-sided pulls from client memory —
//!   back over it. Servers hold no per-client connection setup of their
//!   own, so a client crash costs them nothing.
//!
//! Eager sends are fire-and-forget (a full *remote* queue loses the frame,
//! like a NIC event-queue overflow; the sender finds out via its RPC
//! timeout). One-sided put/get block on a token-matched ack frame with a
//! deadline, because their in-process counterparts are synchronous.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lwfs_obs::Counter;
use lwfs_portals::{Network, RemoteFabric};
use lwfs_proto::{Error, NodeId, ProcessId, Result};
use parking_lot::{Condvar, Mutex};

use crate::frame::{FabricMsg, FrameReader};
use crate::manifest::Manifest;

/// Tunables for one node's socket fabric.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Frames a connection's write queue holds before senders are refused
    /// with [`Error::ServerBusy`] — per-connection write backpressure.
    pub write_queue_depth: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self { write_queue_depth: 4096 }
    }
}

/// Deadline for one-sided put/get round trips (a lost peer surfaces as
/// [`Error::Timeout`], which every caller treats as transient).
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Deadline for establishing a connection to a manifest peer.
const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

struct WriteQueue {
    frames: std::collections::VecDeque<Bytes>,
    closed: bool,
}

/// One live connection: the writer side. The reader thread owns its own
/// clone of the stream.
struct Conn {
    queue: Mutex<WriteQueue>,
    cond: Condvar,
    capacity: usize,
    stream: TcpStream,
}

impl Conn {
    fn new(stream: TcpStream, capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            queue: Mutex::new(WriteQueue {
                frames: std::collections::VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
            stream,
        })
    }

    /// Queue a frame for the writer thread; `false` when the bounded
    /// queue is full or the connection is gone.
    fn enqueue(&self, frame: Bytes) -> bool {
        let mut q = self.queue.lock();
        if q.closed || q.frames.len() >= self.capacity {
            return false;
        }
        q.frames.push_back(frame);
        drop(q);
        self.cond.notify_all();
        true
    }

    fn closed(&self) -> bool {
        self.queue.lock().closed
    }

    fn close(&self) {
        self.queue.lock().closed = true;
        self.cond.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

struct Inner {
    nid: NodeId,
    net: Network,
    config: FabricConfig,
    manifest: Manifest,
    local_addr: SocketAddr,
    /// nid → connection, populated by manifest dialing and learned routes.
    routes: Mutex<HashMap<u32, Arc<Conn>>>,
    /// Token → completion slot for in-flight put/get round trips.
    pending: Mutex<HashMap<u64, SyncSender<Result<Bytes>>>>,
    tokens: AtomicU64,
    shutdown: AtomicBool,
    frames_sent: Arc<Counter>,
    frames_recv: Arc<Counter>,
    send_rejects: Arc<Counter>,
    stream_errors: Arc<Counter>,
}

/// A node's socket transport, implementing [`RemoteFabric`] for its
/// [`Network`]. Build with [`SocketFabric::attach`].
pub struct SocketFabric {
    inner: Arc<Inner>,
}

impl SocketFabric {
    /// Bind this node's listener (its manifest address, or an ephemeral
    /// port when the manifest does not list it), start the acceptor, and
    /// attach the fabric to `net` as its remote transport.
    pub fn attach(
        net: &Network,
        nid: NodeId,
        manifest: Manifest,
        config: FabricConfig,
    ) -> Result<Arc<SocketFabric>> {
        let listener = match manifest.addr_of(nid) {
            Some(addr) => TcpListener::bind(addr)
                .map_err(|e| Error::StorageIo(format!("fabric bind {addr}: {e}")))?,
            None => TcpListener::bind("127.0.0.1:0")
                .map_err(|e| Error::StorageIo(format!("fabric bind ephemeral: {e}")))?,
        };
        Self::attach_with_listener(net, nid, listener, manifest, config)
    }

    /// Like [`attach`](Self::attach) with a pre-bound listener — used when
    /// the caller allocated ports first and built the manifest from them.
    pub fn attach_with_listener(
        net: &Network,
        nid: NodeId,
        listener: TcpListener,
        manifest: Manifest,
        config: FabricConfig,
    ) -> Result<Arc<SocketFabric>> {
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::StorageIo(format!("fabric local addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::StorageIo(format!("fabric listener nonblocking: {e}")))?;
        let obs = net.obs();
        let inner = Arc::new(Inner {
            nid,
            net: net.clone(),
            config,
            manifest,
            local_addr,
            routes: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            tokens: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            frames_sent: obs.counter("fabric.frames_sent"),
            frames_recv: obs.counter("fabric.frames_recv"),
            send_rejects: obs.counter("fabric.send_rejects"),
            stream_errors: obs.counter("fabric.stream_errors"),
        });
        let accept_inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name(format!("fabric-accept-{}", nid.0))
            .spawn(move || accept_loop(accept_inner, listener))
            .map_err(|e| Error::Internal(format!("spawning acceptor: {e}")))?;
        let fabric = Arc::new(SocketFabric { inner });
        net.set_remote(Arc::clone(&fabric) as Arc<dyn RemoteFabric>);
        Ok(fabric)
    }

    /// The address this node's listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// This node's id.
    pub fn nid(&self) -> NodeId {
        self.inner.nid
    }

    /// Tear the fabric down: detach from the network, close every
    /// connection and stop the acceptor. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.net.clear_remote();
        let conns: Vec<Arc<Conn>> = self.inner.routes.lock().drain().map(|(_, c)| c).collect();
        for conn in conns {
            conn.close();
        }
        // Fail in-flight one-sided operations instead of leaving them to
        // their deadline.
        for (_, tx) in self.inner.pending.lock().drain() {
            let _ = tx.try_send(Err(Error::Unreachable));
        }
    }
}

impl Drop for SocketFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl RemoteFabric for SocketFabric {
    fn send(&self, from: ProcessId, to: ProcessId, match_bits: u64, data: Bytes) -> Result<()> {
        let msg = FabricMsg::Send { from, to, match_bits, data };
        let conn = self.inner.route(to.nid)?;
        if conn.enqueue(msg.to_frame()) {
            self.inner.frames_sent.inc();
            Ok(())
        } else {
            self.inner.send_rejects.inc();
            self.inner.net.stats().record_reject();
            Err(Error::ServerBusy)
        }
    }

    fn put(
        &self,
        from: ProcessId,
        to: ProcessId,
        match_bits: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let msg = FabricMsg::Put {
            token: 0, // patched below
            from,
            to,
            match_bits,
            offset,
            data: Bytes::copy_from_slice(data),
        };
        self.inner.roundtrip(to.nid, msg).map(|_| ())
    }

    fn get_into(
        &self,
        from: ProcessId,
        to: ProcessId,
        match_bits: u64,
        offset: u64,
        len: usize,
        dst: &mut Vec<u8>,
    ) -> Result<()> {
        let msg = FabricMsg::Get { token: 0, from, to, match_bits, offset, len: len as u64 };
        let data = self.inner.roundtrip(to.nid, msg)?;
        if data.len() != len {
            return Err(Error::Malformed(format!(
                "get reply carries {} bytes for a {len}-byte request",
                data.len()
            )));
        }
        dst.extend_from_slice(&data);
        Ok(())
    }
}

impl Inner {
    /// The connection serving `nid`: a live learned/dialed route, or a
    /// fresh dial of its manifest address.
    fn route(self: &Arc<Self>, nid: NodeId) -> Result<Arc<Conn>> {
        if let Some(conn) = self.routes.lock().get(&nid.0) {
            if !conn.closed() {
                return Ok(Arc::clone(conn));
            }
        }
        if nid == self.nid {
            return Err(Error::Internal(format!("fabric routing loop: {nid:?} is this node")));
        }
        let addr = self.manifest.addr_of(nid).ok_or(Error::Unreachable)?;
        let stream =
            TcpStream::connect_timeout(&addr, DIAL_TIMEOUT).map_err(|_| Error::Unreachable)?;
        let conn = self.start_conn(stream)?;
        // Open with Hello so the peer can route replies before any
        // addressed frame arrives.
        conn.enqueue(FabricMsg::Hello { nid: self.nid }.to_frame());
        let mut routes = self.routes.lock();
        match routes.get(&nid.0) {
            // A concurrent dial (or an inbound connection from the same
            // peer) won the slot: keep the established route, fold ours.
            Some(existing) if !existing.closed() => {
                let existing = Arc::clone(existing);
                drop(routes);
                conn.close();
                Ok(existing)
            }
            _ => {
                routes.insert(nid.0, Arc::clone(&conn));
                Ok(conn)
            }
        }
    }

    /// Spawn reader + writer threads for `stream`.
    fn start_conn(self: &Arc<Self>, stream: TcpStream) -> Result<Arc<Conn>> {
        stream.set_nodelay(true).ok();
        let reader_stream = stream
            .try_clone()
            .map_err(|e| Error::StorageIo(format!("fabric stream clone: {e}")))?;
        let conn = Conn::new(stream, self.config.write_queue_depth);
        let w_conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("fabric-write-{}", self.nid.0))
            .spawn(move || write_loop(w_conn))
            .map_err(|e| Error::Internal(format!("spawning writer: {e}")))?;
        let r_inner = Arc::clone(self);
        let r_conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("fabric-read-{}", self.nid.0))
            .spawn(move || read_loop(r_inner, r_conn, reader_stream))
            .map_err(|e| Error::Internal(format!("spawning reader: {e}")))?;
        Ok(conn)
    }

    /// Issue a token-matched put/get and wait for its ack.
    fn roundtrip(self: &Arc<Self>, nid: NodeId, mut msg: FabricMsg) -> Result<Bytes> {
        let conn = self.route(nid)?;
        let token = self.tokens.fetch_add(1, Ordering::Relaxed);
        match &mut msg {
            FabricMsg::Put { token: t, .. } | FabricMsg::Get { token: t, .. } => *t = token,
            _ => unreachable!("roundtrip is only for put/get"),
        }
        let (tx, rx) = sync_channel(1);
        self.pending.lock().insert(token, tx);
        if !conn.enqueue(msg.to_frame()) {
            self.pending.lock().remove(&token);
            self.send_rejects.inc();
            return Err(Error::ServerBusy);
        }
        self.frames_sent.inc();
        match rx.recv_timeout(IO_TIMEOUT) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                self.pending.lock().remove(&token);
                Err(Error::Timeout)
            }
        }
    }

    fn complete(&self, token: u64, result: Result<Bytes>) {
        if let Some(tx) = self.pending.lock().remove(&token) {
            // The waiter may have timed out concurrently; a dead receiver
            // is not an error.
            let _ = tx.try_send(result);
        }
    }

    /// Record that frames from `nid` arrive on `conn`, so replies and
    /// server-directed pulls ride the same connection back.
    fn learn_route(&self, nid: NodeId, conn: &Arc<Conn>) {
        let mut routes = self.routes.lock();
        match routes.get(&nid.0) {
            Some(existing) if !existing.closed() => {}
            _ => {
                routes.insert(nid.0, Arc::clone(conn));
            }
        }
    }

    fn dispatch(self: &Arc<Self>, msg: FabricMsg, conn: &Arc<Conn>) {
        self.frames_recv.inc();
        match msg {
            FabricMsg::Hello { nid } => self.learn_route(nid, conn),
            FabricMsg::Send { from, to, match_bits, data } => {
                self.learn_route(from.nid, conn);
                // Fire-and-forget: an unreachable/unknown target or a full
                // eager queue loses the message, and the sender discovers
                // it through its reply timeout — wire behavior is
                // identical to the in-process fabric's silent drop.
                let _ = self.net.deliver_send(from, to, match_bits, data);
            }
            FabricMsg::Put { token, from, to, match_bits, offset, data } => {
                self.learn_route(from.nid, conn);
                let err = self.net.deliver_put(from, to, match_bits, offset, &data).err();
                let _ = conn.enqueue(FabricMsg::PutAck { token, err }.to_frame());
            }
            FabricMsg::Get { token, from, to, match_bits, offset, len } => {
                self.learn_route(from.nid, conn);
                let reply = match self.net.deliver_get(from, to, match_bits, offset, len as usize) {
                    Ok(data) => FabricMsg::GetReply { token, err: None, data: Bytes::from(data) },
                    Err(e) => FabricMsg::GetReply { token, err: Some(e), data: Bytes::new() },
                };
                let _ = conn.enqueue(reply.to_frame());
            }
            FabricMsg::PutAck { token, err } => {
                self.complete(token, err.map_or(Ok(Bytes::new()), Err));
            }
            FabricMsg::GetReply { token, err, data } => {
                self.complete(
                    token,
                    match err {
                        Some(e) => Err(e),
                        None => Ok(data),
                    },
                );
            }
        }
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The peer announces itself (Hello or its first addressed
                // frame); until then the connection serves inbound only.
                let _ = inner.start_conn(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

fn write_loop(conn: Arc<Conn>) {
    let mut stream = &conn.stream;
    loop {
        let frame = {
            let mut q = conn.queue.lock();
            loop {
                if let Some(f) = q.frames.pop_front() {
                    break f;
                }
                if q.closed {
                    return;
                }
                conn.cond.wait(&mut q);
            }
        };
        if stream.write_all(&frame).is_err() {
            conn.close();
            return;
        }
    }
}

fn read_loop(inner: Arc<Inner>, conn: Arc<Conn>, mut stream: TcpStream) {
    stream.set_read_timeout(Some(Duration::from_millis(100))).ok();
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        if inner.shutdown.load(Ordering::SeqCst) || conn.closed() {
            conn.close();
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                conn.close();
                return;
            }
            Ok(n) => {
                frames.feed(&buf[..n]);
                loop {
                    match frames.next_msg() {
                        Ok(Some(msg)) => inner.dispatch(msg, &conn),
                        Ok(None) => break,
                        Err(_) => {
                            // Poisoned stream (CRC mismatch / garbage):
                            // frame alignment is unrecoverable, drop the
                            // connection. Peers re-dial and retries cover
                            // the lost in-flight operations.
                            inner.stream_errors.inc();
                            conn.close();
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                conn.close();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_portals::{MdOptions, MemDesc, RpcClient, RpcServer};
    use lwfs_proto::{ReplyBody, RequestBody};

    /// Two nodes linked over localhost: (client net+fabric, server
    /// net+fabric, server manifest nid).
    fn linked_pair() -> (Network, Arc<SocketFabric>, Network, Arc<SocketFabric>) {
        let server_net = Network::default();
        let client_net = server_net.sibling();
        let server_fabric = SocketFabric::attach(
            &server_net,
            NodeId(1100),
            Manifest::new(),
            FabricConfig::default(),
        )
        .unwrap();
        let mut manifest = Manifest::new();
        manifest.insert(NodeId(1100), server_fabric.local_addr());
        let client_fabric =
            SocketFabric::attach(&client_net, NodeId(3), manifest, FabricConfig::default())
                .unwrap();
        (client_net, client_fabric, server_net, server_fabric)
    }

    #[test]
    fn rpc_roundtrip_crosses_the_wire() {
        let (client_net, client_fabric, server_net, server_fabric) = linked_pair();
        let server_ep = server_net.register(ProcessId::new(1100, 0));
        let server_id = server_ep.id();
        let handle = std::thread::spawn(move || {
            let srv = RpcServer::new(&server_ep);
            for _ in 0..3 {
                let req = srv.next_request(Duration::from_secs(5)).unwrap();
                srv.reply(&req, ReplyBody::Pong).unwrap();
            }
        });
        // The client nid is NOT in any manifest: replies ride the learned
        // route its own requests established.
        let ep = client_net.register(ProcessId::new(3, 0));
        let client = RpcClient::new(&ep);
        for _ in 0..3 {
            assert_eq!(client.call(server_id, RequestBody::Ping).unwrap(), ReplyBody::Pong);
        }
        handle.join().unwrap();
        client_fabric.shutdown();
        server_fabric.shutdown();
    }

    #[test]
    fn one_sided_put_and_get_cross_the_wire() {
        let (client_net, client_fabric, server_net, server_fabric) = linked_pair();
        let _server_ep = server_net.register(ProcessId::new(1100, 0));
        let server_holder = server_net.register(ProcessId::new(1100, 1));
        server_holder.post_md(0x77, MemDesc::zeroed(16, MdOptions::read_write_events())).unwrap();
        let ep = client_net.register(ProcessId::new(3, 0));
        ep.put(server_holder.id(), 0x77, 4, b"wire").unwrap();
        let got = ep.get(server_holder.id(), 0x77, 4, 4).unwrap();
        assert_eq!(&got, b"wire");
        // The remote side saw real one-sided completions.
        assert_eq!(server_holder.recv(Duration::from_secs(1)).unwrap().match_bits(), 0x77);
        client_fabric.shutdown();
        server_fabric.shutdown();
    }

    const CHUNK: usize = 256 * 1024;

    /// One scripted series of `get_into`s against a one-shot-style
    /// descriptor; returns what landed and what the counters saw.
    fn get_into_script(
        ep: &lwfs_portals::Endpoint,
        holder: &lwfs_portals::Endpoint,
        stats: &lwfs_portals::NetStats,
    ) -> (Vec<Vec<u8>>, u64, u64) {
        let pattern: Vec<u8> = (0..4 * CHUNK).map(|i| (i % 251) as u8).collect();
        let opts = MdOptions { unlink_after: Some(5), ..MdOptions::for_remote_get() };
        holder.post_md(0x51, MemDesc::from_vec(pattern.clone(), opts)).unwrap();
        let (gets, bytes) = (stats.gets.get(), stats.bytes.get());
        let mut landed = Vec::new();
        // Straddling a chunk boundary, a single byte, and a range ending
        // exactly at the descriptor's end, each after bytes `dst` holds.
        for (offset, len) in [(CHUNK - 17, CHUNK), (0, 1), (3 * CHUNK - 1, CHUNK + 1)] {
            let mut dst = Vec::with_capacity(len + 3);
            dst.extend_from_slice(b"pre");
            ep.get_into(holder.id(), 0x51, offset as u64, len, &mut dst).unwrap();
            assert_eq!((&dst[..3], &dst[3..]), (&b"pre"[..], &pattern[offset..offset + len]));
            landed.push(dst);
        }
        // One byte too far: refused, `dst` untouched, and not counted as
        // one of the descriptor's five operations.
        let mut dst = vec![0xEEu8; 100];
        let err = ep.get_into(holder.id(), 0x51, (4 * CHUNK - 99) as u64, 100, &mut dst);
        assert!(matches!(err.unwrap_err(), Error::Malformed(_)));
        assert_eq!(dst, [0xEE; 100]);
        // The fifth get is the last: the descriptor unlinks itself.
        for offset in [7, CHUNK] {
            assert_eq!(holder.posted_mds(), 1);
            landed.push(ep.get(holder.id(), 0x51, offset as u64, 32).unwrap());
        }
        assert_eq!(holder.posted_mds(), 0);
        assert!(ep.get_into(holder.id(), 0x51, 0, 1, &mut Vec::new()).is_err());
        (landed, stats.gets.get() - gets, stats.bytes.get() - bytes)
    }

    #[test]
    fn get_into_is_the_same_over_the_wire_and_in_process() {
        let local_net = Network::default();
        let local_holder = local_net.register(ProcessId::new(1100, 1));
        let local_ep = local_net.register(ProcessId::new(3, 0));
        let local = get_into_script(&local_ep, &local_holder, local_net.stats());

        let (client_net, client_fabric, server_net, server_fabric) = linked_pair();
        let holder = server_net.register(ProcessId::new(1100, 1));
        let ep = client_net.register(ProcessId::new(3, 0));
        let wire = get_into_script(&ep, &holder, server_net.stats());

        assert_eq!(wire.0, local.0, "same bytes on both transports");
        assert_eq!((wire.1, wire.2), (local.1, local.2), "same get and byte counts");
        assert_eq!(local.1, 5);
        client_fabric.shutdown();
        server_fabric.shutdown();
    }

    /// A multi-chunk read as a storage server pushes it — chunk by chunk
    /// into a descriptor that starts unfilled — then a gap, a piece out of
    /// order and a refused overrun; returns the bytes the owner takes out.
    fn read_script(pusher: &lwfs_portals::Endpoint, owner: &lwfs_portals::Endpoint) -> Vec<u8> {
        let object: Vec<u8> = (0..3 * CHUNK + 100).map(|i| (i * 7 % 253) as u8).collect();
        owner.post_md(0x61, MemDesc::zeroed(4 * CHUNK, MdOptions::for_remote_put())).unwrap();
        for (at, piece) in object.chunks(CHUNK).enumerate() {
            pusher.put(owner.id(), 0x61, (at * CHUNK) as u64, piece).unwrap();
        }
        let tail = (4 * CHUNK - 50) as u64;
        pusher.put(owner.id(), 0x61, tail, &[1; 50]).unwrap();
        pusher.put(owner.id(), 0x61, tail - 200, &[2; 10]).unwrap();
        let err = pusher.put(owner.id(), 0x61, tail, &[3; 51]).unwrap_err();
        assert!(matches!(err, Error::Malformed(_)), "{err:?}");
        let got = owner.unlink_md(0x61).unwrap().into_vec();
        assert_eq!(got.len(), 4 * CHUNK);
        assert_eq!(&got[..object.len()], &object[..]);
        got
    }

    #[test]
    fn a_multi_chunk_read_is_the_same_over_the_wire_and_in_process() {
        let local_net = Network::default();
        let local = read_script(
            &local_net.register(ProcessId::new(3, 0)),
            &local_net.register(ProcessId::new(1100, 1)),
        );
        // The dialing side pushes: the listening side learns routes only
        // from the frames it receives.
        let (client_net, client_fabric, server_net, server_fabric) = linked_pair();
        let wire = read_script(
            &client_net.register(ProcessId::new(3, 0)),
            &server_net.register(ProcessId::new(1100, 1)),
        );
        assert!(wire == local, "same bytes on both transports");
        let mut want = vec![0u8; 4 * CHUNK];
        want[4 * CHUNK - 250..4 * CHUNK - 240].fill(2);
        want[4 * CHUNK - 50..].fill(1);
        assert!(local[3 * CHUNK + 100..] == want[3 * CHUNK + 100..], "zeros but for the two puts");
        client_fabric.shutdown();
        server_fabric.shutdown();
    }

    #[test]
    fn md_permissions_travel_back_as_errors() {
        let (client_net, client_fabric, _server_net, server_fabric) = linked_pair();
        let server_net = &_server_net;
        let holder = server_net.register(ProcessId::new(1100, 0));
        holder.post_md(0x9, MemDesc::zeroed(8, MdOptions::for_remote_get())).unwrap();
        let ep = client_net.register(ProcessId::new(3, 0));
        assert_eq!(ep.put(holder.id(), 0x9, 0, b"x").unwrap_err(), Error::AccessDenied);
        assert!(matches!(ep.get(holder.id(), 0x999, 0, 1).unwrap_err(), Error::Malformed(_)));
        client_fabric.shutdown();
        server_fabric.shutdown();
    }

    #[test]
    fn unknown_nid_is_unreachable_and_dead_peer_times_out() {
        let (client_net, client_fabric, _server_net, server_fabric) = linked_pair();
        let ep = client_net.register(ProcessId::new(3, 0));
        // nid 42 is in no manifest and never spoke to us.
        assert_eq!(
            ep.send(ProcessId::new(42, 0), 1, Bytes::from_static(b"x")).unwrap_err(),
            Error::Unreachable
        );
        // A one-sided op to a manifest peer whose process never answers
        // (no registered endpoint) comes back as a remote error, not a
        // hang.
        let err = ep.put(ProcessId::new(1100, 9), 1, 0, b"x").unwrap_err();
        assert_eq!(err, Error::Unreachable);
        client_fabric.shutdown();
        server_fabric.shutdown();
    }

    #[test]
    fn write_backpressure_surfaces_as_server_busy() {
        // A connection whose peer never drains: fill the bounded write
        // queue and the next send must refuse with ServerBusy, the same
        // error the in-process eager queue produces.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut manifest = Manifest::new();
        manifest.insert(NodeId(1100), addr);
        let net = Network::default();
        let fabric =
            SocketFabric::attach(&net, NodeId(3), manifest, FabricConfig { write_queue_depth: 4 })
                .unwrap();
        let ep = net.register(ProcessId::new(3, 0));
        // Accept the dial but never read: the kernel buffers a little,
        // then the writer thread blocks and the queue fills. The holder
        // thread keeps the peer socket open until the test finishes.
        let (done_tx, done_rx) = sync_channel::<()>(0);
        let holder = std::thread::spawn(move || {
            let (_peer, _) = listener.accept().unwrap();
            let _ = done_rx.recv();
        });
        let payload = Bytes::from(vec![0u8; 256 * 1024]);
        let mut saw_busy = false;
        for _ in 0..256 {
            match ep.send(ProcessId::new(1100, 0), 1, payload.clone()) {
                Ok(()) => continue,
                Err(Error::ServerBusy) => {
                    saw_busy = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(saw_busy, "bounded write queue never pushed back");
        fabric.shutdown();
        drop(done_tx);
        holder.join().unwrap();
    }
}
