//! The socket fabric: portals one-sided semantics over real TCP.
//!
//! One [`SocketFabric`] serves one [`Network`] (one node): an acceptor
//! thread on the node's listening socket, and per connection a reader
//! thread (frames in → local delivery) and a writer thread. A thread that
//! issues a frame — an eager send, a put, a get, the dial's `Hello` —
//! writes it itself, whole, under the connection's write lock, with
//! `IO_TIMEOUT` as the socket's write timeout. Only the frames a reader
//! produces (put acks, get replies, and a scrape answered at delivery) go
//! through a **bounded** queue to the writer thread, so a reader never
//! blocks in `write(2)` on a peer that may itself be blocked writing to
//! it. A full queue, or a write that fails or times out (which closes the
//! connection: frame alignment is lost), refuses the sender with the same
//! [`Error::ServerBusy`] the in-process eager queue produces.
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

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lwfs_obs::Counter;
use lwfs_portals::{Network, RemoteFabric};
use lwfs_proto::{frame, Error, NodeId, ProcessId, Result};
use parking_lot::{Condvar, Mutex};

use crate::frame::{FabricMsg, FrameReader, GetReplyRef, PutRef};
use crate::manifest::Manifest;

/// Tunables for one node's socket fabric.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Frames a connection's reader-side queue (put acks, get replies,
    /// scrape answers) holds before more are refused with
    /// [`Error::ServerBusy`]. Frames a caller issues are written by the
    /// caller and never queue.
    pub write_queue_depth: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self { write_queue_depth: 4096 }
    }
}

/// Deadline for one-sided put/get round trips (a lost peer surfaces as
/// [`Error::Timeout`], which every caller treats as transient), and the
/// sockets' write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Deadline for establishing a connection to a manifest peer.
const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

thread_local! {
    /// Set on reader threads: what they send takes the writer's queue.
    static ON_READER: Cell<bool> = const { Cell::new(false) };
}

struct WriteQueue {
    frames: VecDeque<Bytes>,
    closed: bool,
}

/// One live connection: the writing side. The reader thread owns its own
/// clone of the stream.
struct Conn {
    /// Held across each whole frame written, by a caller or the writer.
    write: Mutex<()>,
    queue: Mutex<WriteQueue>,
    cond: Condvar,
    capacity: usize,
    stream: TcpStream,
}

impl Conn {
    fn new(stream: TcpStream, capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            write: Mutex::new(()),
            queue: Mutex::new(WriteQueue { frames: VecDeque::new(), closed: false }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
            stream,
        })
    }

    /// Write `frame` from the calling thread; `false` when the connection
    /// is gone or the write fails or times out, which closes it.
    fn write(&self, frame: &[u8]) -> bool {
        let written = {
            let _turn = self.write.lock();
            !self.closed() && (&self.stream).write_all(frame).is_ok()
        };
        if !written {
            self.close();
        }
        written
    }

    /// Write `frame` now, or — on a reader thread — queue it for the
    /// writer thread; `false` when it cannot go.
    fn send(&self, frame: Bytes) -> bool {
        if ON_READER.get() {
            self.enqueue(frame)
        } else {
            self.write(&frame)
        }
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
        let conn = self.inner.route(to.nid)?;
        if conn.send(FabricMsg::Send { from, to, match_bits, data }.to_frame()) {
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
        let frame = |token| frame::encode(&PutRef { token, from, to, match_bits, offset, data });
        self.inner.roundtrip(to.nid, frame).map(|_| ())
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
        let frame = |token| {
            FabricMsg::Get { token, from, to, match_bits, offset, len: len as u64 }.to_frame()
        };
        let data = self.inner.roundtrip(to.nid, frame)?;
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
        // Open with Hello, before anyone else can write, so the peer can
        // route replies before any addressed frame arrives.
        if !conn.write(&FabricMsg::Hello { nid: self.nid }.to_frame()) {
            return Err(Error::Unreachable);
        }
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
        stream.set_write_timeout(Some(IO_TIMEOUT)).ok();
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

    /// Issue a token-matched put/get, framed by `frame` for its token, and
    /// wait for its ack.
    fn roundtrip(self: &Arc<Self>, nid: NodeId, frame: impl FnOnce(u64) -> Bytes) -> Result<Bytes> {
        let conn = self.route(nid)?;
        let token = self.tokens.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = sync_channel(1);
        self.pending.lock().insert(token, tx);
        if !conn.send(frame(token)) {
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
                let read = |data: &[u8]| frame::encode(&GetReplyRef { token, data });
                let reply = self
                    .net
                    .deliver_get(from, to, match_bits, offset, len as usize, read)
                    .unwrap_or_else(|e| {
                        FabricMsg::GetReply { token, err: Some(e), data: Bytes::new() }.to_frame()
                    });
                let _ = conn.enqueue(reply);
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

/// Drain the reader's queue onto the socket.
fn write_loop(conn: Arc<Conn>) {
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
        if !conn.write(&frame) {
            return;
        }
    }
}

fn read_loop(inner: Arc<Inner>, conn: Arc<Conn>, mut stream: TcpStream) {
    ON_READER.set(true);
    stream.set_read_timeout(Some(Duration::from_millis(100))).ok();
    let mut frames = FrameReader::new();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) || conn.closed() {
            conn.close();
            return;
        }
        match frames.read_from(&mut stream) {
            Ok(0) => {
                conn.close();
                return;
            }
            Ok(_) => loop {
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
            },
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
    fn the_first_frame_on_a_dialed_connection_is_hello() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut manifest = Manifest::new();
        manifest.insert(NodeId(1100), listener.local_addr().unwrap());
        let net = Network::default();
        let fabric =
            SocketFabric::attach(&net, NodeId(3), manifest, FabricConfig::default()).unwrap();
        let ep = net.register(ProcessId::new(3, 0));
        ep.send(ProcessId::new(1100, 0), 1, Bytes::from_static(b"first")).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut frames = FrameReader::new();
        let mut got = Vec::new();
        while got.len() < 2 {
            assert!(frames.read_from(&mut peer).unwrap() > 0, "connection closed early");
            while let Some(msg) = frames.next_msg().unwrap() {
                got.push(msg);
            }
        }
        assert_eq!(got[0], FabricMsg::Hello { nid: NodeId(3) });
        assert!(matches!(&got[1], FabricMsg::Send { data, .. } if data == b"first"));
        fabric.shutdown();
    }

    #[test]
    fn two_way_saturation_moves_every_byte_and_finishes() {
        // Both nodes dial each other, and threads on each issue 256 KiB
        // puts and gets and RPCs at the other at once, so both directions
        // of both connections carry bulk frames from callers and replies
        // from readers together. Readers only queue what they send, so
        // neither side can end up blocked writing to a peer blocked
        // writing back.
        const NODES: [u32; 2] = [1100, 1101];
        const THREADS: u32 = 3;
        const ROUNDS: usize = 12;
        let nets = [Network::default(), Network::default()];
        let listeners = NODES.map(|_| TcpListener::bind("127.0.0.1:0").unwrap());
        let mut manifest = Manifest::new();
        for (nid, l) in NODES.iter().zip(&listeners) {
            manifest.insert(NodeId(*nid), l.local_addr().unwrap());
        }
        let fabrics: Vec<Arc<SocketFabric>> = nets
            .iter()
            .zip(NODES)
            .zip(listeners)
            .map(|((net, nid), l)| {
                let (m, c) = (manifest.clone(), FabricConfig::default());
                SocketFabric::attach_with_listener(net, NodeId(nid), l, m, c).unwrap()
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let mut servers = Vec::new();
        for (net, nid) in nets.iter().zip(NODES) {
            let ep = net.register(ProcessId::new(nid, 0));
            let stop = Arc::clone(&stop);
            servers.push(std::thread::spawn(move || {
                let srv = RpcServer::new(&ep);
                while !stop.load(Ordering::SeqCst) {
                    if let Ok(req) = srv.next_request(Duration::from_millis(50)) {
                        srv.reply(&req, ReplyBody::Pong).unwrap();
                    }
                }
            }));
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (mut holders, mut workers) = (Vec::new(), Vec::new());
        for (side, net) in nets.iter().enumerate() {
            let peer = NODES[1 - side];
            for t in 1..=THREADS {
                // This thread's target descriptor, posted on the peer.
                let holder = nets[1 - side].register(ProcessId::new(peer, 100 + t));
                let opts = MdOptions { deliver_events: false, ..MdOptions::read_write_events() };
                holder.post_md(7, MemDesc::zeroed(CHUNK, opts)).unwrap();
                let target = holder.id();
                holders.push(holder);
                let ep = net.register(ProcessId::new(NODES[side], 10 + t));
                let done_tx = done_tx.clone();
                workers.push(std::thread::spawn(move || {
                    let client = RpcClient::new(&ep);
                    for round in 0..ROUNDS {
                        let salt = (round as u32 * 31 + t * 7 + side as u32) as usize;
                        let data: Vec<u8> = (0..CHUNK).map(|i| (i * 13 + salt) as u8).collect();
                        ep.put(target, 7, 0, &data).unwrap();
                        let mut back = Vec::with_capacity(CHUNK);
                        ep.get_into(target, 7, 0, CHUNK, &mut back).unwrap();
                        assert!(back == data, "round {round} came back different");
                        let server = ProcessId::new(peer, 0);
                        assert_eq!(
                            client.call(server, RequestBody::Ping).unwrap(),
                            ReplyBody::Pong
                        );
                    }
                    done_tx.send(()).unwrap();
                }));
            }
        }
        for _ in 0..2 * THREADS {
            done_rx.recv_timeout(Duration::from_secs(60)).expect("a worker stalled or failed");
        }
        stop.store(true, Ordering::SeqCst);
        for thread in workers.into_iter().chain(servers) {
            thread.join().unwrap();
        }
        for net in &nets {
            for name in ["fabric.send_rejects", "fabric.stream_errors"] {
                assert_eq!(net.obs().counter(name).get(), 0, "{name}");
            }
        }
        for fabric in &fabrics {
            fabric.shutdown();
        }
    }

    #[test]
    fn a_reader_keeps_delivering_while_its_peer_reads_nothing() {
        // A peer asks for more get replies than the sockets between them
        // hold and never reads one: the replies wait in the queue behind
        // the blocked writer, and the reader goes on delivering what the
        // peer sends next.
        let net = Network::default();
        let fabric =
            SocketFabric::attach(&net, NodeId(1100), Manifest::new(), FabricConfig::default())
                .unwrap();
        let holder = net.register(ProcessId::new(1100, 1));
        let md = MemDesc::from_vec(vec![9; CHUNK], MdOptions::for_remote_get());
        holder.post_md(0x5, md).unwrap();
        let inbox = net.register(ProcessId::new(1100, 2));
        let from = ProcessId::new(3, 0);
        let mut wire = FabricMsg::Hello { nid: from.nid }.to_frame().to_vec();
        for token in 0..64 {
            let (to, len) = (holder.id(), CHUNK as u64);
            let get = FabricMsg::Get { token, from, to, match_bits: 0x5, offset: 0, len };
            wire.extend_from_slice(&get.to_frame());
        }
        let note = Bytes::from_static(b"still here");
        let send = FabricMsg::Send { from, to: inbox.id(), match_bits: 1, data: note };
        wire.extend_from_slice(&send.to_frame());
        let mut peer = TcpStream::connect(fabric.local_addr()).unwrap();
        peer.write_all(&wire).unwrap();
        let ev = inbox.recv(Duration::from_secs(1)).expect("the reader stopped delivering");
        assert_eq!(ev.match_bits(), 1);
        fabric.shutdown();
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
