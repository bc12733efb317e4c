//! A process's handle on the network: memory descriptors, one-sided
//! operations, eager messages, and the event queue.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use lwfs_proto::{Error, ProcessId, Result};

use crate::buffer::MemDesc;
use crate::event::Event;
use crate::network::{EndpointState, NetworkInner};
use crate::transport::RemoteFabric;

/// Allocator for unique match bits within a namespace (see the `*_SPACE`
/// constants in the crate root). Backed by a network-wide counter so two
/// processes never collide even when posting descriptors on each other's
/// behalf.
pub struct MatchBitsAlloc<'a> {
    counter: &'a AtomicU64,
}

impl MatchBitsAlloc<'_> {
    /// Allocate fresh match bits inside `space` (a high-nibble namespace).
    pub fn alloc(&self, space: u64) -> u64 {
        let low = self.counter.fetch_add(1, Ordering::Relaxed);
        space | (low & 0x0FFF_FFFF_FFFF_FFFF)
    }
}

/// A registered process endpoint.
///
/// Endpoints are `Send + Sync`: several threads of one "process" may share
/// the endpoint, and selective receives ([`Endpoint::recv_match`]) from
/// different threads never steal each other's events — the queue is scanned
/// under a lock and waiters are woken on every delivery.
pub struct Endpoint {
    id: ProcessId,
    net: Arc<NetworkInner>,
    state: Arc<EndpointState>,
}

impl Endpoint {
    pub(crate) fn new(id: ProcessId, net: Arc<NetworkInner>, state: Arc<EndpointState>) -> Self {
        Self { id, net, state }
    }

    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The fabric-wide metric registry (see `lwfs-obs`); services reach
    /// it through the endpoint they already hold.
    pub fn obs(&self) -> &std::sync::Arc<lwfs_obs::Registry> {
        &self.net.obs
    }

    /// Match-bits allocator shared across the fabric.
    pub fn match_bits(&self) -> MatchBitsAlloc<'_> {
        MatchBitsAlloc { counter: &self.net.match_alloc }
    }

    /// This endpoint's shared operation-number allocator.
    ///
    /// Threads sharing one endpoint (e.g. a storage server's worker pool)
    /// each build an RPC client around this counter so that operation
    /// numbers are unique endpoint-wide and a reply can only ever match
    /// the call that issued it.
    pub fn opnum_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.state.opnums)
    }

    // ------------------------------------------------------------------
    // Memory descriptors
    // ------------------------------------------------------------------

    /// Post a memory descriptor under `match_bits`, exposing it to remote
    /// one-sided operations.
    pub fn post_md(&self, match_bits: u64, md: MemDesc) -> Result<()> {
        let mut mds = self.state.mds.lock();
        if mds.contains_key(&match_bits) {
            return Err(Error::Internal(format!(
                "match bits {match_bits:#x} already posted on {}",
                self.id
            )));
        }
        mds.insert(match_bits, md);
        Ok(())
    }

    /// Remove a posted descriptor, returning it if present.
    pub fn unlink_md(&self, match_bits: u64) -> Option<MemDesc> {
        self.state.mds.lock().remove(&match_bits)
    }

    /// Number of descriptors currently posted (diagnostics).
    pub fn posted_mds(&self) -> usize {
        self.state.mds.lock().len()
    }

    // ------------------------------------------------------------------
    // One-sided operations
    // ------------------------------------------------------------------

    /// Where a one-sided operation on `target` executes: `None` for this
    /// network's own registry, else the attached
    /// [`RemoteFabric`](crate::transport::RemoteFabric) (a blocking round
    /// trip). With no remote transport an unknown target is
    /// [`Error::Unreachable`], the historical in-process behavior.
    fn route(&self, target: ProcessId) -> Result<Option<Arc<dyn RemoteFabric>>> {
        self.net.check_reachable(self.id, target)?;
        if self.net.endpoints.read().contains_key(&target) {
            return Ok(None);
        }
        self.net.remote().map(Some).ok_or(Error::Unreachable)
    }

    /// Write `data` into the descriptor `target` posted under `match_bits`,
    /// starting at `offset`. Completes without the target thread running.
    pub fn put(&self, target: ProcessId, match_bits: u64, offset: u64, data: &[u8]) -> Result<()> {
        match self.route(target)? {
            None => self.net.local_put(self.id, target, match_bits, offset, data),
            Some(fabric) => fabric.put(self.id, target, match_bits, offset, data),
        }
    }

    /// Read `dst.len()` bytes at `offset` from the descriptor `target`
    /// posted under `match_bits` straight into `dst` — the one copy of the
    /// hop. On any error `dst` is untouched.
    pub fn get_into(
        &self,
        target: ProcessId,
        match_bits: u64,
        offset: u64,
        dst: &mut [u8],
    ) -> Result<()> {
        match self.route(target)? {
            None => self.net.local_get(self.id, target, match_bits, offset, dst.len(), |src| {
                dst.copy_from_slice(src)
            }),
            Some(fabric) => fabric.get_into(self.id, target, match_bits, offset, dst),
        }
    }

    /// Like [`get_into`](Self::get_into), into a fresh buffer of `len` bytes.
    pub fn get(
        &self,
        target: ProcessId,
        match_bits: u64,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        match self.route(target)? {
            None => self.net.local_get(self.id, target, match_bits, offset, len, <[u8]>::to_vec),
            Some(fabric) => {
                let mut data = vec![0u8; len];
                fabric.get_into(self.id, target, match_bits, offset, &mut data)?;
                Ok(data)
            }
        }
    }

    // ------------------------------------------------------------------
    // Eager messages
    // ------------------------------------------------------------------

    /// Send a small eager message to `target`'s event queue.
    ///
    /// Fails with [`Error::ServerBusy`] when the target queue is full —
    /// callers implementing the paper's flow-control loop back off and
    /// re-send (§3.2). On the socket transport the same error reports a
    /// full per-connection *write* queue; a full queue on the remote side
    /// drops the frame silently and the sender finds out via timeout.
    pub fn send(&self, target: ProcessId, match_bits: u64, data: Bytes) -> Result<()> {
        self.net.check_reachable(self.id, target)?;
        if self.net.roll_drop() {
            // Silently lost; the sender finds out via timeout.
            self.net.stats.record_drop();
            return Ok(());
        }
        if self.net.endpoints.read().contains_key(&target) {
            return self.net.local_send(self.id, target, match_bits, data);
        }
        match self.net.remote() {
            Some(fabric) => fabric.send(self.id, target, match_bits, data),
            None => Err(Error::Unreachable),
        }
    }

    // ------------------------------------------------------------------
    // Event queue
    // ------------------------------------------------------------------

    /// Receive the next event in arrival order.
    pub fn recv(&self, timeout: Duration) -> Result<Event> {
        self.recv_match(timeout, |_| true)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Event> {
        self.state.queue.lock().pop_front()
    }

    /// Receive the *earliest* queued event satisfying `pred`, leaving all
    /// other events in place. Safe to call concurrently from several
    /// threads sharing the endpoint: every delivery wakes all waiters and
    /// each rescans for its own events.
    pub fn recv_match(&self, timeout: Duration, pred: impl Fn(&Event) -> bool) -> Result<Event> {
        let deadline = Instant::now() + timeout;
        let mut q = self.state.queue.lock();
        loop {
            if let Some(pos) = q.iter().position(&pred) {
                return Ok(q.remove(pos).expect("position just found"));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(Error::Timeout);
            }
            if self.state.cond.wait_until(&mut q, deadline).timed_out() {
                // Final rescan in case the event raced the timeout.
                if let Some(pos) = q.iter().position(&pred) {
                    return Ok(q.remove(pos).expect("position just found"));
                }
                return Err(Error::Timeout);
            }
        }
    }

    /// Events currently waiting in the queue (diagnostics).
    pub fn stashed(&self) -> usize {
        self.state.queue.lock().len()
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MdOptions;
    use crate::network::{FaultPlan, Network, NetworkConfig};

    const TICK: Duration = Duration::from_millis(200);

    fn pair() -> (Network, Endpoint, Endpoint) {
        let net = Network::default();
        let a = net.register(ProcessId::new(0, 0));
        let b = net.register(ProcessId::new(1, 0));
        (net, a, b)
    }

    #[test]
    fn eager_message_delivery() {
        let (_net, a, b) = pair();
        a.send(b.id(), 42, Bytes::from_static(b"ping")).unwrap();
        let ev = b.recv(TICK).unwrap();
        assert_eq!(ev.match_bits(), 42);
        assert_eq!(ev.from(), a.id());
        assert_eq!(ev.message_data().unwrap().as_ref(), b"ping");
    }

    #[test]
    fn one_sided_put_without_target_running() {
        let (_net, a, b) = pair();
        b.post_md(7, MemDesc::zeroed(8, MdOptions::for_remote_put())).unwrap();
        // `b` never calls recv; the put still lands.
        a.put(b.id(), 7, 2, b"xy").unwrap();
        let md = b.unlink_md(7).unwrap();
        assert_eq!(&md.snapshot()[2..4], b"xy");
    }

    #[test]
    fn one_sided_get_reads_posted_buffer() {
        let (_net, a, b) = pair();
        let md = MemDesc::from_vec(b"checkpoint-data".to_vec(), MdOptions::for_remote_get());
        b.post_md(9, md).unwrap();
        let data = a.get(b.id(), 9, 11, 4).unwrap();
        assert_eq!(&data, b"data");
    }

    #[test]
    fn get_into_lands_in_the_callers_buffer_or_leaves_it_alone() {
        let (_net, a, b) = pair();
        let md = MemDesc::from_vec(b"checkpoint-data".to_vec(), MdOptions::for_remote_get());
        b.post_md(9, md).unwrap();
        let mut dst = [0xEEu8; 4];
        a.get_into(b.id(), 9, 11, &mut dst).unwrap();
        assert_eq!(&dst, b"data");
        // One byte past the descriptor, an overflowing offset, a missing
        // descriptor: Malformed, and not one byte of `dst` written.
        let mut dst = [0xEEu8; 4];
        for (mb, offset) in [(9, 12), (9, u64::MAX), (999, 0)] {
            let err = a.get_into(b.id(), mb, offset, &mut dst).unwrap_err();
            assert!(matches!(err, Error::Malformed(_)), "{err:?}");
            assert_eq!(dst, [0xEE; 4]);
        }
    }

    #[test]
    fn put_respects_md_permissions() {
        let (_net, a, b) = pair();
        b.post_md(7, MemDesc::zeroed(8, MdOptions::for_remote_get())).unwrap();
        assert_eq!(a.put(b.id(), 7, 0, b"no").unwrap_err(), Error::AccessDenied);
    }

    #[test]
    fn get_respects_md_permissions() {
        let (_net, a, b) = pair();
        b.post_md(7, MemDesc::zeroed(8, MdOptions::for_remote_put())).unwrap();
        assert_eq!(a.get(b.id(), 7, 0, 4).unwrap_err(), Error::AccessDenied);
    }

    #[test]
    fn missing_md_is_an_error() {
        let (_net, a, b) = pair();
        assert!(a.put(b.id(), 999, 0, b"x").is_err());
        assert!(a.get(b.id(), 999, 0, 1).is_err());
    }

    #[test]
    fn auto_unlink_after_n_ops() {
        let (_net, a, b) = pair();
        let opts = MdOptions { unlink_after: Some(1), ..MdOptions::for_remote_get() };
        b.post_md(5, MemDesc::from_vec(vec![1, 2, 3], opts)).unwrap();
        assert!(a.get(b.id(), 5, 0, 3).is_ok());
        assert!(a.get(b.id(), 5, 0, 3).is_err(), "md should have unlinked");
        assert_eq!(b.posted_mds(), 0);
    }

    #[test]
    fn duplicate_match_bits_rejected() {
        let (_net, a, _b) = pair();
        a.post_md(1, MemDesc::zeroed(1, MdOptions::default())).unwrap();
        assert!(a.post_md(1, MemDesc::zeroed(1, MdOptions::default())).is_err());
    }

    #[test]
    fn put_event_delivered_when_enabled() {
        let (_net, a, b) = pair();
        b.post_md(3, MemDesc::zeroed(4, MdOptions::read_write_events())).unwrap();
        a.put(b.id(), 3, 0, b"evnt").unwrap();
        match b.recv(TICK).unwrap() {
            Event::PutEnd { from, match_bits, offset, len } => {
                assert_eq!(from, a.id());
                assert_eq!(match_bits, 3);
                assert_eq!(offset, 0);
                assert_eq!(len, 4);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn no_event_when_disabled() {
        let (_net, a, b) = pair();
        b.post_md(3, MemDesc::zeroed(4, MdOptions::for_remote_put())).unwrap();
        a.put(b.id(), 3, 0, b"silt").unwrap();
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn bounded_queue_rejects_with_server_busy() {
        let net = Network::new(NetworkConfig { eager_queue_depth: 2, ..Default::default() });
        let a = net.register(ProcessId::new(0, 0));
        let b = net.register(ProcessId::new(1, 0));
        a.send(b.id(), 1, Bytes::new()).unwrap();
        a.send(b.id(), 1, Bytes::new()).unwrap();
        assert_eq!(a.send(b.id(), 1, Bytes::new()).unwrap_err(), Error::ServerBusy);
        // Draining frees space again.
        b.recv(TICK).unwrap();
        a.send(b.id(), 1, Bytes::new()).unwrap();
        assert_eq!(net.stats().messages_rejected.get(), 1);
    }

    #[test]
    fn partition_makes_peers_unreachable() {
        let (net, a, b) = pair();
        let mut plan = FaultPlan::default();
        plan.partitioned.insert(b.id().nid);
        net.set_faults(plan);
        assert_eq!(a.send(b.id(), 1, Bytes::new()).unwrap_err(), Error::Unreachable);
        assert_eq!(a.put(b.id(), 1, 0, b"x").unwrap_err(), Error::Unreachable);
        net.heal();
        assert!(a.send(b.id(), 1, Bytes::new()).is_ok());
    }

    #[test]
    fn dropped_message_times_out_receiver() {
        let (net, a, b) = pair();
        net.set_faults(FaultPlan { drop_rate: 1.0, ..Default::default() });
        a.send(b.id(), 1, Bytes::from_static(b"lost")).unwrap();
        assert_eq!(b.recv(Duration::from_millis(50)).unwrap_err(), Error::Timeout);
        assert_eq!(net.stats().messages_dropped.get(), 1);
    }

    #[test]
    fn recv_match_stashes_non_matching() {
        let (_net, a, b) = pair();
        a.send(b.id(), 1, Bytes::from_static(b"first")).unwrap();
        a.send(b.id(), 2, Bytes::from_static(b"second")).unwrap();
        let ev = b.recv_match(TICK, |e| e.match_bits() == 2).unwrap();
        assert_eq!(ev.message_data().unwrap().as_ref(), b"second");
        assert_eq!(b.stashed(), 1);
        // The stashed event is still retrievable.
        let ev = b.recv(TICK).unwrap();
        assert_eq!(ev.message_data().unwrap().as_ref(), b"first");
    }

    #[test]
    fn recv_match_times_out_cleanly() {
        let (_net, a, b) = pair();
        a.send(b.id(), 1, Bytes::new()).unwrap();
        let err = b.recv_match(Duration::from_millis(50), |e| e.match_bits() == 99).unwrap_err();
        assert_eq!(err, Error::Timeout);
        assert_eq!(b.stashed(), 1, "non-matching event must be preserved");
    }

    #[test]
    fn match_bits_allocator_is_unique_across_endpoints() {
        let (_net, a, b) = pair();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(a.match_bits().alloc(crate::BULK_SPACE)));
            assert!(seen.insert(b.match_bits().alloc(crate::BULK_SPACE)));
        }
    }

    #[test]
    fn stats_track_bytes() {
        let (net, a, b) = pair();
        b.post_md(1, MemDesc::zeroed(100, MdOptions::read_write_events())).unwrap();
        a.put(b.id(), 1, 0, &[0u8; 100]).unwrap();
        let got = a.get(b.id(), 1, 0, 50).unwrap();
        assert_eq!(got.len(), 50);
        assert_eq!(net.stats().bytes.get(), 150);
        assert_eq!(net.stats().sent_by(a.id()), 2);
    }
}
