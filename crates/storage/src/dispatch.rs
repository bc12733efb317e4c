//! Worker-pool ordering for the storage server: the in-flight conflict
//! tracker that lets *independent* requests run concurrently while
//! dependent ones still execute in arrival order.
//!
//! §3.2 builds the server around a queue of pending requests precisely so
//! the server can overlap many transfers. The queue is the endpoint's;
//! the server's workers take turns receiving from it, and the worker
//! holding the turn tickets what it receives in arrival order. This
//! module enforces that order **only between dependent requests** once
//! they are in flight on several workers. Two requests are dependent when
//! they touch the same object with overlapping byte ranges and at least
//! one writes — control requests are conservatively dependent on
//! everything. The single definition lives in [`AccessSummary::conflicts`].

use lwfs_proto::{ObjId, Request, RequestBody};
use parking_lot::{Condvar, Mutex};

/// The byte range a data request touches: `(object, start, end, writes)`.
/// `end` saturates rather than wraps, so a hostile `offset + len` cannot
/// fake independence.
pub type AccessRange = (ObjId, u64, u64, bool);

/// What the conflict tracker needs to know about a request: its access
/// range, or `None` for control requests (create/remove/sync/txn/…),
/// which act as full barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSummary(Option<AccessRange>);

impl AccessSummary {
    /// Summarize a request.
    pub fn of(req: &Request) -> Self {
        AccessSummary(match &req.body {
            RequestBody::Write { obj, offset, len, .. } => {
                Some((*obj, *offset, offset.saturating_add(*len), true))
            }
            RequestBody::Read { obj, offset, len, .. } => {
                Some((*obj, *offset, offset.saturating_add(*len), false))
            }
            _ => None,
        })
    }

    /// May `self` and `other` *not* be reordered or overlapped?
    ///
    /// This is the dependency relation of §3.2: same object, overlapping
    /// ranges, at least one side writing. Control requests conflict with
    /// everything.
    pub fn conflicts(&self, other: &AccessSummary) -> bool {
        match (self.0, other.0) {
            (Some((oa, sa, ea, wa)), Some((ob, sb, eb, wb))) => {
                oa == ob && sa < eb && sb < ea && (wa || wb)
            }
            _ => true,
        }
    }
}

/// An in-flight (received but not completed) request.
#[derive(Debug)]
struct InFlight {
    ticket: u64,
    summary: AccessSummary,
}

/// Tracks every received-but-incomplete request so workers can overlap
/// independent requests while dependent ones wait their turn.
///
/// Protocol: the worker holding the receive turn calls
/// [`register`](Self::register) in ticket (arrival) order before passing
/// the turn on; the same worker then calls [`wait_turn`](Self::wait_turn)
/// before executing and [`complete`](Self::complete) after replying.
/// Because each ticket is held by the worker that received it, the
/// smallest incomplete ticket is always running and never waits — so the
/// pool can never deadlock, whatever the conflict graph.
#[derive(Debug, Default)]
pub struct ConflictTracker {
    inner: Mutex<Vec<InFlight>>,
    done: Condvar,
}

impl ConflictTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a received request. Must be called in ticket (arrival)
    /// order, under the receive turn, so `wait_turn` sees every earlier
    /// request it might conflict with.
    pub fn register(&self, ticket: u64, summary: AccessSummary) {
        self.inner.lock().push(InFlight { ticket, summary });
    }

    /// Block until no earlier-ticket in-flight request conflicts with
    /// `ticket`. Returns `true` when the request actually had to wait —
    /// a conflict deferral, surfaced as `storage.conflict_defer`.
    pub fn wait_turn(&self, ticket: u64) -> bool {
        let mut inner = self.inner.lock();
        let me = inner
            .iter()
            .find(|f| f.ticket == ticket)
            .map(|f| f.summary)
            .expect("wait_turn on an unregistered ticket");
        let mut deferred = false;
        while inner.iter().any(|f| f.ticket < ticket && me.conflicts(&f.summary)) {
            deferred = true;
            self.done.wait(&mut inner);
        }
        deferred
    }

    /// Mark `ticket` complete and wake every waiter to rescan.
    pub fn complete(&self, ticket: u64) {
        let mut inner = self.inner.lock();
        if let Some(pos) = inner.iter().position(|f| f.ticket == ticket) {
            inner.swap_remove(pos);
        }
        drop(inner);
        self.done.notify_all();
    }

    /// Received-but-incomplete requests (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.inner.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_proto::{
        Capability, CapabilityBody, ContainerId, Lifetime, MdHandle, OpMask, OpNum, PrincipalId,
        ProcessId, Signature,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn cap() -> Capability {
        Capability {
            body: CapabilityBody {
                container: ContainerId(1),
                ops: OpMask::ALL,
                principal: PrincipalId(1),
                issuer_epoch: 1,
                lifetime: Lifetime::UNBOUNDED,
                serial: 0,
            },
            sig: Signature([0; 16]),
        }
    }

    fn write_req(obj: u64, offset: u64, len: u64) -> Request {
        Request::new(
            OpNum(0),
            ProcessId::new(0, 0),
            RequestBody::Write {
                txn: None,
                cap: cap(),
                obj: ObjId(obj),
                offset,
                len,
                md: MdHandle { match_bits: 0 },
            },
        )
    }

    fn read_req(obj: u64, offset: u64, len: u64) -> Request {
        Request::new(
            OpNum(0),
            ProcessId::new(0, 0),
            RequestBody::Read {
                cap: cap(),
                obj: ObjId(obj),
                offset,
                len,
                md: MdHandle { match_bits: 0 },
            },
        )
    }

    #[test]
    fn summaries_mirror_dependency_relation() {
        let a = AccessSummary::of(&write_req(1, 0, 100));
        let b = AccessSummary::of(&write_req(1, 50, 100));
        let c = AccessSummary::of(&write_req(2, 0, 100));
        let r = AccessSummary::of(&read_req(1, 0, 100));
        let r2 = AccessSummary::of(&read_req(1, 0, 100));
        assert!(a.conflicts(&b), "overlapping writes conflict");
        assert!(!a.conflicts(&c), "distinct objects are independent");
        assert!(a.conflicts(&r), "write vs overlapping read conflicts");
        assert!(!r.conflicts(&r2), "two reads never conflict");
        let ctl = AccessSummary::of(&Request::new(
            OpNum(0),
            ProcessId::new(0, 0),
            RequestBody::Sync { cap: cap(), obj: None },
        ));
        assert!(ctl.conflicts(&a) && a.conflicts(&ctl), "control ops are barriers");
    }

    #[test]
    fn saturating_range_keeps_near_max_offsets_dependent() {
        // offset + len would wrap to a tiny end and report independence.
        let a = AccessSummary::of(&write_req(1, u64::MAX - 1, 16));
        let b = AccessSummary::of(&write_req(1, u64::MAX - 8, 16));
        assert_eq!(a.0, Some((ObjId(1), u64::MAX - 1, u64::MAX, true)), "end saturates");
        assert!(a.conflicts(&b));
    }

    #[test]
    fn independent_tickets_never_wait() {
        let t = ConflictTracker::new();
        t.register(0, AccessSummary::of(&write_req(1, 0, 10)));
        t.register(1, AccessSummary::of(&write_req(2, 0, 10)));
        assert!(!t.wait_turn(1), "independent request proceeds immediately");
        assert!(!t.wait_turn(0));
        t.complete(0);
        t.complete(1);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn dependent_ticket_waits_for_earlier_completion() {
        let t = Arc::new(ConflictTracker::new());
        t.register(0, AccessSummary::of(&write_req(1, 0, 100)));
        t.register(1, AccessSummary::of(&write_req(1, 50, 100)));
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || t2.wait_turn(1));
        // Give the waiter time to block on the conflict.
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!waiter.is_finished(), "dependent request must wait");
        t.complete(0);
        assert!(waiter.join().unwrap(), "the wait is reported as a deferral");
        t.complete(1);
    }

    proptest::proptest! {
        /// The in-flight conflict relation is symmetric and agrees with a
        /// brute-force range-overlap oracle on arbitrary request pairs.
        #[test]
        fn prop_conflicts_is_symmetric_and_matches_the_range_oracle(
            a_kind in 0u32..3, a_obj in 0u64..3, a_off in 0u64..64, a_len in 0u64..32, a_hi in proptest::bool::ANY,
            b_kind in 0u32..3, b_obj in 0u64..3, b_off in 0u64..64, b_len in 0u64..32, b_hi in proptest::bool::ANY,
        ) {
            fn make(kind: u32, obj: u64, off: u64, len: u64, hi: bool) -> Request {
                // `hi` pushes the range against u64::MAX to cover the
                // saturating-end regime alongside ordinary offsets.
                let off = if hi { u64::MAX - off } else { off };
                match kind {
                    0 => write_req(obj, off, len),
                    1 => read_req(obj, off, len),
                    _ => Request::new(
                        OpNum(0),
                        ProcessId::new(0, 0),
                        RequestBody::Sync { cap: cap(), obj: None },
                    ),
                }
            }
            let a = make(a_kind, a_obj, a_off, a_len, a_hi);
            let b = make(b_kind, b_obj, b_off, b_len, b_hi);
            let tracker_view = AccessSummary::of(&a).conflicts(&AccessSummary::of(&b));
            proptest::prop_assert_eq!(
                tracker_view,
                AccessSummary::of(&b).conflicts(&AccessSummary::of(&a)),
                "conflict relation must be symmetric"
            );
            // Independent oracle for the data/data case.
            if a_kind < 2 && b_kind < 2 {
                let (sa, ea) = {
                    let o = if a_hi { u64::MAX - a_off } else { a_off };
                    (o, o.saturating_add(a_len))
                };
                let (sb, eb) = {
                    let o = if b_hi { u64::MAX - b_off } else { b_off };
                    (o, o.saturating_add(b_len))
                };
                let overlap = a_obj == b_obj && sa < eb && sb < ea;
                let writes = a_kind == 0 || b_kind == 0;
                proptest::prop_assert_eq!(tracker_view, overlap && writes);
            } else {
                proptest::prop_assert!(tracker_view, "control requests are barriers");
            }
        }
    }

    #[test]
    fn pool_of_consumers_processes_everything_in_conflict_order() {
        // 4 workers taking turns to receive, as the server's do, over
        // interleaved dependent chains on two objects: every object's
        // writes must land in ticket order.
        let turn = Mutex::new(0u64);
        let tracker = ConflictTracker::new();
        let log: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
        let seq = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| loop {
                    let ticket = {
                        let mut next = turn.lock();
                        if *next == 40 {
                            return;
                        }
                        *next += 1;
                        // All same-object writes overlap: ticket order is
                        // mandatory.
                        tracker.register(*next - 1, AccessSummary::of(&write_req(*next % 2, 0, 8)));
                        *next - 1
                    };
                    tracker.wait_turn(ticket);
                    // Jitter makes out-of-order execution likely if the
                    // tracker fails to serialize dependents.
                    std::thread::sleep(std::time::Duration::from_micros(
                        seq.fetch_add(1, Ordering::Relaxed) % 97,
                    ));
                    log.lock().push((ticket % 2, ticket));
                    tracker.complete(ticket);
                });
            }
        });
        let log = log.lock();
        assert_eq!(log.len(), 40);
        for obj in 0..2u64 {
            let per: Vec<u64> = log.iter().filter(|(o, _)| *o == obj).map(|(_, t)| *t).collect();
            assert!(per.windows(2).all(|w| w[0] < w[1]), "object {obj} out of order: {per:?}");
        }
    }
}
