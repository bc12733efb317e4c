//! Elevator reordering of queued, independent requests.
//!
//! §3.2: "The server can also re-order independent requests to improve
//! access to the storage device" (citing Thakur & Choudhary). The scheduler batches whatever
//! requests are already waiting and releases them in `(object, offset)`
//! order — the classic elevator pass that turns interleaved strided writes
//! from many clients into near-sequential device access.
//!
//! Only *independent* requests may be reordered: two requests are dependent
//! when they touch the same object with overlapping ranges and at least one
//! writes. Dependent requests retain their arrival order.

use lwfs_proto::{ObjId, Request, RequestBody};

use crate::dispatch::AccessSummary;

/// A queued request with its arrival sequence.
#[derive(Debug)]
struct Queued {
    arrival: u64,
    req: Request,
}

/// Sort key: data requests by (object, offset); everything else pinned to
/// its arrival slot at the front (control ops never benefit from elevator
/// ordering and must not starve).
fn data_key(req: &Request) -> Option<(ObjId, u64)> {
    match &req.body {
        RequestBody::Write { obj, offset, .. } => Some((*obj, *offset)),
        RequestBody::Read { obj, offset, .. } => Some((*obj, *offset)),
        _ => None,
    }
}

/// Are `a` and `b` dependent (same object, overlapping ranges, at least
/// one write — control requests conservatively depend on everything)?
///
/// This is the one §3.2 dependency relation: the in-flight
/// [`ConflictTracker`](crate::dispatch::ConflictTracker) delegates to the
/// same [`AccessSummary::conflicts`], so elevator ordering and worker-pool
/// serialization can never disagree.
pub fn dependent(a: &Request, b: &Request) -> bool {
    AccessSummary::of(a).conflicts(&AccessSummary::of(b))
}

/// The request scheduler.
#[derive(Debug, Default)]
pub struct RequestScheduler {
    queue: Vec<Queued>,
    next_arrival: u64,
    /// How many requests were released out of arrival order.
    reordered: u64,
}

impl RequestScheduler {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, req: Request) {
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        self.queue.push(Queued { arrival, req });
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    /// Release every queued request in elevator order, respecting
    /// dependencies.
    pub fn drain_elevator(&mut self) -> Vec<Request> {
        let mut batch: Vec<Queued> = std::mem::take(&mut self.queue);
        let n = batch.len();
        if n <= 1 {
            return batch.into_iter().map(|q| q.req).collect();
        }

        // Stable sort by (has-data-key, object, offset, arrival). Control
        // requests sort first in arrival order; data requests follow in
        // elevator order.
        batch.sort_by(|a, b| match (data_key(&a.req), data_key(&b.req)) {
            (None, None) => a.arrival.cmp(&b.arrival),
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (Some(ka), Some(kb)) => ka.cmp(&kb).then(a.arrival.cmp(&b.arrival)),
        });

        // Restore arrival order among *dependent* pairs (bubble the earlier
        // arrival forward). n is a drained batch, typically small.
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..batch.len().saturating_sub(1) {
                if dependent(&batch[i].req, &batch[i + 1].req)
                    && batch[i].arrival > batch[i + 1].arrival
                {
                    batch.swap(i, i + 1);
                    changed = true;
                }
            }
        }

        let reordered = batch
            .iter()
            .enumerate()
            .filter(|(pos, q)| q.arrival != *pos as u64 + (self.next_arrival - n as u64))
            .count() as u64;
        self.reordered += reordered;
        batch.into_iter().map(|q| q.req).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_proto::{
        Capability, CapabilityBody, ContainerId, Lifetime, MdHandle, OpMask, OpNum, PrincipalId,
        ProcessId, Signature,
    };

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

    fn offsets(reqs: &[Request]) -> Vec<(u64, u64)> {
        reqs.iter()
            .filter_map(|r| match &r.body {
                RequestBody::Write { obj, offset, .. } => Some((obj.0, *offset)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn interleaved_strides_become_sequential() {
        let mut s = RequestScheduler::new();
        // Two clients writing strided to two objects, interleaved.
        s.push(write_req(2, 100, 10));
        s.push(write_req(1, 50, 10));
        s.push(write_req(2, 0, 10));
        s.push(write_req(1, 0, 10));
        let out = s.drain_elevator();
        assert_eq!(offsets(&out), vec![(1, 0), (1, 50), (2, 0), (2, 100)]);
        assert!(s.reordered() > 0);
    }

    #[test]
    fn overlapping_writes_keep_arrival_order() {
        let mut s = RequestScheduler::new();
        s.push(write_req(1, 50, 100)); // arrives first, sorts later
        s.push(write_req(1, 0, 100)); // overlaps [50,100)
        let out = s.drain_elevator();
        // Dependent pair: first arrival must still execute first.
        assert_eq!(offsets(&out), vec![(1, 50), (1, 0)]);
    }

    #[test]
    fn control_requests_go_first_in_arrival_order() {
        let mut s = RequestScheduler::new();
        s.push(write_req(1, 100, 10));
        let sync = Request::new(
            OpNum(9),
            ProcessId::new(0, 0),
            RequestBody::Sync { cap: cap(), obj: None },
        );
        s.push(sync.clone());
        s.push(write_req(1, 0, 10));
        let out = s.drain_elevator();
        assert_eq!(out[0].opnum, OpNum(9), "control op released first");
    }

    #[test]
    fn empty_and_single_are_trivial() {
        let mut s = RequestScheduler::new();
        assert!(s.drain_elevator().is_empty());
        s.push(write_req(1, 0, 1));
        assert_eq!(s.drain_elevator().len(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn near_max_offset_does_not_wrap_dependency_detection() {
        // Regression: `offset + len` used to wrap, so two writes straddling
        // u64::MAX looked independent and could be reordered.
        let near_end = write_req(1, u64::MAX - 1, 16);
        let overlapping = write_req(1, u64::MAX - 8, 16);
        assert!(dependent(&near_end, &overlapping), "saturated ranges must overlap");

        // And the scheduler keeps their arrival order.
        let mut s = RequestScheduler::new();
        s.push(write_req(1, u64::MAX - 1, 16));
        s.push(write_req(1, u64::MAX - 8, 16));
        let out = s.drain_elevator();
        assert_eq!(offsets(&out), vec![(1, u64::MAX - 1), (1, u64::MAX - 8)]);
    }

    #[test]
    fn nonoverlapping_same_object_reorders_freely() {
        let mut s = RequestScheduler::new();
        s.push(write_req(1, 200, 10));
        s.push(write_req(1, 100, 10));
        s.push(write_req(1, 0, 10));
        let out = s.drain_elevator();
        assert_eq!(offsets(&out), vec![(1, 0), (1, 100), (1, 200)]);
    }
}
