//! Span-style op tracing keyed by request id.
//!
//! Services decompose an operation into named stages (a storage write
//! becomes queue-wait → authorize → pull → store-write → reply) and
//! record one [`SpanRecord`] per stage plus a closing `total` span, all
//! sharing the `req_id` threaded through `lwfs_proto::Request`. Every
//! span also carries the *distributed* `trace_id` and the recording
//! node's `nid`, so one client write correlates across every
//! process it touched. The log is a bounded ring so tracing can stay on
//! permanently.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

/// Stage name used for the end-to-end span of an operation.
pub const TOTAL_STAGE: &str = "total";

/// One traced stage of one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Request id from the proto envelope; groups the stages of one op.
    pub req_id: u64,
    /// Distributed trace id: shared by every request in one causal chain
    /// across nodes. Equals `req_id` for trace roots and for the per-hop
    /// traces a partial scrape leaves behind.
    pub trace_id: u64,
    /// Node id of the process that recorded this span.
    pub nid: u32,
    /// Operation name, e.g. `storage.write`.
    pub op: &'static str,
    /// Stage within the operation, e.g. `authorize`; [`TOTAL_STAGE`]
    /// covers the whole op.
    pub stage: &'static str,
    /// Offset of the stage start from the span log's epoch, nanoseconds.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
}

/// Ring state guarded by one mutex: the records themselves plus the
/// index that keeps [`SpanLog::for_req`] from scanning the whole ring
/// under the lock.
///
/// Every record gets a monotonically increasing sequence number;
/// `base_seq` is the seq of `q[0]`, so `q[seq - base_seq]` addresses any
/// retained record in O(1). `by_req` maps a request id to its retained
/// seqs (ascending — eviction always removes the globally smallest seq,
/// which is necessarily the front of its request's deque).
#[derive(Default)]
struct Ring {
    q: VecDeque<SpanRecord>,
    base_seq: u64,
    by_req: HashMap<u64, VecDeque<u64>>,
}

/// Spans a registry's log retains before the oldest is overwritten.
const SPAN_CAPACITY: usize = 4096;

/// Bounded ring of recent [`SpanRecord`]s with per-request indexing.
pub struct SpanLog {
    epoch: Instant,
    inner: Mutex<Ring>,
    capacity: usize,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::with_capacity(SPAN_CAPACITY)
    }
}

impl SpanLog {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(Ring {
                q: VecDeque::with_capacity(capacity.min(1024)),
                ..Ring::default()
            }),
            capacity: capacity.max(1),
        }
    }

    /// Nanoseconds since this log was created; span start timestamps use
    /// this scale so they are comparable within one process.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    pub fn record(&self, record: SpanRecord) {
        let mut r = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if r.q.len() == self.capacity {
            let evicted = r.q.pop_front().expect("capacity >= 1");
            let evicted_seq = r.base_seq;
            r.base_seq += 1;
            if let Some(seqs) = r.by_req.get_mut(&evicted.req_id) {
                debug_assert_eq!(seqs.front(), Some(&evicted_seq));
                seqs.pop_front();
                if seqs.is_empty() {
                    r.by_req.remove(&evicted.req_id);
                }
            }
        }
        let seq = r.base_seq + r.q.len() as u64;
        r.by_req.entry(record.req_id).or_default().push_back(seq);
        r.q.push_back(record);
    }

    /// All retained spans for one request, in recording order.
    ///
    /// Indexed: the lock is held for one map lookup plus one clone per
    /// retained span of *this* request (pre-sized), never a scan of the
    /// whole ring — this is the flight-recorder hot path.
    pub fn for_req(&self, req_id: u64) -> Vec<SpanRecord> {
        let r = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let Some(seqs) = r.by_req.get(&req_id) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(seqs.len());
        out.extend(seqs.iter().map(|seq| r.q[(seq - r.base_seq) as usize].clone()));
        out
    }

    /// All retained spans carrying `trace_id`, in recording order.
    ///
    /// This *is* an O(retained) scan — it runs once per flight-recorder
    /// pin (rare by construction: only outlier traces pin) and in
    /// offline collection, never per-operation.
    pub fn for_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        let r = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        r.q.iter().filter(|s| s.trace_id == trace_id).cloned().collect()
    }

    /// The most recent `limit` spans, oldest first.
    pub fn recent(&self, limit: usize) -> Vec<SpanRecord> {
        let r = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let skip = r.q.len().saturating_sub(limit);
        let mut out = Vec::with_capacity(r.q.len() - skip);
        out.extend(r.q.iter().skip(skip).cloned());
        out
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        let mut r = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let next = r.base_seq + r.q.len() as u64;
        r.q.clear();
        r.by_req.clear();
        r.base_seq = next;
    }
}

/// Intern a span name scraped off the wire (or parsed from an artifact)
/// as a `&'static str`, so it can live in a [`SpanRecord`].
///
/// In-process span names are compile-time literals; names arriving over
/// `GetFlightTraces` (or read back from Chrome-trace JSON) are owned
/// `String`s that must be leaked to re-enter the record shape. The table
/// is bounded: scraped names are remote-controlled in principle, and an
/// unbounded leak would let a hostile peer grow the process without
/// limit. Past [`INTERN_CAP`] distinct names, everything interns to
/// `"other"` (which the blame taxonomy classifies as
/// [`crate::critpath::BlameStage::Other`]).
pub fn intern(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::OnceLock;

    /// Bound on distinct interned names; far above any real deployment's
    /// op/stage vocabulary.
    const INTERN_CAP: usize = 4096;
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashSet::new()));
    let mut t = table.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&interned) = t.get(s) {
        return interned;
    }
    if t.len() >= INTERN_CAP {
        return "other";
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    t.insert(leaked);
    leaked
}

impl std::fmt::Debug for SpanLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanLog").field("len", &self.len()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(req_id: u64, stage: &'static str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            req_id,
            trace_id: req_id,
            nid: 0,
            op: "storage.write",
            stage,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn records_group_by_req_id() {
        let log = SpanLog::default();
        log.record(rec(1, "authorize", 0, 10));
        log.record(rec(2, "authorize", 5, 10));
        log.record(rec(1, "pull", 10, 30));
        log.record(rec(1, TOTAL_STAGE, 0, 45));
        let one = log.for_req(1);
        assert_eq!(one.len(), 3);
        assert!(one.iter().all(|s| s.req_id == 1));
        assert!(log.for_req(99).is_empty());
    }

    #[test]
    fn ring_is_bounded() {
        let log = SpanLog::with_capacity(4);
        for i in 0..10 {
            log.record(rec(i, "s", i, 1));
        }
        assert_eq!(log.len(), 4);
        let recent = log.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[1].req_id, 9);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn indexes_survive_eviction_and_clear() {
        let log = SpanLog::with_capacity(4);
        // Interleave two requests so eviction splits both their indexes.
        for i in 0..8u64 {
            let req = i % 2;
            let stage = if i >= 6 { TOTAL_STAGE } else { "s" };
            log.record(rec(req, stage, i, 1));
        }
        // Only the last 4 records survive: reqs 0,1,0(total),1(total).
        assert_eq!(log.for_req(0).len(), 2);
        assert_eq!(log.for_req(1).len(), 2);
        // Index answers agree with a brute-force scan of `recent`.
        let all = log.recent(usize::MAX);
        for req in [0u64, 1] {
            let scanned: Vec<_> = all.iter().filter(|s| s.req_id == req).cloned().collect();
            assert_eq!(log.for_req(req), scanned);
        }
        // Evicting a request's last span drops its index entry entirely.
        for i in 0..4u64 {
            log.record(rec(7, "s", 100 + i, 1));
        }
        assert!(log.for_req(0).is_empty());
        assert!(log.for_req(1).is_empty());
        log.clear();
        assert!(log.for_req(7).is_empty());
        // Recording after clear keeps seq accounting consistent.
        log.record(rec(8, TOTAL_STAGE, 200, 1));
        assert_eq!(log.for_req(8).len(), 1);
    }

    #[test]
    fn for_trace_crosses_req_ids() {
        let log = SpanLog::default();
        let mut a = rec(1, "s", 0, 1);
        a.trace_id = 42;
        let mut b = rec(2, "apply", 5, 1);
        b.trace_id = 42;
        log.record(a);
        log.record(rec(3, "s", 2, 1));
        log.record(b);
        let t = log.for_trace(42);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].req_id, 1);
        assert_eq!(t[1].req_id, 2);
    }

    #[test]
    fn contention_smoke_writers_vs_indexed_readers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // 4 writers stream spans through a small ring while readers
        // hammer the indexed lookups; the test asserts the indexes stay
        // internally consistent under constant eviction and that nothing
        // deadlocks or panics.
        let log = Arc::new(SpanLog::with_capacity(256));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let req = w * 10_000 + (i % 37);
                        log.record(rec(req, "s", i, 1));
                        if i % 5 == 0 {
                            log.record(rec(req, TOTAL_STAGE, i, 2));
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u64)
            .map(|rdr| {
                let log = Arc::clone(&log);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut lookups = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for req in (rdr * 10_000)..(rdr * 10_000 + 37) {
                            let spans = log.for_req(req);
                            assert!(spans.iter().all(|s| s.req_id == req));
                            lookups += 1;
                        }
                        assert!(log.len() <= 256);
                    }
                    lookups
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(log.len(), 256);
    }
}
