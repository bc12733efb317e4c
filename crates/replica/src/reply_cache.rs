//! Bounded reply cache for exactly-once retries.
//!
//! A client that times out and re-sends a mutation — possibly to a freshly
//! promoted primary — must not have the operation applied twice. Every
//! replica caches the encoded reply of each completed mutation keyed by
//! `(origin, opnum)`; a retry that matches an entry is answered from the
//! cache without re-executing. The same cache makes WAL shipping
//! idempotent: a primary whose `ReplShip` timed out after the backup had
//! already applied it re-ships, hits the backup's cache, and gets a plain
//! ack instead of a spurious apply failure.
//!
//! The key is safe because opnums are allocated from a per-endpoint
//! monotonic counter that is never reused — a duplicate `(origin, opnum)`
//! can only be a retry of the *same* logical operation.
//!
//! **Bounding is per origin**, not global: each client keeps its own FIFO
//! of recent replies, so a sustained write storm from one client can never
//! evict another client's still-in-flight reply — the failure that would
//! quietly re-execute a retried, already-acked mutation. A client's own
//! retry window is its RPC timeout, during which it has at most a handful
//! of operations outstanding; [`DEFAULT_PER_ORIGIN_CAP`] covers that with
//! a wide margin. Origins themselves are capped at
//! [`DEFAULT_MAX_ORIGINS`]; past that the origin with the stalest most
//! recent insert is evicted whole (a client idle that long is far outside
//! any retry window).

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use lwfs_proto::{OpNum, ProcessId};
use parking_lot::Mutex;

/// Replies retained per client. Retries arrive within an RPC timeout of
/// the original, so the window only needs to cover one client's in-flight
/// operations during a failover, not history.
pub const DEFAULT_PER_ORIGIN_CAP: usize = 64;

/// Distinct clients tracked before whole-origin eviction kicks in.
pub const DEFAULT_MAX_ORIGINS: usize = 4096;

/// Map from `(origin, opnum)` to the encoded reply body, bounded per
/// origin (see the module docs for why per-origin and not global FIFO).
#[derive(Debug)]
pub struct ReplyCache {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    origins: HashMap<ProcessId, Origin>,
    per_origin: usize,
    max_origins: usize,
    /// Monotonic insert counter, for evicting the coldest origin.
    clock: u64,
    /// Total entries across all origins (kept so `len` is O(1)).
    total: usize,
}

#[derive(Debug)]
struct Origin {
    /// Oldest-first FIFO of this client's recent replies.
    entries: VecDeque<(OpNum, Bytes)>,
    /// `Inner::clock` at this origin's most recent insert.
    last_put: u64,
}

impl ReplyCache {
    /// Cache retaining up to `per_origin` replies for each client.
    pub fn new(per_origin: usize) -> Self {
        Self::with_limits(per_origin, DEFAULT_MAX_ORIGINS)
    }

    pub fn with_limits(per_origin: usize, max_origins: usize) -> Self {
        assert!(per_origin > 0, "a zero-capacity reply cache can never deduplicate");
        assert!(max_origins > 0, "the cache must admit at least one origin");
        Self {
            inner: Mutex::new(Inner {
                origins: HashMap::new(),
                per_origin,
                max_origins,
                clock: 0,
                total: 0,
            }),
        }
    }

    /// The cached reply for a retry of `(origin, opnum)`, if still retained.
    pub fn get(&self, origin: ProcessId, opnum: OpNum) -> Option<Bytes> {
        let inner = self.inner.lock();
        let o = inner.origins.get(&origin)?;
        o.entries.iter().find(|(op, _)| *op == opnum).map(|(_, reply)| reply.clone())
    }

    /// Record the reply for `(origin, opnum)`, evicting that origin's
    /// oldest entry at capacity. Re-inserting an existing key refreshes
    /// the value only.
    ///
    /// The cache owns what it keeps: `reply` is copied out of whatever
    /// buffer it is a view of. A decoded `Bytes` field shares its whole
    /// wire message, so storing the view would pin a 256 KiB+ `ReplShip`
    /// per entry for the sake of a reply of a few dozen bytes.
    pub fn put(&self, origin: ProcessId, opnum: OpNum, reply: Bytes) {
        let reply = Bytes::copy_from_slice(&reply);
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let per_origin = inner.per_origin;
        let o = inner
            .origins
            .entry(origin)
            .or_insert_with(|| Origin { entries: VecDeque::new(), last_put: clock });
        o.last_put = clock;
        if let Some(slot) = o.entries.iter_mut().find(|(op, _)| *op == opnum) {
            slot.1 = reply;
            return;
        }
        o.entries.push_back((opnum, reply));
        let mut added = 1isize;
        if o.entries.len() > per_origin {
            o.entries.pop_front();
            added = 0;
        }
        inner.total = (inner.total as isize + added) as usize;
        if inner.origins.len() > inner.max_origins {
            // Over the origin cap: drop the client with the stalest most
            // recent insert (never the one we just served). O(origins),
            // but only ever paid above `max_origins` distinct clients.
            if let Some(cold) = inner
                .origins
                .iter()
                .filter(|(id, _)| **id != origin)
                .min_by_key(|(_, o)| o.last_put)
                .map(|(id, _)| *id)
            {
                if let Some(dropped) = inner.origins.remove(&cold) {
                    inner.total -= dropped.entries.len();
                }
            }
        }
    }

    /// Total cached replies across all origins.
    pub fn len(&self) -> usize {
        self.inner.lock().total
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ReplyCache {
    fn default() -> Self {
        Self::new(DEFAULT_PER_ORIGIN_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> ProcessId {
        ProcessId::new(n, 0)
    }

    #[test]
    fn hit_returns_the_cached_reply() {
        let cache = ReplyCache::new(8);
        assert!(cache.get(pid(1), OpNum(1)).is_none());
        cache.put(pid(1), OpNum(1), Bytes::from_static(b"reply"));
        assert_eq!(cache.get(pid(1), OpNum(1)).unwrap(), Bytes::from_static(b"reply"));
        // Distinct origin, same opnum: different operation.
        assert!(cache.get(pid(2), OpNum(1)).is_none());
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let cache = ReplyCache::new(3);
        for i in 0..5u64 {
            cache.put(pid(1), OpNum(i), Bytes::from(vec![i as u8]));
        }
        assert_eq!(cache.len(), 3);
        assert!(cache.get(pid(1), OpNum(0)).is_none(), "oldest evicted");
        assert!(cache.get(pid(1), OpNum(1)).is_none());
        for i in 2..5u64 {
            assert!(cache.get(pid(1), OpNum(i)).is_some(), "entry {i} retained");
        }
    }

    #[test]
    fn reinsert_does_not_double_count() {
        let cache = ReplyCache::new(2);
        cache.put(pid(1), OpNum(1), Bytes::from_static(b"a"));
        cache.put(pid(1), OpNum(1), Bytes::from_static(b"b"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(pid(1), OpNum(1)).unwrap(), Bytes::from_static(b"b"));
    }

    #[test]
    fn one_origins_storm_cannot_evict_anothers_reply() {
        // The review scenario: client 2 acks one write, then client 1
        // storms thousands of ops. Client 2's failed-over retry must
        // still hit the cache — a miss would re-execute an acked
        // mutation.
        let cache = ReplyCache::new(4);
        cache.put(pid(2), OpNum(7), Bytes::from_static(b"acked"));
        for i in 0..10_000u64 {
            cache.put(pid(1), OpNum(i), Bytes::from_static(b"storm"));
        }
        assert_eq!(cache.get(pid(2), OpNum(7)).unwrap(), Bytes::from_static(b"acked"));
        assert_eq!(cache.len(), 4 + 1, "storm bounded to its own origin");
    }

    #[test]
    fn whole_eviction_at_the_default_origin_boundary() {
        // Full-scale version of the cap test: exactly DEFAULT_MAX_ORIGINS
        // clients fit, and the one that tips the map over evicts the
        // coldest origin *whole* — every entry it holds, not just one —
        // with the O(1) length accounting staying exact.
        let cache = ReplyCache::with_limits(2, DEFAULT_MAX_ORIGINS);
        let last = DEFAULT_MAX_ORIGINS as u32;
        for n in 0..last {
            cache.put(pid(n), OpNum(1), Bytes::from_static(b"a"));
            cache.put(pid(n), OpNum(2), Bytes::from_static(b"b"));
        }
        assert_eq!(cache.len(), DEFAULT_MAX_ORIGINS * 2);
        // Refresh origin 0 so origin 1 is the coldest at the overflow.
        cache.put(pid(0), OpNum(3), Bytes::from_static(b"c"));
        cache.put(pid(last), OpNum(1), Bytes::from_static(b"new"));

        assert!(cache.get(pid(1), OpNum(1)).is_none(), "coldest dropped whole");
        assert!(cache.get(pid(1), OpNum(2)).is_none(), "…including its newest entry");
        assert!(cache.get(pid(0), OpNum(3)).is_some(), "refreshed origin survives");
        assert!(cache.get(pid(2), OpNum(1)).is_some(), "warmer origins survive");
        assert!(cache.get(pid(last), OpNum(1)).is_some(), "the tipping insert survives");
        assert_eq!(cache.len(), DEFAULT_MAX_ORIGINS * 2 - 1, "lost 2 (origin 1), gained 1");

        // An evicted client that comes back starts a fresh FIFO: its old
        // opnums stay misses (an origin idle that long is outside every
        // retry window, so re-execution is the correct answer), and the
        // revived origin's new replies are retained normally.
        cache.put(pid(1), OpNum(3), Bytes::from_static(b"back"));
        assert!(cache.get(pid(1), OpNum(1)).is_none());
        assert_eq!(cache.get(pid(1), OpNum(3)).unwrap(), Bytes::from_static(b"back"));
    }

    #[test]
    fn overflow_insert_never_evicts_its_own_fresh_reply() {
        // The reply recorded by the very put that overflows the origin
        // map is the one an imminent retry will ask for — evicting it
        // would silently re-execute an acked mutation. The eviction scan
        // must skip the inserting origin even when it is the only
        // candidate left.
        let cache = ReplyCache::with_limits(4, 1);
        cache.put(pid(1), OpNum(1), Bytes::from_static(b"old"));
        cache.put(pid(2), OpNum(9), Bytes::from_static(b"fresh"));
        assert!(cache.get(pid(1), OpNum(1)).is_none(), "the stale origin goes instead");
        assert_eq!(cache.get(pid(2), OpNum(9)).unwrap(), Bytes::from_static(b"fresh"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn origin_cap_evicts_the_coldest_origin_whole() {
        let cache = ReplyCache::with_limits(2, 3);
        for n in 1..=3u32 {
            cache.put(pid(n), OpNum(1), Bytes::from_static(b"x"));
        }
        // Touch origin 1 so origin 2 is the coldest when 4 arrives.
        cache.put(pid(1), OpNum(2), Bytes::from_static(b"y"));
        cache.put(pid(4), OpNum(1), Bytes::from_static(b"z"));
        assert!(cache.get(pid(2), OpNum(1)).is_none(), "coldest origin dropped");
        assert!(cache.get(pid(1), OpNum(2)).is_some());
        assert!(cache.get(pid(3), OpNum(1)).is_some());
        assert!(cache.get(pid(4), OpNum(1)).is_some());
        assert_eq!(cache.len(), 4);
    }
}
