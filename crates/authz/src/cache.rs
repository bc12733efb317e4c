//! Storage-server-side capability cache.
//!
//! A storage server consults this cache before every data operation
//! (Figure 4-b). A hit authorizes the operation locally — no message to the
//! authorization service; a miss triggers a `VerifyCaps` RPC whose positive
//! verdicts are inserted here. The authorization service holds a back
//! pointer for every entry and sends `InvalidateCaps` when policy changes,
//! which is what makes revocation "near-immediate" without polling.
//!
//! This module lives in `lwfs-authz` (not `lwfs-storage`) because its
//! correctness is one half of the revocation protocol; the storage crate
//! and the PFS baseline both consume it.

use std::collections::HashMap;
use std::sync::Arc;

use lwfs_obs::{Counter, Registry};
use lwfs_proto::{Capability, CapabilityBody, CapabilityKey};
use parking_lot::Mutex;

/// Hit/miss counters — the raw data for the paper's amortized analysis of
/// verify-through caching (§3.1.2).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CapCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub invalidated: u64,
    pub expired: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Protocol time after which the entry must not be used.
    not_after: u64,
    /// The exact body that was verified. A presented capability must match
    /// it byte for byte: the cache key alone (serial + signature) is NOT
    /// sufficient, because a forger could splice a genuine signature onto
    /// a modified body and ride the genuine capability's cached verdict.
    body: CapabilityBody,
}

/// Registry-backed mirrors of [`CapCacheStats`], published under
/// `authz.cache.*` so cache behaviour shows up in metric snapshots.
/// Detached (unregistered) counters by default.
#[derive(Debug, Default)]
struct ObsCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    expired: Arc<Counter>,
    revocations: Arc<Counter>,
}

/// The capability verification cache.
#[derive(Debug, Default)]
pub struct CapCache {
    entries: Mutex<HashMap<CapabilityKey, Entry>>,
    stats: Mutex<CapCacheStats>,
    obs: ObsCounters,
}

impl CapCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a cache whose counters are registered under `authz.cache.*`
    /// in `registry`.
    pub fn with_registry(registry: &Registry) -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            stats: Mutex::new(CapCacheStats::default()),
            obs: ObsCounters {
                hits: registry.counter("authz.cache.hits"),
                misses: registry.counter("authz.cache.misses"),
                expired: registry.counter("authz.cache.expired"),
                revocations: registry.counter("authz.cache.revocations"),
            },
        }
    }

    /// Is this capability known-valid at `now`?
    ///
    /// An expired entry is treated as a miss and dropped: expiry needs no
    /// message from the authorization service (the lifetime rides inside
    /// the capability).
    pub fn check(&self, cap: &Capability, now: u64) -> bool {
        self.lookup(cap, now, true)
    }

    /// Like [`check`](Self::check), but a miss is not counted: for a
    /// caller that checks again, counting, before it verifies through.
    pub fn hit(&self, cap: &Capability, now: u64) -> bool {
        self.lookup(cap, now, false)
    }

    fn lookup(&self, cap: &Capability, now: u64, count_miss: bool) -> bool {
        let key = cap.cache_key();
        let mut entries = self.entries.lock();
        let mut stats = self.stats.lock();
        // A key whose body differs is a forgery attempt (or corruption):
        // never a hit; the verify-through path rejects it.
        let fresh = entries.get(&key).filter(|e| e.body == cap.body).map(|e| now < e.not_after);
        if fresh == Some(false) {
            entries.remove(&key);
            stats.expired += 1;
            self.obs.expired.inc();
        }
        if fresh == Some(true) {
            stats.hits += 1;
            self.obs.hits.inc();
        } else if count_miss {
            stats.misses += 1;
            self.obs.misses.inc();
        }
        fresh == Some(true)
    }

    /// Record a positive verdict from the authorization service.
    pub fn insert(&self, cap: &Capability) {
        self.entries.lock().insert(
            cap.cache_key(),
            Entry { not_after: cap.body.lifetime.not_after, body: cap.body },
        );
    }

    /// Drop cached verdicts (the `InvalidateCaps` path). Returns how many
    /// entries were actually present.
    pub fn invalidate(&self, keys: &[CapabilityKey]) -> u64 {
        let mut entries = self.entries.lock();
        let mut dropped = 0;
        for k in keys {
            if entries.remove(k).is_some() {
                dropped += 1;
            }
        }
        self.stats.lock().invalidated += dropped;
        self.obs.revocations.add(dropped);
        dropped
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    pub fn stats(&self) -> CapCacheStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_proto::{CapabilityBody, ContainerId, Lifetime, OpMask, PrincipalId, Signature};

    fn cap(serial: u64, not_after: u64) -> Capability {
        Capability {
            body: CapabilityBody {
                container: ContainerId(1),
                ops: OpMask::WRITE,
                principal: PrincipalId(1),
                issuer_epoch: 1,
                lifetime: Lifetime { not_before: 0, not_after },
                serial,
            },
            sig: Signature([serial as u8; 16]),
        }
    }

    #[test]
    fn miss_then_hit() {
        let cache = CapCache::new();
        let c = cap(1, 100);
        assert!(!cache.check(&c, 10));
        cache.insert(&c);
        assert!(cache.check(&c, 10));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn expired_entry_is_a_miss_and_evicted() {
        let cache = CapCache::new();
        let c = cap(1, 100);
        cache.insert(&c);
        assert!(cache.check(&c, 99));
        assert!(!cache.check(&c, 100), "boundary is exclusive");
        assert_eq!(cache.len(), 0, "expired entry evicted");
        assert_eq!(cache.stats().expired, 1);
    }

    #[test]
    fn invalidate_drops_only_named_keys() {
        let cache = CapCache::new();
        let a = cap(1, 1000);
        let b = cap(2, 1000);
        cache.insert(&a);
        cache.insert(&b);
        let dropped = cache.invalidate(&[a.cache_key()]);
        assert_eq!(dropped, 1);
        assert!(!cache.check(&a, 1));
        assert!(cache.check(&b, 1));
    }

    #[test]
    fn invalidate_unknown_key_is_harmless() {
        let cache = CapCache::new();
        assert_eq!(cache.invalidate(&[cap(9, 10).cache_key()]), 0);
    }

    #[test]
    fn spliced_signature_with_modified_body_never_hits() {
        // The forgery the full-body check exists for: take a genuine
        // capability's (serial, signature) but claim broader ops. The
        // cache key collides with the genuine entry; the body comparison
        // must turn it into a miss.
        let cache = CapCache::new();
        let real = cap(1, 1000);
        cache.insert(&real);
        let mut forged = real;
        forged.body.ops = OpMask::ALL;
        assert!(!cache.check(&forged, 1), "forged body must not ride the cached verdict");
        // The genuine capability still hits.
        assert!(cache.check(&real, 1));
    }

    #[test]
    fn same_serial_different_sig_are_distinct_entries() {
        // A forged capability with a real serial must not hit the real
        // entry: the cache key includes the signature.
        let cache = CapCache::new();
        let real = cap(1, 100);
        cache.insert(&real);
        let mut forged = real;
        forged.sig = Signature([0xEE; 16]);
        assert!(!cache.check(&forged, 1));
        assert!(cache.check(&real, 1));
    }

    #[test]
    fn registry_counters_mirror_stats() {
        let registry = Registry::new();
        let cache = CapCache::with_registry(&registry);
        let c = cap(1, 100);
        assert!(!cache.check(&c, 10)); // miss
        cache.insert(&c);
        assert!(cache.check(&c, 10)); // hit
        assert!(!cache.check(&c, 200)); // expired → miss
        cache.insert(&c);
        assert_eq!(cache.invalidate(&[c.cache_key()]), 1);
        let frame = registry.frame(0);
        assert_eq!(frame.counter("authz.cache.hits"), Some(1));
        assert_eq!(frame.counter("authz.cache.misses"), Some(2));
        assert_eq!(frame.counter("authz.cache.expired"), Some(1));
        assert_eq!(frame.counter("authz.cache.revocations"), Some(1));
    }

    proptest::proptest! {
        #[test]
        fn prop_insert_check_consistent(serials in proptest::collection::vec(0u64..1000, 1..50)) {
            let cache = CapCache::new();
            for &s in &serials {
                cache.insert(&cap(s, u64::MAX));
            }
            for &s in &serials {
                proptest::prop_assert!(cache.check(&cap(s, u64::MAX), 0));
            }
        }
    }
}
