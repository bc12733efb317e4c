//! Local capability verification — the storage-server side of the scheme.
//!
//! This is the piece that removes the verify-through RPC from the data
//! path: a [`LocalCapVerifier`] holds the issuer's *public* key, the latest
//! revocation epoch it has observed per scope, and a small cache of
//! signature fingerprints it has already checked. Everything `check` does
//! is local; the only remote machinery left in the security story is epoch
//! publication, which rides the existing push/telemetry plane.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use lwfs_obs::{Counter, Histogram, Registry};
use lwfs_proto::{ContainerId, Error, OpMask};
use parking_lot::Mutex;

use crate::ed25519::PublicKey;
use crate::sha512::sha512;
use crate::token::{CapToken, TokenScope};

/// Bound on the signature-fingerprint cache. Signature checks are ~100µs of
/// scalar multiplication; caps are reused across thousands of ops, so a hit
/// turns the hot path into a hash lookup. When full the cache is simply
/// cleared — the population re-warms in one round of requests and the logic
/// stays trivially correct.
const SIG_CACHE_CAP: usize = 16 * 1024;

/// Storage-side verifier: public key + observed revocation epochs +
/// verified-signature cache. Cheap to share (`Arc` it per server).
pub struct LocalCapVerifier {
    public: PublicKey,
    /// Tolerated issuer/verifier clock disagreement, nanoseconds. Widens
    /// only the not-before edge of the validity window.
    clock_skew_ns: u64,
    /// Latest revocation epoch observed per scope `(scope tag, scope id)`.
    /// Monotonic: observing an older epoch than recorded is a no-op.
    epochs: Mutex<HashMap<(u8, u64), u64>>,
    /// Fingerprints (first 8 bytes of SHA-512) of blobs whose signature
    /// already verified. Only the signature result is cached — ops, range,
    /// lifetime, and epoch are re-judged on every call, so revocation and
    /// expiry take effect immediately even for cached caps.
    verified: Mutex<HashMap<u64, ()>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    stale: Arc<Counter>,
    verify_ns: Arc<Histogram>,
}

impl LocalCapVerifier {
    /// A verifier with private (unregistered) metrics — tests, tools.
    pub fn new(public: PublicKey, clock_skew_ns: u64) -> LocalCapVerifier {
        Self::with_registry(public, clock_skew_ns, &Registry::new())
    }

    /// A verifier whose metrics land in `registry`:
    /// `cap.cache.hits` / `cap.cache.misses` / `cap.cache.stale_epoch`
    /// counters and the `cap.verify_ns` histogram.
    pub fn with_registry(
        public: PublicKey,
        clock_skew_ns: u64,
        registry: &Registry,
    ) -> LocalCapVerifier {
        LocalCapVerifier {
            public,
            clock_skew_ns,
            epochs: Mutex::new(HashMap::new()),
            verified: Mutex::new(HashMap::new()),
            hits: registry.counter("cap.cache.hits"),
            misses: registry.counter("cap.cache.misses"),
            stale: registry.counter("cap.cache.stale_epoch"),
            verify_ns: registry.histogram("cap.verify_ns"),
        }
    }

    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// Record a revocation-epoch observation for a container. Epochs only
    /// move forward; stale pushes (reordered, resent) are ignored.
    pub fn observe_epoch(&self, container: ContainerId, epoch: u64) {
        self.observe_scope_epoch(TokenScope::Container, container.0, epoch);
    }

    /// Epoch observation for any scope (replication groups included).
    pub fn observe_scope_epoch(&self, scope: TokenScope, scope_id: u64, epoch: u64) {
        let key = (scope_tag(scope), scope_id);
        let mut epochs = self.epochs.lock();
        let slot = epochs.entry(key).or_insert(0);
        if epoch > *slot {
            *slot = epoch;
        }
    }

    /// Drop all cached signature verdicts, so every subsequent check pays
    /// full curve arithmetic (how `lwfs-benchmark` times a cold verify).
    pub fn invalidate_all(&self) {
        self.verified.lock().clear();
    }

    /// Full data-path check of a container-scoped token: framing, scope,
    /// object range, op mask, lifetime (skew-tolerant), revocation epoch,
    /// holder binding, and signature — in that order, cheapest first.
    ///
    /// `sender_nid` is the network-installed node id of the requester, used
    /// only when the token is holder-bound (`holder_nid != 0`).
    pub fn check(
        &self,
        blob: &[u8],
        need: OpMask,
        container: ContainerId,
        obj: u64,
        now: u64,
        sender_nid: u32,
    ) -> Result<(), Error> {
        let tok = CapToken::decode(blob).map_err(|_| Error::BadCapability)?;
        if tok.claims.scope != TokenScope::Container || tok.claims.scope_id != container.0 {
            return Err(Error::BadCapability);
        }
        if obj < tok.claims.obj_lo || obj > tok.claims.obj_hi {
            return Err(Error::AccessDenied);
        }
        if !tok.claims.ops.contains(need) {
            return Err(Error::AccessDenied);
        }
        self.check_common(&tok, blob, now, sender_nid)
    }

    /// Check a group-scoped token presented on a [`ReplShip`]
    /// (`lwfs_proto::RequestBody::ReplShip`): the token must name this
    /// replication group and be bound to the shipping node.
    pub fn check_group(
        &self,
        blob: &[u8],
        group: u32,
        now: u64,
        sender_nid: u32,
    ) -> Result<(), Error> {
        let tok = CapToken::decode(blob).map_err(|_| Error::BadCapability)?;
        if tok.claims.scope != TokenScope::ReplGroup || tok.claims.scope_id != group as u64 {
            return Err(Error::BadCapability);
        }
        if tok.claims.holder_nid == 0 {
            // Ship authority is never a bearer token: it must be pinned to
            // a specific member, or a stolen blob authorizes anyone.
            return Err(Error::AccessDenied);
        }
        self.check_common(&tok, blob, now, sender_nid)
    }

    fn check_common(
        &self,
        tok: &CapToken,
        blob: &[u8],
        now: u64,
        sender_nid: u32,
    ) -> Result<(), Error> {
        if !tok.claims.lifetime.valid_at_with_skew(now, self.clock_skew_ns) {
            return Err(Error::CapabilityExpired);
        }
        let observed = {
            let key = (scope_tag(tok.claims.scope), tok.claims.scope_id);
            self.epochs.lock().get(&key).copied().unwrap_or(0)
        };
        if tok.claims.revocation_epoch < observed {
            self.stale.inc();
            return Err(Error::CapabilityRevoked);
        }
        if tok.claims.holder_nid != 0 && tok.claims.holder_nid != sender_nid {
            return Err(Error::AccessDenied);
        }

        let start = Instant::now();
        let fp = fingerprint(blob);
        let cached = self.verified.lock().contains_key(&fp);
        let ok = if cached {
            self.hits.inc();
            true
        } else {
            self.misses.inc();
            let ok = tok.signature_valid(&self.public);
            if ok {
                let mut verified = self.verified.lock();
                if verified.len() >= SIG_CACHE_CAP {
                    verified.clear();
                }
                verified.insert(fp, ());
            }
            ok
        };
        self.verify_ns.record_duration(start.elapsed());
        if ok {
            Ok(())
        } else {
            Err(Error::BadCapability)
        }
    }
}

impl std::fmt::Debug for LocalCapVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalCapVerifier")
            .field("public", &self.public)
            .field("clock_skew_ns", &self.clock_skew_ns)
            .finish()
    }
}

fn scope_tag(scope: TokenScope) -> u8 {
    match scope {
        TokenScope::Container => 0,
        TokenScope::ReplGroup => 1,
    }
}

fn fingerprint(blob: &[u8]) -> u64 {
    u64::from_le_bytes(sha512(blob)[..8].try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{CapClaims, CapIssuer};
    use lwfs_proto::Lifetime;

    const CID: ContainerId = ContainerId(7);

    fn setup() -> (CapIssuer, LocalCapVerifier) {
        let iss = CapIssuer::from_cluster_seed(0xD00D);
        let v = LocalCapVerifier::new(iss.public(), 0);
        (iss, v)
    }

    #[test]
    fn valid_token_passes_and_second_check_hits_cache() {
        let (iss, v) = setup();
        let blob = iss.mint(CapClaims::container(CID, OpMask::READ, Lifetime::UNBOUNDED));
        assert_eq!(v.check(&blob, OpMask::READ, CID, 5, 10, 1), Ok(()));
        assert_eq!(v.check(&blob, OpMask::READ, CID, 5, 10, 1), Ok(()));
        assert_eq!(v.hits.get(), 1);
        assert_eq!(v.misses.get(), 1);
        assert!(v.verify_ns.count() >= 2);
    }

    #[test]
    fn wrong_container_and_missing_op_are_rejected() {
        let (iss, v) = setup();
        let blob = iss.mint(CapClaims::container(CID, OpMask::READ, Lifetime::UNBOUNDED));
        assert_eq!(
            v.check(&blob, OpMask::READ, ContainerId(8), 0, 10, 1),
            Err(Error::BadCapability)
        );
        assert_eq!(v.check(&blob, OpMask::WRITE, CID, 0, 10, 1), Err(Error::AccessDenied));
    }

    #[test]
    fn object_range_is_enforced() {
        let (iss, v) = setup();
        let blob = iss.mint(
            CapClaims::container(CID, OpMask::READ, Lifetime::UNBOUNDED).with_obj_range(10, 20),
        );
        assert_eq!(v.check(&blob, OpMask::READ, CID, 15, 1, 1), Ok(()));
        assert_eq!(v.check(&blob, OpMask::READ, CID, 9, 1, 1), Err(Error::AccessDenied));
        assert_eq!(v.check(&blob, OpMask::READ, CID, 21, 1, 1), Err(Error::AccessDenied));
    }

    #[test]
    fn stale_epoch_is_revoked_even_when_signature_is_cached() {
        let (iss, v) = setup();
        let blob =
            iss.mint(CapClaims::container(CID, OpMask::READ, Lifetime::UNBOUNDED).with_epoch(3));
        assert_eq!(v.check(&blob, OpMask::READ, CID, 0, 1, 1), Ok(()));
        v.observe_epoch(CID, 4);
        assert_eq!(v.check(&blob, OpMask::READ, CID, 0, 1, 1), Err(Error::CapabilityRevoked));
        assert_eq!(v.stale.get(), 1);
        // Equal epoch is still fine; the observation is monotonic.
        let fresh =
            iss.mint(CapClaims::container(CID, OpMask::READ, Lifetime::UNBOUNDED).with_epoch(4));
        assert_eq!(v.check(&fresh, OpMask::READ, CID, 0, 1, 1), Ok(()));
        v.observe_epoch(CID, 2);
        assert_eq!(v.check(&blob, OpMask::READ, CID, 0, 1, 1), Err(Error::CapabilityRevoked));
    }

    #[test]
    fn clock_skew_rescues_fresh_caps_but_never_expired_ones() {
        let iss = CapIssuer::from_cluster_seed(0xD00D);
        let strict = LocalCapVerifier::new(iss.public(), 0);
        let lenient = LocalCapVerifier::new(iss.public(), 10);
        let blob =
            iss.mint(CapClaims::container(CID, OpMask::READ, Lifetime::starting_at(100, 50)));
        // Verifier clock 5 ticks behind the issuer's.
        assert_eq!(strict.check(&blob, OpMask::READ, CID, 0, 95, 1), Err(Error::CapabilityExpired));
        assert_eq!(lenient.check(&blob, OpMask::READ, CID, 0, 95, 1), Ok(()));
        // Expiry is not loosened.
        assert_eq!(
            lenient.check(&blob, OpMask::READ, CID, 0, 150, 1),
            Err(Error::CapabilityExpired)
        );
    }

    #[test]
    fn holder_binding_is_enforced() {
        let (iss, v) = setup();
        let blob = iss
            .mint(CapClaims::container(CID, OpMask::READ, Lifetime::UNBOUNDED).with_holder(1101));
        assert_eq!(v.check(&blob, OpMask::READ, CID, 0, 1, 1101), Ok(()));
        assert_eq!(v.check(&blob, OpMask::READ, CID, 0, 1, 1102), Err(Error::AccessDenied));
    }

    #[test]
    fn group_tokens_authenticate_ships() {
        let (iss, v) = setup();
        let blob = iss.mint(CapClaims::repl_group(3, 1101));
        assert_eq!(v.check_group(&blob, 3, 1, 1101), Ok(()));
        assert_eq!(v.check_group(&blob, 4, 1, 1101), Err(Error::BadCapability));
        assert_eq!(v.check_group(&blob, 3, 1, 1102), Err(Error::AccessDenied));
        // A container token is not ship authority.
        let ctok = iss.mint(CapClaims::container(CID, OpMask::ALL, Lifetime::UNBOUNDED));
        assert_eq!(v.check_group(&ctok, 3, 1, 1101), Err(Error::BadCapability));
        // Bearer group tokens are categorically rejected.
        let bearer = iss.mint(CapClaims::repl_group(3, 1101).with_holder(0));
        assert_eq!(v.check_group(&bearer, 3, 1, 1101), Err(Error::AccessDenied));
    }

    #[test]
    fn group_epoch_bump_revokes_ship_tokens() {
        let (iss, v) = setup();
        let blob = iss.mint(CapClaims::repl_group(3, 1101));
        assert_eq!(v.check_group(&blob, 3, 1, 1101), Ok(()));
        v.observe_scope_epoch(TokenScope::ReplGroup, 3, 1);
        assert_eq!(v.check_group(&blob, 3, 1, 1101), Err(Error::CapabilityRevoked));
    }

    #[test]
    fn forged_signature_rejected_and_not_cached() {
        let (iss, v) = setup();
        let other = CapIssuer::from_cluster_seed(0xFEED);
        let blob = other.mint(CapClaims::container(CID, OpMask::READ, Lifetime::UNBOUNDED));
        for _ in 0..2 {
            assert_eq!(v.check(&blob, OpMask::READ, CID, 0, 1, 1), Err(Error::BadCapability));
        }
        assert_eq!(v.hits.get(), 0, "failed verdicts must not be cached");
        assert_eq!(v.misses.get(), 2);
        let _ = iss;
    }

    #[test]
    fn invalidate_all_forces_reverification() {
        let (iss, v) = setup();
        let blob = iss.mint(CapClaims::container(CID, OpMask::READ, Lifetime::UNBOUNDED));
        assert_eq!(v.check(&blob, OpMask::READ, CID, 0, 1, 1), Ok(()));
        v.invalidate_all();
        assert_eq!(v.check(&blob, OpMask::READ, CID, 0, 1, 1), Ok(()));
        assert_eq!(v.misses.get(), 2);
    }

    #[test]
    fn metrics_land_in_shared_registry() {
        let iss = CapIssuer::from_cluster_seed(1);
        let reg = Registry::new();
        let v = LocalCapVerifier::with_registry(iss.public(), 0, &reg);
        let blob = iss.mint(CapClaims::container(CID, OpMask::READ, Lifetime::UNBOUNDED));
        v.check(&blob, OpMask::READ, CID, 0, 1, 1).unwrap();
        let frame = reg.frame(0);
        assert_eq!(frame.counter("cap.cache.misses"), Some(1));
        assert!(frame.histogram("cap.verify_ns").map(|h| h.count).unwrap_or(0) >= 1);
    }
}
