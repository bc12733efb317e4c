//! Cache-backed remote capability verification — the enforcement half of
//! the Figure 4-b protocol, shared by every policy-enforcing server
//! (storage service, lock service, PFS object-storage targets).
//!
//! Check order for an operation guarded by capability `cap`:
//!
//! 1. **Structural claim**: does `cap` even claim the needed op? (free)
//! 2. **Local cache**: previously verified and unexpired? (free — this is
//!    the common case that makes enforcement distributed)
//! 3. **Verify-through**: ask the authorization service, which records a
//!    back pointer to this site; cache a positive verdict.

use std::sync::Arc;
use std::time::Duration;

use lwfs_obs::{Counter, Registry, SpanRecord};
use lwfs_portals::{Endpoint, RpcClient};
use lwfs_proto::{
    Capability, Credential, Error, OpMask, PrincipalId, ProcessId, ReplyBody, RequestBody, Result,
};
use parking_lot::Mutex;

use crate::cache::{CapCache, CapCacheStats};
use crate::service::CredVerifier;

/// A [`CredVerifier`] that forwards to a *remote* authentication service
/// over the `VerifyCred` RPC.
///
/// In a co-located deployment the authorization service holds an
/// `Arc<AuthService>` directly; when authentication runs as its own
/// process, this shim preserves the Figure 5 trust arrow across the wire:
/// authorization still consults authentication for every first-contact
/// credential, it just does so with a message. The verifier owns a
/// dedicated endpoint (a client pid on the authorization node) so
/// verification traffic never contends with the service's request queue.
pub struct RemoteCredVerifier {
    ep: Endpoint,
    auth: ProcessId,
}

impl RemoteCredVerifier {
    pub fn new(ep: Endpoint, auth: ProcessId) -> Self {
        Self { ep, auth }
    }
}

impl CredVerifier for RemoteCredVerifier {
    fn verify_credential(&self, cred: &Credential) -> Result<PrincipalId> {
        let client = RpcClient::new(&self.ep);
        match client.call(self.auth, RequestBody::VerifyCred { cred: *cred })? {
            ReplyBody::CredOk { principal } => Ok(principal),
            other => Err(Error::Internal(format!("unexpected VerifyCred reply {other:?}"))),
        }
    }
}

/// A verifier bound to one enforcement site and one authorization server.
pub struct CachedCapVerifier {
    /// This enforcement site's address (recorded as the back pointer).
    site: ProcessId,
    /// The authorization service's address.
    authz: ProcessId,
    cache: CapCache,
    /// VerifyCaps round trips actually issued (the cache-miss path).
    verify_through: Arc<Counter>,
    /// Registry whose span log receives verify-through spans (see
    /// [`with_registry`](Self::with_registry)); `None` keeps the miss path
    /// dark, as under [`new`](Self::new).
    registry: Option<Arc<Registry>>,
    /// Held across the miss path: two workers missing on one cold
    /// capability at once verify it through once, not twice.
    miss_path: Mutex<()>,
    /// Timeout for VerifyCaps round trips.
    pub verify_timeout: Duration,
}

impl CachedCapVerifier {
    pub fn new(site: ProcessId, authz: ProcessId) -> Self {
        Self {
            site,
            authz,
            cache: CapCache::new(),
            verify_through: Arc::new(Counter::new()),
            registry: None,
            miss_path: Mutex::new(()),
            verify_timeout: Duration::from_secs(5),
        }
    }

    /// Like [`new`](Self::new), but publishing the cache's hit/miss/
    /// revocation counters and the verify-through counter under
    /// `authz.cache.*` in `registry` — and recording an
    /// `authz.verify_through` span in the caller's distributed trace for
    /// every cache-miss round trip.
    pub fn with_registry(site: ProcessId, authz: ProcessId, registry: &Arc<Registry>) -> Self {
        Self {
            cache: CapCache::with_registry(registry),
            verify_through: registry.counter("authz.cache.verify_through"),
            registry: Some(Arc::clone(registry)),
            ..Self::new(site, authz)
        }
    }

    pub fn stats(&self) -> CapCacheStats {
        self.cache.stats()
    }

    /// Handle an `InvalidateCaps` notice from the authorization service.
    pub fn invalidate(&self, keys: &[lwfs_proto::CapabilityKey]) -> u64 {
        self.cache.invalidate(keys)
    }

    /// Authorize `need` under `cap` at protocol time `now`, using `client`
    /// (an RPC client over this site's endpoint) for the miss path.
    pub fn check(
        &self,
        client: &RpcClient<'_>,
        cap: &Capability,
        need: OpMask,
        now: u64,
    ) -> Result<()> {
        // 1. The capability must claim the operation. A genuine capability
        //    lacking the op is an authorization failure, not a forgery.
        if !cap.grants(need) {
            return Err(Error::AccessDenied);
        }
        // 2. Expiry is local — the lifetime rides inside the capability.
        if !cap.valid_at(now) {
            return Err(Error::CapabilityExpired);
        }
        // 3. Cache hit: authorized with zero messages. A miss is counted
        //    once, under the miss path's lock, where a verdict another
        //    worker fetched meanwhile shows up as a hit.
        if self.cache.hit(cap, now) {
            return Ok(());
        }
        let _single_flight = self.miss_path.lock();
        if self.cache.check(cap, now) {
            return Ok(());
        }
        // 4. Verify through the authorization service (Figure 4-b step 2).
        self.verify_through.inc();
        let start_ns = self.registry.as_ref().map(|r| r.spans().now_ns());
        let reply = client
            .call(self.authz, RequestBody::VerifyCaps { caps: vec![*cap], cache_site: self.site });
        // The round trip belongs to the trace of whatever operation forced
        // the miss: the client carries that context ambiently, so the span
        // is attributed to the requesting op without extra plumbing.
        if let (Some(reg), Some(start_ns)) = (&self.registry, start_ns) {
            let ctx = client.trace();
            if ctx.trace_id != 0 {
                reg.spans().record(SpanRecord {
                    req_id: ctx.parent_req_id,
                    trace_id: ctx.trace_id,
                    nid: self.site.nid.0,
                    op: "authz",
                    stage: "verify_through",
                    start_ns,
                    dur_ns: reg.spans().now_ns().saturating_sub(start_ns),
                });
            }
        }
        let reply = reply?;
        match reply {
            ReplyBody::CapsVerified { valid } => {
                if valid.contains(&cap.cache_key()) {
                    self.cache.insert(cap);
                    Ok(())
                } else {
                    Err(Error::BadCapability)
                }
            }
            other => Err(Error::Internal(format!("unexpected VerifyCaps reply {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::AuthzServer;
    use crate::service::{AuthzConfig, AuthzService, CredVerifier};
    use lwfs_auth::{AuthConfig, AuthService, ManualClock, MockKerberos};
    use lwfs_portals::{Network, RpcServer};
    use lwfs_proto::{CapabilityBody, ContainerId, Lifetime, PrincipalId, Signature};
    use std::sync::Arc;

    #[test]
    fn miss_then_hits_then_invalidation() {
        let net = Network::default();
        let kdc = Arc::new(MockKerberos::new("TEST", 1));
        kdc.add_user("alice", "pw", PrincipalId(1));
        let clock = Arc::new(ManualClock::new());
        let auth = Arc::new(AuthService::new(
            AuthConfig::default(),
            kdc.clone() as Arc<dyn lwfs_auth::AuthMechanism>,
            clock.clone(),
        ));
        let alice = auth.get_cred(&kdc.kinit("alice", "pw").unwrap()).unwrap();
        let authz = AuthzService::new(
            AuthzConfig::default(),
            Arc::new(auth) as Arc<dyn CredVerifier>,
            clock,
        );
        let (authz_handle, authz_svc) = AuthzServer::spawn(&net, ProcessId::new(101, 0), authz);

        let cid = authz_svc.create_container(&alice).unwrap();
        let cap = authz_svc.get_caps(&alice, cid, OpMask::WRITE).unwrap()[0];

        let site = ProcessId::new(50, 0);
        let ep = net.register(site);
        let client = RpcClient::new(&ep);
        let verifier = CachedCapVerifier::new(site, authz_handle.id());

        // First check: miss + verify RPC.
        verifier.check(&client, &cap, OpMask::WRITE, 0).unwrap();
        // Next thousand: all cache hits, no RPC.
        let before = net.stats().total_ops();
        for _ in 0..1000 {
            verifier.check(&client, &cap, OpMask::WRITE, 0).unwrap();
        }
        assert_eq!(net.stats().total_ops(), before, "hits must be message-free");
        assert_eq!(verifier.stats().hits, 1000);

        // Claiming an op the capability lacks fails without any RPC.
        assert_eq!(
            verifier.check(&client, &cap, OpMask::REMOVE, 0).unwrap_err(),
            Error::AccessDenied
        );

        // Invalidation drops the cached verdict; the revoked cap then fails
        // at the authorization service.
        let admin = authz_svc.get_caps(&alice, cid, OpMask::ADMIN).unwrap()[0];
        let (notices, _) =
            authz_svc.mod_policy(&admin, cid, PrincipalId(1), OpMask::NONE, OpMask::WRITE).unwrap();
        for n in &notices {
            assert_eq!(n.site, site);
            verifier.invalidate(&n.keys);
        }
        assert_eq!(
            verifier.check(&client, &cap, OpMask::WRITE, 0).unwrap_err(),
            Error::BadCapability
        );
        authz_handle.shutdown();
    }

    #[test]
    fn two_workers_missing_on_one_cold_capability_verify_it_through_once() {
        let net = Network::default();
        let authz = net.register(ProcessId::new(101, 0));
        let site = ProcessId::new(50, 0);
        let ep = net.register(site);
        let verifier = CachedCapVerifier::new(site, authz.id());
        let body = CapabilityBody {
            container: ContainerId(1),
            ops: OpMask::WRITE,
            principal: PrincipalId(1),
            issuer_epoch: 1,
            lifetime: Lifetime { not_before: 0, not_after: u64::MAX },
            serial: 7,
        };
        let cap = Capability { body, sig: Signature([7; 16]) };
        let check = || verifier.check(&RpcClient::new(&ep), &cap, OpMask::WRITE, 0);
        // A stand-in authorization service that holds the first worker's
        // VerifyCaps while the second worker checks the same capability.
        let srv = RpcServer::new(&authz);
        let verify_caps = std::thread::scope(|s| {
            let first = s.spawn(check);
            let mut held = vec![srv.next_request(Duration::from_secs(5)).unwrap()];
            let second = s.spawn(check);
            // A second verify-through arrives within microseconds if the
            // second worker misses too; none may arrive at all.
            held.extend(srv.next_request(Duration::from_millis(200)).ok());
            for req in &held {
                let RequestBody::VerifyCaps { caps, .. } = &req.body else { panic!("{req:?}") };
                let valid = caps.iter().map(Capability::cache_key).collect();
                srv.reply(req, ReplyBody::CapsVerified { valid }).unwrap();
            }
            first.join().unwrap().unwrap();
            second.join().unwrap().unwrap();
            held.len()
        });
        assert_eq!(verify_caps, 1, "one VerifyCaps for one cold capability");
        let stats = verifier.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "the waiting worker counts a hit");
    }
}
