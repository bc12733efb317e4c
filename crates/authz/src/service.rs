//! The authorization service logic (transport-independent).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use lwfs_auth::{AuthService, Clock};
use lwfs_cap::{CapClaims, CapIssuer};
use lwfs_proto::security::siphash::MacKey;
use lwfs_proto::{
    Capability, CapabilityBody, CapabilityKey, ContainerId, Credential, Error, Lifetime, OpMask,
    PrincipalId, ProcessId, Result,
};
use parking_lot::Mutex;

use crate::policy::PolicyStore;

/// How the authorization service verifies credentials.
///
/// In a co-located deployment this is a direct reference to the
/// [`AuthService`]; over the network it is an RPC shim. Either way the
/// trust arrow points the right way (Figure 5): authorization trusts
/// authentication, never the reverse.
pub trait CredVerifier: Send + Sync + 'static {
    fn verify_credential(&self, cred: &Credential) -> Result<PrincipalId>;
}

impl CredVerifier for Arc<AuthService> {
    fn verify_credential(&self, cred: &Credential) -> Result<PrincipalId> {
        self.verify(cred)
    }
}

/// Credentials the first-contact cache holds before it starts over;
/// evicting can only ever cost a re-verification.
const CRED_CACHE_CAP: usize = 4096;

/// Configuration for an authorization service instance.
pub struct AuthzConfig {
    pub key_seed: u64,
    /// Instance epoch; restarting with a new epoch invalidates outstanding
    /// capabilities.
    pub epoch: u64,
    /// Capability lifetime in protocol nanoseconds.
    pub capability_ttl: u64,
}

impl Default for AuthzConfig {
    fn default() -> Self {
        Self { key_seed: 0xCA9A_B111, epoch: 1, capability_ttl: 8 * 3600 * 1_000_000_000 }
    }
}

/// Counters exposed to experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AuthzStats {
    /// Capabilities issued.
    pub caps_issued: u64,
    /// `VerifyCaps` calls answered (each is one storage-server cache miss).
    pub verify_calls: u64,
    /// Credential verifications forwarded to the authentication service
    /// (should be ~1 per distinct credential — the first-contact rule of
    /// Figure 4-a).
    pub cred_verifications: u64,
    /// Credential checks answered from the local cache.
    pub cred_cache_hits: u64,
    /// Capabilities revoked by policy changes.
    pub caps_revoked: u64,
    /// Invalidation notices generated (back-pointer walks).
    pub invalidations_sent: u64,
    /// Container revocation-epoch bumps (signed-cap revocation events).
    pub epoch_bumps: u64,
}

/// What a policy change requires the server to do: tell each caching
/// storage site to drop the listed capability keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationNotice {
    pub site: ProcessId,
    pub keys: Vec<CapabilityKey>,
}

struct IssuedCap {
    body: CapabilityBody,
    revoked: bool,
    /// Back pointers: storage servers caching a positive verdict for this
    /// capability (§3.1.4).
    cached_at: HashSet<ProcessId>,
}

struct AuthzState {
    policy: PolicyStore,
    issued: HashMap<u64, IssuedCap>,
    next_serial: u64,
    /// Credential-verification cache: credential serial → the exact
    /// credential (body and signature) the authentication service
    /// verified, and its principal. At most [`CRED_CACHE_CAP`] entries.
    cred_cache: HashMap<u64, (Credential, PrincipalId)>,
    /// Per-container revocation epochs for signed capabilities. Absent =
    /// epoch 0. Bumped on any revocation touching the container; storage
    /// servers reject tokens minted under an older epoch.
    revocation_epochs: HashMap<ContainerId, u64>,
    stats: AuthzStats,
}

/// The authorization service.
pub struct AuthzService {
    key: MacKey,
    epoch: u64,
    ttl: u64,
    verifier: Arc<dyn CredVerifier>,
    clock: Arc<dyn Clock>,
    /// When present, the service is also a signed-capability *issuer*: it
    /// holds the ed25519 signing key and mints a self-certifying token next
    /// to every opaque capability (paper trust shape inverted — see
    /// `lwfs-cap`).
    issuer: Option<CapIssuer>,
    /// Storage servers to push revocation-epoch updates to — the signed
    /// mode's enforcement sites, named with the issuer; the legacy
    /// back-pointer walk does not need them.
    enforcement_sites: Vec<ProcessId>,
    state: Mutex<AuthzState>,
}

impl AuthzService {
    pub fn new(
        config: AuthzConfig,
        verifier: Arc<dyn CredVerifier>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self {
            key: MacKey::new(config.key_seed, config.key_seed.rotate_left(31) ^ 0xCA95),
            epoch: config.epoch,
            ttl: config.capability_ttl,
            verifier,
            clock,
            issuer: None,
            enforcement_sites: Vec::new(),
            state: Mutex::new(AuthzState {
                policy: PolicyStore::new(),
                issued: HashMap::new(),
                next_serial: 0,
                cred_cache: HashMap::new(),
                revocation_epochs: HashMap::new(),
                stats: AuthzStats::default(),
            }),
        }
    }

    /// Turn the service into the signed-capability issuer for the storage
    /// servers `sites`, which enforce its tokens and receive its
    /// revocation-epoch pushes.
    pub fn with_issuer(mut self, issuer: CapIssuer, sites: Vec<ProcessId>) -> Self {
        self.issuer = Some(issuer);
        self.enforcement_sites = sites;
        self
    }

    pub fn enforcement_sites(&self) -> &[ProcessId] {
        &self.enforcement_sites
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn stats(&self) -> AuthzStats {
        self.state.lock().stats
    }

    fn sign(&self, body: &CapabilityBody) -> lwfs_proto::Signature {
        use lwfs_proto::Encode as _;
        lwfs_proto::Signature(self.key.mac(&body.to_bytes()))
    }

    /// Verify a credential, consulting the local cache first (Figure 4-a:
    /// "If this is the first authorization request from the client, the
    /// authorization server asks the authentication server to verify").
    ///
    /// A hit needs the very credential that was verified — same body, same
    /// signature — still inside its lifetime: a forged MAC or a stretched
    /// lifetime under a cached serial misses, and the authentication
    /// service refuses it.
    fn principal_of(&self, cred: &Credential) -> Result<PrincipalId> {
        {
            let mut st = self.state.lock();
            if let Some(&(seen, p)) = st.cred_cache.get(&cred.body.serial) {
                if seen == *cred && cred.valid_at(self.clock.now()) {
                    st.stats.cred_cache_hits += 1;
                    return Ok(p);
                }
            }
            st.stats.cred_verifications += 1;
        }
        let p = self.verifier.verify_credential(cred)?;
        let mut st = self.state.lock();
        if st.cred_cache.len() >= CRED_CACHE_CAP {
            st.cred_cache.clear();
        }
        st.cred_cache.insert(cred.body.serial, (*cred, p));
        Ok(p)
    }

    /// Drop a credential's cached verification, so its next use is judged
    /// by the authentication service again — which refuses it if it was
    /// revoked. Unauthenticated on purpose: evicting can only ever cost a
    /// re-verification.
    pub fn forget_credential(&self, cred: &Credential) {
        self.state.lock().cred_cache.remove(&cred.body.serial);
    }

    /// Create a container on behalf of the credential's principal.
    pub fn create_container(&self, cred: &Credential) -> Result<ContainerId> {
        let principal = self.principal_of(cred)?;
        Ok(self.state.lock().policy.create_container(principal))
    }

    /// Remove a container; requires an ADMIN capability for it.
    pub fn remove_container(&self, cap: &Capability) -> Result<()> {
        self.check_capability(cap, OpMask::ADMIN)?;
        let mut st = self.state.lock();
        st.policy.remove_container(cap.container())?;
        // Kill every outstanding capability for the container.
        let serials: Vec<u64> = st
            .issued
            .iter()
            .filter(|(_, c)| c.body.container == cap.container() && !c.revoked)
            .map(|(s, _)| *s)
            .collect();
        for s in serials {
            st.issued.get_mut(&s).expect("serial just listed").revoked = true;
            st.stats.caps_revoked += 1;
        }
        // Signed caps for the container die with it.
        Self::bump_epoch_locked(&mut st, cap.container());
        Ok(())
    }

    /// The current revocation epoch of a container (0 = never revoked).
    pub fn revocation_epoch(&self, container: ContainerId) -> u64 {
        self.state.lock().revocation_epochs.get(&container).copied().unwrap_or(0)
    }

    fn bump_epoch_locked(st: &mut AuthzState, container: ContainerId) -> u64 {
        let slot = st.revocation_epochs.entry(container).or_insert(0);
        *slot += 1;
        st.stats.epoch_bumps += 1;
        *slot
    }

    /// Issue capabilities for `ops` on `container` (Figure 4-a, step 1).
    ///
    /// One capability is minted per requested operation bit, which is what
    /// makes *partial* revocation possible later: each op's proof is an
    /// independently cacheable, independently revocable object.
    pub fn get_caps(
        &self,
        cred: &Credential,
        container: ContainerId,
        ops: OpMask,
    ) -> Result<Vec<Capability>> {
        if ops.is_empty() {
            return Err(Error::Malformed("requested empty op mask".into()));
        }
        let principal = self.principal_of(cred)?;
        let now = self.clock.now();
        let mut st = self.state.lock();
        let allowed = st.policy.allowed_ops(container, principal)?;
        if !allowed.contains(ops) {
            return Err(Error::AccessDenied);
        }
        let lifetime = Lifetime::starting_at(now, self.ttl).intersect(&cred.body.lifetime);
        let mut caps = Vec::with_capacity(ops.len() as usize);
        for op in ops.iter() {
            let serial = st.next_serial;
            st.next_serial += 1;
            let body = CapabilityBody {
                container,
                ops: op,
                principal,
                issuer_epoch: self.epoch,
                lifetime,
                serial,
            };
            let cap = Capability { body, sig: self.sign(&body) };
            st.issued.insert(serial, IssuedCap { body, revoked: false, cached_at: HashSet::new() });
            st.stats.caps_issued += 1;
            caps.push(cap);
        }
        Ok(caps)
    }

    /// [`get_caps`](Self::get_caps), plus — when this service was built
    /// [`with_issuer`](Self::with_issuer), i.e. the cluster runs signed
    /// caps — one self-certifying token per capability.
    ///
    /// The token binds the same `{container, op, lifetime, principal,
    /// serial}` tuple as the legacy capability and additionally the
    /// container's current revocation epoch, so a later epoch bump
    /// invalidates it everywhere without a round-trip. `tokens` is either
    /// empty (legacy mode) or parallel to `caps`.
    pub fn get_caps_with_tokens(
        &self,
        cred: &Credential,
        container: ContainerId,
        ops: OpMask,
    ) -> Result<(Vec<Capability>, Vec<Bytes>)> {
        let caps = self.get_caps(cred, container, ops)?;
        let Some(issuer) = &self.issuer else { return Ok((caps, Vec::new())) };
        let epoch = self.revocation_epoch(container);
        let tokens = caps
            .iter()
            .map(|cap| {
                let claims = CapClaims::container(container, cap.body.ops, cap.body.lifetime)
                    .with_epoch(epoch)
                    .with_principal(cap.body.principal)
                    .with_serial(cap.body.serial);
                Bytes::from(issuer.mint(claims))
            })
            .collect();
        Ok((caps, tokens))
    }

    /// Structural + liveness checks for one capability.
    fn check_capability(&self, cap: &Capability, need: OpMask) -> Result<()> {
        if cap.body.issuer_epoch != self.epoch || self.sign(&cap.body) != cap.sig {
            return Err(Error::BadCapability);
        }
        let st = self.state.lock();
        match st.issued.get(&cap.body.serial) {
            None => return Err(Error::BadCapability),
            Some(c) if c.revoked => return Err(Error::CapabilityRevoked),
            Some(c) if c.body != cap.body => return Err(Error::BadCapability),
            Some(_) => {}
        }
        drop(st);
        if !cap.body.lifetime.valid_at(self.clock.now()) {
            return Err(Error::CapabilityExpired);
        }
        if !cap.grants(need) {
            return Err(Error::AccessDenied);
        }
        Ok(())
    }

    /// Verify capabilities on behalf of a storage server (Figure 4-b,
    /// step 2) and record back pointers for the ones that verified.
    ///
    /// Returns the cache keys the site may now treat as valid.
    pub fn verify_caps(
        &self,
        caps: &[Capability],
        cache_site: ProcessId,
    ) -> Result<Vec<CapabilityKey>> {
        let mut valid = Vec::with_capacity(caps.len());
        {
            let mut st = self.state.lock();
            st.stats.verify_calls += 1;
        }
        for cap in caps {
            if self.check_capability(cap, OpMask::NONE).is_ok() {
                let mut st = self.state.lock();
                if let Some(c) = st.issued.get_mut(&cap.body.serial) {
                    c.cached_at.insert(cache_site);
                }
                valid.push(cap.cache_key());
            }
        }
        Ok(valid)
    }

    /// Apply a policy change (requires ADMIN on the container) and compute
    /// the revocation fallout.
    ///
    /// Revocation semantics (§3.1.4): every *issued* capability for this
    /// container+principal whose operation set intersects the revoked ops
    /// is killed; capabilities for untouched ops stay valid **and stay
    /// cached** at the storage servers. Fresh capabilities covering the
    /// principal's surviving grants are returned for convenience.
    pub fn mod_policy(
        &self,
        admin_cap: &Capability,
        container: ContainerId,
        principal: PrincipalId,
        grant: OpMask,
        revoke: OpMask,
    ) -> Result<(Vec<RevocationNotice>, OpMask)> {
        self.check_capability(admin_cap, OpMask::ADMIN)?;
        if admin_cap.container() != container {
            return Err(Error::AccessDenied);
        }
        let mut st = self.state.lock();
        let new_ops = st.policy.modify(container, principal, grant, revoke)?;

        // Walk issued capabilities, killing the ones that now over-grant.
        let mut per_site: HashMap<ProcessId, Vec<CapabilityKey>> = HashMap::new();
        let mut revoked_count = 0u64;
        for cap in st.issued.values_mut() {
            if cap.revoked
                || cap.body.container != container
                || cap.body.principal != principal
                || !cap.body.ops.intersects(revoke)
            {
                continue;
            }
            cap.revoked = true;
            revoked_count += 1;
            let key = CapabilityKey {
                serial: cap.body.serial,
                sig: lwfs_proto::Signature::ZERO, // filled below
            };
            // The stored body lets us recompute the true signature so the
            // notice matches what the site cached.
            let sig = {
                use lwfs_proto::Encode as _;
                lwfs_proto::Signature(self.key.mac(&cap.body.to_bytes()))
            };
            let key = CapabilityKey { sig, ..key };
            for site in &cap.cached_at {
                per_site.entry(*site).or_default().push(key);
            }
        }
        st.stats.caps_revoked += revoked_count;
        // Signed tokens are epoch-scoped per container, so any revocation
        // bumps the whole container's epoch. Coarser than the per-op legacy
        // kill list — still-authorized holders re-fetch caps — but it is
        // what lets storage reject stale tokens without a round-trip.
        if !revoke.is_empty() {
            Self::bump_epoch_locked(&mut st, container);
        }
        let notices: Vec<RevocationNotice> =
            per_site.into_iter().map(|(site, keys)| RevocationNotice { site, keys }).collect();
        st.stats.invalidations_sent += notices.len() as u64;
        Ok((notices, new_ops))
    }

    /// Number of distinct storage sites holding cached verdicts for live
    /// capabilities (diagnostic; bounded by m, never by n — §2.3 rule 2).
    pub fn backpointer_sites(&self) -> usize {
        let st = self.state.lock();
        let mut sites: HashSet<ProcessId> = HashSet::new();
        for cap in st.issued.values() {
            sites.extend(cap.cached_at.iter().copied());
        }
        sites.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_auth::{AuthConfig, ManualClock, MockKerberos};

    fn boot() -> (AuthzService, Credential, Credential, ManualClock) {
        let kdc = Arc::new(MockKerberos::new("TEST", 1));
        kdc.add_user("alice", "pw", PrincipalId(1));
        kdc.add_user("bob", "pw", PrincipalId(2));
        let clock = ManualClock::new();
        let auth = Arc::new(AuthService::new(
            AuthConfig::default(),
            kdc.clone() as Arc<dyn lwfs_auth::AuthMechanism>,
            Arc::new(clock.clone()),
        ));
        let alice = auth.get_cred(&kdc.kinit("alice", "pw").unwrap()).unwrap();
        let bob = auth.get_cred(&kdc.kinit("bob", "pw").unwrap()).unwrap();
        let authz = AuthzService::new(
            AuthzConfig::default(),
            Arc::new(auth) as Arc<dyn CredVerifier>,
            Arc::new(clock.clone()),
        );
        (authz, alice, bob, clock)
    }

    const SITE_A: ProcessId = ProcessId::new(50, 0);
    const SITE_B: ProcessId = ProcessId::new(51, 0);

    #[test]
    fn owner_can_get_caps() {
        let (authz, alice, _bob, _) = boot();
        let cid = authz.create_container(&alice).unwrap();
        let caps = authz.get_caps(&alice, cid, OpMask::READ | OpMask::WRITE).unwrap();
        assert_eq!(caps.len(), 2, "one capability per operation bit");
        for c in &caps {
            assert_eq!(c.container(), cid);
            assert_eq!(c.ops().len(), 1);
        }
    }

    #[test]
    fn stranger_denied() {
        let (authz, alice, bob, _) = boot();
        let cid = authz.create_container(&alice).unwrap();
        assert_eq!(authz.get_caps(&bob, cid, OpMask::READ).unwrap_err(), Error::AccessDenied);
    }

    #[test]
    fn cred_verified_once_then_cached() {
        let (authz, alice, _bob, _) = boot();
        let cid = authz.create_container(&alice).unwrap();
        for _ in 0..5 {
            authz.get_caps(&alice, cid, OpMask::READ).unwrap();
        }
        let stats = authz.stats();
        assert_eq!(stats.cred_verifications, 1, "first contact only");
        assert_eq!(stats.cred_cache_hits, 5);
    }

    #[test]
    fn cached_cred_is_refused_once_its_lifetime_ends() {
        let (authz, alice, _bob, clock) = boot();
        let cid = authz.create_container(&alice).unwrap();
        authz.get_caps(&alice, cid, OpMask::READ).unwrap();
        assert_eq!(authz.stats().cred_cache_hits, 1);
        clock.set(alice.body.lifetime.not_after);
        assert_eq!(
            authz.get_caps(&alice, cid, OpMask::READ).unwrap_err(),
            Error::CredentialExpired,
            "an expired credential is judged again, not answered from the cache"
        );
        assert_eq!(authz.stats().cred_verifications, 2);
    }

    #[test]
    fn verify_caps_records_backpointers() {
        let (authz, alice, _bob, _) = boot();
        let cid = authz.create_container(&alice).unwrap();
        let caps = authz.get_caps(&alice, cid, OpMask::WRITE).unwrap();
        let valid = authz.verify_caps(&caps, SITE_A).unwrap();
        assert_eq!(valid.len(), 1);
        assert_eq!(valid[0], caps[0].cache_key());
        assert_eq!(authz.backpointer_sites(), 1);
        authz.verify_caps(&caps, SITE_B).unwrap();
        assert_eq!(authz.backpointer_sites(), 2);
    }

    #[test]
    fn forged_cap_fails_verification() {
        let (authz, alice, _bob, _) = boot();
        let cid = authz.create_container(&alice).unwrap();
        let mut cap = authz.get_caps(&alice, cid, OpMask::WRITE).unwrap()[0];
        cap.body.ops = OpMask::ALL; // privilege escalation attempt
        let valid = authz.verify_caps(&[cap], SITE_A).unwrap();
        assert!(valid.is_empty());
    }

    #[test]
    fn partial_revocation_kills_write_keeps_read() {
        // The chmod scenario of §3.1.4, end to end.
        let (authz, alice, _bob, _) = boot();
        let cid = authz.create_container(&alice).unwrap();
        let admin = authz.get_caps(&alice, cid, OpMask::ADMIN).unwrap()[0];
        let rw = authz.get_caps(&alice, cid, OpMask::READ | OpMask::WRITE).unwrap();
        let read_cap = rw.iter().find(|c| c.grants(OpMask::READ)).copied().unwrap();
        let write_cap = rw.iter().find(|c| c.grants(OpMask::WRITE)).copied().unwrap();
        authz.verify_caps(&rw, SITE_A).unwrap();

        let (notices, new_ops) =
            authz.mod_policy(&admin, cid, PrincipalId(1), OpMask::NONE, OpMask::WRITE).unwrap();
        assert!(!new_ops.intersects(OpMask::WRITE));
        assert!(new_ops.contains(OpMask::READ));

        // Exactly one site must be told to drop exactly the write cap.
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].site, SITE_A);
        assert_eq!(notices[0].keys, vec![write_cap.cache_key()]);

        // Write is dead; read still verifies.
        assert!(authz.verify_caps(&[write_cap], SITE_B).unwrap().is_empty());
        assert_eq!(authz.verify_caps(&[read_cap], SITE_B).unwrap().len(), 1);
    }

    #[test]
    fn revocation_notices_cover_all_caching_sites() {
        let (authz, alice, _bob, _) = boot();
        let cid = authz.create_container(&alice).unwrap();
        let admin = authz.get_caps(&alice, cid, OpMask::ADMIN).unwrap()[0];
        let w = authz.get_caps(&alice, cid, OpMask::WRITE).unwrap();
        authz.verify_caps(&w, SITE_A).unwrap();
        authz.verify_caps(&w, SITE_B).unwrap();
        let (notices, _) =
            authz.mod_policy(&admin, cid, PrincipalId(1), OpMask::NONE, OpMask::WRITE).unwrap();
        let mut sites: Vec<ProcessId> = notices.iter().map(|n| n.site).collect();
        sites.sort();
        assert_eq!(sites, vec![SITE_A, SITE_B]);
    }

    #[test]
    fn uncached_revocation_produces_no_notices() {
        let (authz, alice, _bob, _) = boot();
        let cid = authz.create_container(&alice).unwrap();
        let admin = authz.get_caps(&alice, cid, OpMask::ADMIN).unwrap()[0];
        let _w = authz.get_caps(&alice, cid, OpMask::WRITE).unwrap();
        let (notices, _) =
            authz.mod_policy(&admin, cid, PrincipalId(1), OpMask::NONE, OpMask::WRITE).unwrap();
        assert!(notices.is_empty(), "nothing cached, nothing to invalidate");
        assert_eq!(authz.stats().caps_revoked, 1);
    }

    #[test]
    fn non_admin_cannot_change_policy() {
        let (authz, alice, _bob, _) = boot();
        let cid = authz.create_container(&alice).unwrap();
        let read = authz.get_caps(&alice, cid, OpMask::READ).unwrap()[0];
        let err =
            authz.mod_policy(&read, cid, PrincipalId(2), OpMask::READ, OpMask::NONE).unwrap_err();
        assert_eq!(err, Error::AccessDenied);
    }

    #[test]
    fn admin_cap_scoped_to_its_container() {
        let (authz, alice, _bob, _) = boot();
        let cid1 = authz.create_container(&alice).unwrap();
        let cid2 = authz.create_container(&alice).unwrap();
        let admin1 = authz.get_caps(&alice, cid1, OpMask::ADMIN).unwrap()[0];
        let err = authz
            .mod_policy(&admin1, cid2, PrincipalId(2), OpMask::READ, OpMask::NONE)
            .unwrap_err();
        assert_eq!(err, Error::AccessDenied);
    }

    #[test]
    fn grant_then_stranger_can_get_caps() {
        let (authz, alice, bob, _) = boot();
        let cid = authz.create_container(&alice).unwrap();
        let admin = authz.get_caps(&alice, cid, OpMask::ADMIN).unwrap()[0];
        authz.mod_policy(&admin, cid, PrincipalId(2), OpMask::READ, OpMask::NONE).unwrap();
        let caps = authz.get_caps(&bob, cid, OpMask::READ).unwrap();
        assert_eq!(caps.len(), 1);
        assert_eq!(authz.get_caps(&bob, cid, OpMask::WRITE).unwrap_err(), Error::AccessDenied);
    }

    #[test]
    fn capability_expiry() {
        let (authz, alice, _bob, clock) = boot();
        let cid = authz.create_container(&alice).unwrap();
        let caps = authz.get_caps(&alice, cid, OpMask::READ).unwrap();
        assert_eq!(authz.verify_caps(&caps, SITE_A).unwrap().len(), 1);
        clock.advance(9 * 3600 * 1_000_000_000);
        assert!(authz.verify_caps(&caps, SITE_A).unwrap().is_empty());
    }

    #[test]
    fn remove_container_requires_admin_and_kills_caps() {
        let (authz, alice, _bob, _) = boot();
        let cid = authz.create_container(&alice).unwrap();
        let admin = authz.get_caps(&alice, cid, OpMask::ADMIN).unwrap()[0];
        let read = authz.get_caps(&alice, cid, OpMask::READ).unwrap()[0];
        assert_eq!(authz.remove_container(&read).unwrap_err(), Error::AccessDenied);
        authz.remove_container(&admin).unwrap();
        assert!(authz.verify_caps(&[read], SITE_A).unwrap().is_empty());
        assert!(authz.get_caps(&alice, cid, OpMask::READ).is_err());
    }

    #[test]
    fn capability_lifetime_bounded_by_credential() {
        // A capability can never outlive the credential that obtained it.
        let kdc = Arc::new(MockKerberos::new("TEST", 1));
        kdc.add_user("alice", "pw", PrincipalId(1));
        let clock = ManualClock::new();
        let auth = Arc::new(AuthService::new(
            AuthConfig { credential_ttl: 1_000, ..Default::default() },
            kdc.clone() as Arc<dyn lwfs_auth::AuthMechanism>,
            Arc::new(clock.clone()),
        ));
        let alice = auth.get_cred(&kdc.kinit("alice", "pw").unwrap()).unwrap();
        let authz = AuthzService::new(
            AuthzConfig::default(),
            Arc::new(auth) as Arc<dyn CredVerifier>,
            Arc::new(clock.clone()),
        );
        let cid = authz.create_container(&alice).unwrap();
        let cap = authz.get_caps(&alice, cid, OpMask::READ).unwrap()[0];
        assert!(cap.body.lifetime.not_after <= alice.body.lifetime.not_after);
    }
}
