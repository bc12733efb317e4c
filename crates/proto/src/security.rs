//! Credentials and capabilities — the security data structures of §3.1.2.
//!
//! * A [`Credential`] is *proof of authentication*: it binds a principal
//!   identity to an opaque signature minted by the authentication service,
//!   bounded by a lifetime. Credentials are **fully transferable**: an
//!   application may hand its credential to every process acting on behalf
//!   of the same principal.
//! * A [`Capability`] is *proof of authorization*: it entitles the holder to
//!   perform a specific [`OpMask`] of operations on one
//!   container of objects. Capabilities are likewise fully transferable and
//!   transient (bounded by the issuing instance of the authorization
//!   service).
//!
//! Both carry an opaque [`Signature`] that **only the issuing service can
//!   verify** — deliberately *not* the NASD/T10 shared-key scheme, so that a
//! storage server never holds material that could mint new capabilities
//! (paper §3.1.2, trust discussion). The signature here is a keyed
//! SipHash-2-4 MAC over the canonical encoding of the body; SipHash is used
//! as a stand-in for a production MAC (the paper's implementation likewise
//! used an opaque "sufficiently hard to guess" bit string).

use crate::ids::{ContainerId, Lifetime, PrincipalId};
use crate::ops::OpMask;

pub mod siphash;

/// An opaque 128-bit authenticator tag.
///
/// Contents are meaningless to every component except the service that
/// minted it. Equality is all a holder can do with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; 16]);

impl Signature {
    pub const ZERO: Signature = Signature([0u8; 16]);
}

/// The signed portion of a credential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CredentialBody {
    /// The authenticated principal.
    pub principal: PrincipalId,
    /// Which instance ("epoch") of the authentication service issued this
    /// credential. Restarting the service invalidates outstanding
    /// credentials, matching the paper's "transient" property.
    pub issuer_epoch: u64,
    /// Validity window.
    pub lifetime: Lifetime,
    /// Issue-order serial number; used by the issuer to track revocation.
    pub serial: u64,
}

/// Proof of authentication (paper §3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Credential {
    pub body: CredentialBody,
    /// MAC over `body`, verifiable only by the authentication service.
    pub sig: Signature,
}

impl Credential {
    pub fn principal(&self) -> PrincipalId {
        self.body.principal
    }

    pub fn valid_at(&self, now: u64) -> bool {
        self.body.lifetime.valid_at(now)
    }
}

/// The signed portion of a capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapabilityBody {
    /// The container this capability governs — the *coarse-grained* unit of
    /// access control (§3.1.1). There is deliberately no per-object or
    /// per-byte scope.
    pub container: ContainerId,
    /// The operations the holder may perform.
    pub ops: OpMask,
    /// The principal on whose behalf the capability was issued. Retained
    /// for auditing; enforcement is by possession, not identity.
    pub principal: PrincipalId,
    /// Issuing instance of the authorization service.
    pub issuer_epoch: u64,
    /// Validity window (intersection of policy lifetime and the credential
    /// used to obtain the capability).
    pub lifetime: Lifetime,
    /// Issue-order serial number; the revocation machinery keys on this.
    pub serial: u64,
}

/// Proof of authorization (paper §3.1.2).
///
/// `Capability` is `Copy` and 64 bytes: cheap to scatter to ten thousand
/// compute processes and to store in server-side verification caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability {
    pub body: CapabilityBody,
    /// MAC over `body`, verifiable only by the authorization service.
    pub sig: Signature,
}

impl Capability {
    pub fn container(&self) -> ContainerId {
        self.body.container
    }

    pub fn ops(&self) -> OpMask {
        self.body.ops
    }

    /// Does this capability claim to grant `op`? (The claim still has to be
    /// verified by the authorization service before a server honours it.)
    pub fn grants(&self, op: OpMask) -> bool {
        self.body.ops.contains(op)
    }

    pub fn valid_at(&self, now: u64) -> bool {
        self.body.lifetime.valid_at(now)
    }

    /// Stable cache key used by storage-server capability caches: a
    /// capability is identified by its issuer serial plus signature, so two
    /// capabilities for the same container/ops issued separately are cached
    /// (and revoked) independently.
    pub fn cache_key(&self) -> CapabilityKey {
        CapabilityKey { serial: self.body.serial, sig: self.sig }
    }
}

/// Identity of a capability in caches and revocation tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapabilityKey {
    pub serial: u64,
    pub sig: Signature,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(ops: OpMask) -> Capability {
        Capability {
            body: CapabilityBody {
                container: ContainerId(7),
                ops,
                principal: PrincipalId(1),
                issuer_epoch: 1,
                lifetime: Lifetime::UNBOUNDED,
                serial: 99,
            },
            sig: Signature([0xAB; 16]),
        }
    }

    #[test]
    fn grants_checks_claimed_ops() {
        let c = cap(OpMask::READ | OpMask::WRITE);
        assert!(c.grants(OpMask::READ));
        assert!(c.grants(OpMask::READ | OpMask::WRITE));
        assert!(!c.grants(OpMask::CREATE));
    }

    #[test]
    fn cache_key_distinguishes_serials() {
        let a = cap(OpMask::READ);
        let mut b = a;
        b.body.serial = 100;
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn cache_key_distinguishes_signatures() {
        let a = cap(OpMask::READ);
        let mut b = a;
        b.sig = Signature([0xCD; 16]);
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn capability_is_small() {
        // The scatter step sends one capability per message hop; keep it
        // comfortably inside a cache line pair.
        assert!(std::mem::size_of::<Capability>() <= 96);
        assert!(std::mem::size_of::<Credential>() <= 64);
    }

    #[test]
    fn expired_capability_reports_invalid() {
        let mut c = cap(OpMask::READ);
        c.body.lifetime = Lifetime::starting_at(0, 10);
        assert!(c.valid_at(5));
        assert!(!c.valid_at(10));
    }
}
