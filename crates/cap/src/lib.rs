//! Self-certifying capabilities for LWFS.
//!
//! The paper's capability (§3.1.2) is an opaque, MAC-authenticated token:
//! only the authorization service can check it, so a storage server seeing
//! a cap for the first time must issue a verify-through RPC — a central
//! round trip on the data path, and a disaster on wide-area links. This
//! crate replaces the trust shape rather than the interface:
//!
//! * the authorization service holds an ed25519 *signing* key and becomes
//!   a pure [`CapIssuer`];
//! * the claims `{scope, object range, op mask, lifetime, revocation
//!   epoch, holder}` travel in the clear inside a CRC-framed
//!   [`CapToken`] blob;
//! * storage servers hold only the *public* key in a [`LocalCapVerifier`]
//!   and check every request without talking to anyone.
//!
//! Revocation stays central and fast: each scope (container or replication
//! group) has a monotonically increasing *revocation epoch* stamped into
//! every minted token. Bumping the epoch at the issuer and pushing the new
//! value to enforcement points invalidates all earlier tokens for that
//! scope at once — the paper's "partial, near-immediate revocation",
//! without per-token state at the verifier.
//!
//! The crypto (SHA-512, ed25519) is implemented in-tree from FIPS 180-4 /
//! RFC 8032 because the build has no crypto crates; it is pinned to the
//! published test vectors. It is **not** constant-time — acceptable for a
//! research reproduction, noted here so nobody mistakes it for production
//! key hygiene.

#![forbid(unsafe_code)]

pub mod ed25519;
pub mod sha512;
pub mod token;
pub mod verifier;

pub use ed25519::{Keypair, PublicKey, PUBLIC_KEY_LEN, SIGNATURE_LEN};
pub use sha512::sha512;
pub use token::{CapClaims, CapIssuer, CapToken, TokenError, TokenScope, TOKEN_LEN};
pub use verifier::LocalCapVerifier;

/// How the cluster authenticates capabilities, per
/// `ClusterConfig::cap_mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapMode {
    /// The paper's mechanism: opaque MAC caps, verify-through at the authz
    /// service with per-site caching. No signed tokens are minted or
    /// checked.
    #[default]
    Legacy,
    /// Signed tokens are minted with every capability and verified locally
    /// at storage. They are mandatory: a data operation or replication
    /// ship without one is denied, with no verify-through fallback.
    Signed,
}

impl CapMode {
    /// Does this mode mint and check signed tokens at all?
    pub fn signed(self) -> bool {
        self == CapMode::Signed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_mode_defaults_to_legacy() {
        assert_eq!(CapMode::default(), CapMode::Legacy);
        assert!(!CapMode::Legacy.signed());
        assert!(CapMode::Signed.signed());
    }
}
