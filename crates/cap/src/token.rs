//! The self-certifying capability token: claims + ed25519 signature in a
//! compact CRC-framed blob.
//!
//! The paper's capability (§3.1.2) is an *opaque* authenticator only the
//! authorization service can check, which forces the verify-through RPC on
//! first contact. A signed token inverts that trust shape: the claims are
//! in the clear, the signature binds them to the issuer's key, and anyone
//! holding the (public) verifying key checks locally. The blob layout is
//!
//! ```text
//! [ magic u32 | scope u8 | scope_id u64 | obj_lo u64 | obj_hi u64
//!   | ops u32 | not_before u64 | not_after u64 | revocation_epoch u64
//!   | holder_nid u32 | principal u64 | serial u64 ]   -- signed claims
//! [ sig [u8; 64] ]                                    -- ed25519 over claims
//! [ crc32 u32 ]                                       -- IEEE, over all above
//! ```
//!
//! all little-endian, 129 bytes total. The trailing CRC is the one the WAL
//! and the socket fabric frame with (`lwfs_proto::frame::crc32`): a cheap
//! integrity gate so a corrupted blob is rejected before any curve
//! arithmetic runs.

use lwfs_proto::frame::crc32;
use lwfs_proto::{ContainerId, Decode, Lifetime, OpMask, PrincipalId};

use crate::ed25519::{Keypair, PublicKey, SIGNATURE_LEN};

/// `"LWC1"` — LWFS capability token, version 1.
pub const TOKEN_MAGIC: u32 = 0x4C57_4331;

/// Encoded size of a token blob.
pub const TOKEN_LEN: usize = CLAIMS_LEN + SIGNATURE_LEN + 4;

const CLAIMS_LEN: usize = 4 + 1 + 8 + 8 + 8 + 4 + 8 + 8 + 8 + 4 + 8 + 8;

/// What a token's authority is scoped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenScope {
    /// A container of objects — the unit of client data-path access.
    Container,
    /// A replication group — authority to ship WAL records into the group
    /// ([`ReplShip`](lwfs_proto::RequestBody::ReplShip) sender auth).
    ReplGroup,
}

impl TokenScope {
    fn tag(self) -> u8 {
        match self {
            TokenScope::Container => 0,
            TokenScope::ReplGroup => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<TokenScope> {
        match tag {
            0 => Some(TokenScope::Container),
            1 => Some(TokenScope::ReplGroup),
            _ => None,
        }
    }
}

/// The signed claims of a capability token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapClaims {
    pub scope: TokenScope,
    /// Container id or replication-group id, per `scope`.
    pub scope_id: u64,
    /// Inclusive object-id range the token covers; `(0, u64::MAX)` is the
    /// whole container. Group-scoped tokens ignore the range.
    pub obj_lo: u64,
    pub obj_hi: u64,
    /// The operations the holder may perform.
    pub ops: OpMask,
    /// Validity window (protocol nanoseconds).
    pub lifetime: Lifetime,
    /// The scope's revocation epoch at mint time. A verifier that has
    /// observed a newer epoch for this scope rejects the token — this is
    /// how central revocation reaches a decentralized verifier without a
    /// per-token back-pointer walk.
    pub revocation_epoch: u64,
    /// Node the token is bound to; 0 = bearer token (freely transferable,
    /// the paper's scatter-to-ten-thousand-processes property).
    pub holder_nid: u32,
    /// Principal the token was issued for (audit trail, not enforcement).
    pub principal: PrincipalId,
    /// Issuer serial, for logs and partial revocation bookkeeping.
    pub serial: u64,
}

impl CapClaims {
    /// A container-scoped claim set covering the whole container.
    pub fn container(container: ContainerId, ops: OpMask, lifetime: Lifetime) -> CapClaims {
        CapClaims {
            scope: TokenScope::Container,
            scope_id: container.0,
            obj_lo: 0,
            obj_hi: u64::MAX,
            ops,
            lifetime,
            revocation_epoch: 0,
            holder_nid: 0,
            principal: PrincipalId(0),
            serial: 0,
        }
    }

    /// A group-scoped claim set authorizing replication ships from one
    /// specific member node.
    pub fn repl_group(group: u32, holder_nid: u32) -> CapClaims {
        CapClaims {
            scope: TokenScope::ReplGroup,
            scope_id: group as u64,
            obj_lo: 0,
            obj_hi: u64::MAX,
            ops: OpMask::ALL,
            lifetime: Lifetime::UNBOUNDED,
            revocation_epoch: 0,
            holder_nid,
            principal: PrincipalId(0),
            serial: 0,
        }
    }

    pub fn with_epoch(mut self, epoch: u64) -> CapClaims {
        self.revocation_epoch = epoch;
        self
    }

    pub fn with_principal(mut self, principal: PrincipalId) -> CapClaims {
        self.principal = principal;
        self
    }

    pub fn with_serial(mut self, serial: u64) -> CapClaims {
        self.serial = serial;
        self
    }

    pub fn with_holder(mut self, nid: u32) -> CapClaims {
        self.holder_nid = nid;
        self
    }

    pub fn with_obj_range(mut self, lo: u64, hi: u64) -> CapClaims {
        self.obj_lo = lo;
        self.obj_hi = hi;
        self
    }

    /// The byte string the signature covers.
    fn signing_bytes(&self) -> [u8; CLAIMS_LEN] {
        let mut out = [0u8; CLAIMS_LEN];
        let mut at = 0;
        let mut put = |bytes: &[u8]| {
            out[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        put(&TOKEN_MAGIC.to_le_bytes());
        put(&[self.scope.tag()]);
        put(&self.scope_id.to_le_bytes());
        put(&self.obj_lo.to_le_bytes());
        put(&self.obj_hi.to_le_bytes());
        put(&self.ops.bits().to_le_bytes());
        put(&self.lifetime.not_before.to_le_bytes());
        put(&self.lifetime.not_after.to_le_bytes());
        put(&self.revocation_epoch.to_le_bytes());
        put(&self.holder_nid.to_le_bytes());
        put(&self.principal.0.to_le_bytes());
        put(&self.serial.to_le_bytes());
        debug_assert_eq!(at, CLAIMS_LEN);
        out
    }
}

/// A decoded capability token: claims plus the issuer's signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapToken {
    pub claims: CapClaims,
    pub sig: [u8; SIGNATURE_LEN],
}

/// Why a blob failed to decode or verify structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenError {
    /// Wrong length, bad CRC, bad magic, or an unknown scope tag.
    Malformed,
}

impl From<lwfs_proto::Error> for TokenError {
    fn from(_: lwfs_proto::Error) -> Self {
        TokenError::Malformed
    }
}

impl CapToken {
    /// Serialize to the CRC-framed wire blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(TOKEN_LEN);
        out.extend_from_slice(&self.claims.signing_bytes());
        out.extend_from_slice(&self.sig);
        out.extend_from_slice(&crc32(&out).to_le_bytes());
        out
    }

    /// Parse a wire blob: length, CRC, magic, and scope tag are checked;
    /// the signature is *not* (that is [`PublicKey::verify`]'s job, done by
    /// the verifier so it can cache the result).
    pub fn decode(blob: &[u8]) -> Result<CapToken, TokenError> {
        if blob.len() != TOKEN_LEN {
            return Err(TokenError::Malformed);
        }
        let (mut payload, mut trailer) = blob.split_at(TOKEN_LEN - 4);
        let p = &mut payload;
        if u32::decode(&mut trailer)? != crc32(p) || u32::decode(p)? != TOKEN_MAGIC {
            return Err(TokenError::Malformed);
        }
        // Field order is `CapClaims::signing_bytes`'s.
        let claims = CapClaims {
            scope: TokenScope::from_tag(u8::decode(p)?).ok_or(TokenError::Malformed)?,
            scope_id: Decode::decode(p)?,
            obj_lo: Decode::decode(p)?,
            obj_hi: Decode::decode(p)?,
            ops: Decode::decode(p)?,
            lifetime: Decode::decode(p)?,
            revocation_epoch: Decode::decode(p)?,
            holder_nid: Decode::decode(p)?,
            principal: Decode::decode(p)?,
            serial: Decode::decode(p)?,
        };
        Ok(CapToken { claims, sig: Decode::decode(p)? })
    }

    /// Check the signature against `key`.
    pub fn signature_valid(&self, key: &PublicKey) -> bool {
        key.verify(&self.claims.signing_bytes(), &self.sig)
    }
}

/// The minting side, held by the authorization service only. Storage
/// servers get [`CapIssuer::public`] and nothing else — compromise of a
/// storage server still cannot mint authority, preserving the paper's
/// trust argument against shared-key NASD schemes.
pub struct CapIssuer {
    keypair: Keypair,
}

impl std::fmt::Debug for CapIssuer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CapIssuer").field("public", &self.keypair.public()).finish()
    }
}

impl CapIssuer {
    pub fn new(keypair: Keypair) -> CapIssuer {
        CapIssuer { keypair }
    }

    /// Deterministic issuer from the shared cluster seed (mock trust root).
    pub fn from_cluster_seed(seed: u64) -> CapIssuer {
        CapIssuer::new(Keypair::from_cluster_seed(seed))
    }

    pub fn public(&self) -> PublicKey {
        self.keypair.public()
    }

    /// Sign `claims` into a wire blob.
    pub fn mint(&self, claims: CapClaims) -> Vec<u8> {
        CapToken { claims, sig: self.keypair.sign(&claims.signing_bytes()) }.encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::proptest;

    fn issuer() -> CapIssuer {
        CapIssuer::from_cluster_seed(0xBEEF)
    }

    fn sample_claims() -> CapClaims {
        CapClaims::container(ContainerId(42), OpMask::READ | OpMask::WRITE, Lifetime::UNBOUNDED)
            .with_epoch(3)
            .with_principal(PrincipalId(9))
            .with_serial(1234)
    }

    #[test]
    fn mint_decode_verify_roundtrip() {
        let iss = issuer();
        let blob = iss.mint(sample_claims());
        assert_eq!(blob.len(), TOKEN_LEN);
        let tok = CapToken::decode(&blob).unwrap();
        assert_eq!(tok.claims, sample_claims());
        assert!(tok.signature_valid(&iss.public()));
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        let iss = issuer();
        let blob = iss.mint(sample_claims());
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x01;
            // Either the CRC catches it at decode, or the signature fails.
            match CapToken::decode(&bad) {
                Err(TokenError::Malformed) => {}
                Ok(tok) => assert!(!tok.signature_valid(&iss.public()), "byte {i} accepted"),
            }
        }
    }

    #[test]
    fn truncated_and_padded_blobs_are_malformed() {
        let blob = issuer().mint(sample_claims());
        assert_eq!(CapToken::decode(&blob[..blob.len() - 1]), Err(TokenError::Malformed));
        let mut long = blob.clone();
        long.push(0);
        assert_eq!(CapToken::decode(&long), Err(TokenError::Malformed));
        assert_eq!(CapToken::decode(&[]), Err(TokenError::Malformed));
    }

    #[test]
    fn claims_forgery_without_key_fails() {
        // Take a validly signed token, raise its epoch in the claims, and
        // re-frame with a correct CRC: the signature must not cover it.
        let iss = issuer();
        let blob = iss.mint(sample_claims());
        let mut tok = CapToken::decode(&blob).unwrap();
        tok.claims.revocation_epoch = 999;
        let forged = tok.encode();
        let reparsed = CapToken::decode(&forged).unwrap();
        assert!(!reparsed.signature_valid(&iss.public()));
    }

    #[test]
    fn group_scope_roundtrip() {
        let iss = issuer();
        let blob = iss.mint(CapClaims::repl_group(7, 1101));
        let tok = CapToken::decode(&blob).unwrap();
        assert_eq!(tok.claims.scope, TokenScope::ReplGroup);
        assert_eq!(tok.claims.scope_id, 7);
        assert_eq!(tok.claims.holder_nid, 1101);
        assert!(tok.signature_valid(&iss.public()));
    }

    proptest! {
        #[test]
        fn arbitrary_claims_roundtrip(scope_id in 0u64..u64::MAX, lo in 0u64..1000,
                                      hi in 1000u64..u64::MAX, bits in 0u32..512,
                                      nb in 0u64..1u64 << 40, dur in 1u64..1u64 << 40,
                                      epoch in 0u64..u64::MAX, nid in 0u32..u32::MAX,
                                      principal in 0u64..u64::MAX, serial in 0u64..u64::MAX) {
            let claims = CapClaims {
                scope: if scope_id % 2 == 0 { TokenScope::Container } else { TokenScope::ReplGroup },
                scope_id,
                obj_lo: lo,
                obj_hi: hi,
                ops: OpMask::from_bits_truncate(bits),
                lifetime: Lifetime::starting_at(nb, dur),
                revocation_epoch: epoch,
                holder_nid: nid,
                principal: PrincipalId(principal),
                serial,
            };
            let iss = issuer();
            let tok = CapToken::decode(&iss.mint(claims)).unwrap();
            assert_eq!(tok.claims, claims);
            assert!(tok.signature_valid(&iss.public()));
        }

        #[test]
        fn random_blobs_never_panic(bytes: Vec<u8>) {
            let _ = CapToken::decode(&bytes);
        }
    }
}
