//! Capability sets.
//!
//! The authorization service issues one capability per operation bit
//! (enabling partial revocation, §3.1.4), so an application usually holds a
//! small set per container. `CapSet` selects the right capability for each
//! operation and serializes compactly for the log-tree scatter of
//! Figure 4-a.

use bytes::Bytes;
use lwfs_proto::{Capability, ContainerId, Decode as _, Encode as _, Error, OpMask, Result};

/// A process's capabilities for one container.
///
/// Each capability may be paired with a *self-certifying token* — the
/// ed25519-signed blob a storage server can verify locally. `tokens` is
/// always parallel to `caps`; an empty `Bytes` marks a capability with no
/// token (legacy clusters mint none at all).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapSet {
    caps: Vec<Capability>,
    tokens: Vec<Bytes>,
}

impl CapSet {
    pub fn new(caps: Vec<Capability>) -> Self {
        let tokens = vec![Bytes::new(); caps.len()];
        Self { caps, tokens }
    }

    /// Build a set pairing each capability with its signed token. A
    /// `tokens` list shorter than `caps` (e.g. empty, from a legacy
    /// issuer) is padded with empty blobs.
    pub fn with_tokens(caps: Vec<Capability>, mut tokens: Vec<Bytes>) -> Self {
        tokens.resize(caps.len(), Bytes::new());
        Self { caps, tokens }
    }

    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Merge in newly acquired capabilities (without tokens).
    pub fn extend(&mut self, caps: impl IntoIterator<Item = Capability>) {
        self.caps.extend(caps);
        self.tokens.resize(self.caps.len(), Bytes::new());
    }

    /// The capability granting `op` (the first one claiming every bit).
    pub fn for_op(&self, op: OpMask) -> Result<Capability> {
        self.caps.iter().find(|c| c.grants(op)).copied().ok_or(Error::AccessDenied)
    }

    /// The signed token paired with the capability [`for_op`](Self::for_op)
    /// would select; empty when that capability has none (legacy issuer).
    pub fn token_for_op(&self, op: OpMask) -> Bytes {
        self.caps
            .iter()
            .position(|c| c.grants(op))
            .and_then(|i| self.tokens.get(i).cloned())
            .unwrap_or_default()
    }

    /// Whether any capability in the set carries a signed token.
    pub fn has_tokens(&self) -> bool {
        self.tokens.iter().any(|t| !t.is_empty())
    }

    /// The container these capabilities govern (errors on an empty or
    /// mixed set — a `CapSet` is per-container by construction).
    pub fn container(&self) -> Result<ContainerId> {
        let first = self.caps.first().ok_or(Error::AccessDenied)?.container();
        if self.caps.iter().any(|c| c.container() != first) {
            return Err(Error::Internal("mixed-container capability set".into()));
        }
        Ok(first)
    }

    /// Union of all claimed operations.
    pub fn ops(&self) -> OpMask {
        self.caps.iter().fold(OpMask::NONE, |acc, c| acc | c.ops())
    }

    pub fn iter(&self) -> impl Iterator<Item = &Capability> {
        self.caps.iter()
    }

    /// Serialize for the scatter step (capabilities — and their signed
    /// tokens, which are fully transferable bearer proofs too — travel as
    /// their codec encodings).
    pub fn to_wire(&self) -> Bytes {
        let mut buf = bytes::BytesMut::new();
        self.caps.encode(&mut buf);
        self.tokens.encode(&mut buf);
        buf.freeze()
    }

    /// Deserialize a scattered capability set. A blob from a pre-token
    /// producer (bare capability list, no trailer) decodes with no tokens.
    pub fn from_wire(data: Bytes) -> Result<Self> {
        use bytes::Buf as _;
        let mut buf = data;
        let caps = Vec::<Capability>::decode(&mut buf)?;
        let tokens = if buf.has_remaining() { Vec::<Bytes>::decode(&mut buf)? } else { Vec::new() };
        Ok(Self::with_tokens(caps, tokens))
    }
}

impl FromIterator<Capability> for CapSet {
    fn from_iter<T: IntoIterator<Item = Capability>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_proto::{CapabilityBody, Lifetime, PrincipalId, Signature};

    fn cap(container: u64, ops: OpMask, serial: u64) -> Capability {
        Capability {
            body: CapabilityBody {
                container: ContainerId(container),
                ops,
                principal: PrincipalId(1),
                issuer_epoch: 1,
                lifetime: Lifetime::UNBOUNDED,
                serial,
            },
            sig: Signature([serial as u8; 16]),
        }
    }

    #[test]
    fn for_op_selects_the_right_capability() {
        let set = CapSet::new(vec![cap(1, OpMask::READ, 1), cap(1, OpMask::WRITE, 2)]);
        assert_eq!(set.for_op(OpMask::WRITE).unwrap().body.serial, 2);
        assert_eq!(set.for_op(OpMask::READ).unwrap().body.serial, 1);
        assert_eq!(set.for_op(OpMask::ADMIN).unwrap_err(), Error::AccessDenied);
    }

    #[test]
    fn container_of_uniform_set() {
        let set = CapSet::new(vec![cap(7, OpMask::READ, 1), cap(7, OpMask::WRITE, 2)]);
        assert_eq!(set.container().unwrap(), ContainerId(7));
        assert_eq!(set.ops(), OpMask::READ | OpMask::WRITE);
    }

    #[test]
    fn mixed_container_set_is_an_error() {
        let set = CapSet::new(vec![cap(1, OpMask::READ, 1), cap(2, OpMask::WRITE, 2)]);
        assert!(set.container().is_err());
    }

    #[test]
    fn empty_set_behaviour() {
        let set = CapSet::default();
        assert!(set.is_empty());
        assert!(set.for_op(OpMask::READ).is_err());
        assert!(set.container().is_err());
        assert_eq!(set.ops(), OpMask::NONE);
    }

    #[test]
    fn wire_roundtrip() {
        let set = CapSet::new(vec![cap(1, OpMask::READ, 1), cap(1, OpMask::CREATE, 2)]);
        let wire = set.to_wire();
        let back = CapSet::from_wire(wire).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn tokens_follow_their_capability() {
        let set = CapSet::with_tokens(
            vec![cap(1, OpMask::READ, 1), cap(1, OpMask::WRITE, 2)],
            vec![Bytes::from_static(b"r-token"), Bytes::from_static(b"w-token")],
        );
        assert!(set.has_tokens());
        assert_eq!(set.token_for_op(OpMask::WRITE), Bytes::from_static(b"w-token"));
        assert_eq!(set.token_for_op(OpMask::READ), Bytes::from_static(b"r-token"));
        assert!(set.token_for_op(OpMask::ADMIN).is_empty());

        // Tokens survive the scatter wire format next to their caps.
        let back = CapSet::from_wire(set.to_wire()).unwrap();
        assert_eq!(back, set);

        // A short (legacy) token list pads out; lookups stay safe.
        let legacy = CapSet::with_tokens(vec![cap(1, OpMask::READ, 1)], vec![]);
        assert!(!legacy.has_tokens());
        assert!(legacy.token_for_op(OpMask::READ).is_empty());

        // A pre-token wire blob (bare cap list) still decodes.
        let bare = vec![cap(1, OpMask::READ, 9)].to_bytes();
        let from_bare = CapSet::from_wire(bare).unwrap();
        assert_eq!(from_bare.len(), 1);
        assert!(!from_bare.has_tokens());
    }

    #[test]
    fn extend_merges() {
        let mut set = CapSet::new(vec![cap(1, OpMask::READ, 1)]);
        set.extend([cap(1, OpMask::WRITE, 2)]);
        assert_eq!(set.len(), 2);
        assert!(set.for_op(OpMask::WRITE).is_ok());
    }
}
