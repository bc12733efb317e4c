//! Protocol-level error codes.
//!
//! Errors are part of the wire protocol: a storage server must be able to
//! tell a client *why* a request was refused (expired credential, revoked
//! capability, queue full, …) without either side holding connection state.
//! The variants therefore carry only small, encodable payloads.

use crate::ids::{ContainerId, ObjId, TxnId};

/// The protocol error type shared by all LWFS services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The credential could not be verified by the authentication service.
    BadCredential,
    /// The credential was once valid but has expired.
    CredentialExpired,
    /// The credential was explicitly revoked (application exit, compromise).
    CredentialRevoked,
    /// The capability's signature did not verify at the authorization
    /// service (possible forgery attempt).
    BadCapability,
    /// The capability has expired.
    CapabilityExpired,
    /// The capability was revoked by a policy change.
    CapabilityRevoked,
    /// The capability is genuine but does not grant the requested operation.
    AccessDenied,
    /// The named container does not exist.
    NoSuchContainer(ContainerId),
    /// The named object does not exist.
    NoSuchObject(ObjId),
    /// The object already exists (create collision).
    ObjectExists(ObjId),
    /// The path does not exist in the naming service.
    NoSuchName,
    /// The path already exists in the naming service.
    NameExists,
    /// The server's request queue is full; the client must back off and
    /// re-send (flow control, paper §3.2).
    ServerBusy,
    /// The transaction is unknown to this participant.
    NoSuchTxn(TxnId),
    /// The transaction was aborted; the operation's effects were rolled back.
    TxnAborted(TxnId),
    /// A lock could not be granted without blocking and the request asked
    /// not to wait.
    WouldBlock,
    /// A lock request deadlocked and was chosen as the victim.
    Deadlock,
    /// Read or write beyond the maximum object size the server accepts.
    ObjectTooLarge,
    /// The message failed to decode (truncated, wrong version, corrupt).
    Malformed(String),
    /// The target process is unreachable on the transport.
    Unreachable,
    /// The operation timed out waiting for a reply.
    Timeout,
    /// An I/O error on the server's backing store.
    StorageIo(String),
    /// Internal invariant violation — always a bug, surfaced loudly.
    Internal(String),
    /// A bounded retry loop gave up: every attempt failed with a transient
    /// error and the total deadline expired. Unlike the transient errors it
    /// wraps, this is terminal — the caller already retried.
    RetriesExhausted,
    /// The storage server is a replication backup; mutations must go to the
    /// group's primary. Clients refresh the group map and re-send.
    NotPrimary,
}

impl Error {
    /// Is this error transient — i.e. may the identical request succeed if
    /// re-sent later? Used by client retry loops and by the flow-control
    /// machinery.
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::ServerBusy | Error::Timeout | Error::WouldBlock)
    }

    /// Is this a security refusal (as opposed to a resource or protocol
    /// problem)? Security refusals must never be retried blindly.
    pub fn is_security(&self) -> bool {
        matches!(
            self,
            Error::BadCredential
                | Error::CredentialExpired
                | Error::CredentialRevoked
                | Error::BadCapability
                | Error::CapabilityExpired
                | Error::CapabilityRevoked
                | Error::AccessDenied
        )
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BadCredential => write!(f, "credential failed verification"),
            Error::CredentialExpired => write!(f, "credential expired"),
            Error::CredentialRevoked => write!(f, "credential revoked"),
            Error::BadCapability => write!(f, "capability failed verification"),
            Error::CapabilityExpired => write!(f, "capability expired"),
            Error::CapabilityRevoked => write!(f, "capability revoked"),
            Error::AccessDenied => write!(f, "capability does not grant the requested operation"),
            Error::NoSuchContainer(c) => write!(f, "no such container: {c}"),
            Error::NoSuchObject(o) => write!(f, "no such object: {o}"),
            Error::ObjectExists(o) => write!(f, "object already exists: {o}"),
            Error::NoSuchName => write!(f, "no such name"),
            Error::NameExists => write!(f, "name already exists"),
            Error::ServerBusy => write!(f, "server request queue full; retry later"),
            Error::NoSuchTxn(t) => write!(f, "no such transaction: {t}"),
            Error::TxnAborted(t) => write!(f, "transaction aborted: {t}"),
            Error::WouldBlock => write!(f, "lock unavailable and nowait requested"),
            Error::Deadlock => write!(f, "lock request chosen as deadlock victim"),
            Error::ObjectTooLarge => write!(f, "object exceeds server size limit"),
            Error::Malformed(m) => write!(f, "malformed message: {m}"),
            Error::Unreachable => write!(f, "peer unreachable"),
            Error::Timeout => write!(f, "timed out"),
            Error::StorageIo(m) => write!(f, "storage I/O error: {m}"),
            Error::Internal(m) => write!(f, "internal error: {m}"),
            Error::RetriesExhausted => write!(f, "retries exhausted before the deadline"),
            Error::NotPrimary => write!(f, "server is a replication backup; retry at the primary"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used by every service crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification() {
        assert!(Error::ServerBusy.is_transient());
        assert!(Error::Timeout.is_transient());
        assert!(!Error::AccessDenied.is_transient());
        assert!(!Error::NoSuchObject(ObjId(1)).is_transient());
        // RetriesExhausted means a retry loop already gave up on a string of
        // transient failures — classifying it transient would loop forever.
        assert!(!Error::RetriesExhausted.is_transient());
        // NotPrimary needs a group-map refresh, not a blind re-send.
        assert!(!Error::NotPrimary.is_transient());
    }

    #[test]
    fn security_classification_disjoint_from_transient() {
        let all = [
            Error::BadCredential,
            Error::CredentialExpired,
            Error::CredentialRevoked,
            Error::BadCapability,
            Error::CapabilityExpired,
            Error::CapabilityRevoked,
            Error::AccessDenied,
            Error::ServerBusy,
            Error::Timeout,
            Error::WouldBlock,
            Error::NoSuchName,
            Error::RetriesExhausted,
            Error::NotPrimary,
        ];
        for e in all {
            assert!(!(e.is_security() && e.is_transient()), "{e:?} is both security and transient");
        }
    }

    #[test]
    fn display_is_informative() {
        let s = Error::NoSuchContainer(ContainerId(42)).to_string();
        assert!(s.contains("42"));
    }
}
