//! Wire-level protocol definitions for LWFS.
//!
//! This crate contains everything that crosses the (simulated) wire between
//! LWFS components: identifiers, operation bitmasks, error codes, the
//! request/reply message set, and a compact, versioned binary codec built on
//! [`bytes`].
//!
//! The message set mirrors the services described in SAND2006-3057 §3:
//!
//! * **authentication** — credential acquisition and verification,
//! * **authorization** — capability acquisition, verification, revocation,
//! * **storage** — object create/remove/read/write/stat/sync over
//!   *containers* of objects,
//! * **naming** — path ↔ object bindings (a client-side extension service),
//! * **transactions** — journal records, two-phase commit votes, lock
//!   requests.
//!
//! Design rule (paper §2.3): the protocol is *connectionless*. Every request
//! carries the full security context (credential and/or capability) it needs;
//! no per-client session state is implied by the message set.

// `deny` where every other crate says `forbid`: the CRC kernel's dispatcher
// (`crc::fold`) is let through, by name, for its one CPUID-guarded call.
#![deny(unsafe_code)]

pub mod codec;
mod crc;
pub mod error;
pub mod frame;
pub mod ids;
pub mod message;
pub mod ops;
pub mod rng;
pub mod security;

pub use codec::{Decode, Encode};
pub use error::{Error, Result};
pub use ids::{ContainerId, Lifetime, NodeId, ObjId, OpNum, Pid, PrincipalId, ProcessId, TxnId};
pub use message::{
    derive_req_id, EpochBump, FlightSpan, FlightTrace, GroupMap, LockId, LockMode, LockResource,
    MdHandle, ObjAttr, PfsLayout, ReplicaGroup, Reply, ReplyBody, Request, RequestBody,
    TelemetryEvent, TelemetryHistogram, TelemetrySnapshot, TraceContext,
};
pub use ops::OpMask;
pub use security::{
    Capability, CapabilityBody, CapabilityKey, Credential, CredentialBody, Signature,
};

/// Protocol version stamped into every encoded message.
///
/// A cluster is built from one source tree, so there is exactly one
/// version on the wire: a decoder that reads any other stamp rejects the
/// message.
pub const PROTOCOL_VERSION: u16 = 5;

/// Maximum payload a single *request* message may carry inline.
///
/// LWFS requests are deliberately small (paper §3.2): bulk data never rides
/// in a request; the server moves it with one-sided `get`/`put` operations.
/// 4 KiB is generous for every control message in the protocol.
pub const MAX_REQUEST_INLINE: usize = 4096;

// The whole point of server-directed I/O is that requests stay tiny.
const _: () = assert!(MAX_REQUEST_INLINE <= 64 * 1024);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_is_stable() {
        // The stamp is part of the wire format (tests/golden_bytes.rs);
        // it names the envelope layout, not a negotiable range.
        assert_eq!(PROTOCOL_VERSION, 5);
    }
}
