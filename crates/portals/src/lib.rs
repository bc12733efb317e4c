//! An in-process messaging substrate modeled on the **Portals 3.0** API.
//!
//! The paper's data-movement layer (§3.2) is built on Portals: a zero-copy,
//! **one-sided**, connectionless messaging interface that lets a storage
//! server *pull* data from client memory for writes and *push* data into
//! client memory for reads, with OS bypass on the real hardware.
//!
//! We do not have a SeaStar or Myrinet NIC, so this crate reproduces the
//! *semantics* the LWFS protocols depend on, entirely in-process:
//!
//! * **No connections.** A process is addressed by `(nid, pid)` and nothing
//!   else; senders hold no per-peer state (paper §2.3, rule 2).
//! * **Pre-posted memory descriptors.** A process exposes memory by posting
//!   a [`MemDesc`] under 64-bit *match bits*. Remote `put`/`get` operations
//!   complete against the posted buffer without the target thread running —
//!   the in-process analogue of remote DMA.
//! * **Events.** Completed operations optionally deposit an [`Event`] in the
//!   target's event queue, which is how a server learns a request arrived.
//! * **Small eager messages.** [`Endpoint::send`] models a Portals put into
//!   a server-managed bounded receive queue, used for the request channel.
//!
//! On top of the raw interface sit two helpers used by every LWFS service:
//! a synchronous [`rpc`] layer (request → reply matching by operation
//! number) and [`collective`] operations (log-tree scatter/gather/barrier)
//! used to distribute capabilities without O(n) server traffic.
//!
//! Fault injection (message drop, partitions) is built in so the test suite
//! can exercise timeout and retry paths deterministically.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod collective;
pub mod endpoint;
pub mod event;
pub mod network;
pub mod retry;
pub mod rpc;
pub mod service;
pub mod stats;
pub mod telemetry;
pub mod transport;

pub use buffer::{MdOptions, MemDesc};
pub use endpoint::{Endpoint, MatchBitsAlloc};
pub use event::Event;
pub use network::{FaultPlan, Network, NetworkConfig};
pub use retry::RetryPolicy;
pub use rpc::{RpcClient, RpcServer};
pub use service::{spawn_service, Service, ServiceHandle};
pub use stats::NetStats;
pub use transport::RemoteFabric;

use lwfs_proto::ProcessId;

/// Well-known match bits for a service's incoming request queue.
///
/// Every LWFS service posts its request queue here; clients need no
/// per-service discovery beyond the service's `ProcessId`.
pub const REQUEST_MATCH: u64 = 0x0000_0000_0000_0001;

/// Match-bits namespace for RPC replies. The low 48 bits carry the opnum.
pub const REPLY_SPACE: u64 = 0x1000_0000_0000_0000;

/// Match-bits namespace for bulk-data memory descriptors.
pub const BULK_SPACE: u64 = 0x2000_0000_0000_0000;

/// Match-bits namespace for collective operations.
pub const COLLECTIVE_SPACE: u64 = 0x3000_0000_0000_0000;

/// Compose reply match bits for an operation number.
pub fn reply_match(opnum: u64) -> u64 {
    REPLY_SPACE | (opnum & 0x0000_FFFF_FFFF_FFFF)
}

/// A convenient full-mesh address book for SPMD groups (the "application"
/// in Figure 3): rank <-> ProcessId.
#[derive(Debug, Clone)]
pub struct Group {
    members: Vec<ProcessId>,
}

impl Group {
    pub fn new(members: Vec<ProcessId>) -> Self {
        assert!(!members.is_empty(), "a group needs at least one member");
        Self { members }
    }

    pub fn size(&self) -> usize {
        self.members.len()
    }

    pub fn member(&self, rank: usize) -> ProcessId {
        self.members[rank]
    }

    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_match_preserves_low_bits() {
        assert_eq!(reply_match(7) & 0xFFFF, 7);
        assert_ne!(reply_match(7), 7);
    }

    #[test]
    fn match_spaces_are_disjoint() {
        let spaces = [REQUEST_MATCH, REPLY_SPACE, BULK_SPACE, COLLECTIVE_SPACE];
        for (i, a) in spaces.iter().enumerate() {
            for b in &spaces[i + 1..] {
                assert_ne!(a & 0xF000_0000_0000_0000, b & 0xF000_0000_0000_0000);
            }
        }
    }

    #[test]
    fn group_ranks() {
        let g = Group::new(vec![ProcessId::new(1, 0), ProcessId::new(2, 0)]);
        assert_eq!(g.size(), 2);
        assert_eq!(g.member(0), ProcessId::new(1, 0));
    }

    #[test]
    #[should_panic]
    fn empty_group_panics() {
        let _ = Group::new(vec![]);
    }
}
