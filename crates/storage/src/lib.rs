//! The LWFS **storage service** (paper §3.2–§3.4, Figures 6 and 7).
//!
//! A storage server exports *objects* grouped into *containers* and
//! enforces — but never decides — access policy, by verifying capabilities
//! through the authorization service and caching the verdicts. Bulk data
//! movement is **server-directed**: clients send a small request naming a
//! pinned memory descriptor; the server *pulls* data from client memory for
//! writes and *pushes* data into client memory for reads, pacing transfers
//! against its own buffer pool so a burst of ten thousand requests cannot
//! overrun it.
//!
//! Components:
//!
//! * [`ObjectStore`] — the object layer: create/remove/read/write/attr/sync
//!   with per-container scoping, objects held as tables of refcounted
//!   chunks recycled through one store-wide free list.
//! * [`PinnedBufferPool`] — Figure 6's bound on transfers in flight, kept
//!   as a count; an exhausted pool is what turns into `ServerBusy`
//!   rejections (before any byte moves) and client re-sends.
//! * [`ConflictTracker`] — the worker pool's ordering: N workers take
//!   turns receiving, each ticketing what it receives in arrival order,
//!   and §3.2's dependency relation is enforced between in-flight tickets
//!   so independent requests overlap and dependent ones keep arrival
//!   order. (§3.2 also allows reordering independent queued requests for
//!   the storage device; on a memory-only store no order beats arrival
//!   order, so none is applied.)
//! * [`StorageServer`] — the service: the RPC surface, the capability
//!   cache, transaction participation (undo journals + 2PC votes).

#![forbid(unsafe_code)]

pub mod buffers;
pub mod dispatch;
pub mod recovery;
pub mod server;
pub mod store;

pub use buffers::PinnedBufferPool;
pub use dispatch::{AccessSummary, ConflictTracker};
pub use recovery::RecoveryOutcome;
pub use server::{SignedCapConfig, StorageConfig, StorageServer, StorageStats};
pub use store::{ObjectStore, StoreConfig};
