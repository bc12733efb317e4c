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
//!   with per-container scoping and an optional file-backed sync path.
//! * [`PinnedBufferPool`] — the bounded pool of transfer buffers of
//!   Figure 6; an exhausted pool is what turns into `ServerBusy`
//!   rejections and client re-sends.
//! * [`RequestScheduler`] — elevator reordering of independent queued
//!   requests ("The server can also re-order independent requests to
//!   improve access to the storage device", §3.2).
//! * [`ConflictTracker`] / [`WorkQueue`] — the worker-pool dispatch layer:
//!   a bounded FIFO hand-off from the dispatcher to N workers, with the
//!   scheduler's dependency relation promoted into an in-flight tracker so
//!   independent requests overlap and dependent ones keep release order.
//! * [`StorageServer`] — the service: the RPC surface, the capability
//!   cache, transaction participation (undo journals + 2PC votes).

#![forbid(unsafe_code)]

pub mod buffers;
pub mod dispatch;
pub mod recovery;
pub mod scheduler;
pub mod server;
pub mod store;

pub use buffers::PinnedBufferPool;
pub use dispatch::{AccessSummary, ConflictTracker, WorkQueue};
pub use recovery::RecoveryOutcome;
pub use scheduler::RequestScheduler;
pub use server::{SignedCapConfig, StorageConfig, StorageServer, StorageStats};
pub use store::{ObjectStore, StoreConfig};
