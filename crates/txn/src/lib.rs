//! Transactional semantics for LWFS (paper §3.4).
//!
//! "LWFS provides two mechanisms for implementing ACID-compliant
//! transactions: journals and locks. Journals provide a mechanism to ensure
//! atomicity and durability … A two-phase commit protocol (part of the LWFS
//! API) helps the client preserve the atomicity property … Locks enable
//! consistency and isolation for concurrent transactions."
//!
//! The pieces:
//!
//! * [`JournalStore`] — generic per-transaction operation journal used by
//!   *participants* (storage servers, the naming service): operations are
//!   staged while a transaction is active, hardened at prepare, applied at
//!   commit, discarded at abort.
//! * [`LockTable`] — shared/exclusive byte-range locks over objects, the
//!   primitive a POSIX-semantics file system layered above LWFS uses for
//!   shared-file writes.
//! * [`Coordinator`] — the client-side two-phase commit driver (the paper
//!   makes the *client* the coordinator: "part of the LWFS API").
//! * [`TxnLockServer`] — a service that allocates transaction ids and
//!   serves the lock protocol.

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod journal;
pub mod locks;
pub mod server;

pub use coordinator::{Coordinator, TxnOutcome};
pub use journal::{JournalState, JournalStore};
pub use locks::{LockGrant, LockTable};
pub use server::TxnLockServer;
