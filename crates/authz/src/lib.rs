//! The LWFS **authorization service** (paper §3.1).
//!
//! The authorization service manages access-control policy for *containers*
//! of objects and issues *capabilities* — opaque, transferable proofs that
//! the holder may perform specific operations on a container. Storage
//! servers enforce the policy by verifying capabilities **through this
//! service** and caching the verdicts.
//!
//! Properties reproduced from the paper:
//!
//! * **Coarse-grained control** (§3.1.1): the container is the unit of
//!   policy; LWFS knows nothing about object organization within one.
//! * **Verify-through, not shared-key** (§3.1.2): unlike NASD/T10, storage
//!   servers hold no signing key — they can only ask this service whether a
//!   capability is genuine, then cache the answer. A compromised storage
//!   server therefore cannot mint capabilities.
//! * **Back pointers** (§3.1.4): the service records which storage servers
//!   cache which capabilities, so revocation can walk exactly the caches
//!   that need invalidating.
//! * **Partial revocation** (§3.1.4): a `chmod` that removes write access
//!   revokes write capabilities while read capabilities stay valid and
//!   *cached* — no re-acquisition storm.
//! * **Centralized decisions, distributed enforcement** (§2.4): policy
//!   lives here; every subsequent data access is authorized at the storage
//!   server from its cache without contacting this service.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod cache;
pub mod policy;
pub mod remote;
pub mod server;
pub mod service;

pub use analysis::AmortizedReport;
pub use cache::{CapCache, CapCacheStats};
pub use policy::{AclEntry, PolicyStore};
pub use remote::{CachedCapVerifier, RemoteCredVerifier};
pub use server::AuthzServer;
pub use service::{AuthzConfig, AuthzService, AuthzStats, CredVerifier, RevocationNotice};
