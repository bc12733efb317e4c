//! **The LWFS-core** — the paper's primary contribution (§3).
//!
//! "The LWFS-core consists of the minimal set of functionality required by
//! all I/O systems … mechanisms for security (authentication and
//! authorization), efficient data movement, direct access to data, and
//! support for distributed transactions."
//!
//! This crate assembles the service crates into a deployable system and
//! gives applications the client API of Figure 8's pseudocode:
//!
//! * [`LwfsCluster`] boots a complete in-process deployment — the
//!   partitioned architecture of Figure 1 mapped onto threads: one
//!   authentication server, one authorization server, *m* storage servers,
//!   plus the client-extension services (naming, transaction-id/locks) —
//!   all communicating exclusively over the Portals substrate.
//! * [`LwfsClient`] is one application process's handle: `get_cred`,
//!   `create_container`, `get_caps`, object create/write/read, naming,
//!   transactions, locks — every call the checkpoint case study needs.
//! * [`CapSet`] carries a process's capabilities and selects the right one
//!   per operation (capabilities are single-op by issue, §3.1 partial
//!   revocation).
//!
//! Everything above this crate (checkpoint library, PFS baselines,
//! application-specific I/O libraries) uses only this public API — the
//! "open architecture" layering of Figure 2.

#![forbid(unsafe_code)]

pub mod caps;
pub mod client;
pub mod cluster;
pub mod monitor;
pub mod proc;

pub use caps::CapSet;
pub use client::LwfsClient;
pub use cluster::{
    ClusterAddrs, ClusterConfig, LwfsCluster, TransportKind, MONITOR_NID, PFS_MDS_NID,
};
pub use monitor::{
    default_rules, AlertState, ClusterMonitor, Condition, HealthRule, MonitorConfig, TargetHealth,
};
pub use proc::ProcessCluster;
