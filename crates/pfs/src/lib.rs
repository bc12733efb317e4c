//! A traditional **Lustre-like parallel file system baseline** — the
//! comparison system of the paper's evaluation (§4, §5).
//!
//! Architecture (Figure 7-a, adapted to object storage targets the way
//! Lustre 1.x was):
//!
//! * A **centralized metadata server (MDS)** owns the namespace, decides
//!   stripe layouts, allocates every stripe object itself (each file create
//!   is serialized through the MDS — the Figure 10 bottleneck), and tracks
//!   file sizes.
//! * **Object storage targets (OSTs)** are plain LWFS storage servers; the
//!   MDS owns one container for all PFS objects.
//! * **POSIX-ish consistency** for files opened shared: each write takes an
//!   exclusive *expanded* extent lock covering the whole per-OST stripe
//!   object (Lustre's lock-expansion heuristic), from a DLM co-located
//!   with each OST. Non-overlapping writes from different clients to the
//!   same stripe object therefore still serialize — the mechanism behind
//!   the halved shared-file throughput in Figure 9.
//! * **Trusted clients** — deliberately reproducing the design the paper
//!   criticizes: "Lustre and PVFS extend the trust domain all the way to
//!   the client" (§5). The MDS hands its own capabilities to every client
//!   that opens a file.

#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod layout;
pub mod mds;

pub use client::{OpenMode, PfsClient, PfsFile};
pub use cluster::{PfsCluster, PfsConfig};
pub use layout::{stripe_map, StripeSlice};
pub use mds::{MdsConfig, MdsServer};
