//! # LWFS — Lightweight I/O for Scientific Applications
//!
//! A comprehensive Rust reproduction of *Lightweight I/O for Scientific
//! Applications* (Oldfield, Maccabe, Arunagiri, Kordenbrock, Riesen, Ward,
//! Widener — Sandia report SAND2006-3057 / CLUSTER 2006).
//!
//! The paper proposes the **LWFS-core**: instead of a general-purpose
//! parallel file system, give applications only the minimal fixed core
//! every I/O system needs — scalable security (credentials + capabilities
//! on containers of objects), server-directed data movement over a
//! one-sided transport, direct object access, and distributed
//! transactions — and let I/O libraries build everything else (naming,
//! distribution, consistency) to fit the application.
//!
//! This crate is the facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`proto`] | `lwfs-proto` | wire types, ids, capabilities, codec |
//! | [`replica`] | `lwfs-replica` | replication groups, directory, failover |
//! | [`portals`] | `lwfs-portals` | Portals-like one-sided substrate |
//! | [`auth`] | `lwfs-auth` | authentication service |
//! | [`authz`] | `lwfs-authz` | authorization service + cap caches |
//! | [`storage`] | `lwfs-storage` | object storage, server-directed I/O |
//! | [`naming`] | `lwfs-naming` | path binding service (client extension) |
//! | [`txn`] | `lwfs-txn` | journals, locks, two-phase commit |
//! | [`obs`] | `lwfs-obs` | metrics, distributed traces, event journal |
//! | [`wal`] | `lwfs-wal` | segmented write-ahead log + replay |
//! | [`core`] | `lwfs-core` | **the LWFS-core client API + cluster** |
//! | [`pfs`] | `lwfs-pfs` | Lustre-like baseline (MDS + OSTs) |
//! | [`checkpoint`] | `lwfs-checkpoint` | the §4 case study |
//! | [`sim`] | `lwfs-sim` | discrete-event simulation engine |
//! | [`models`] | `lwfs-models` | queueing models for Figures 9/10 |
//!
//! Two harnesses sit outside the facade: `lwfs-repro` (`crates/repro`)
//! regenerates the paper's tables and figures and runs the observability
//! probes; `lwfs-benchmark` (`crates/benchmark`) measures the real stack.
//!
//! ## Quickstart
//!
//! ```
//! use lwfs::prelude::*;
//!
//! // Boot a full in-process deployment: auth + authz + naming +
//! // txn/lock + 4 storage servers, wired over the Portals substrate.
//! let cluster = LwfsCluster::boot(ClusterConfig::default());
//!
//! // An application process authenticates and acquires capabilities.
//! let mut client = cluster.client(0, 0);
//! let ticket = cluster.kdc().kinit("app", "secret").unwrap();
//! client.get_cred(ticket).unwrap();
//! let cid = client.create_container().unwrap();
//! let caps = client.get_caps(cid, OpMask::ALL).unwrap();
//!
//! // Object I/O with server-directed transfers.
//! let obj = client.create_obj(0, &caps, None, None).unwrap();
//! client.write(0, &caps, None, obj, 0, b"hello lightweight i/o").unwrap();
//! assert_eq!(
//!     client.read(0, &caps, obj, 0, 21).unwrap(),
//!     b"hello lightweight i/o"
//! );
//! ```

#![forbid(unsafe_code)]

pub mod inspect;

pub use lwfs_auth as auth;
pub use lwfs_authz as authz;
pub use lwfs_cap as cap;
pub use lwfs_checkpoint as checkpoint;
pub use lwfs_core as core;
pub use lwfs_models as models;
pub use lwfs_naming as naming;
pub use lwfs_obs as obs;
pub use lwfs_pfs as pfs;
pub use lwfs_portals as portals;
pub use lwfs_proto as proto;
pub use lwfs_replica as replica;
pub use lwfs_sim as sim;
pub use lwfs_storage as storage;
pub use lwfs_txn as txn;
pub use lwfs_wal as wal;

/// One-stop imports for applications.
pub mod prelude {
    pub use lwfs_checkpoint::{CkptReport, LwfsCheckpointer, PfsCheckpointer, PfsStyle};
    pub use lwfs_core::{CapSet, ClusterConfig, LwfsClient, LwfsCluster};
    pub use lwfs_pfs::{OpenMode, PfsCluster, PfsConfig};
    pub use lwfs_portals::Group;
    pub use lwfs_proto::{
        Capability, ContainerId, Credential, Error, ObjId, OpMask, PrincipalId, ProcessId, TxnId,
    };
    pub use lwfs_wal::{SyncPolicy, WalConfig};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_quickstart_compiles_and_runs() {
        let cluster = LwfsCluster::boot(ClusterConfig::default());
        let mut client = cluster.client(0, 0);
        let ticket = cluster.kdc().kinit("app", "secret").unwrap();
        client.get_cred(ticket).unwrap();
        let cid = client.create_container().unwrap();
        let caps = client.get_caps(cid, OpMask::ALL).unwrap();
        let obj = client.create_obj(0, &caps, None, None).unwrap();
        client.write(0, &caps, None, obj, 0, b"facade").unwrap();
        assert_eq!(client.read(0, &caps, obj, 0, 6).unwrap(), b"facade");
    }
}
