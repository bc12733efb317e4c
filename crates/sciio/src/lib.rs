//! **lwfs-sciio** — a PnetCDF-flavoured scientific I/O library layered
//! *directly* on the LWFS-core.
//!
//! §6 of the paper: "We are also interested in implementing commonly used
//! I/O libraries like MPI-I/O, HDF-5, and PnetCDF directly on top of the
//! LWFS core. … commonly used high-level libraries can make better use of
//! the underlying hardware and take advantage of application-specific
//! synchronization and consistency policies if they bypass the
//! intermediate layers and interact directly with the LWFS core
//! components."
//!
//! This crate is that experiment. It provides self-describing *datasets*
//! of n-dimensional typed *variables* (the netCDF data model), and maps
//! them to LWFS objects with a policy only a layer-above-the-core can
//! choose:
//!
//! * each variable is **block-partitioned along its first dimension**
//!   into one sub-object per storage server, so SPMD ranks writing
//!   disjoint row blocks hit disjoint servers *and* disjoint objects —
//!   zero locks, zero consistency machinery, exactly the checkpoint
//!   story generalized;
//! * the dataset header (schema + object map) is a single metadata object
//!   bound into the naming service;
//! * reads assemble arbitrary hyperslabs from the distributed
//!   sub-objects; statistics over a variable region can be pushed to the
//!   servers as remote filters ([`Dataset::var_stats`]).
//!
//! ```text
//! dims:  time=unlimited-ish, lat=96, lon=192
//! var:   temp(time, lat, lon): f32
//! layout: temp rows [t0..t1) -> server s, object o_s   (block by time)
//! ```

#![forbid(unsafe_code)]

pub mod collective;
pub mod dataset;
pub mod schema;
pub mod slab;

pub use dataset::{Dataset, DatasetWriter};
pub use schema::{Attribute, Dim, Schema, Var, VarType};
pub use slab::Slab;

/// Errors specific to the sciio layer (protocol errors pass through).
#[derive(Debug, Clone, PartialEq)]
pub enum SciError {
    /// The named dimension/variable does not exist in the schema.
    NoSuchName(String),
    /// Slab exceeds the variable's extent.
    OutOfBounds { dim: usize, want: u64, have: u64 },
    /// Slab rank does not match the variable rank.
    RankMismatch { want: usize, got: usize },
    /// Data buffer length does not match the slab volume × element size.
    LengthMismatch { want: usize, got: usize },
    /// A schema failed validation (duplicate names, zero-length dims…).
    BadSchema(String),
    /// Underlying LWFS error.
    Lwfs(lwfs_proto::Error),
}

impl From<lwfs_proto::Error> for SciError {
    fn from(e: lwfs_proto::Error) -> Self {
        SciError::Lwfs(e)
    }
}

impl std::fmt::Display for SciError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SciError::NoSuchName(n) => write!(f, "no such dimension/variable: {n}"),
            SciError::OutOfBounds { dim, want, have } => {
                write!(f, "slab exceeds dimension {dim}: wants {want}, extent {have}")
            }
            SciError::RankMismatch { want, got } => {
                write!(f, "slab rank {got} does not match variable rank {want}")
            }
            SciError::LengthMismatch { want, got } => {
                write!(f, "buffer of {got} bytes where slab needs {want}")
            }
            SciError::BadSchema(m) => write!(f, "bad schema: {m}"),
            SciError::Lwfs(e) => write!(f, "lwfs: {e}"),
        }
    }
}

impl std::error::Error for SciError {}

pub type Result<T> = std::result::Result<T, SciError>;
