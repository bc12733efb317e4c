//! Discrete-event queueing models of the paper's evaluation (§4).
//!
//! The original experiments ran on a 40-node Opteron/Myrinet cluster with
//! fibre-channel RAIDs. This crate expresses the three checkpoint
//! implementations as queueing systems over that hardware, so that the
//! figures can be regenerated at any scale:
//!
//! * [`machines`] — calibrated hardware descriptions: the Sandia I/O
//!   development cluster, plus Red Storm (Table 2), the Table 1 MPPs, and
//!   the §4 petaflop extrapolation target.
//! * [`dump`] — the I/O-dump phase model behind **Figure 9**: per-node NIC
//!   stations, per-server network/disk stations, stripe routing, and the
//!   shared-file lock/interleave penalty.
//! * [`create`] — the create-phase model behind **Figure 10**: a
//!   centralized MDS station for the traditional PFS versus distributed
//!   per-server creates for LWFS.
//! * [`petaflop`] — the extrapolation of §4's closing paragraph.
//!
//! ## Why the shapes are mechanism, not curve-fitting
//!
//! Every effect the paper reports emerges from a queueing mechanism that
//! is also implemented for real in the functional plane:
//!
//! * **file-per-process creates flatten** because one FCFS station (the
//!   MDS) serves every create — more clients only deepen its queue;
//! * **LWFS creates scale** because each storage server is its own FCFS
//!   station — capacity grows with the server count;
//! * **shared-file dumps halve** because interleaved writers on one
//!   stripe object pay a lock hand-off and a disk locality penalty per
//!   chunk switch, cutting effective disk bandwidth roughly in half;
//! * **dump bandwidth plateaus** at `min(Σ client NIC, Σ server disk)`.

#![forbid(unsafe_code)]

pub mod calib;
pub mod create;
pub mod dump;
pub mod machines;
pub mod petaflop;

pub use calib::Calibration;
pub use create::{CreateResult, CreateSim};
pub use dump::{CkptImpl, DumpResult, DumpSim};
pub use machines::Machine;
pub use petaflop::{petaflop_report, PetaflopReport};
