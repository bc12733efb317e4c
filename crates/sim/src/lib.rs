//! A deterministic discrete-event simulation (DES) engine.
//!
//! The paper's evaluation ran on a 40-node Opteron/Myrinet cluster with
//! fibre-channel RAIDs — hardware this reproduction does not have. Per the
//! substitution plan in `DESIGN.md`, the scalability experiments run on a
//! *queueing model* of that hardware instead: Figures 9 and 10 are emergent
//! queueing phenomena (a centralized metadata server serializing creates,
//! lock conflicts on a shared file, parallel servers saturating their
//! disks), and a discrete-event simulation reproduces precisely those
//! mechanisms.
//!
//! The engine is deliberately small and general:
//!
//! * [`Sim`] — a virtual clock and an event heap; events are `FnOnce`
//!   closures over a user-supplied *world* type. Ties in time break by
//!   schedule order, so runs are bit-for-bit deterministic.
//! * [`FcfsResource`] — a first-come-first-served station (a NIC, a disk,
//!   a metadata CPU) that hands out `(start, finish)` reservations in
//!   virtual time and tracks utilization.
//! * [`stats`] — trial statistics (mean/stddev/min/max) matching how the
//!   paper reports "average and standard deviation over a minimum of 5
//!   trials".
//! * [`SimRng`] — a seeded ChaCha8 RNG so every trial is reproducible.

#![forbid(unsafe_code)]

pub mod engine;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::Sim;
pub use resource::FcfsResource;
pub use rng::SimRng;
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
