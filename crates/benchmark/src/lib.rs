//! `lwfs-benchmark`: the benchmark every later perf or simplicity PR is
//! judged by.
//!
//! Six checkpoint workloads are driven through the real stack — client →
//! portals/fabric → dispatch → cap verify → WAL → store → ship — from
//! *outside*: the crate only calls public functions and reads the metric
//! registry the program already exports. See the README for the tables.

pub mod compare;
pub mod json;
pub mod layers;
pub mod micro;
pub mod payload;
pub mod run;
pub mod spec;
pub mod sys;
pub mod trace;
pub mod workloads;
