//! The paper's case study (§4): checkpointing application state.
//!
//! "Checkpointing is an example of a logically simple operation that is
//! made unnecessarily complex by the functionality imposed by traditional
//! file systems. Checkpointing requires no synchronization because all
//! writes are non-overlapping … and it requires the use of a naming
//! service to reference the checkpoint data when the application needs to
//! reconstruct the process on a restart."
//!
//! Three implementations, exactly the systems compared in Figures 9–10:
//!
//! * [`LwfsCheckpointer`] — the lightweight checkpoint of Figure 8:
//!   object-per-process over the LWFS-core, with metadata gather,
//!   naming-service registration, and a distributed transaction.
//! * [`PfsCheckpointer`] with [`PfsStyle::FilePerProcess`] — one PFS file
//!   per rank; bandwidth scales, creates serialize through the MDS.
//! * [`PfsCheckpointer`] with [`PfsStyle::SharedFile`] — one shared PFS
//!   file; the imposed consistency machinery (expanded extent locks)
//!   serializes non-overlapping writes.
//!
//! Every implementation reports per-phase timings (`create` vs `dump`)
//! because the paper's two figures split exactly there.

#![forbid(unsafe_code)]

pub mod lwfs;
pub mod metadata;
pub mod pfs;

pub use lwfs::LwfsCheckpointer;
pub use metadata::{CkptEntry, CkptMetadata};
pub use pfs::{PfsCheckpointer, PfsStyle};

/// Per-phase wall-clock timings of one checkpoint epoch on one rank.
///
/// The paper measures "the time to open, write, sync, and close the file
/// (or object)" and reports the maximum over all participating processes;
/// `create` covers open/create, `dump` covers write+sync+close(+metadata).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CkptReport {
    pub create_secs: f64,
    pub dump_secs: f64,
    pub bytes: u64,
}

impl CkptReport {
    pub fn total_secs(&self) -> f64 {
        self.create_secs + self.dump_secs
    }

    /// Dump-phase throughput in MB/s (decimal, as the paper plots).
    pub fn dump_mb_per_sec(&self) -> f64 {
        if self.dump_secs == 0.0 {
            return 0.0;
        }
        (self.bytes as f64 / 1e6) / self.dump_secs
    }

    /// Element-wise maximum — the paper's max-over-ranks reduction.
    pub fn max(self, other: CkptReport) -> CkptReport {
        CkptReport {
            create_secs: self.create_secs.max(other.create_secs),
            dump_secs: self.dump_secs.max(other.dump_secs),
            bytes: self.bytes + other.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let r = CkptReport { create_secs: 0.5, dump_secs: 2.0, bytes: 512_000_000 };
        assert!((r.dump_mb_per_sec() - 256.0).abs() < 1e-9);
        assert!((r.total_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn max_reduction_takes_worst_phase_and_sums_bytes() {
        let a = CkptReport { create_secs: 1.0, dump_secs: 5.0, bytes: 100 };
        let b = CkptReport { create_secs: 2.0, dump_secs: 3.0, bytes: 200 };
        let m = a.max(b);
        assert_eq!(m.create_secs, 2.0);
        assert_eq!(m.dump_secs, 5.0);
        assert_eq!(m.bytes, 300);
    }

    #[test]
    fn zero_dump_time_is_safe() {
        let r = CkptReport::default();
        assert_eq!(r.dump_mb_per_sec(), 0.0);
    }
}
