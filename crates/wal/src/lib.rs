//! A per-server **write-ahead log** for the LWFS storage service.
//!
//! The paper assumes durable staging — "a journal exists as a persistent
//! object on the storage system" (§3.4) — but until now the storage
//! server's object store and 2PC journals lived purely in memory: a
//! crashed server forgot everything, committed or not. This crate supplies
//! the missing layer: every state-changing operation is appended to a
//! segmented redo log *before* the server acknowledges it, and a replay
//! reader reconstructs both the object store and the in-doubt transaction
//! set when the server restarts from the same directory.
//!
//! Design points:
//!
//! * **Redo-only records.** The log carries the forward effect of each
//!   mutation ([`WalRecord`]); undo state for transactional rollback is
//!   *recomputed* during in-order replay (the object store hands back the
//!   write preimage), so abort-time undo applications are never logged and
//!   can never be double-applied.
//! * **CRC-framed segments.** Records are framed as
//!   `[u32 len][u32 crc32][payload]` inside `wal-<seq>.seg` files, each
//!   opened with an 8-byte magic header. A torn or corrupt tail in the
//!   *last* segment marks the crash point and is discarded; corruption
//!   anywhere else is refused loudly.
//! * **Group fsync.** [`SyncPolicy`] trades durability for throughput:
//!   `Always` syncs every record, `EveryN` syncs in groups (group commit),
//!   `Os` leaves flushing to the OS. Transaction prepare/commit records
//!   force a sync under *every* policy — a yes vote must never be lost.
//!
//! The storage server owns the wiring (what to log, when to replay); this
//! crate owns the bytes on disk.

#![forbid(unsafe_code)]

pub mod reader;
pub mod record;
pub mod writer;

pub use reader::{read_log, ReadStats, ReplayLog};
pub use record::{WalRecord, WriteRef};
pub use writer::{AppendTiming, SyncPolicy, Wal, WalConfig};

use bytes::Bytes;
use lwfs_proto::frame::{self, Split};
use lwfs_proto::{Decode as _, Error, Result};

/// Encode `rec` into one complete log frame (the `lwfs_proto::frame`
/// layout: `[u32 len][u32 crc32][payload]`).
///
/// This is byte-identical to what [`Wal::append`] writes to disk — the
/// replication primary ships the frames its log carries to its backups,
/// so a backup verifies the same CRC the disk format carries and its log
/// ends up byte-compatible with the primary's.
pub fn frame_record(rec: &WalRecord) -> Bytes {
    frame::encode(rec)
}

/// Decode one complete frame produced by [`frame_record`], verifying the
/// length covers the buffer exactly and the CRC matches. The record is
/// decoded in place: its `Bytes` fields are views of `frame`, not copies.
pub fn unframe_record(frame: &Bytes) -> Result<WalRecord> {
    match frame::split(frame) {
        Split::Complete { consumed, .. } if consumed == frame.len() => {
            WalRecord::from_bytes(frame.slice(frame::HEADER_LEN..))
        }
        Split::Corrupt(e) => Err(e),
        Split::Complete { .. } | Split::Incomplete => Err(Error::Malformed(format!(
            "wal frame length mismatch: {} bytes are not exactly one frame",
            frame.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unframe_takes_exactly_one_frame() {
        let rec = WalRecord::Create {
            txn: None,
            container: lwfs_proto::ContainerId(1),
            obj: lwfs_proto::ObjId(2),
            now: 3,
        };
        let frame = frame_record(&rec);
        assert_eq!(unframe_record(&frame).unwrap(), rec);

        // Bit flips and truncations are enumerated in the workspace's
        // tests/hostile_input.rs; trailing bytes are this function's own rule.
        let mut extended = frame.to_vec();
        extended.push(0);
        assert!(unframe_record(&extended.into()).is_err());
        assert!(unframe_record(&Bytes::new()).is_err());
    }
}
