//! The replay side: scan every segment in sequence order and hand back the
//! record stream.
//!
//! Corruption handling is asymmetric by design. The **last** segment is
//! where a crash interrupts an append, so a short or CRC-invalid frame at
//! its tail is the expected crash scar: the scan stops there and reports
//! `torn_tail`. Every *earlier* segment was sealed by rotation (synced
//! before the next segment opened) — corruption there means the disk lied,
//! and replay refuses rather than silently dropping history.

use std::ops::Range;
use std::path::Path;

use bytes::Bytes;
use lwfs_proto::frame::{self, Split};
use lwfs_proto::{Decode as _, Error, Result};

use crate::record::WalRecord;
use crate::writer::{existing_segments, segment_path, SEGMENT_MAGIC};

/// Bookkeeping from one full log scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Segment files scanned.
    pub segments: usize,
    /// Whole records decoded.
    pub records: u64,
    /// Payload bytes decoded (excludes framing).
    pub bytes: u64,
    /// Whether the last segment ended in a torn/corrupt tail (crash scar).
    pub torn_tail: bool,
}

/// A fully scanned log: the record stream plus scan statistics.
#[derive(Debug, Clone)]
pub struct ReplayLog {
    pub records: Vec<WalRecord>,
    pub stats: ReadStats,
}

/// Read every record in `dir`, in append order.
pub fn read_log(dir: &Path) -> Result<ReplayLog> {
    let mut seqs = existing_segments(dir)?;
    seqs.sort_unstable();
    let mut records = Vec::new();
    let mut stats = ReadStats::default();
    let last = seqs.last().copied();
    for seq in &seqs {
        let path = segment_path(dir, *seq);
        // One buffer per segment; each record decoded below is a view of it.
        let raw: Bytes = std::fs::read(&path)
            .map_err(|e| Error::StorageIo(format!("wal read {}: {e}", path.display())))?
            .into();
        let is_last = Some(*seq) == last;
        let consumed = scan_segment(&raw, &path, &mut records, &mut stats)?;
        if consumed < raw.len() {
            if !is_last {
                return Err(Error::StorageIo(format!(
                    "wal segment {} corrupt at byte {consumed} (not the last segment: refusing \
                     to drop history)",
                    path.display()
                )));
            }
            stats.torn_tail = true;
        }
        stats.segments += 1;
    }
    Ok(ReplayLog { records, stats })
}

/// Decode whole valid frames from `raw` into `out`; returns how many bytes
/// formed complete, CRC-valid records (including the magic header).
fn scan_segment(
    raw: &Bytes,
    path: &Path,
    out: &mut Vec<WalRecord>,
    stats: &mut ReadStats,
) -> Result<usize> {
    if raw.len() < SEGMENT_MAGIC.len() || raw[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(Error::StorageIo(format!(
            "wal segment {} has a bad magic header",
            path.display()
        )));
    }
    let mut pos = SEGMENT_MAGIC.len();
    while let Some(payload) = next_frame(raw, pos) {
        // A CRC-valid frame that fails to decode is a version-skew bug, not
        // a torn write: surface it.
        let rec = WalRecord::from_bytes(raw.slice(payload.clone())).map_err(|e| {
            Error::StorageIo(format!(
                "wal segment {} record at byte {pos} undecodable: {e}",
                path.display()
            ))
        })?;
        stats.records += 1;
        stats.bytes += payload.len() as u64;
        out.push(rec);
        pos = payload.end;
    }
    Ok(pos)
}

/// The payload range of the next complete CRC-valid frame starting at
/// `pos`, if any; the frame ends where its payload does. A short frame and
/// a corrupt one are the same thing to a log scan — the point where valid
/// history ends.
fn next_frame(raw: &[u8], pos: usize) -> Option<Range<usize>> {
    match frame::split(raw.get(pos..)?) {
        Split::Complete { payload, consumed } => {
            Some(pos + consumed - payload.len()..pos + consumed)
        }
        Split::Incomplete | Split::Corrupt(_) => None,
    }
}

/// Length of the longest valid record prefix of a raw segment (used by
/// [`Wal::open`](crate::Wal::open) to truncate a torn tail).
pub(crate) fn valid_prefix_len(raw: &[u8], path: &Path) -> Result<usize> {
    if raw.len() < SEGMENT_MAGIC.len() || raw[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(Error::StorageIo(format!(
            "wal segment {} has a bad magic header",
            path.display()
        )));
    }
    let mut pos = SEGMENT_MAGIC.len();
    while let Some(payload) = next_frame(raw, pos) {
        pos = payload.end;
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{Wal, WalConfig};
    use lwfs_obs::Registry;
    use lwfs_proto::{ContainerId, ObjId, TxnId};
    use std::io::Write as _;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lwfs-walrd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rec(i: u64) -> WalRecord {
        WalRecord::Create { txn: Some(TxnId(i)), container: ContainerId(1), obj: ObjId(i), now: i }
    }

    #[test]
    fn empty_dir_reads_empty() {
        let dir = tmp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let log = read_log(&dir).unwrap();
        assert!(log.records.is_empty());
        assert_eq!(log.stats, ReadStats::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_in_last_segment_is_torn_tail() {
        let dir = tmp_dir("crc");
        let obs = Registry::new();
        let wal = Wal::open(WalConfig::new(&dir), &obs).unwrap();
        wal.append(&rec(0)).unwrap();
        wal.append(&rec(1)).unwrap();
        drop(wal);
        // Flip one byte in the last record's payload.
        let path = crate::writer::segment_path(&dir, 0);
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 3] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let log = read_log(&dir).unwrap();
        assert_eq!(log.records, vec![rec(0)]);
        assert!(log.stats.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sealed_segment_is_refused() {
        let dir = tmp_dir("sealed");
        let obs = Registry::new();
        // Two segments: corrupt the first (sealed) one.
        let mut config = WalConfig::new(&dir);
        config.segment_bytes = 64;
        let wal = Wal::open(config, &obs).unwrap();
        for i in 0..8 {
            wal.append(&rec(i)).unwrap();
        }
        drop(wal);
        let path = crate::writer::segment_path(&dir, 0);
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(read_log(&dir), Err(Error::StorageIo(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_refused() {
        let dir = tmp_dir("magic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = crate::writer::segment_path(&dir, 0);
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(b"NOTAWAL!").unwrap();
        drop(f);
        assert!(matches!(read_log(&dir), Err(Error::StorageIo(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_count_records_and_bytes() {
        let dir = tmp_dir("stats");
        let obs = Registry::new();
        let wal = Wal::open(WalConfig::new(&dir), &obs).unwrap();
        for i in 0..5 {
            wal.append(&rec(i)).unwrap();
        }
        drop(wal);
        let log = read_log(&dir).unwrap();
        assert_eq!(log.stats.records, 5);
        assert_eq!(log.stats.segments, 1);
        assert!(log.stats.bytes > 0);
        assert!(!log.stats.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
