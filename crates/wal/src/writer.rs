//! The append side of the log: segmented files, CRC framing, group fsync.
//!
//! One [`Wal`] belongs to one storage server and is shared by its worker
//! pool; appends take a short internal lock, so the *server's* conflict
//! tracker (which already orders dependent requests) decides the order in
//! which dependent records reach this lock, and independent records may
//! interleave freely — replay applies them to disjoint objects, where
//! order does not matter.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use lwfs_obs::{Counter, Histogram, Registry};
use lwfs_proto::{Error, Result};
use parking_lot::Mutex;

use crate::reader;
use crate::record::WalRecord;

/// Eight magic bytes opening every segment file (the trailing byte is the
/// format version).
pub(crate) const SEGMENT_MAGIC: [u8; 8] = *b"LWFSWAL\x01";

/// When (and how often) appended records are fsynced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every record: nothing acknowledged is ever lost.
    Always,
    /// Group commit: fsync once every `n` records (and whenever a record
    /// demands it). Bounds loss to the last group on a power failure.
    EveryN(u32),
    /// Never fsync explicitly; the OS flushes at its leisure. Fastest, and
    /// still survives a process crash (the page cache persists) — only a
    /// machine failure can lose the tail.
    Os,
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::EveryN(n) => write!(f, "every{n}"),
            SyncPolicy::Os => write!(f, "os"),
        }
    }
}

/// Log configuration — one directory per storage server.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the `wal-<seq>.seg` files.
    pub dir: PathBuf,
    /// Durability policy for appended records.
    pub sync: SyncPolicy,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
}

impl WalConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), sync: SyncPolicy::Always, segment_bytes: 8 << 20 }
    }
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::StorageIo(format!("wal {what}: {e}"))
}

pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.seg"))
}

pub(crate) fn segment_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("wal-")?.strip_suffix(".seg")?.parse().ok()
}

struct Segment {
    file: File,
    seq: u64,
    bytes: u64,
    /// Records appended since the last fsync (group-commit accounting).
    unsynced: u32,
    /// A failed append could not be rolled back, so the file may end in
    /// part of a frame: nothing more may be written or acknowledged.
    poisoned: bool,
}

impl Segment {
    fn check_live(&self) -> Result<()> {
        if self.poisoned {
            return Err(Error::StorageIo(
                "wal poisoned: a failed append could not be rolled back".into(),
            ));
        }
        Ok(())
    }

    /// Cut the file back to its last whole record after a failed write, so
    /// the next record cannot land behind torn bytes — replay stops at
    /// those, and would drop every acknowledged record after them. If the
    /// cut fails too, the log is poisoned.
    fn roll_back(&mut self) {
        let cut = self
            .file
            .set_len(self.bytes)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.bytes)));
        if cut.is_err() {
            self.poisoned = true;
        }
    }
}

/// Wall-clock cost of one [`Wal::append`], returned to the caller so the
/// storage server can attach `wal.append` / `wal.fsync` spans to the
/// request's distributed trace without re-measuring (the histograms the
/// WAL feeds itself stay the aggregate view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendTiming {
    /// Whole append, including any fsync it performed.
    pub append_ns: u64,
    /// Portion spent in fsync; 0 when the policy deferred the sync.
    pub fsync_ns: u64,
}

/// The shared append handle. Clone-free: the storage server holds it and
/// workers borrow it.
pub struct Wal {
    config: WalConfig,
    seg: Mutex<Segment>,
    append_ns: std::sync::Arc<Histogram>,
    fsync_ns: std::sync::Arc<Histogram>,
    appends: std::sync::Arc<Counter>,
    appended_bytes: std::sync::Arc<Counter>,
    fsyncs: std::sync::Arc<Counter>,
}

impl Wal {
    /// Open (or create) the log in `config.dir`.
    ///
    /// Any torn tail left in the previous last segment by a crash is
    /// truncated away — those bytes never covered an acknowledged record —
    /// and appending continues into a *fresh* segment, so every sealed
    /// segment is clean and replay can demand full CRC validity everywhere
    /// but the live tail.
    pub fn open(config: WalConfig, obs: &Registry) -> Result<Self> {
        std::fs::create_dir_all(&config.dir).map_err(|e| io_err("create dir", e))?;
        let mut seqs = existing_segments(&config.dir)?;
        seqs.sort_unstable();
        if let Some(&last) = seqs.last() {
            repair_tail(&segment_path(&config.dir, last))?;
        }
        let next_seq = seqs.last().map(|s| s + 1).unwrap_or(0);
        let seg = open_segment(&config.dir, next_seq)?;
        Ok(Self {
            config,
            seg: Mutex::new(seg),
            append_ns: obs.histogram("wal.append_ns"),
            fsync_ns: obs.histogram("wal.fsync_ns"),
            appends: obs.counter("wal.appends"),
            appended_bytes: obs.counter("wal.appended_bytes"),
            fsyncs: obs.counter("wal.fsyncs"),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Append one record: [`append_frame`](Self::append_frame) of its
    /// [`frame_record`](crate::frame_record).
    pub fn append(&self, rec: &WalRecord) -> Result<AppendTiming> {
        self.append_frame(&crate::frame_record(rec), rec.forces_sync())
    }

    /// Append one ready frame — a [`frame_record`](crate::frame_record)
    /// of some record, or a CRC-verified frame shipped from a primary —
    /// making it durable according to the sync policy. `forces_sync` is
    /// the framed record's [`WalRecord::forces_sync`]: when set, the frame
    /// is synced before this returns under every policy. The operation
    /// the frame records is acknowledged only after this returns. Returns
    /// the wall-clock [`AppendTiming`] so callers can trace the append
    /// without re-measuring.
    pub fn append_frame(&self, frame: &[u8], forces_sync: bool) -> Result<AppendTiming> {
        let start = Instant::now();
        let mut fsync_ns = 0u64;

        let mut seg = self.seg.lock();
        seg.check_live()?;
        if let Err(e) = seg.file.write_all(frame) {
            seg.roll_back();
            return Err(io_err("append", e));
        }
        seg.bytes += frame.len() as u64;
        seg.unsynced += 1;
        let must_sync = forces_sync
            || match self.config.sync {
                SyncPolicy::Always => true,
                SyncPolicy::EveryN(n) => seg.unsynced >= n.max(1),
                SyncPolicy::Os => false,
            };
        if must_sync {
            fsync_ns += self.fsync(&mut seg)?;
        }
        if seg.bytes >= self.config.segment_bytes {
            // Seal the segment (sync its tail so "sealed implies clean"
            // holds even under `Os`) and rotate.
            if seg.unsynced > 0 {
                fsync_ns += self.fsync(&mut seg)?;
            }
            *seg = open_segment(&self.config.dir, seg.seq + 1)?;
        }
        self.appends.inc();
        self.appended_bytes.add(frame.len() as u64);
        let append_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.append_ns.record(append_ns);
        Ok(AppendTiming { append_ns, fsync_ns })
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&self) -> Result<()> {
        let mut seg = self.seg.lock();
        seg.check_live()?;
        if seg.unsynced > 0 {
            self.fsync(&mut seg)?;
        }
        Ok(())
    }

    /// The sequence number of the live tail segment.
    pub fn current_segment_seq(&self) -> u64 {
        self.seg.lock().seq
    }

    /// Garbage-collect sealed segments whose sequence number is below
    /// `floor`, returning how many were deleted.
    ///
    /// A replication primary calls this once every in-sync backup has
    /// acknowledged the records up to a segment boundary — the history
    /// below the floor is then reconstructible from the replicas and need
    /// not be kept on disk. The live tail segment is never deleted, no
    /// matter how high the floor: it still receives appends.
    pub fn retire_segments_below(&self, floor: u64) -> Result<usize> {
        // Snapshot the tail under the lock so a concurrent rotation cannot
        // promote a segment into deletion range after we decided the limit.
        let tail = self.seg.lock().seq;
        let limit = floor.min(tail);
        let mut removed = 0;
        for seq in existing_segments(&self.config.dir)? {
            if seq < limit {
                std::fs::remove_file(segment_path(&self.config.dir, seq))
                    .map_err(|e| io_err("retire segment", e))?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Fsync the segment, returning the elapsed nanoseconds.
    fn fsync(&self, seg: &mut Segment) -> Result<u64> {
        let start = Instant::now();
        seg.file.sync_data().map_err(|e| io_err("fsync", e))?;
        seg.unsynced = 0;
        self.fsyncs.inc();
        let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.fsync_ns.record(ns);
        Ok(ns)
    }
}

/// Sequence numbers of the segments already in `dir`.
pub(crate) fn existing_segments(dir: &Path) -> Result<Vec<u64>> {
    let mut seqs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir entry", e))?;
        if let Some(seq) = segment_seq(&entry.path()) {
            seqs.push(seq);
        }
    }
    Ok(seqs)
}

fn open_segment(dir: &Path, seq: u64) -> Result<Segment> {
    let path = segment_path(dir, seq);
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)
        .map_err(|e| io_err("create segment", e))?;
    file.write_all(&SEGMENT_MAGIC).map_err(|e| io_err("write magic", e))?;
    Ok(Segment { file, seq, bytes: SEGMENT_MAGIC.len() as u64, unsynced: 0, poisoned: false })
}

/// Truncate `path` to its longest valid record prefix, discarding a torn
/// tail from an interrupted append. Bytes past the last whole CRC-valid
/// frame were never acknowledged, so cutting them loses nothing.
fn repair_tail(path: &Path) -> Result<()> {
    let mut file =
        OpenOptions::new().read(true).write(true).open(path).map_err(|e| io_err("open", e))?;
    let mut raw = Vec::new();
    file.read_to_end(&mut raw).map_err(|e| io_err("read segment", e))?;
    let valid = reader::valid_prefix_len(&raw, path)?;
    if (valid as u64) < raw.len() as u64 {
        file.set_len(valid as u64).map_err(|e| io_err("truncate torn tail", e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", e))?;
        file.sync_data().map_err(|e| io_err("fsync after repair", e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_log;
    use bytes::Bytes;
    use lwfs_proto::{ContainerId, ObjId, TxnId};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lwfs-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_rec(i: u64) -> WalRecord {
        WalRecord::Write {
            txn: None,
            container: ContainerId(1),
            obj: ObjId(i),
            offset: i * 8,
            data: Bytes::from(vec![i as u8; 16]),
            now: i,
        }
    }

    #[test]
    fn append_and_read_back_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let obs = Registry::new();
        let wal = Wal::open(WalConfig::new(&dir), &obs).unwrap();
        let recs: Vec<WalRecord> = (0..10).map(write_rec).collect();
        for r in &recs {
            wal.append(r).unwrap();
        }
        drop(wal);
        let log = read_log(&dir).unwrap();
        assert_eq!(log.records, recs);
        assert!(!log.stats.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ready_frames_replay_as_records() {
        // One batch buffer, as a storage worker fills it: borrowed-payload
        // writes and a forcing prepare, appended frame by frame.
        let dir = tmp_dir("frames");
        let obs = Registry::new();
        let wal =
            Wal::open(WalConfig { sync: SyncPolicy::Os, ..WalConfig::new(&dir) }, &obs).unwrap();
        let payload = [7u8; 100];
        let mut batch = bytes::BytesMut::new();
        let mut ranges = Vec::new();
        let mut want = Vec::new();
        for i in 0..4u64 {
            let data = &payload[..(i as usize) * 30];
            let (container, obj) = (ContainerId(1), ObjId(i));
            let rec = crate::WriteRef { txn: None, container, obj, offset: i, data, now: i };
            ranges.push(lwfs_proto::frame::encode_into(&mut batch, &rec));
            let data = Bytes::copy_from_slice(data);
            want.push(WalRecord::Write { txn: None, container, obj, offset: i, data, now: i });
        }
        let prepare = WalRecord::TxnPrepare { txn: TxnId(9) };
        ranges.push(lwfs_proto::frame::encode_into(&mut batch, &prepare));
        want.push(prepare);
        for (range, rec) in ranges.into_iter().zip(&want) {
            wal.append_frame(&batch[range], rec.forces_sync()).unwrap();
        }
        // The prepare forced the one fsync an `Os` log takes.
        assert_eq!(obs.counter("wal.fsyncs").get(), 1);
        drop(wal);
        assert_eq!(read_log(&dir).unwrap().records, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_appends_to_new_segment_and_preserves_history() {
        let dir = tmp_dir("reopen");
        let obs = Registry::new();
        let wal = Wal::open(WalConfig::new(&dir), &obs).unwrap();
        wal.append(&write_rec(0)).unwrap();
        drop(wal);
        let wal = Wal::open(WalConfig::new(&dir), &obs).unwrap();
        wal.append(&write_rec(1)).unwrap();
        drop(wal);
        let log = read_log(&dir).unwrap();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.stats.segments, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_at_size_threshold() {
        let dir = tmp_dir("rotate");
        let obs = Registry::new();
        let mut config = WalConfig::new(&dir);
        config.segment_bytes = 256; // tiny: every few records rotate
        let wal = Wal::open(config, &obs).unwrap();
        for i in 0..32 {
            wal.append(&write_rec(i)).unwrap();
        }
        drop(wal);
        let log = read_log(&dir).unwrap();
        assert_eq!(log.records.len(), 32);
        assert!(log.stats.segments > 1, "expected rotation, got 1 segment");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_syncs_every_n() {
        let dir = tmp_dir("groupn");
        let obs = Registry::new();
        let mut config = WalConfig::new(&dir);
        config.sync = SyncPolicy::EveryN(4);
        let wal = Wal::open(config, &obs).unwrap();
        for i in 0..8 {
            wal.append(&write_rec(i)).unwrap();
        }
        assert_eq!(obs.frame(0).counter("wal.fsyncs"), Some(2));
        // Prepare forces a sync mid-group.
        wal.append(&write_rec(8)).unwrap();
        wal.append(&WalRecord::TxnPrepare { txn: TxnId(1) }).unwrap();
        assert_eq!(obs.frame(0).counter("wal.fsyncs"), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn os_policy_never_fsyncs_but_sync_flushes() {
        let dir = tmp_dir("os");
        let obs = Registry::new();
        let mut config = WalConfig::new(&dir);
        config.sync = SyncPolicy::Os;
        let wal = Wal::open(config, &obs).unwrap();
        for i in 0..8 {
            wal.append(&write_rec(i)).unwrap();
        }
        assert_eq!(obs.frame(0).counter("wal.fsyncs"), Some(0));
        wal.sync().unwrap();
        assert_eq!(obs.frame(0).counter("wal.fsyncs"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_repaired_on_reopen() {
        let dir = tmp_dir("torn");
        let obs = Registry::new();
        let wal = Wal::open(WalConfig::new(&dir), &obs).unwrap();
        wal.append(&write_rec(0)).unwrap();
        wal.append(&write_rec(1)).unwrap();
        drop(wal);
        // Simulate a crash mid-append: chop bytes off the segment tail.
        let path = segment_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        // Reopen repairs; history keeps the first record only.
        let wal = Wal::open(WalConfig::new(&dir), &obs).unwrap();
        wal.append(&write_rec(2)).unwrap();
        drop(wal);
        let log = read_log(&dir).unwrap();
        assert_eq!(log.records, vec![write_rec(0), write_rec(2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Three acknowledged records, then a write that died half-way through
    /// the fourth frame (what `write_all` leaves behind on ENOSPC).
    fn three_records_and_half_a_frame(dir: &Path) -> Wal {
        let wal = Wal::open(WalConfig::new(dir), &Registry::new()).unwrap();
        for i in 0..3 {
            wal.append(&write_rec(i)).unwrap();
        }
        let frame = crate::frame_record(&write_rec(3));
        wal.seg.lock().file.write_all(&frame[..frame.len() / 2]).unwrap();
        wal
    }

    #[test]
    fn a_failed_append_is_cut_away_before_the_next_record_lands() {
        let dir = tmp_dir("rollback");
        let wal = three_records_and_half_a_frame(&dir);
        wal.seg.lock().roll_back();
        wal.append(&write_rec(4)).unwrap();
        drop(wal);
        let log = read_log(&dir).unwrap();
        assert_eq!(log.records, [0, 1, 2, 4].map(write_rec));
        assert!(!log.stats.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_whose_rollback_failed_refuses_appends_and_syncs() {
        let dir = tmp_dir("poison");
        let wal = three_records_and_half_a_frame(&dir);
        {
            // A handle that cannot truncate stands in for the failing disk.
            let mut seg = wal.seg.lock();
            let read_only = File::open(segment_path(&dir, 0)).unwrap();
            let writable = std::mem::replace(&mut seg.file, read_only);
            seg.roll_back();
            seg.file = writable;
        }
        // The handle works again, but the torn bytes are still in the file.
        assert!(matches!(wal.append(&write_rec(4)), Err(Error::StorageIo(_))));
        assert!(matches!(wal.sync(), Err(Error::StorageIo(_))));
        drop(wal);
        let log = read_log(&dir).unwrap();
        assert_eq!(log.records, [0, 1, 2].map(write_rec));
        assert!(log.stats.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_all_survive() {
        let dir = tmp_dir("concurrent");
        let obs = Registry::new();
        let wal = std::sync::Arc::new(Wal::open(WalConfig::new(&dir), &obs).unwrap());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        wal.append(&write_rec(t * 1000 + i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(wal);
        let log = read_log(&dir).unwrap();
        assert_eq!(log.records.len(), 200);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retire_deletes_sealed_segments_below_floor_never_the_tail() {
        let dir = tmp_dir("retire");
        let obs = Registry::new();
        let mut config = WalConfig::new(&dir);
        config.segment_bytes = 256; // rotate every few records
        let wal = Wal::open(config, &obs).unwrap();
        for i in 0..32 {
            wal.append(&write_rec(i)).unwrap();
        }
        let tail = wal.current_segment_seq();
        let mut sealed = existing_segments(&dir).unwrap();
        sealed.sort_unstable();
        assert!(sealed.len() > 2, "need several segments, got {sealed:?}");

        // A partial floor retires exactly the segments below it.
        let floor = sealed[1];
        assert_eq!(wal.retire_segments_below(floor).unwrap(), 1);
        let mut left = existing_segments(&dir).unwrap();
        left.sort_unstable();
        assert_eq!(left, sealed[1..].to_vec());

        // A floor past the end retires every sealed segment but never the
        // live tail, which keeps accepting appends.
        assert_eq!(wal.retire_segments_below(u64::MAX).unwrap(), left.len() - 1);
        let mut survivors = existing_segments(&dir).unwrap();
        survivors.sort_unstable();
        assert_eq!(survivors, vec![tail]);
        wal.append(&write_rec(99)).unwrap();
        drop(wal);
        let log = read_log(&dir).unwrap();
        assert!(log.records.contains(&write_rec(99)));

        // A floor of zero is a no-op.
        let wal = Wal::open(WalConfig::new(&dir), &obs).unwrap();
        assert_eq!(wal.retire_segments_below(0).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_policy_displays_its_short_name() {
        assert_eq!(SyncPolicy::Always.to_string(), "always");
        assert_eq!(SyncPolicy::EveryN(8).to_string(), "every8");
        assert_eq!(SyncPolicy::Os.to_string(), "os");
    }
}
