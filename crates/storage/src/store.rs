//! The object layer of a storage server.
//!
//! Objects are flat byte arrays named by [`ObjId`], each belonging to
//! exactly one [`ContainerId`] — the unit of access control (§3.1.1). The
//! store "moves the block layout decisions and policy enforcement to the
//! storage device" (Figure 7-b): layout here is simply the object map, and
//! enforcement is done by the server above this layer.
//!
//! The map is **sharded** and every object carries its own lock: an id
//! lookup takes one short shard-level critical section, and the byte copy
//! of a read or write then runs under the per-object mutex only. With the
//! server's worker pool driving many requests at once, operations on
//! independent objects never contend — only same-object operations (which
//! the server's conflict tracker already serializes when they overlap)
//! ever share a lock. Id allocation is a single atomic counter.
//!
//! The store is memory-only: durability is the write-ahead log's job
//! (`lwfs-wal`, driven by the server above), so `sync` only settles the
//! dirty-object accounting.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lwfs_proto::{ContainerId, Error, ObjAttr, ObjId, Result};
use parking_lot::Mutex;

/// Shards in the object map. A fixed power of two well above typical
/// worker counts, so two workers touching different objects rarely even
/// share a shard lock (and never hold one across a byte copy).
const SHARD_COUNT: usize = 16;

/// Store-level configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Largest object the server accepts, in bytes.
    pub max_object_size: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { max_object_size: 4 << 30 }
    }
}

/// Mutable state of one object, guarded by its own lock.
#[derive(Debug)]
struct ObjState {
    data: Vec<u8>,
    create_time: u64,
    modify_time: u64,
    dirty: bool,
}

/// One stored object: the immutable container binding outside the lock
/// (checked without contending with data movement), the byte state inside.
#[derive(Debug)]
struct StoredObject {
    container: ContainerId,
    state: Mutex<ObjState>,
}

type ObjRef = Arc<StoredObject>;

/// An in-memory object store with a sharded object map, per-object
/// locking, and atomic id allocation.
pub struct ObjectStore {
    config: StoreConfig,
    shards: Vec<Mutex<HashMap<ObjId, ObjRef>>>,
    next_oid: AtomicU64,
}

impl ObjectStore {
    pub fn new(config: StoreConfig) -> Self {
        Self {
            config,
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            next_oid: AtomicU64::new(0),
        }
    }

    fn shard(&self, oid: ObjId) -> &Mutex<HashMap<ObjId, ObjRef>> {
        &self.shards[(oid.0 as usize) % SHARD_COUNT]
    }

    /// Look up an object, cloning its handle out of the (briefly locked)
    /// shard so the caller never holds a shard lock across a byte copy.
    fn lookup(&self, oid: ObjId) -> Result<ObjRef> {
        self.shard(oid).lock().get(&oid).cloned().ok_or(Error::NoSuchObject(oid))
    }

    /// Like [`lookup`](Self::lookup), but also enforcing container scoping.
    fn lookup_scoped(&self, container: ContainerId, oid: ObjId) -> Result<ObjRef> {
        let obj = self.lookup(oid)?;
        if obj.container != container {
            return Err(Error::AccessDenied);
        }
        Ok(obj)
    }

    /// Create an object in `container`. A caller-chosen id (needed for
    /// deterministic restart layouts) collides with `ObjectExists` if
    /// taken; otherwise the store allocates the next id.
    pub fn create(&self, container: ContainerId, want: Option<ObjId>, now: u64) -> Result<ObjId> {
        let oid = match want {
            Some(oid) => {
                // Reserve past explicit ids before touching the shard, so a
                // racing automatic create can never be handed the same id.
                self.next_oid.fetch_max(oid.0.saturating_add(1), Ordering::Relaxed);
                oid
            }
            None => ObjId(self.next_oid.fetch_add(1, Ordering::Relaxed)),
        };
        let obj = Arc::new(StoredObject {
            container,
            state: Mutex::new(ObjState {
                data: Vec::new(),
                create_time: now,
                modify_time: now,
                dirty: false,
            }),
        });
        let mut shard = self.shard(oid).lock();
        if shard.contains_key(&oid) {
            return Err(Error::ObjectExists(oid));
        }
        shard.insert(oid, obj);
        Ok(oid)
    }

    /// Remove an object, enforcing container scoping.
    pub fn remove(&self, container: ContainerId, oid: ObjId) -> Result<()> {
        self.take(container, oid).map(drop)
    }

    /// [`remove`](Self::remove) an object and hand back its bytes — moved
    /// out of the store, not copied — so a transactional removal can keep
    /// them for undo.
    pub fn take(&self, container: ContainerId, oid: ObjId) -> Result<Vec<u8>> {
        let obj = {
            let mut shard = self.shard(oid).lock();
            match shard.get(&oid) {
                None => return Err(Error::NoSuchObject(oid)),
                Some(o) if o.container != container => return Err(Error::AccessDenied),
                Some(_) => shard.remove(&oid).expect("entry just seen under the shard lock"),
            }
        };
        let data = std::mem::take(&mut obj.state.lock().data);
        Ok(data)
    }

    /// The container an object belongs to.
    pub fn container_of(&self, oid: ObjId) -> Result<ContainerId> {
        Ok(self.lookup(oid)?.container)
    }

    /// The exclusive end of `[offset, offset + len)`, or `ObjectTooLarge`
    /// when it overflows or passes [`StoreConfig::max_object_size`]. A
    /// server checks a whole request with this before it moves any byte.
    pub fn check_extent(&self, offset: u64, len: u64) -> Result<u64> {
        match offset.checked_add(len) {
            Some(end) if end <= self.config.max_object_size => Ok(end),
            _ => Err(Error::ObjectTooLarge),
        }
    }

    /// Make room for the object to grow to `end` bytes in one step, so the
    /// chunked writes of one request append without reallocating. A fresh
    /// object gets exactly `end`; one that already holds bytes grows
    /// geometrically, so a stream of small appending requests stays linear.
    /// Changes no contents and no length.
    pub fn reserve(&self, container: ContainerId, oid: ObjId, end: u64) -> Result<()> {
        let end = self.check_extent(0, end)? as usize;
        let obj = self.lookup_scoped(container, oid)?;
        let mut st = obj.state.lock();
        let additional = end.saturating_sub(st.data.len());
        st.data
            .try_reserve(additional)
            .map_err(|e| Error::StorageIo(format!("cannot reserve {end} bytes for {oid}: {e}")))
    }

    /// Write `data` at `offset`, extending (zero-filling any gap). Returns
    /// the *preimage* of the overwritten region and the previous length —
    /// exactly what an undo journal needs for transactional rollback.
    pub fn write(
        &self,
        container: ContainerId,
        oid: ObjId,
        offset: u64,
        data: &[u8],
        now: u64,
    ) -> Result<WritePreimage> {
        self.write_at(container, oid, offset, data, now, true)
    }

    /// [`write`](Self::write) for a caller that will never undo it: the
    /// overwritten bytes are not copied out.
    pub fn write_final(
        &self,
        container: ContainerId,
        oid: ObjId,
        offset: u64,
        data: &[u8],
        now: u64,
    ) -> Result<()> {
        self.write_at(container, oid, offset, data, now, false).map(drop)
    }

    /// Each byte of `data` is copied once: over the bytes already there,
    /// then appended past the old end. Only a real gap between the old end
    /// and `offset` is zero-filled. `keep_overlap` is whether the returned
    /// preimage carries the overwritten bytes.
    fn write_at(
        &self,
        container: ContainerId,
        oid: ObjId,
        offset: u64,
        data: &[u8],
        now: u64,
        keep_overlap: bool,
    ) -> Result<WritePreimage> {
        self.check_extent(offset, data.len() as u64)?;
        let obj = self.lookup_scoped(container, oid)?;
        let mut st = obj.state.lock();
        let old_len = st.data.len();
        let off = offset as usize;
        // How much of `data` lands on existing bytes.
        let covered = old_len.saturating_sub(off).min(data.len());
        let mut overlap = Vec::new();
        if covered > 0 {
            let existing = &mut st.data[off..off + covered];
            if keep_overlap {
                overlap = existing.to_vec();
            }
            existing.copy_from_slice(&data[..covered]);
        }
        if off > old_len {
            st.data.resize(off, 0);
        }
        st.data.extend_from_slice(&data[covered..]);
        st.modify_time = now;
        st.dirty = true;
        Ok(WritePreimage {
            old_len: old_len as u64,
            overlap_offset: off.min(old_len) as u64,
            overlap,
        })
    }

    /// Undo a write using its preimage: restore overwritten bytes and
    /// truncate back to the previous length.
    pub fn undo_write(&self, oid: ObjId, pre: &WritePreimage) -> Result<()> {
        let obj = self.lookup(oid)?;
        let mut st = obj.state.lock();
        let start = pre.overlap_offset as usize;
        let end = start + pre.overlap.len();
        if end <= st.data.len() {
            st.data[start..end].copy_from_slice(&pre.overlap);
        }
        st.data.truncate(pre.old_len as usize);
        st.dirty = true;
        Ok(())
    }

    /// Read up to `len` bytes at `offset` (short reads at end of object).
    pub fn read(
        &self,
        container: ContainerId,
        oid: ObjId,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>> {
        let obj = self.lookup_scoped(container, oid)?;
        let st = obj.state.lock();
        let start = (offset as usize).min(st.data.len());
        let end = (offset.saturating_add(len) as usize).min(st.data.len());
        Ok(st.data[start..end].to_vec())
    }

    /// [`read`](Self::read) into the caller's buffer: up to `dst.len()`
    /// bytes at `offset`, returning how many were there to copy.
    pub fn read_into(
        &self,
        container: ContainerId,
        oid: ObjId,
        offset: u64,
        dst: &mut [u8],
    ) -> Result<usize> {
        let obj = self.lookup_scoped(container, oid)?;
        let st = obj.state.lock();
        let start = (offset as usize).min(st.data.len());
        let n = dst.len().min(st.data.len() - start);
        dst[..n].copy_from_slice(&st.data[start..start + n]);
        Ok(n)
    }

    pub fn getattr(&self, container: ContainerId, oid: ObjId) -> Result<ObjAttr> {
        let obj = self.lookup_scoped(container, oid)?;
        let st = obj.state.lock();
        Ok(ObjAttr {
            size: st.data.len() as u64,
            create_time: st.create_time,
            modify_time: st.modify_time,
        })
    }

    /// Every object handle, sorted by id for deterministic iteration.
    fn all_objects(&self) -> Vec<(ObjId, ObjRef)> {
        let mut objs: Vec<(ObjId, ObjRef)> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().iter().map(|(id, o)| (*id, Arc::clone(o))).collect::<Vec<_>>())
            .collect();
        objs.sort_by_key(|(id, _)| *id);
        objs
    }

    /// Settle one object (or all): clear dirty bits and return how many
    /// objects had been written since their last sync.
    pub fn sync(&self, oid: Option<ObjId>) -> Result<u64> {
        let targets: Vec<(ObjId, ObjRef)> = match oid {
            Some(o) => vec![(o, self.lookup(o)?)],
            None => self.all_objects(),
        };
        let mut flushed = 0u64;
        for (_, obj) in targets {
            let mut st = obj.state.lock();
            if st.dirty {
                st.dirty = false;
                flushed += 1;
            }
        }
        Ok(flushed)
    }

    /// Objects in a container, sorted for deterministic listings.
    pub fn list(&self, container: ContainerId) -> Vec<ObjId> {
        let mut ids: Vec<ObjId> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .iter()
                    .filter(|(_, o)| o.container == container)
                    .map(|(id, _)| *id)
                    .collect::<Vec<_>>()
            })
            .collect();
        ids.sort();
        ids
    }

    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Total bytes stored (diagnostics).
    pub fn bytes_stored(&self) -> u64 {
        self.all_objects().iter().map(|(_, o)| o.state.lock().data.len() as u64).sum()
    }
}

/// Preimage captured by [`ObjectStore::write`] for transactional undo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePreimage {
    pub old_len: u64,
    pub overlap_offset: u64,
    pub overlap: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const C1: ContainerId = ContainerId(1);
    const C2: ContainerId = ContainerId(2);

    fn store() -> ObjectStore {
        ObjectStore::new(StoreConfig::default())
    }

    #[test]
    fn create_write_read_roundtrip() {
        let s = store();
        let oid = s.create(C1, None, 10).unwrap();
        s.write(C1, oid, 0, b"checkpoint state", 11).unwrap();
        assert_eq!(s.read(C1, oid, 0, 16).unwrap(), b"checkpoint state");
        let attr = s.getattr(C1, oid).unwrap();
        assert_eq!(attr.size, 16);
        assert_eq!(attr.create_time, 10);
        assert_eq!(attr.modify_time, 11);
    }

    #[test]
    fn ids_allocated_sequentially_and_explicitly() {
        let s = store();
        let a = s.create(C1, None, 0).unwrap();
        let b = s.create(C1, None, 0).unwrap();
        assert_ne!(a, b);
        let chosen = s.create(C1, Some(ObjId(100)), 0).unwrap();
        assert_eq!(chosen, ObjId(100));
        assert_eq!(s.create(C1, Some(ObjId(100)), 0).unwrap_err(), Error::ObjectExists(ObjId(100)));
        // Allocator skips past explicit ids.
        let next = s.create(C1, None, 0).unwrap();
        assert!(next.0 > 100);
    }

    #[test]
    fn container_scoping_enforced() {
        // A capability for container 2 must not touch container 1's
        // objects even if it guesses the object id.
        let s = store();
        let oid = s.create(C1, None, 0).unwrap();
        s.write(C1, oid, 0, b"secret", 0).unwrap();
        assert_eq!(s.read(C2, oid, 0, 6).unwrap_err(), Error::AccessDenied);
        assert_eq!(s.write(C2, oid, 0, b"x", 0).unwrap_err(), Error::AccessDenied);
        assert_eq!(s.remove(C2, oid).unwrap_err(), Error::AccessDenied);
        assert_eq!(s.getattr(C2, oid).unwrap_err(), Error::AccessDenied);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let s = store();
        let oid = s.create(C1, None, 0).unwrap();
        s.write(C1, oid, 4, b"xy", 0).unwrap();
        assert_eq!(s.read(C1, oid, 0, 6).unwrap(), vec![0, 0, 0, 0, b'x', b'y']);
    }

    #[test]
    fn short_read_at_end() {
        let s = store();
        let oid = s.create(C1, None, 0).unwrap();
        s.write(C1, oid, 0, b"abc", 0).unwrap();
        assert_eq!(s.read(C1, oid, 2, 100).unwrap(), b"c");
        assert!(s.read(C1, oid, 10, 5).unwrap().is_empty());
    }

    #[test]
    fn size_limit_enforced() {
        let s = ObjectStore::new(StoreConfig { max_object_size: 8 });
        let oid = s.create(C1, None, 0).unwrap();
        assert!(s.write(C1, oid, 0, &[0u8; 8], 0).is_ok());
        assert_eq!(s.write(C1, oid, 1, &[0u8; 8], 0).unwrap_err(), Error::ObjectTooLarge);
        assert_eq!(
            s.write(C1, oid, u64::MAX, b"x", 0).unwrap_err(),
            Error::ObjectTooLarge,
            "offset overflow must not wrap"
        );
    }

    #[test]
    fn write_preimage_enables_exact_undo() {
        let s = store();
        let oid = s.create(C1, None, 0).unwrap();
        s.write(C1, oid, 0, b"hello world", 0).unwrap();
        let pre = s.write(C1, oid, 6, b"there!!!", 0).unwrap();
        assert_eq!(s.read(C1, oid, 0, 100).unwrap(), b"hello there!!!");
        s.undo_write(oid, &pre).unwrap();
        assert_eq!(s.read(C1, oid, 0, 100).unwrap(), b"hello world");
    }

    #[test]
    fn undo_of_pure_extension_truncates() {
        let s = store();
        let oid = s.create(C1, None, 0).unwrap();
        s.write(C1, oid, 0, b"abc", 0).unwrap();
        let pre = s.write(C1, oid, 3, b"def", 0).unwrap();
        assert!(pre.overlap.is_empty());
        s.undo_write(oid, &pre).unwrap();
        assert_eq!(s.read(C1, oid, 0, 10).unwrap(), b"abc");
    }

    #[test]
    fn remove_then_ops_fail() {
        let s = store();
        let oid = s.create(C1, None, 0).unwrap();
        s.remove(C1, oid).unwrap();
        assert_eq!(s.read(C1, oid, 0, 1).unwrap_err(), Error::NoSuchObject(oid));
        assert_eq!(s.remove(C1, oid).unwrap_err(), Error::NoSuchObject(oid));
    }

    #[test]
    fn list_filters_by_container_sorted() {
        let s = store();
        let a = s.create(C1, None, 0).unwrap();
        let _b = s.create(C2, None, 0).unwrap();
        let c = s.create(C1, None, 0).unwrap();
        assert_eq!(s.list(C1), vec![a, c]);
        assert_eq!(s.list(ContainerId(99)), vec![]);
    }

    #[test]
    fn sync_clears_dirty_and_counts() {
        let s = store();
        let a = s.create(C1, None, 0).unwrap();
        let b = s.create(C1, None, 0).unwrap();
        s.write(C1, a, 0, b"x", 0).unwrap();
        s.write(C1, b, 0, b"y", 0).unwrap();
        assert_eq!(s.sync(None).unwrap(), 2);
        assert_eq!(s.sync(None).unwrap(), 0, "clean objects are skipped");
        s.write(C1, a, 0, b"z", 0).unwrap();
        assert_eq!(s.sync(Some(a)).unwrap(), 1);
        assert!(s.sync(Some(ObjId(999))).is_err());
    }

    #[test]
    fn bytes_stored_tracks_totals() {
        let s = store();
        let a = s.create(C1, None, 0).unwrap();
        s.write(C1, a, 0, &[1u8; 100], 0).unwrap();
        let b = s.create(C2, None, 0).unwrap();
        s.write(C2, b, 0, &[2u8; 50], 0).unwrap();
        assert_eq!(s.bytes_stored(), 150);
        assert_eq!(s.object_count(), 2);
    }

    #[test]
    fn concurrent_automatic_creates_allocate_unique_ids() {
        let s = Arc::new(store());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    (0..100).map(|_| s.create(C1, None, 0).unwrap()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<ObjId> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 400, "atomic allocation never duplicates");
        assert_eq!(s.object_count(), 400);
    }

    #[test]
    fn concurrent_disjoint_writes_land_exactly() {
        // Many threads hammering distinct objects: per-object locking must
        // produce the same bytes a serial run would.
        let s = Arc::new(store());
        let oids: Vec<ObjId> = (0..8).map(|_| s.create(C1, None, 0).unwrap()).collect();
        let handles: Vec<_> = oids
            .iter()
            .enumerate()
            .map(|(i, oid)| {
                let s = Arc::clone(&s);
                let oid = *oid;
                std::thread::spawn(move || {
                    for round in 0..50u64 {
                        let payload = vec![(i as u8).wrapping_add(round as u8); 64];
                        s.write(C1, oid, round * 64, &payload, round).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for (i, oid) in oids.iter().enumerate() {
            let data = s.read(C1, *oid, 0, u64::MAX).unwrap();
            assert_eq!(data.len(), 50 * 64);
            for round in 0..50usize {
                assert!(data[round * 64..(round + 1) * 64]
                    .iter()
                    .all(|b| *b == (i as u8).wrapping_add(round as u8)));
            }
        }
    }

    /// `ObjectStore::write` as it was first written — grow zero-filled, then
    /// copy over — on a plain `Vec`: the model the store must keep matching.
    fn model_write(obj: &mut Vec<u8>, offset: usize, data: &[u8]) -> WritePreimage {
        let old_len = obj.len();
        let end = offset + data.len();
        let overlap = obj[offset.min(old_len)..end.min(old_len)].to_vec();
        if obj.len() < end {
            obj.resize(end, 0);
        }
        obj[offset..end].copy_from_slice(data);
        WritePreimage {
            old_len: old_len as u64,
            overlap_offset: offset.min(old_len) as u64,
            overlap,
        }
    }

    #[test]
    fn reserve_changes_no_bytes_and_honours_the_size_limit() {
        let s = ObjectStore::new(StoreConfig { max_object_size: 1 << 20 });
        let oid = s.create(C1, None, 0).unwrap();
        s.write(C1, oid, 0, b"abc", 0).unwrap();
        s.reserve(C1, oid, 1 << 20).unwrap();
        s.reserve(C1, oid, 1).unwrap(); // below the current length: nothing to do
        assert_eq!(s.read(C1, oid, 0, u64::MAX).unwrap(), b"abc");
        assert_eq!(s.bytes_stored(), 3);
        assert_eq!(s.reserve(C1, oid, (1 << 20) + 1).unwrap_err(), Error::ObjectTooLarge);
        assert_eq!(s.reserve(C2, oid, 8).unwrap_err(), Error::AccessDenied);
        assert_eq!(s.check_extent(1 << 19, 1 << 19).unwrap(), 1 << 20);
        assert_eq!(s.check_extent(1 << 19, (1 << 19) + 1).unwrap_err(), Error::ObjectTooLarge);
        assert_eq!(s.check_extent(u64::MAX, 1).unwrap_err(), Error::ObjectTooLarge);
    }

    proptest::proptest! {
        /// Any sequence of appends, overwrites, partial overlaps and gapped
        /// writes leaves the same bytes and returns the same preimages as
        /// the `Vec` model — with or without room reserved first, with or
        /// without the preimage kept — and undoing them newest-first walks
        /// back through exactly the model's earlier states.
        #[test]
        fn prop_write_matches_the_vec_model(
            writes in proptest::collection::vec(
                (0usize..96, proptest::collection::vec(proptest::num::u8::ANY, 0..48), 0u8..2),
                1..12,
            ),
        ) {
            let s = store();
            let undoable = s.create(C1, None, 0).unwrap();
            let fin = s.create(C1, None, 0).unwrap();
            let mut model = Vec::new();
            let mut undo = Vec::new();
            for (offset, data, reserve_first) in &writes {
                let before = model.clone();
                let want = model_write(&mut model, *offset, data);
                if *reserve_first == 1 {
                    s.reserve(C1, undoable, model.len() as u64).unwrap();
                }
                let pre = s.write(C1, undoable, *offset as u64, data, 0).unwrap();
                s.write_final(C1, fin, *offset as u64, data, 0).unwrap();
                proptest::prop_assert_eq!(&pre, &want);
                proptest::prop_assert_eq!(&s.read(C1, undoable, 0, u64::MAX).unwrap(), &model);
                proptest::prop_assert_eq!(&s.read(C1, fin, 0, u64::MAX).unwrap(), &model);
                proptest::prop_assert_eq!(s.bytes_stored(), 2 * model.len() as u64);
                undo.push((pre, before));
            }
            for (pre, before) in undo.into_iter().rev() {
                s.undo_write(undoable, &pre).unwrap();
                proptest::prop_assert_eq!(s.read(C1, undoable, 0, u64::MAX).unwrap(), before);
            }
        }

        /// `read_into` is `read` into the caller's buffer: same bytes, same
        /// short count, at every offset and length including past the end.
        #[test]
        fn prop_read_into_equals_read(
            contents in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
            offset in 0u64..96,
            len in 0usize..96,
        ) {
            let s = store();
            let oid = s.create(C1, None, 0).unwrap();
            s.write(C1, oid, 0, &contents, 0).unwrap();
            let want = s.read(C1, oid, offset, len as u64).unwrap();
            let mut dst = vec![0xEEu8; len];
            let n = s.read_into(C1, oid, offset, &mut dst).unwrap();
            proptest::prop_assert_eq!(&dst[..n], &want[..]);
            proptest::prop_assert!(dst[n..].iter().all(|b| *b == 0xEE), "wrote past the count");
        }

        /// `take` hands back exactly the object's bytes and leaves nothing
        /// behind; creating it again and writing them back (the
        /// `RestoreObject` undo) is byte-exact.
        #[test]
        fn prop_take_then_restore_is_identity(
            contents in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
        ) {
            let s = store();
            let oid = s.create(C1, None, 0).unwrap();
            let bystander = s.create(C1, None, 0).unwrap();
            s.write(C1, oid, 0, &contents, 0).unwrap();
            s.write(C1, bystander, 0, b"stays", 0).unwrap();
            proptest::prop_assert_eq!(s.take(C2, oid).unwrap_err(), Error::AccessDenied);
            let taken = s.take(C1, oid).unwrap();
            proptest::prop_assert_eq!(&taken, &contents);
            proptest::prop_assert_eq!(s.take(C1, oid).unwrap_err(), Error::NoSuchObject(oid));
            proptest::prop_assert_eq!(s.bytes_stored(), 5);
            s.create(C1, Some(oid), 1).unwrap();
            s.write_final(C1, oid, 0, &taken, 1).unwrap();
            proptest::prop_assert_eq!(s.read(C1, oid, 0, u64::MAX).unwrap(), contents);
        }

        /// Writes at arbitrary offsets followed by undo restore the exact
        /// prior contents.
        #[test]
        fn prop_write_undo_is_identity(
            initial in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
            offset in 0u64..128,
            data in proptest::collection::vec(proptest::num::u8::ANY, 1..64),
        ) {
            let s = store();
            let oid = s.create(C1, None, 0).unwrap();
            if !initial.is_empty() {
                s.write(C1, oid, 0, &initial, 0).unwrap();
            }
            let before = s.read(C1, oid, 0, 1 << 20).unwrap();
            let pre = s.write(C1, oid, offset, &data, 0).unwrap();
            s.undo_write(oid, &pre).unwrap();
            let after = s.read(C1, oid, 0, 1 << 20).unwrap();
            proptest::prop_assert_eq!(before, after);
        }
    }
}
