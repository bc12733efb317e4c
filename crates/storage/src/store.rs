//! The object layer of a storage server.
//!
//! Objects are flat byte arrays named by [`ObjId`], each belonging to
//! exactly one [`ContainerId`] — the unit of access control (§3.1.1). The
//! store "moves the block layout decisions and policy enforcement to the
//! storage device" (Figure 7-b): layout here is the object map and each
//! object's chunk table, and enforcement is done by the server above.
//!
//! The map is **sharded** and every object carries its own lock: an id
//! lookup takes one short shard-level critical section, and a write's
//! chunk swap or copy then runs under the per-object mutex only, so
//! independent objects never contend. Id allocation is one atomic counter.
//!
//! **An object is a table of chunks**, cut at `chunk_size` boundaries;
//! all are full but the last, which may be short. A write piece covering
//! its chunk *installs* a chunk (the server pulls straight into it); any
//! other copies into its chunk, in place only when nothing else holds it.
//! Reads clone chunk handles; undo swaps displaced chunks back. Full-size
//! chunks come from one store-wide free list and return to it when their
//! last handle drops, so live plus free chunks never exceed the most the
//! store ever held live at once. DESIGN §10 has the rules.
//!
//! The store is memory-only: durability is the write-ahead log's job
//! (`lwfs-wal`, driven by the server above), so `sync` only settles the
//! dirty-object accounting.

use std::collections::HashMap;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lwfs_obs::{Counter, Gauge, Registry};
use lwfs_portals::buffer::put_at;
use lwfs_proto::{ContainerId, Error, ObjAttr, ObjId, Result};
use parking_lot::Mutex;

/// Shards in the object map. A fixed power of two well above typical
/// worker counts, so two workers touching different objects rarely even
/// share a shard lock (and never hold one across a byte copy).
const SHARD_COUNT: usize = 16;

/// The chunk size of [`ObjectStore::new`] and the server's default.
pub const CHUNK_SIZE: usize = 256 * 1024;

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

/// One chunk of an object's bytes. A full-size chunk goes back to its
/// store's free list when its last handle drops; a short one is freed.
pub struct Chunk {
    buf: Vec<u8>,
    home: Option<Arc<ChunkPool>>,
}

impl Deref for Chunk {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl Chunk {
    /// The chunk's buffer, for a pull to append its bytes to.
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        if let Some(pool) = self.home.take() {
            let mut list = pool.list.lock();
            list.live -= 1;
            list.free.push(std::mem::take(&mut self.buf));
            pool.free_chunks.inc();
        }
    }
}

/// The store-wide free list of full-size chunk buffers, counted in
/// `storage.free_chunks` and `storage.chunks_allocated`.
struct ChunkPool {
    size: usize,
    list: Mutex<FreeList>,
    free_chunks: Arc<Gauge>,
    allocated: Arc<Counter>,
}

#[derive(Default)]
struct FreeList {
    free: Vec<Vec<u8>>,
    /// Full-size chunks outside the list, and the most there have been.
    live: usize,
    high_water: usize,
}

impl ChunkPool {
    /// An empty chunk with room for `len` bytes, for its taker to fill by
    /// appending — nothing is zeroed first: a full-size one from the free
    /// list when it has one, a short one allocated exactly.
    fn take(self: &Arc<Self>, len: usize) -> Chunk {
        if len != self.size {
            return Chunk { buf: Vec::with_capacity(len), home: None };
        }
        let mut list = self.list.lock();
        list.live += 1;
        list.high_water = list.high_water.max(list.live);
        let recycled = list.free.pop().inspect(|_| self.free_chunks.dec());
        drop(list);
        let mut buf = recycled.unwrap_or_else(|| {
            self.allocated.inc();
            Vec::with_capacity(len)
        });
        buf.clear();
        Chunk { buf, home: Some(Arc::clone(self)) }
    }

    fn copy_of(self: &Arc<Self>, bytes: &[u8]) -> Arc<Chunk> {
        let mut chunk = self.take(bytes.len());
        chunk.buf.extend_from_slice(bytes);
        Arc::new(chunk)
    }
}

impl Drop for ChunkPool {
    fn drop(&mut self) {
        // The gauge is fabric-wide: a crashed server's list leaves it.
        self.free_chunks.add(-(self.list.lock().free.len() as i64));
    }
}

/// An object's bytes: `len` bytes in chunks, each full but the last.
#[derive(Default)]
pub struct ObjectBytes {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

/// What an undoable write displaced: the previous length, and the chunks
/// it replaced by table index. Undo swaps them back; nothing is copied.
pub struct WritePreimage {
    pub old_len: u64,
    displaced: Vec<(usize, Arc<Chunk>)>,
}

/// Mutable state of one object, guarded by its own lock.
struct ObjState {
    bytes: ObjectBytes,
    create_time: u64,
    modify_time: u64,
    dirty: bool,
}

/// One stored object: the immutable container binding outside the lock
/// (checked without contending with data movement), the byte state inside.
struct StoredObject {
    container: ContainerId,
    state: Mutex<ObjState>,
}

type ObjRef = Arc<StoredObject>;

/// An in-memory object store with a sharded object map, per-object
/// locking, atomic id allocation, and recycled chunks.
pub struct ObjectStore {
    config: StoreConfig,
    shards: Vec<Mutex<HashMap<ObjId, ObjRef>>>,
    next_oid: AtomicU64,
    chunks: Arc<ChunkPool>,
}

impl ObjectStore {
    /// A store of [`CHUNK_SIZE`] chunks whose chunk metrics nobody reads.
    pub fn new(config: StoreConfig) -> Self {
        Self::with_chunks(config, CHUNK_SIZE, &Registry::new())
    }

    /// A store cutting objects into `chunk_size` chunks, counting its free
    /// list in `obs`.
    pub fn with_chunks(config: StoreConfig, chunk_size: usize, obs: &Registry) -> Self {
        assert!(chunk_size > 0, "chunks must hold bytes");
        Self {
            config,
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            next_oid: AtomicU64::new(0),
            chunks: Arc::new(ChunkPool {
                size: chunk_size,
                list: Mutex::new(FreeList::default()),
                free_chunks: obs.gauge("storage.free_chunks"),
                allocated: obs.counter("storage.chunks_allocated"),
            }),
        }
    }

    /// An empty chunk with room for `len` bytes, for the caller to fill
    /// through [`Chunk::buf_mut`] and hand to
    /// [`write_chunk`](Self::write_chunk).
    pub fn chunk(&self, len: usize) -> Chunk {
        self.chunks.take(len)
    }

    /// A chunk holding a copy of `bytes`.
    pub fn chunk_of(&self, bytes: &[u8]) -> Arc<Chunk> {
        self.chunks.copy_of(bytes)
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
        let state = ObjState {
            bytes: ObjectBytes::default(),
            create_time: now,
            modify_time: now,
            dirty: false,
        };
        let obj = Arc::new(StoredObject { container, state: Mutex::new(state) });
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

    /// [`remove`](Self::remove) an object and hand back its chunk table —
    /// moved out of the store, not copied — so a transactional removal
    /// can keep it for undo.
    pub fn take(&self, container: ContainerId, oid: ObjId) -> Result<ObjectBytes> {
        let obj = {
            let mut shard = self.shard(oid).lock();
            match shard.get(&oid) {
                None => return Err(Error::NoSuchObject(oid)),
                Some(o) if o.container != container => return Err(Error::AccessDenied),
                Some(_) => shard.remove(&oid).expect("entry just seen under the shard lock"),
            }
        };
        let bytes = std::mem::take(&mut obj.state.lock().bytes);
        Ok(bytes)
    }

    /// Undo a [`take`](Self::take): create the object again with its chunks.
    pub fn restore(
        &self,
        container: ContainerId,
        oid: ObjId,
        bytes: ObjectBytes,
        now: u64,
    ) -> Result<()> {
        self.create(container, Some(oid), now)?;
        self.lookup(oid)?.state.lock().bytes = bytes;
        Ok(())
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

    /// Make room in the object's chunk table for it to grow to `end`
    /// bytes, or fail with `StorageIo` when the allocator cannot. Changes
    /// no contents and no length.
    pub fn reserve(&self, container: ContainerId, oid: ObjId, end: u64) -> Result<()> {
        let end = self.check_extent(0, end)? as usize;
        let obj = self.lookup_scoped(container, oid)?;
        let chunks = &mut obj.state.lock().bytes.chunks;
        let additional = end.div_ceil(self.chunks.size).saturating_sub(chunks.len());
        chunks
            .try_reserve(additional)
            .map_err(|e| Error::StorageIo(format!("cannot reserve {end} bytes for {oid}: {e}")))
    }

    /// Write `data` at `offset`, extending (zero-filling any gap). Returns
    /// what an undo journal needs for transactional rollback.
    pub fn write(
        &self,
        container: ContainerId,
        oid: ObjId,
        offset: u64,
        data: &[u8],
        now: u64,
    ) -> Result<WritePreimage> {
        self.write_at(container, oid, offset, data, None, now, true)
    }

    /// Write `chunk`'s bytes at `offset`, installing the chunk itself when
    /// it covers its place; `undoable` keeps what it displaced, and
    /// otherwise an unshared chunk may be written in place.
    pub fn write_chunk(
        &self,
        container: ContainerId,
        oid: ObjId,
        offset: u64,
        chunk: &Arc<Chunk>,
        now: u64,
        undoable: bool,
    ) -> Result<WritePreimage> {
        self.write_at(container, oid, offset, chunk, Some(chunk), now, undoable)
    }

    /// Cut `data` at chunk boundaries and put each piece in place: one
    /// that covers its chunk is installed (`whole` itself when the piece
    /// is all of it, else a copy), any other is copied into its chunk.
    #[allow(clippy::too_many_arguments)]
    fn write_at(
        &self,
        container: ContainerId,
        oid: ObjId,
        offset: u64,
        data: &[u8],
        whole: Option<&Arc<Chunk>>,
        now: u64,
        undoable: bool,
    ) -> Result<WritePreimage> {
        self.check_extent(offset, data.len() as u64)?;
        let obj = self.lookup_scoped(container, oid)?;
        let mut st = obj.state.lock();
        let (pool, size) = (&self.chunks, self.chunks.size);
        let bytes = &mut st.bytes;
        let mut pre = WritePreimage { old_len: bytes.len as u64, displaced: Vec::new() };
        let mut undo = undoable.then_some(&mut pre.displaced);
        let mut at = offset as usize;
        // Zeros over a real gap, up to the chunk the first piece lands in
        // (which fills the rest of the gap itself).
        bytes.zero_fill(if data.is_empty() { at } else { at - at % size }, pool, &mut undo);
        let mut rest = data;
        while !rest.is_empty() {
            let (idx, within) = (at / size, at % size);
            let (piece, tail) = rest.split_at(rest.len().min(size - within));
            let end = at + piece.len();
            if within == 0 && (piece.len() == size || end >= bytes.len) {
                let chunk = match whole {
                    Some(c) if piece.len() == data.len() => Arc::clone(c),
                    _ => pool.copy_of(piece),
                };
                if idx == bytes.chunks.len() {
                    bytes.chunks.push(chunk);
                } else {
                    let old = std::mem::replace(&mut bytes.chunks[idx], chunk);
                    if let Some(undo) = undo.as_mut() {
                        undo.push((idx, old));
                    }
                }
            } else {
                let target = (bytes.len.max(end) - idx * size).min(size);
                put_at(&mut bytes.chunk_mut(idx, target, pool, &mut undo).buf, within, piece);
            }
            bytes.len = bytes.len.max(end);
            (at, rest) = (end, tail);
        }
        st.modify_time = now;
        st.dirty = true;
        Ok(pre)
    }

    /// Undo a write: swap the displaced chunks back and truncate to the
    /// previous length.
    pub fn undo_write(&self, oid: ObjId, pre: WritePreimage) -> Result<()> {
        let obj = self.lookup(oid)?;
        let mut st = obj.state.lock();
        for (idx, chunk) in pre.displaced.into_iter().rev() {
            if let Some(slot) = st.bytes.chunks.get_mut(idx) {
                *slot = chunk;
            }
        }
        st.bytes.truncate(pre.old_len as usize, &self.chunks);
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
        let pieces = self.read_chunks(container, oid, offset, len)?;
        let mut out = Vec::with_capacity(pieces.iter().map(|(_, r)| r.len()).sum());
        for (chunk, range) in pieces {
            out.extend_from_slice(&chunk[range]);
        }
        Ok(out)
    }

    /// The chunks holding up to `len` bytes at `offset`, in order, each
    /// with the range of it the read covers: handles cloned under the
    /// object lock, for the caller to copy or push from without it.
    pub fn read_chunks(
        &self,
        container: ContainerId,
        oid: ObjId,
        offset: u64,
        len: u64,
    ) -> Result<Vec<(Arc<Chunk>, Range<usize>)>> {
        let obj = self.lookup_scoped(container, oid)?;
        let st = obj.state.lock();
        let size = self.chunks.size;
        let end = offset.saturating_add(len).min(st.bytes.len as u64) as usize;
        let mut at = (offset as usize).min(end);
        let mut pieces = Vec::with_capacity((end - at).div_ceil(size) + 1);
        while at < end {
            let n = (end - at).min(size - at % size);
            pieces.push((Arc::clone(&st.bytes.chunks[at / size]), at % size..at % size + n));
            at += n;
        }
        Ok(pieces)
    }

    pub fn getattr(&self, container: ContainerId, oid: ObjId) -> Result<ObjAttr> {
        let obj = self.lookup_scoped(container, oid)?;
        let st = obj.state.lock();
        Ok(ObjAttr {
            size: st.bytes.len as u64,
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
        let objs = self.all_objects().into_iter();
        objs.filter(|(_, o)| o.container == container).map(|(id, _)| id).collect()
    }

    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Total logical bytes stored: the objects' lengths, not the chunks'
    /// capacity or the free list (diagnostics).
    pub fn bytes_stored(&self) -> u64 {
        self.all_objects().iter().map(|(_, o)| o.state.lock().bytes.len as u64).sum()
    }
}

/// Where an undoable write keeps the chunks it displaces.
type Undo<'a> = Option<&'a mut Vec<(usize, Arc<Chunk>)>>;

impl ObjectBytes {
    /// The chunk at `idx`, owned by this write, holding its old bytes and
    /// room to grow to `target` bytes. A chunk past the end is appended
    /// empty. An existing one is written in place only if nothing else
    /// holds it, no undo needs it, and it is short or a free-list chunk
    /// (so a chunk that grows full can go back to the list); otherwise a
    /// copy replaces it, and `undo` keeps the original.
    fn chunk_mut(
        &mut self,
        idx: usize,
        target: usize,
        pool: &Arc<ChunkPool>,
        undo: &mut Undo,
    ) -> &mut Chunk {
        if idx == self.chunks.len() {
            self.chunks.push(Arc::new(pool.take(target)));
        } else {
            let slot = &mut self.chunks[idx];
            let mine = undo.is_none() && (slot.home.is_some() || target < pool.size);
            if !(mine && Arc::get_mut(slot).is_some()) {
                let mut copy = pool.take(target);
                copy.buf.extend_from_slice(slot);
                let old = std::mem::replace(slot, Arc::new(copy));
                if let Some(undo) = undo.as_mut() {
                    undo.push((idx, old));
                }
            }
        }
        let chunk = Arc::get_mut(&mut self.chunks[idx]).expect("a chunk this write owns");
        chunk.buf.reserve_exact(target.saturating_sub(chunk.buf.len()));
        chunk
    }

    /// Grow to `to` bytes with zeros.
    fn zero_fill(&mut self, to: usize, pool: &Arc<ChunkPool>, undo: &mut Undo) {
        while self.len < to {
            let idx = self.len / pool.size;
            let target = (to - idx * pool.size).min(pool.size);
            put_at(&mut self.chunk_mut(idx, target, pool, undo).buf, target, &[]);
            self.len = idx * pool.size + target;
        }
    }

    /// Shrink to `len` bytes (never grows).
    fn truncate(&mut self, len: usize, pool: &Arc<ChunkPool>) {
        if len >= self.len {
            return;
        }
        self.chunks.truncate(len.div_ceil(pool.size));
        let keep = len - self.chunks.len().saturating_sub(1) * pool.size;
        if let Some(last) = self.chunks.last_mut().filter(|c| c.len() > keep) {
            match Arc::get_mut(last) {
                Some(c) => c.buf.truncate(keep),
                None => *last = pool.copy_of(&last[..keep]),
            }
        }
        self.len = len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C1: ContainerId = ContainerId(1);
    const C2: ContainerId = ContainerId(2);
    /// Small enough that short test payloads cross chunk boundaries.
    const CS: usize = 8;

    fn store() -> ObjectStore {
        ObjectStore::with_chunks(StoreConfig::default(), CS, &Registry::new())
    }

    /// A write nobody will undo, through the server's path: the bytes
    /// handed over as one chunk.
    fn write_final(
        s: &ObjectStore,
        c: ContainerId,
        oid: ObjId,
        offset: u64,
        data: &[u8],
        now: u64,
    ) -> Result<()> {
        s.write_chunk(c, oid, offset, &s.chunk_of(data), now, false).map(drop)
    }

    fn bytes_of(b: &ObjectBytes) -> Vec<u8> {
        b.chunks.iter().flat_map(|c| c.iter().copied()).collect()
    }

    /// `(live, free, high_water)` of the store's free list.
    fn chunk_counts(s: &ObjectStore) -> (usize, usize, usize) {
        let list = s.chunks.list.lock();
        (list.live, list.free.len(), list.high_water)
    }

    /// Every object's table is full chunks and one last, possibly short,
    /// chunk that ends at the object's length.
    fn assert_layout(s: &ObjectStore) {
        for (oid, obj) in s.all_objects() {
            let st = obj.state.lock();
            let b = &st.bytes;
            assert_eq!(b.chunks.len(), b.len.div_ceil(CS), "{oid}: table length");
            for (i, c) in b.chunks.iter().enumerate() {
                assert_eq!(c.len(), (b.len - i * CS).min(CS), "{oid}: chunk {i}");
            }
        }
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
        assert_eq!(s.write(C2, oid, 0, b"x", 0).err(), Some(Error::AccessDenied));
        assert_eq!(s.remove(C2, oid).unwrap_err(), Error::AccessDenied);
        assert_eq!(s.getattr(C2, oid).unwrap_err(), Error::AccessDenied);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let s = store();
        let oid = s.create(C1, None, 0).unwrap();
        s.write(C1, oid, 4, b"xy", 0).unwrap();
        assert_eq!(s.read(C1, oid, 0, 6).unwrap(), vec![0, 0, 0, 0, b'x', b'y']);
        // A gap spanning whole chunks.
        s.write(C1, oid, 3 * CS as u64 + 1, b"z", 0).unwrap();
        let mut want = vec![0u8; 3 * CS + 2];
        want[4..6].copy_from_slice(b"xy");
        want[3 * CS + 1] = b'z';
        assert_eq!(s.read(C1, oid, 0, u64::MAX).unwrap(), want);
        assert_layout(&s);
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
        assert_eq!(s.write(C1, oid, 1, &[0u8; 8], 0).err(), Some(Error::ObjectTooLarge));
        assert_eq!(
            s.write(C1, oid, u64::MAX, b"x", 0).err(),
            Some(Error::ObjectTooLarge),
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
        s.undo_write(oid, pre).unwrap();
        assert_eq!(s.read(C1, oid, 0, 100).unwrap(), b"hello world");
        assert_layout(&s);
    }

    #[test]
    fn undo_of_pure_extension_truncates() {
        let s = store();
        let oid = s.create(C1, None, 0).unwrap();
        s.write(C1, oid, 0, &[7u8; CS], 0).unwrap();
        // Past a full last chunk: nothing is displaced.
        let pre = s.write(C1, oid, CS as u64, b"def", 0).unwrap();
        assert!(pre.displaced.is_empty());
        s.undo_write(oid, pre).unwrap();
        assert_eq!(s.read(C1, oid, 0, 100).unwrap(), [7u8; CS]);
        assert_layout(&s);
    }

    #[test]
    fn an_aligned_overwrite_installs_and_its_undo_swaps_the_chunks_back() {
        let s = store();
        let oid = s.create(C1, None, 0).unwrap();
        write_final(&s, C1, oid, 0, &[1u8; 2 * CS], 0).unwrap();
        let before: Vec<Arc<Chunk>> =
            s.read_chunks(C1, oid, 0, u64::MAX).unwrap().into_iter().map(|(c, _)| c).collect();
        let fresh = s.chunk_of(&[2u8; CS]);
        let pre = s.write_chunk(C1, oid, CS as u64, &fresh, 0, true).unwrap();
        let now = s.read_chunks(C1, oid, 0, u64::MAX).unwrap();
        assert!(Arc::ptr_eq(&now[1].0, &fresh), "the chunk itself is installed, not copied");
        assert_eq!(pre.displaced.len(), 1);
        assert!(Arc::ptr_eq(&pre.displaced[0].1, &before[1]), "undo keeps the chunk, not a copy");
        drop(now);
        s.undo_write(oid, pre).unwrap();
        let after = s.read_chunks(C1, oid, 0, u64::MAX).unwrap();
        assert!(after.iter().zip(&before).all(|((a, _), b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn a_small_object_holds_a_chunk_of_its_own_size() {
        let s = ObjectStore::new(StoreConfig::default());
        let oid = s.create(C1, None, 0).unwrap();
        write_final(&s, C1, oid, 0, &[9u8; 4096], 0).unwrap();
        let pieces = s.read_chunks(C1, oid, 0, u64::MAX).unwrap();
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].0.buf.capacity(), 4096);
        assert!(pieces[0].0.home.is_none(), "a short chunk is not a free-list chunk");
        assert_eq!(chunk_counts(&s), (0, 0, 0));
    }

    #[test]
    fn a_held_chunk_returns_to_the_free_list_only_when_its_last_handle_drops() {
        let obs = Registry::new();
        let s = ObjectStore::with_chunks(StoreConfig::default(), CS, &obs);
        let oid = s.create(C1, None, 0).unwrap();
        write_final(&s, C1, oid, 0, &[1u8; CS], 0).unwrap();
        assert_eq!(chunk_counts(&s), (1, 0, 1));

        // An in-flight read holds the chunk an overwrite displaces.
        let reading = s.read_chunks(C1, oid, 0, CS as u64).unwrap();
        write_final(&s, C1, oid, 0, &[2u8; CS], 0).unwrap();
        assert_eq!(chunk_counts(&s), (2, 0, 2));
        assert_eq!(&reading[0].0[..], &[1u8; CS], "the read still sees what it was handed");
        drop(reading);
        assert_eq!(chunk_counts(&s), (1, 1, 2));

        // An undo entry holds the chunk a transactional write displaces.
        let pre = s.write(C1, oid, 0, &[3u8; CS], 0).unwrap();
        assert_eq!(chunk_counts(&s), (2, 0, 2));
        drop(pre); // commit: the journal forgets the entry
        assert_eq!(chunk_counts(&s), (1, 1, 2));

        // A removed object's chunks go back too.
        s.remove(C1, oid).unwrap();
        assert_eq!(chunk_counts(&s), (0, 2, 2));
        assert_eq!(obs.gauge("storage.free_chunks").get(), 2);
        assert_eq!(obs.counter("storage.chunks_allocated").get(), 2);
        drop(s);
        assert_eq!(obs.gauge("storage.free_chunks").get(), 0, "a dropped store leaves the gauge");
    }

    #[test]
    fn a_seeded_history_never_holds_more_chunks_than_its_high_water_mark() {
        let s = store();
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut model: HashMap<ObjId, Vec<u8>> = HashMap::new();
        let mut undo: Vec<(ObjId, WritePreimage, Vec<u8>)> = Vec::new();
        for step in 0..2000u64 {
            let ids: Vec<ObjId> = {
                let mut ids: Vec<ObjId> = model.keys().copied().collect();
                ids.sort();
                ids
            };
            match next(10) {
                0 | 1 if ids.len() < 8 => {
                    model.insert(s.create(C1, None, step).unwrap(), Vec::new());
                }
                2 if !ids.is_empty() => {
                    let oid = ids[next(ids.len() as u64) as usize];
                    undo.retain(|(o, _, _)| *o != oid);
                    s.remove(C1, oid).unwrap();
                    model.remove(&oid);
                }
                3 if !undo.is_empty() => {
                    let (oid, pre, before) = undo.pop().unwrap();
                    s.undo_write(oid, pre).unwrap();
                    *model.get_mut(&oid).unwrap() = before;
                }
                _ if !ids.is_empty() => {
                    let oid = ids[next(ids.len() as u64) as usize];
                    let offset = next(5 * CS as u64) as usize;
                    let data: Vec<u8> = (0..next(3 * CS as u64)).map(|_| next(256) as u8).collect();
                    let obj = model.get_mut(&oid).unwrap();
                    let before = obj.clone();
                    if obj.len() < offset + data.len() {
                        obj.resize(offset + data.len(), 0);
                    }
                    obj[offset..offset + data.len()].copy_from_slice(&data);
                    if next(2) == 0 {
                        let pre = s.write(C1, oid, offset as u64, &data, step).unwrap();
                        undo.push((oid, pre, before));
                    } else {
                        // A final write ends the undo history of that object.
                        undo.retain(|(o, _, _)| *o != oid);
                        write_final(&s, C1, oid, offset as u64, &data, step).unwrap();
                    }
                }
                _ => {}
            }
            let (live, free, high_water) = chunk_counts(&s);
            assert!(live + free <= high_water, "step {step}: {live} + {free} > {high_water}");
            assert_eq!(s.bytes_stored(), model.values().map(|v| v.len() as u64).sum::<u64>());
            for (oid, want) in &model {
                assert_eq!(&s.read(C1, *oid, 0, u64::MAX).unwrap(), want, "step {step}");
            }
            assert_layout(&s);
        }
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
        s.remove(C1, a).unwrap();
        assert_eq!(s.bytes_stored(), 50, "free chunks are not stored bytes");
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

    /// The bytes a write overwrote, by the model: the region
    /// `[overlap_offset, overlap_offset + overlap.len())` of the old object.
    struct ModelPreimage {
        old_len: u64,
        overlap_offset: u64,
        overlap: Vec<u8>,
    }

    /// `ObjectStore::write` as it was first written — grow zero-filled, then
    /// copy over — on a plain `Vec`: the model the store must keep matching.
    fn model_write(obj: &mut Vec<u8>, offset: usize, data: &[u8]) -> ModelPreimage {
        let old_len = obj.len();
        let end = offset + data.len();
        let overlap = obj[offset.min(old_len)..end.min(old_len)].to_vec();
        if obj.len() < end {
            obj.resize(end, 0);
        }
        obj[offset..end].copy_from_slice(data);
        ModelPreimage {
            old_len: old_len as u64,
            overlap_offset: offset.min(old_len) as u64,
            overlap,
        }
    }

    /// Whether `pre`'s displaced chunks hold every byte the model says the
    /// write overwrote.
    fn holds_the_overwritten_bytes(pre: &WritePreimage, want: &ModelPreimage) -> bool {
        pre.old_len == want.old_len
            && want.overlap.iter().enumerate().all(|(i, b)| {
                let at = want.overlap_offset as usize + i;
                pre.displaced.iter().any(|(idx, c)| *idx == at / CS && c[at % CS] == *b)
            })
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
        /// writes leaves the same bytes and keeps the same preimages as
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
                write_final(&s, C1, fin, *offset as u64, data, 0).unwrap();
                proptest::prop_assert!(holds_the_overwritten_bytes(&pre, &want));
                proptest::prop_assert_eq!(&s.read(C1, undoable, 0, u64::MAX).unwrap(), &model);
                proptest::prop_assert_eq!(&s.read(C1, fin, 0, u64::MAX).unwrap(), &model);
                proptest::prop_assert_eq!(s.bytes_stored(), 2 * model.len() as u64);
                undo.push((pre, before));
            }
            for (pre, before) in undo.into_iter().rev() {
                s.undo_write(undoable, pre).unwrap();
                proptest::prop_assert_eq!(s.read(C1, undoable, 0, u64::MAX).unwrap(), before);
            }
            assert_layout(&s);
        }

        /// `read_chunks` hands out exactly what `read` copies: the same
        /// bytes, the same short count, at every offset and length
        /// including past the end, and each range inside one chunk.
        #[test]
        fn prop_read_chunks_concatenate_to_read(
            contents in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
            offset in 0u64..96,
            len in 0u64..96,
        ) {
            let s = store();
            let oid = s.create(C1, None, 0).unwrap();
            s.write(C1, oid, 0, &contents, 0).unwrap();
            let want = s.read(C1, oid, offset, len).unwrap();
            let pieces = s.read_chunks(C1, oid, offset, len).unwrap();
            let got: Vec<u8> =
                pieces.iter().flat_map(|(c, r)| c[r.clone()].iter().copied()).collect();
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert!(pieces.iter().all(|(c, r)| r.end <= c.len() && !r.is_empty()));
        }

        /// `take` hands back exactly the object's bytes and leaves nothing
        /// behind; restoring them (the `RestoreObject` undo) is byte-exact.
        #[test]
        fn prop_take_then_restore_is_identity(
            contents in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
        ) {
            let s = store();
            let oid = s.create(C1, None, 0).unwrap();
            let bystander = s.create(C1, None, 0).unwrap();
            s.write(C1, oid, 0, &contents, 0).unwrap();
            s.write(C1, bystander, 0, b"stays", 0).unwrap();
            proptest::prop_assert_eq!(s.take(C2, oid).err(), Some(Error::AccessDenied));
            let taken = s.take(C1, oid).unwrap();
            proptest::prop_assert_eq!(&bytes_of(&taken), &contents);
            proptest::prop_assert_eq!(s.take(C1, oid).err(), Some(Error::NoSuchObject(oid)));
            proptest::prop_assert_eq!(s.bytes_stored(), 5);
            s.restore(C1, oid, taken, 1).unwrap();
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
            s.undo_write(oid, pre).unwrap();
            let after = s.read(C1, oid, 0, 1 << 20).unwrap();
            proptest::prop_assert_eq!(before, after);
            assert_layout(&s);
        }
    }
}
