//! The bulk path's copy budget, counted instead of timed.
//!
//! Server-directed I/O moves each byte once per hop (§3.2, Figure 6):
//! client memory → pinned buffer → object on a write, the reverse on a
//! read. Every *extra* pass over the data needs somewhere to put it, so a
//! throwaway copy shows up as a bulk-sized allocation. This test installs
//! a counting allocator that tallies only blocks of 64 KiB and more —
//! nothing on the control path is that large — and holds the data path to
//! a budget per user byte. No clocks: the count repeats exactly.
//!
//! | large bytes allocated per user byte | budget | this commit | parent (`cd64cb1`) |
//! |---|---|---|---|
//! | write, 16 × 1 MiB into fresh objects | ≤ 2.25 | 2.00 | 4.75 |
//! | read, 16 × 1 MiB                     | ≤ 1.25 | 1.00 | 3.00 |
//! | transactional remove of 4 MiB (bytes) | < 64 KiB | 0 | 4 MiB |
//!
//! and, at `replication: 2`, counted across primary and backup:
//!
//! | | budget | this commit | parent (`2c5fbb9`) |
//! |---|---|---|---|
//! | write, 16 × 1 MiB into fresh objects, large bytes allocated per user byte | ≤ 9.75 | 9.52 | 10.52 |
//! | 64 × 1 MiB overwrites of one object, growth in *live* large bytes | ≤ 4 MiB | 72 KiB | 63 MiB |
//!
//! What is left is what the hops stand for: the client's registered
//! descriptor (1.0 on either side — on Portals hardware that is pinning
//! the caller's pages, not a copy) and the object's extent (1.0 on a
//! write). The parent's write also paid a fresh `Vec` per pulled chunk
//! (1.0), three doublings of a zero-filled extent (1.75 in all) and a
//! `WalRecord` payload nobody read (1.0); its read paid `store.read`'s
//! `Vec` per chunk (1.0) and a clone of the whole descriptor (1.0); its
//! transactional remove copied the object into the undo journal.
//!
//! The replicated write is the unreplicated one plus a second extent (1.0)
//! and the ship, which is far from one copy per hop: per 256 KiB chunk a
//! record copy of the pinned buffer (1.0) and its frame (1.0, and 2.0 more
//! when the `now` field encoded behind the payload doubles the buffer);
//! per request a ship buffer that doubles its way up to four frames (2.5).
//! The budget is the parent's figure less the one copy this commit
//! removed — the backup now decodes each record in place in the ship it
//! has verified, where the parent copied it out first — and the rest is
//! ROADMAP item 2(b)'s to take: frame once, into buffers the ship pipeline
//! owns. The parent's backup also kept every ship it had seen alive in its
//! reply cache (a cached reply was a view of the ship that carried it),
//! which is the second row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use lwfs::prelude::*;

/// Blocks at least this large are "bulk-sized".
const LARGE: usize = 64 * 1024;
const MIB: usize = 1 << 20;

static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_LARGE_BYTES: AtomicI64 = AtomicI64::new(0);

/// The system allocator, plus a running total of the bulk-sized bytes it
/// was asked for and a tally of those not yet freed. A `realloc` counts
/// its whole new size as allocated: growing a block may move every byte
/// of it.
struct CountLarge;

fn note(size: usize) {
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        LIVE_LARGE_BYTES.fetch_add(size as i64, Ordering::Relaxed);
    }
}

fn note_freed(size: usize) {
    if size >= LARGE {
        LIVE_LARGE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is relaxed
// counter updates that touch no allocator state.
unsafe impl GlobalAlloc for CountLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_freed(layout.size());
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_freed(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountLarge = CountLarge;

/// Bulk-sized bytes allocated, process-wide, while `f` ran.
fn large_bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LARGE_BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, LARGE_BYTES.load(Ordering::Relaxed) - before)
}

/// One storage group of `replication` members, and a client holding every
/// capability on a fresh container.
fn boot(replication: usize) -> (LwfsCluster, LwfsClient, CapSet) {
    let cluster =
        LwfsCluster::boot(ClusterConfig { storage_servers: 1, replication, ..Default::default() });
    let mut client = cluster.client(0, 0);
    client
        .get_cred(cluster.kdc().kinit("app", "secret").expect("user registered at boot"))
        .unwrap();
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    (cluster, client, caps)
}

// One test in this binary, on purpose: the counter is process-wide.
#[test]
fn each_hop_of_the_bulk_path_copies_once() {
    const OBJECTS: usize = 16;
    let (cluster, client, caps) = boot(1);
    let storage = vec![cluster.addrs().storage[0]];
    let payload: Vec<u8> = (0..MIB).map(|i| (i * 31 % 251) as u8).collect();

    // Create, write, read back, then remove under a transaction that
    // commits; returns the bulk-sized bytes the remove allocated.
    let cycle = |len: usize| {
        let obj = client.create_obj(0, &caps, None, None).unwrap();
        for at in (0..len).step_by(MIB) {
            client.write(0, &caps, None, obj, at as u64, &payload).unwrap();
        }
        assert_eq!(client.read(0, &caps, obj, (len - MIB) as u64, MIB).unwrap(), payload);
        let txn = client.txn_begin().unwrap();
        let ((), removed) =
            large_bytes_during(|| client.remove_obj(0, &caps, Some(txn), obj).unwrap());
        client.txn_commit(txn, storage.clone()).unwrap();
        removed
    };
    // Warm-up: lazy set-up (pools, rings, caches) allocates before the count.
    cycle(MIB);

    let objs: Vec<ObjId> =
        (0..OBJECTS).map(|_| client.create_obj(0, &caps, None, None).unwrap()).collect();
    let user_bytes = (OBJECTS * MIB) as f64;

    let ((), written) = large_bytes_during(|| {
        for obj in &objs {
            assert_eq!(client.write(0, &caps, None, *obj, 0, &payload).unwrap(), MIB as u64);
        }
    });
    let per_byte = written as f64 / user_bytes;
    assert!(
        per_byte <= 2.25,
        "write allocated {per_byte:.2} bulk bytes per user byte; the budget is the client's \
         descriptor plus the object's extent"
    );

    let ((), read) = large_bytes_during(|| {
        for obj in &objs {
            assert_eq!(client.read(0, &caps, *obj, 0, MIB).unwrap(), payload);
        }
    });
    let per_byte = read as f64 / user_bytes;
    assert!(
        per_byte <= 1.25,
        "read allocated {per_byte:.2} bulk bytes per user byte; the budget is the client's \
         descriptor"
    );

    let removed = cycle(4 * MIB);
    assert!(
        removed < LARGE as u64,
        "a transactional remove of a 4 MiB object allocated {removed} bulk bytes; its bytes \
         must move into the undo journal, not be copied there"
    );
    assert_eq!(cluster.storage_server(0).store().bytes_stored(), user_bytes as u64);
    drop((client, cluster));

    // The same writes shipped to a backup before the ack (R = 2), counted
    // across both servers.
    let (cluster, client, caps) = boot(2);
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, &payload).unwrap();

    // A ship is garbage once it is acked: nothing may keep it alive.
    let live_before = LIVE_LARGE_BYTES.load(Ordering::Relaxed);
    for _ in 0..64 {
        client.write(0, &caps, None, obj, 0, &payload).unwrap();
    }
    let retained = LIVE_LARGE_BYTES.load(Ordering::Relaxed) - live_before;
    assert!(
        retained.abs() <= 4 * MIB as i64,
        "64 overwrites of one 1 MiB object left {retained} more bulk bytes live; something \
         holds on to ships after their ack"
    );

    let objs: Vec<ObjId> =
        (0..OBJECTS).map(|_| client.create_obj(0, &caps, None, None).unwrap()).collect();
    let ((), shipped) = large_bytes_during(|| {
        for obj in &objs {
            assert_eq!(client.write(0, &caps, None, *obj, 0, &payload).unwrap(), MIB as u64);
        }
    });
    let per_byte = shipped as f64 / user_bytes;
    assert!(
        per_byte <= 9.75,
        "replicated write allocated {per_byte:.2} bulk bytes per user byte; the budget is the \
         client's descriptor, two extents and the ship's record copy, frame and request"
    );
    assert_eq!(cluster.storage_server(1).store().bytes_stored(), (1 + OBJECTS as u64) * MIB as u64);
    eprintln!(
        "bulk bytes per user byte: write {:.2}, read {:.2}, write at R=2 {per_byte:.2}; \
         transactional remove {removed} B; live after 64 shipped overwrites {retained:+} B",
        written as f64 / user_bytes,
        read as f64 / user_bytes
    );
}
