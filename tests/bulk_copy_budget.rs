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
//! What is left is what the hops stand for: the client's registered
//! descriptor (1.0 on either side — on Portals hardware that is pinning
//! the caller's pages, not a copy) and the object's extent (1.0 on a
//! write). The parent's write also paid a fresh `Vec` per pulled chunk
//! (1.0), three doublings of a zero-filled extent (1.75 in all) and a
//! `WalRecord` payload nobody read (1.0); its read paid `store.read`'s
//! `Vec` per chunk (1.0) and a clone of the whole descriptor (1.0); its
//! transactional remove copied the object into the undo journal.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lwfs::prelude::*;

/// Blocks at least this large are "bulk-sized".
const LARGE: usize = 64 * 1024;
const MIB: usize = 1 << 20;

static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, plus a running total of the bulk-sized bytes it
/// was asked for. A `realloc` counts its whole new size: growing a block
/// may move every byte of it.
struct CountLarge;

fn note(size: usize) {
    if size >= LARGE {
        LARGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter update that touches no allocator state.
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
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

// One test in this binary, on purpose: the counter is process-wide.
#[test]
fn each_hop_of_the_bulk_path_copies_once() {
    const OBJECTS: usize = 16;
    let cluster = LwfsCluster::boot(ClusterConfig { storage_servers: 1, ..Default::default() });
    let mut client = cluster.client(0, 0);
    client
        .get_cred(cluster.kdc().kinit("app", "secret").expect("user registered at boot"))
        .unwrap();
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
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
    eprintln!(
        "bulk bytes per user byte: write {:.2}, read {:.2}; transactional remove {removed} B",
        written as f64 / user_bytes,
        read as f64 / user_bytes
    );
}
