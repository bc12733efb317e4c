//! The bulk path's copy budget, counted instead of timed.
//!
//! Server-directed I/O moves each byte once per hop (§3.2, Figure 6):
//! client memory → the object's chunk on a write, the reverse on a read.
//! Every *extra* pass over the data needs somewhere to put it, so a
//! throwaway copy shows up as a bulk-sized allocation. This test installs
//! a counting allocator that tallies only blocks of 64 KiB and more —
//! nothing on the control path is that large — and holds the data path to
//! a budget per user byte. No clocks: the count repeats exactly.
//!
//! | large bytes allocated per user byte | budget | this commit | parent (`c3b183e`) | zero-filled, this commit | zero-filled, parent (`96fec0e`) |
//! |---|---|---|---|---|---|
//! | write, 16 × 1 MiB into fresh objects | ≤ 2.25 | 1.94 | 2.00 | 0 | 0.94 |
//! | read, 16 × 1 MiB                     | ≤ 1.25 | 1.00 | 1.00 | 0 | 1.00 |
//! | warm epoch: remove 16 × 1 MiB objects, write 16 × 1 MiB fresh | ≤ 1.25 | 1.00 | 2.00 | 0 | 0 |
//! | transactional remove of 4 MiB (bytes) | < 64 KiB | 0 | 0 | 0 | 0 |
//! | aligned transactional overwrite of 4 MiB, bytes beyond the client's descriptor | < 64 KiB | 0 | 4 MiB | 0 | 0 |
//!
//! and, at `replication: 2` with the host's default worker count unless
//! a row says otherwise, counted across primary and backup:
//!
//! | | budget | this commit | parent (`c3b183e`) | zero-filled, this commit | zero-filled, parent (`96fec0e`) |
//! |---|---|---|---|---|---|
//! | write, 16 × 1 MiB into fresh objects, large bytes allocated per user byte | ≤ 5.0 | 4.99 | 5.77 | 0 | 1.97 |
//! | 64 × 256 KiB overwrites, warm workers, large bytes allocated per user byte | ≤ 1.25 | 1.02 (1.00–1.03) | 1.02 | 0 | 0 |
//! | the same with eight workers | ≤ 1.25 | 1.00 (1.03) | 1.00 | 0 | 0 |
//! | 64 × 1 MiB overwrites of one object, growth in *live* large bytes | ≤ 4 MiB | 584 KiB | 72 KiB | 0 | 0.008 |
//!
//! The zero-filled columns count, per user byte, the bulk-sized
//! allocations the allocator was asked to zero (`alloc_zeroed`), and must
//! read 0: a receive buffer — the client's read descriptor, a chunk a pull
//! or a backup's copy fills — starts empty with room for its bytes and
//! takes them by appending, so each byte is written once. At `96fec0e`
//! the read descriptor was zeroed and then overwritten by the push
//! (1.00), and every freshly allocated chunk was zeroed and then
//! overwritten by the pull (0.94 on the fresh write, where the warm-up's
//! chunks are reused; 1.97 at R=2, primary and backup).
//!
//! What is left is what the hops stand for: the client's registered
//! descriptor (1.0 on either side — on Portals hardware that is pinning
//! the caller's pages, not a copy) and, on a cold write, the object's
//! chunks (1.0). An object is a table of 256 KiB chunks drawn from the
//! store's free list, and a pull lands straight in one: a warm epoch,
//! whose predecessor's chunks went back to the list when it was removed,
//! allocates nothing but the descriptor, and the fresh-object row reads
//! 1.94 because the warm-up's four chunks are reused. The parent's
//! pinned-buffer store allocated a fresh extent per object (2.00 on
//! every epoch) and copied a transactional overwrite's preimage out
//! (4 MiB); an undo now keeps the displaced chunks. Before that parent,
//! the write also paid a fresh `Vec` per pulled chunk, three doublings of
//! a zero-filled extent and an unread `WalRecord` payload (4.75 in all),
//! and the read a `Vec` per chunk and a clone of the descriptor (3.00).
//!
//! The replicated write is the unreplicated one plus the backup's chunks
//! (1.0: each shipped record is copied into one chunk the backup
//! installs; the parent's backup grew an extent by doubling, 1.75) and
//! the ship. The free lists hold one chunk each from the warm-up, so each
//! server allocates 63 of its 64 chunks: 4.99. Each chunk is framed once,
//! straight from the chunk, into the worker's frame batch (1.0), and the
//! ship request is encoded once, at its exact size, into the worker's
//! ship buffer (1.0). A worker keeps both buffers across requests while
//! together they fit one 256 KiB chunk's frame and ship (520 KiB). So a
//! 1 MiB write, whose two buffers need 2 MiB, allocates them afresh, and
//! a 256 KiB overwrite — `repl_write`'s shape — allocates nothing but the
//! client's descriptor however many workers there are: the eight-worker
//! row is a many-core host's default, where an even split of a fixed
//! 2 MiB among the workers (256 KiB each) read 3.00.
//! Before `3fb4ac7` the replicated path paid, per 256 KiB chunk, a record
//! copy and a frame that doubled to 512 KiB, and per request a doubling
//! ship buffer (8.00 on the warm overwrite row), all freed after the ack
//! so that the allocator trimmed and re-faulted their pages on
//! the next op. Which worker takes a request is the scheduler's choice,
//! so a worker that sat out the warm-up allocates its two buffers inside
//! the count instead: 1.03, the one cell here that may vary. The
//! retention row holds the bound on what the reuse may
//! keep. (Before `3fb4ac7`, the backup also kept every ship it had seen
//! alive in its reply cache — a cached reply was a view of the ship that
//! carried it — which is what that row was written to catch.) A worker
//! frees what it may not keep before it replies, so the row reads the
//! same every run (584 KiB on a two-core host); while it freed them after
//! the reply, the row read anywhere from −1.5 MB to +2.7 MB, depending on
//! whether the client read the tally first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use lwfs::prelude::*;
use lwfs::storage::StorageConfig;

/// Blocks at least this large are "bulk-sized".
const LARGE: usize = 64 * 1024;
const MIB: usize = 1 << 20;

static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);
static ZEROED_LARGE_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_LARGE_BYTES: AtomicI64 = AtomicI64::new(0);

/// The system allocator, plus a running total of the bulk-sized bytes it
/// was asked for, of those it was asked to zero, and a tally of those not
/// yet freed. A `realloc` counts its whole new size as allocated: growing
/// a block may move every byte of it.
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
        if layout.size() >= LARGE {
            ZEROED_LARGE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
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

/// Bulk-sized bytes allocated, process-wide, while `f` ran, and how many
/// of them were zero-filled allocations.
fn large_bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (LARGE_BYTES.load(Ordering::Relaxed), ZEROED_LARGE_BYTES.load(Ordering::Relaxed));
    let out = f();
    let bytes = LARGE_BYTES.load(Ordering::Relaxed) - before.0;
    (out, bytes, ZEROED_LARGE_BYTES.load(Ordering::Relaxed) - before.1)
}

/// One storage group of `replication` members running `workers` storage
/// workers each, and a client holding every capability on a fresh
/// container.
fn boot(replication: usize, workers: usize) -> (LwfsCluster, LwfsClient, CapSet) {
    let cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        replication,
        storage: StorageConfig { workers, ..Default::default() },
        ..Default::default()
    });
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
    let workers = StorageConfig::default().workers;
    let (cluster, client, caps) = boot(1, workers);
    let storage = vec![cluster.addrs().storage[0]];
    let payload: Vec<u8> = (0..MIB).map(|i| (i * 31 % 251) as u8).collect();
    // Zero-filled bulk bytes per user byte, by ledger row.
    let mut zero_fills: Vec<(&str, f64)> = Vec::new();

    // Create, write, read back, then remove under a transaction that
    // commits; returns the bulk-sized bytes the remove allocated and zeroed.
    let cycle = |len: usize| {
        let obj = client.create_obj(0, &caps, None, None).unwrap();
        for at in (0..len).step_by(MIB) {
            client.write(0, &caps, None, obj, at as u64, &payload).unwrap();
        }
        assert_eq!(client.read(0, &caps, obj, (len - MIB) as u64, MIB).unwrap(), payload);
        let txn = client.txn_begin().unwrap();
        let ((), removed, zeroed) =
            large_bytes_during(|| client.remove_obj(0, &caps, Some(txn), obj).unwrap());
        client.txn_commit(txn, storage.clone()).unwrap();
        (removed, zeroed)
    };
    // Warm-up: lazy set-up (pools, rings, caches) allocates before the count.
    cycle(MIB);

    let objs: Vec<ObjId> =
        (0..OBJECTS).map(|_| client.create_obj(0, &caps, None, None).unwrap()).collect();
    let user_bytes = (OBJECTS * MIB) as f64;

    let ((), written, zeroed) = large_bytes_during(|| {
        for obj in &objs {
            assert_eq!(client.write(0, &caps, None, *obj, 0, &payload).unwrap(), MIB as u64);
        }
    });
    zero_fills.push(("write", zeroed as f64 / user_bytes));
    let per_byte = written as f64 / user_bytes;
    assert!(
        per_byte <= 2.25,
        "write allocated {per_byte:.2} bulk bytes per user byte; the budget is the client's \
         descriptor plus the object's extent"
    );

    let ((), read, zeroed) = large_bytes_during(|| {
        for obj in &objs {
            assert_eq!(client.read(0, &caps, *obj, 0, MIB).unwrap(), payload);
        }
    });
    zero_fills.push(("read", zeroed as f64 / user_bytes));
    let per_byte = read as f64 / user_bytes;
    assert!(
        per_byte <= 1.25,
        "read allocated {per_byte:.2} bulk bytes per user byte; the budget is the client's \
         descriptor"
    );

    // A warm epoch: the last epoch's objects go, the next epoch's arrive.
    for obj in objs {
        client.remove_obj(0, &caps, None, obj).unwrap();
    }
    let objs: Vec<ObjId> =
        (0..OBJECTS).map(|_| client.create_obj(0, &caps, None, None).unwrap()).collect();
    let ((), epoch, zeroed) = large_bytes_during(|| {
        for obj in &objs {
            assert_eq!(client.write(0, &caps, None, *obj, 0, &payload).unwrap(), MIB as u64);
        }
    });
    zero_fills.push(("warm epoch", zeroed as f64 / user_bytes));
    let per_byte = epoch as f64 / user_bytes;
    assert!(
        per_byte <= 1.25,
        "a warm epoch allocated {per_byte:.2} bulk bytes per user byte; the budget is the \
         client's descriptor: the removed epoch's chunks hold the next one"
    );

    let (removed, zeroed) = cycle(4 * MIB);
    zero_fills.push(("transactional remove", zeroed as f64 / (4 * MIB) as f64));
    assert!(
        removed < LARGE as u64,
        "a transactional remove of a 4 MiB object allocated {removed} bulk bytes; its bytes \
         must move into the undo journal, not be copied there"
    );

    // An aligned transactional overwrite, with the free list holding a
    // whole object's chunks: all it may allocate is the client's
    // descriptor; its undo keeps the displaced chunks, not their bytes.
    let big: Vec<u8> = payload.iter().cycle().take(4 * MIB).copied().collect();
    let [kept, spare] = [(); 2].map(|()| client.create_obj(0, &caps, None, None).unwrap());
    for obj in [kept, spare] {
        client.write(0, &caps, None, obj, 0, &big).unwrap();
    }
    client.remove_obj(0, &caps, None, spare).unwrap();
    let txn = client.txn_begin().unwrap();
    let ((), overwritten, zeroed) = large_bytes_during(|| {
        client.write(0, &caps, Some(txn), kept, 0, &big).unwrap();
    });
    zero_fills.push(("transactional overwrite", zeroed as f64 / big.len() as f64));
    client.txn_commit(txn, storage.clone()).unwrap();
    let preimage = overwritten.saturating_sub(big.len() as u64);
    assert!(
        preimage < LARGE as u64,
        "an aligned transactional overwrite of 4 MiB allocated {preimage} bulk bytes beyond \
         the client's descriptor; undo must keep the displaced chunks, not copy them"
    );
    assert_eq!(
        cluster.storage_server(0).store().bytes_stored(),
        user_bytes as u64 + big.len() as u64
    );
    drop((client, cluster));

    // The same writes shipped to a backup before the ack (R = 2), counted
    // across both servers.
    let (cluster, client, caps) = boot(2, workers);
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, &payload).unwrap();

    // A ship is garbage once it is acked: nothing may keep it alive.
    let live_before = LIVE_LARGE_BYTES.load(Ordering::Relaxed);
    let ((), _, zeroed) = large_bytes_during(|| {
        for _ in 0..64 {
            client.write(0, &caps, None, obj, 0, &payload).unwrap();
        }
    });
    let retained = LIVE_LARGE_BYTES.load(Ordering::Relaxed) - live_before;
    zero_fills.push(("64 shipped overwrites", zeroed as f64 / (64 * MIB) as f64));
    assert!(
        retained.abs() <= 4 * MIB as i64,
        "64 overwrites of one 1 MiB object left {retained} more bulk bytes live; something \
         holds on to ships after their ack"
    );

    let objs: Vec<ObjId> =
        (0..OBJECTS).map(|_| client.create_obj(0, &caps, None, None).unwrap()).collect();
    let ((), shipped, zeroed) = large_bytes_during(|| {
        for obj in &objs {
            assert_eq!(client.write(0, &caps, None, *obj, 0, &payload).unwrap(), MIB as u64);
        }
    });
    zero_fills.push(("write at R=2", zeroed as f64 / user_bytes));
    let per_byte = shipped as f64 / user_bytes;
    assert!(
        per_byte <= 5.0,
        "replicated write allocated {per_byte:.2} bulk bytes per user byte; the budget is the \
         client's descriptor, the chunks on each server, one frame batch and one ship request"
    );
    assert_eq!(cluster.storage_server(1).store().bytes_stored(), (1 + OBJECTS as u64) * MIB as u64);

    drop((client, cluster));

    // `repl_write`'s shape, 256 KiB overwrites, with this host's default
    // worker count and with eight workers, each keeping one chunk's frame
    // and ship.
    let warm = [workers, 8].map(warm_overwrite_per_byte);
    zero_fills.push(("warm 256 KiB overwrite at R=2", warm[0].1));
    zero_fills.push(("the same with eight workers", warm[1].1));
    let warm = warm.map(|(per_byte, _)| per_byte);
    for (n, small_per_byte) in [workers, 8].into_iter().zip(warm) {
        assert!(
            small_per_byte <= 1.25,
            "a warm 256 KiB replicated overwrite allocated {small_per_byte:.2} bulk bytes per \
             user byte with {n} workers; the budget is the client's descriptor: the frame batch \
             and the ship request are the workers' own, reused"
        );
    }
    eprintln!(
        "bulk bytes per user byte: write {:.3}, read {:.3}, warm epoch {:.3}, write at R=2 \
         {per_byte:.3}, warm 256 KiB overwrite at R=2 {:.3} ({workers} workers) and {:.3} (8 \
         workers); transactional remove {removed} B; transactional 4 MiB overwrite's preimage \
         {preimage} B; live after 64 shipped overwrites {retained:+} B",
        written as f64 / user_bytes,
        read as f64 / user_bytes,
        epoch as f64 / user_bytes,
        warm[0],
        warm[1],
    );
    // A receive buffer takes its bytes by appending: no row pays a zero
    // pass before the one pass that fills it.
    eprintln!("zero-filled bulk bytes per user byte: {zero_fills:?}");
    for (row, per_byte) in zero_fills {
        assert!(
            per_byte == 0.0,
            "{row}: {per_byte:.3} zero-filled bulk bytes per user byte; a buffer the data path \
             fills must not be zeroed first"
        );
    }
}

/// Bulk bytes allocated, and zero-filled, per user byte by 64 replicated
/// 256 KiB overwrites once every one of `workers` workers has framed and
/// shipped one — as far as the scheduler lets the warm-up reach them all.
fn warm_overwrite_per_byte(workers: usize) -> (f64, f64) {
    const OBJECTS: usize = 16;
    const SMALL: usize = 256 * 1024;
    const OVERWRITES: usize = 64;
    let (_cluster, client, caps) = boot(2, workers);
    let small: Vec<u8> = (0..SMALL).map(|i| (i * 31 % 251) as u8).collect();
    let objs: Vec<ObjId> =
        (0..OBJECTS).map(|_| client.create_obj(0, &caps, None, None).unwrap()).collect();
    for round in 0..32 * workers {
        client.write(0, &caps, None, objs[round % OBJECTS], 0, &small).unwrap();
    }
    let ((), overwritten, zeroed) = large_bytes_during(|| {
        for round in 0..OVERWRITES {
            let obj = objs[round % OBJECTS];
            assert_eq!(client.write(0, &caps, None, obj, 0, &small).unwrap(), SMALL as u64);
        }
    });
    let user_bytes = (OVERWRITES * SMALL) as f64;
    (overwritten as f64 / user_bytes, zeroed as f64 / user_bytes)
}
