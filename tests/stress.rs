//! Randomized concurrency stress over the functional plane: several
//! client threads drive seeded random operation mixes against live
//! services while each thread checks every result against a local shadow
//! model. Catches cross-request races in the storage server, capability
//! cache, and transaction machinery that directed tests can miss.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use lwfs::portals::{reply_match, Event, MdOptions, MemDesc, BULK_SPACE, REQUEST_MATCH};
use lwfs::prelude::*;
use lwfs::proto::{
    Decode as _, Encode as _, MdHandle, OpNum, Reply, ReplyBody, Request, RequestBody,
};
use lwfs::storage::store::CHUNK_SIZE;
use lwfs::storage::StorageConfig;
use lwfs::wal::{read_log, WalRecord};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 200;

#[test]
fn randomized_object_ops_match_shadow_model() {
    let cluster =
        Arc::new(LwfsCluster::boot(ClusterConfig { storage_servers: 3, ..Default::default() }));
    let mut owner = cluster.client(99, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    owner.get_cred(ticket).unwrap();
    let cid = owner.create_container().unwrap();
    let caps = owner.get_caps(cid, OpMask::ALL).unwrap();
    let wire = caps.to_wire();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let wire = wire.clone();
            std::thread::spawn(move || {
                let client = cluster.client(t as u32, 0);
                let caps = CapSet::from_wire(wire).unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(0x57E55 ^ t as u64);
                // Shadow: my objects and their expected contents.
                let mut shadow: HashMap<(usize, ObjId), Vec<u8>> = HashMap::new();
                let mut live: Vec<(usize, ObjId)> = Vec::new();

                for op in 0..OPS_PER_THREAD {
                    match rng.gen_range(0..100) {
                        // Create (30%).
                        0..=29 => {
                            let server = rng.gen_range(0..3);
                            let obj = client.create_obj(server, &caps, None, None).unwrap();
                            shadow.insert((server, obj), Vec::new());
                            live.push((server, obj));
                        }
                        // Write at random offset (35%).
                        30..=64 if !live.is_empty() => {
                            let key = live[rng.gen_range(0..live.len())];
                            let offset = rng.gen_range(0..2048u64);
                            let len = rng.gen_range(1..512usize);
                            let data: Vec<u8> =
                                (0..len).map(|i| ((op * 31 + i) % 251) as u8).collect();
                            client.write(key.0, &caps, None, key.1, offset, &data).unwrap();
                            let entry = shadow.get_mut(&key).unwrap();
                            let end = offset as usize + len;
                            if entry.len() < end {
                                entry.resize(end, 0);
                            }
                            entry[offset as usize..end].copy_from_slice(&data);
                        }
                        // Read and compare (25%).
                        65..=89 if !live.is_empty() => {
                            let key = live[rng.gen_range(0..live.len())];
                            let expect = &shadow[&key];
                            let got =
                                client.read(key.0, &caps, key.1, 0, expect.len().max(1)).unwrap();
                            assert_eq!(&got, expect, "thread {t} op {op} object {key:?}");
                        }
                        // Remove (10%).
                        90..=99 if !live.is_empty() => {
                            let idx = rng.gen_range(0..live.len());
                            let key = live.swap_remove(idx);
                            client.remove_obj(key.0, &caps, None, key.1).unwrap();
                            shadow.remove(&key);
                            // Reading a removed object must fail.
                            assert_eq!(
                                client.read(key.0, &caps, key.1, 0, 1).unwrap_err(),
                                Error::NoSuchObject(key.1)
                            );
                        }
                        _ => {}
                    }
                }
                // Final sweep: every surviving object matches its shadow.
                for (key, expect) in &shadow {
                    let got = client.read(key.0, &caps, key.1, 0, expect.len().max(1)).unwrap();
                    assert_eq!(&got, expect, "final sweep, thread {t}, object {key:?}");
                }
                shadow.len()
            })
        })
        .collect();

    let survivors: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    // Every thread's surviving objects are accounted for on the servers
    // (threads never touch each other's objects).
    let stored: usize = (0..3).map(|i| cluster.storage_server(i).store().object_count()).sum();
    assert_eq!(stored, survivors);
    // The capability cache absorbed the whole run: a handful of misses
    // (one per (server, capability) pair), thousands of hits.
    let mut total_misses = 0;
    for i in 0..3 {
        let s = cluster.storage_server(i).cap_cache_stats();
        total_misses += s.misses;
        assert!(s.hits > 100, "server {i} hits {}", s.hits);
    }
    assert!(total_misses <= 5 * 3, "misses: {total_misses}");
}

#[test]
fn randomized_concurrent_transactions_are_atomic() {
    // Threads run small transactions (create + writes) and randomly commit
    // or abort; afterwards every committed object is intact and every
    // aborted one is gone.
    let cluster =
        Arc::new(LwfsCluster::boot(ClusterConfig { storage_servers: 2, ..Default::default() }));
    let mut owner = cluster.client(99, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    owner.get_cred(ticket).unwrap();
    let cid = owner.create_container().unwrap();
    let caps = owner.get_caps(cid, OpMask::ALL).unwrap();
    let wire = caps.to_wire();
    let cred = owner.current_cred().unwrap();

    let handles: Vec<_> = (0..3usize)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let wire = wire.clone();
            std::thread::spawn(move || {
                let mut client = cluster.client(t as u32, 0);
                client.adopt_cred(cred);
                let caps = CapSet::from_wire(wire).unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(0x7A5 ^ t as u64);
                let mut committed = Vec::new();
                let mut aborted = Vec::new();

                for i in 0..40 {
                    let txn = client.txn_begin().unwrap();
                    let server = rng.gen_range(0..2);
                    let obj = client.create_obj(server, &caps, Some(txn), None).unwrap();
                    let payload = format!("t{t}-i{i}");
                    client.write(server, &caps, Some(txn), obj, 0, payload.as_bytes()).unwrap();
                    let participants = vec![cluster.addrs().storage[server]];
                    if rng.gen_bool(0.5) {
                        let out = client.txn_commit(txn, participants).unwrap();
                        assert!(out.is_committed());
                        committed.push((server, obj, payload));
                    } else {
                        client.txn_abort(txn, participants).unwrap();
                        aborted.push((server, obj));
                    }
                }
                (committed, aborted)
            })
        })
        .collect();

    let client = cluster.client(98, 0);
    let caps = CapSet::from_wire(wire).unwrap();
    for h in handles {
        let (committed, aborted) = h.join().unwrap();
        for (server, obj, payload) in committed {
            let got = client.read(server, &caps, obj, 0, payload.len()).unwrap();
            assert_eq!(got, payload.as_bytes());
        }
        for (server, obj) in aborted {
            assert_eq!(
                client.read(server, &caps, obj, 0, 1).unwrap_err(),
                Error::NoSuchObject(obj)
            );
        }
    }
}

#[test]
fn worker_pool_keeps_objects_exact_under_parallel_clients() {
    // One storage server with a 4-worker pool; four client threads mix
    // disjoint-object traffic (must overlap freely) with whole-range
    // overlapping writes to one shared object (must serialize — a torn
    // multi-chunk write would leave mixed fill bytes).
    let cluster = Arc::new(LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        storage: StorageConfig { workers: 4, ..Default::default() },
        ..Default::default()
    }));
    let mut owner = cluster.client(99, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    owner.get_cred(ticket).unwrap();
    let cid = owner.create_container().unwrap();
    let caps = owner.get_caps(cid, OpMask::ALL).unwrap();
    let wire = caps.to_wire();
    let shared = owner.create_obj(0, &caps, None, None).unwrap();

    const STRIDE: usize = 4 * 1024;
    const SHARED_LEN: usize = 300 * 1024; // > one chunk: tearing visible
    const ITERS: usize = 10;

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let wire = wire.clone();
            std::thread::spawn(move || {
                let client = cluster.client(t as u32, 0);
                let caps = CapSet::from_wire(wire).unwrap();
                let own = client.create_obj(0, &caps, None, None).unwrap();
                for i in 0..ITERS {
                    let tag = (t * ITERS + i) as u8;
                    // Disjoint: my object, my stripe.
                    client
                        .write(0, &caps, None, own, (i * STRIDE) as u64, &vec![tag; STRIDE])
                        .unwrap();
                    // Contended: everyone rewrites the whole shared range.
                    client.write(0, &caps, None, shared, 0, &vec![tag; SHARED_LEN]).unwrap();
                }
                own
            })
        })
        .collect();
    let owns: Vec<ObjId> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let client = cluster.client(98, 0);
    let caps = CapSet::from_wire(wire).unwrap();
    for (t, own) in owns.iter().enumerate() {
        let data = client.read(0, &caps, *own, 0, ITERS * STRIDE).unwrap();
        assert_eq!(data.len(), ITERS * STRIDE);
        for i in 0..ITERS {
            let tag = (t * ITERS + i) as u8;
            assert!(
                data[i * STRIDE..(i + 1) * STRIDE].iter().all(|b| *b == tag),
                "thread {t} stripe {i} corrupted"
            );
        }
    }
    // Whole-range writes serialize: the shared object is uniformly one
    // thread's final tag, never a mix of chunks from different writers.
    let data = client.read(0, &caps, shared, 0, SHARED_LEN).unwrap();
    let first = data[0];
    assert!(data.iter().all(|b| *b == first), "shared object torn (starts with {first})");
    assert!(
        (0..THREADS).any(|t| first as usize >= t * ITERS && (first as usize) < (t + 1) * ITERS),
        "final bytes must come from some thread's write"
    );

    let server = cluster.storage_server(0);
    let expected_writes = (THREADS * ITERS * 2) as u64;
    assert_eq!(server.stats().writes.get(), expected_writes);
}

/// Two workers, a log and a backup: concurrent multi-chunk writes to
/// distinct objects, all in front of the workers at once, each complete
/// exactly once. Every object holds the payload on the primary and on the
/// backup, and each log holds one record per chunk of it.
#[test]
fn pipelined_replicated_writes_all_land_once() {
    const WRITES: usize = 16;
    const LEN: usize = 1 << 20;
    let root = std::env::temp_dir().join(format!("lwfs-stress-pipelined-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        replication: 2,
        storage: StorageConfig {
            workers: 2,
            wal: Some(WalConfig::new(root.clone())),
            ..Default::default()
        },
        ..Default::default()
    });
    let mut app = cluster.client(0, 0);
    app.get_cred(cluster.kdc().kinit("app", "secret").unwrap()).unwrap();
    let container = app.create_container().unwrap();
    let caps = app.get_caps(container, OpMask::ALL).unwrap();
    let cap = caps.for_op(OpMask::WRITE).unwrap();
    let (srv, primary, backup) =
        (cluster.addrs().storage[0], cluster.storage_server(0), cluster.storage_server(1));
    let ep = cluster.network().register(ProcessId::new(7, 0));
    let payload: Vec<u8> = (0..LEN).map(|i| (i * 7 % 253) as u8).collect();

    for round in 0..10 {
        let objs: Vec<ObjId> =
            (0..WRITES).map(|_| app.create_obj(0, &caps, None, None).unwrap()).collect();
        // Pipelined: every write is in front of the workers at once.
        let sent: Vec<(OpNum, u64)> = objs
            .iter()
            .map(|obj| {
                let mb = ep.match_bits().alloc(BULK_SPACE);
                let md = MemDesc::from_vec(payload.clone(), MdOptions::for_remote_get());
                ep.post_md(mb, md).unwrap();
                let body = RequestBody::Write {
                    txn: None,
                    cap,
                    obj: *obj,
                    offset: 0,
                    len: LEN as u64,
                    md: MdHandle { match_bits: mb },
                };
                let req = Request::new(ep.next_opnum(), ep.id(), body);
                ep.send(srv, REQUEST_MATCH, req.to_bytes()).unwrap();
                (req.opnum, mb)
            })
            .collect();
        for (opnum, mb) in sent {
            let want = reply_match(opnum.0);
            let ev = ep
                .recv_match(
                    Duration::from_secs(10),
                    |e| matches!(e, Event::Message { match_bits, .. } if *match_bits == want),
                )
                .unwrap();
            let reply = Reply::from_bytes(ev.message_data().unwrap().clone()).unwrap();
            assert_eq!(
                reply.into_result(),
                Ok(ReplyBody::WriteDone { len: LEN as u64 }),
                "round {round}"
            );
            ep.unlink_md(mb);
        }
        let logs = [primary, backup].map(|s| read_log(s.wal_dir().unwrap()).unwrap().records);
        for obj in &objs {
            let (on_primary, on_backup) = (
                primary.store().read(container, *obj, 0, u64::MAX).unwrap(),
                backup.store().read(container, *obj, 0, u64::MAX).unwrap(),
            );
            let records = logs.each_ref().map(|log| {
                log.iter()
                    .filter(|r| matches!(r, WalRecord::Write { obj: o, .. } if o == obj))
                    .count()
            });
            assert!(on_primary == payload && on_backup == payload, "round {round}: {obj}");
            assert_eq!(records, [LEN.div_ceil(CHUNK_SIZE); 2], "round {round}: {obj}");
        }
    }
    drop(cluster);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cross_process_replication_write_storm() {
    // The whole cluster as real OS processes: one R=2 storage group plus
    // auth/authz/naming/txnlock/directory, each spawned from the
    // `lwfs-node` binary, with this test process holding only a client
    // fabric. Every op below — kinit verification, capability issue,
    // verify-through, create, replicated writes with WAL ships, reads —
    // crosses process boundaries over TCP.
    use lwfs::core::ProcessCluster;

    let node_bin = std::path::Path::new(env!("CARGO_BIN_EXE_lwfs-node"));
    let mut cluster = ProcessCluster::launch(node_bin, 1, 2).expect("launching process cluster");
    // 7 service processes (auth, authz, naming, txnlock, directory, two
    // storage servers) plus this launcher: real OS-level parallelism.
    assert_eq!(cluster.host_parallelism(), 8);

    let mut client = cluster.client(1, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();

    // The write storm: every write is WAL-shipped to the backup process
    // before the ack comes back over the wire.
    const WRITES: u64 = 32;
    const CHUNK: usize = 16 * 1024;
    let payload = vec![0xC3u8; CHUNK];
    for i in 0..WRITES {
        let n = client.write(0, &caps, None, obj, i * CHUNK as u64, &payload).unwrap();
        assert_eq!(n, CHUNK as u64);
    }
    let back = client.read(0, &caps, obj, 0, WRITES as usize * CHUNK).unwrap();
    assert_eq!(back.len(), WRITES as usize * CHUNK);
    assert!(back.iter().all(|b| *b == 0xC3), "storm bytes corrupted crossing processes");

    // SIGKILL the backup process: the primary's next ship fails on the
    // wire, it reports the drop to the directory over the fabric, and
    // writes proceed against the shrunken group. The first write may need
    // to outwait the primary's ship deadline.
    assert!(cluster.kill_storage(1), "backup process was not running");
    let mut attempts = 0;
    loop {
        match client.write(0, &caps, None, obj, 0, &payload) {
            Ok(_) => break,
            Err(Error::Timeout) | Err(Error::ServerBusy) if attempts < 50 => attempts += 1,
            Err(e) => panic!("write after backup kill: {e:?}"),
        }
    }
    assert_eq!(client.read(0, &caps, obj, 0, CHUNK).unwrap(), payload);
    assert_eq!(cluster.host_parallelism(), 7, "exactly the killed backup should be gone");
    cluster.shutdown();
}

#[test]
fn lwfs_node_refuses_any_argument_outside_its_four_flags() {
    for args in [&["--role", "storage"][..], &["--nid", "1100", "--workers", "4"], &["--nid"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lwfs-node"))
            .args(args)
            .output()
            .expect("running lwfs-node");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: lwfs-node --nid N --manifest PATH --groups G --replication R"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn rpc_storm_under_message_loss_converges() {
    // 10% message loss: a retry wrapper over the RPC layer still completes
    // every operation, and the final state is exact.
    use lwfs::portals::FaultPlan;

    let cluster = LwfsCluster::boot(ClusterConfig { storage_servers: 1, ..Default::default() });
    let mut client = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();

    // Short RPC timeout: lost messages are detected in 100 ms, so fifty
    // operations with ~10% loss converge in a couple of seconds.
    client.set_rpc_timeout(std::time::Duration::from_millis(100));
    cluster.network().set_faults(FaultPlan { drop_rate: 0.10, ..Default::default() });

    let mut completed = 0u32;
    for i in 0..50u64 {
        // Application-level retry loop: writes are idempotent (same data,
        // same offset), so retrying a timed-out write is safe.
        let mut attempts = 0;
        loop {
            match client.write(0, &caps, None, obj, i * 4, b"ok!!") {
                Ok(_) => break,
                Err(Error::Timeout) | Err(Error::ServerBusy) if attempts < 50 => attempts += 1,
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        completed += 1;
    }
    assert_eq!(completed, 50);

    cluster.network().heal();
    let data = client.read(0, &caps, obj, 0, 200).unwrap();
    assert_eq!(data.len(), 200);
    for chunk in data.chunks_exact(4) {
        assert_eq!(chunk, b"ok!!");
    }
}
