//! Durability and crash-recovery integration tests: WAL-backed storage
//! servers are crashed mid-workload and restarted, and the replayed state
//! must honor exactly the acknowledgments the old instance gave out —
//! committed transactions survive, unprepared staged work vanishes, and
//! prepared transactions come back *in doubt* until the coordinator
//! resolves them.

use std::path::PathBuf;

use lwfs::prelude::*;
use lwfs::storage::StorageConfig;

/// A fresh WAL root for one test, removed when the guard drops.
struct WalRoot(PathBuf);

impl WalRoot {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("lwfs-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WalRoot(dir)
    }
}

impl Drop for WalRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn boot_wal(servers: usize, root: &WalRoot, sync: SyncPolicy) -> LwfsCluster {
    LwfsCluster::boot(ClusterConfig {
        storage_servers: servers,
        storage: StorageConfig {
            wal: Some(WalConfig { sync, ..WalConfig::new(root.0.clone()) }),
            ..Default::default()
        },
        ..Default::default()
    })
}

fn login(cluster: &LwfsCluster, client: &mut LwfsClient) {
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
}

#[test]
fn committed_2pc_write_survives_crash_and_restart() {
    let root = WalRoot::new("committed");
    let mut cluster = boot_wal(2, &root, SyncPolicy::Always);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();

    // A 2PC write spanning both servers, committed.
    let txn = client.txn_begin().unwrap();
    let o0 = client.create_obj(0, &caps, Some(txn), None).unwrap();
    let o1 = client.create_obj(1, &caps, Some(txn), None).unwrap();
    client.write(0, &caps, Some(txn), o0, 0, b"replica zero").unwrap();
    client.write(1, &caps, Some(txn), o1, 0, b"replica one!").unwrap();
    let participants = vec![cluster.addrs().storage[0], cluster.addrs().storage[1]];
    assert!(client.txn_commit(txn, participants).unwrap().is_committed());

    // Plus a plain acknowledged (non-transactional) write.
    let plain = client.create_obj(1, &caps, None, None).unwrap();
    client.write(1, &caps, None, plain, 0, b"acked outside txn").unwrap();

    cluster.crash_storage(1);
    assert_eq!(client.read(1, &caps, o1, 0, 12).unwrap_err(), Error::Unreachable);
    cluster.restart_storage(1);

    // Everything the old instance acknowledged is back.
    assert_eq!(client.read(0, &caps, o0, 0, 12).unwrap(), b"replica zero");
    assert_eq!(client.read(1, &caps, o1, 0, 12).unwrap(), b"replica one!");
    assert_eq!(client.read(1, &caps, plain, 0, 17).unwrap(), b"acked outside txn");

    // Recovery observability: records were replayed and timed.
    let frame = cluster.network().obs().frame(0);
    assert!(frame.counter("wal.replay_records").unwrap_or(0) > 0, "replay counted no records");
    assert!(frame.gauge("storage.recovery_ms").is_some(), "recovery time not recorded");
    assert!(frame.gauge("storage.recovered_objects").unwrap_or(0) >= 2);
}

#[test]
fn unprepared_staged_ops_vanish_on_restart() {
    let root = WalRoot::new("unprepared");
    let mut cluster = boot_wal(1, &root, SyncPolicy::Always);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();

    // Durable baseline the staged transaction scribbles over.
    let base = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, base, 0, b"baseline").unwrap();

    // Staged but never prepared: the crash hits before phase 1.
    let txn = client.txn_begin().unwrap();
    let staged = client.create_obj(0, &caps, Some(txn), None).unwrap();
    client.write(0, &caps, Some(txn), staged, 0, b"doomed").unwrap();
    client.write(0, &caps, Some(txn), base, 0, b"OVERWRIT").unwrap();

    cluster.crash_storage(0);
    cluster.restart_storage(0);

    // Presumed abort: the staged create is gone and the overwrite is
    // rolled back to the baseline bytes.
    assert_eq!(client.read(0, &caps, staged, 0, 6).unwrap_err(), Error::NoSuchObject(staged));
    assert_eq!(client.read(0, &caps, base, 0, 8).unwrap(), b"baseline");
    assert_eq!(cluster.storage_server(0).in_doubt_txns(), vec![]);
}

#[test]
fn prepared_txn_restarts_in_doubt_and_follows_commit_verdict() {
    let root = WalRoot::new("indoubt-commit");
    let mut cluster = boot_wal(2, &root, SyncPolicy::Always);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();

    let txn = client.txn_begin().unwrap();
    let o0 = client.create_obj(0, &caps, Some(txn), None).unwrap();
    let o1 = client.create_obj(1, &caps, Some(txn), None).unwrap();
    client.write(0, &caps, Some(txn), o0, 0, b"half zero").unwrap();
    client.write(1, &caps, Some(txn), o1, 0, b"half one!").unwrap();

    // Phase 1 only: both participants vote yes and persist the vote; the
    // coordinator "crashes" before sending the decision.
    let participants = vec![cluster.addrs().storage[0], cluster.addrs().storage[1]];
    assert!(client.txn_prepare(txn, participants.clone()).unwrap().is_empty());

    cluster.crash_storage(1);
    cluster.restart_storage(1);

    // The restarted participant is in doubt: it remembers the prepared
    // transaction and must not decide unilaterally.
    assert_eq!(cluster.storage_server(1).in_doubt_txns(), vec![txn]);

    // The coordinator resolves to commit; the staged bytes become
    // permanent on both the survivor and the restarted server.
    client.txn_resolve(txn, participants, true).unwrap();
    assert_eq!(client.read(0, &caps, o0, 0, 9).unwrap(), b"half zero");
    assert_eq!(client.read(1, &caps, o1, 0, 9).unwrap(), b"half one!");
    assert_eq!(cluster.storage_server(1).in_doubt_txns(), vec![]);
}

#[test]
fn prepared_txn_restarts_in_doubt_and_follows_abort_verdict() {
    let root = WalRoot::new("indoubt-abort");
    let mut cluster = boot_wal(2, &root, SyncPolicy::Always);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();

    let txn = client.txn_begin().unwrap();
    let o0 = client.create_obj(0, &caps, Some(txn), None).unwrap();
    let o1 = client.create_obj(1, &caps, Some(txn), None).unwrap();
    client.write(0, &caps, Some(txn), o0, 0, b"never lands").unwrap();
    client.write(1, &caps, Some(txn), o1, 0, b"never lands").unwrap();
    let participants = vec![cluster.addrs().storage[0], cluster.addrs().storage[1]];
    assert!(client.txn_prepare(txn, participants.clone()).unwrap().is_empty());

    cluster.crash_storage(1);
    cluster.restart_storage(1);
    assert_eq!(cluster.storage_server(1).in_doubt_txns(), vec![txn]);

    // Verdict: abort. The reconstructed undo journal rolls everything
    // back, including on the restarted participant.
    client.txn_resolve(txn, participants, false).unwrap();
    assert_eq!(client.read(0, &caps, o0, 0, 11).unwrap_err(), Error::NoSuchObject(o0));
    assert_eq!(client.read(1, &caps, o1, 0, 11).unwrap_err(), Error::NoSuchObject(o1));
    assert_eq!(cluster.storage_server(1).in_doubt_txns(), vec![]);
}

#[test]
fn resolve_tolerates_participants_that_never_crashed() {
    // Resolving a transaction the survivor already decided (e.g. the
    // coordinator retried after a partial phase 2) must be idempotent.
    let root = WalRoot::new("reresolve");
    let mut cluster = boot_wal(1, &root, SyncPolicy::Always);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();

    let txn = client.txn_begin().unwrap();
    let obj = client.create_obj(0, &caps, Some(txn), None).unwrap();
    client.write(0, &caps, Some(txn), obj, 0, b"decided").unwrap();
    let participants = vec![cluster.addrs().storage[0]];
    assert!(client.txn_commit(txn, participants.clone()).unwrap().is_committed());

    // A second decision round: the participant no longer knows the txn.
    client.txn_resolve(txn, participants.clone(), true).unwrap();
    assert_eq!(client.read(0, &caps, obj, 0, 7).unwrap(), b"decided");

    // And the restarted instance (which replayed prepare+commit) also
    // treats a late resolve as already done.
    cluster.crash_storage(0);
    cluster.restart_storage(0);
    client.txn_resolve(txn, participants, true).unwrap();
    assert_eq!(client.read(0, &caps, obj, 0, 7).unwrap(), b"decided");
}

#[test]
fn concurrent_acked_writes_all_survive_a_crash() {
    // Many clients writing in parallel through the worker pool: every
    // write that was *acknowledged* before the crash must be readable
    // after restart (WAL appends are ordered by the conflict tracker).
    let root = WalRoot::new("concurrent");
    let mut cluster = boot_wal(1, &root, SyncPolicy::Always);
    let mut admin = cluster.client(0, 0);
    login(&cluster, &mut admin);
    let cid = admin.create_container().unwrap();
    let caps = admin.get_caps(cid, OpMask::ALL).unwrap();

    const WRITERS: usize = 4;
    const WRITES: usize = 16;
    let objs: Vec<ObjId> =
        (0..WRITERS).map(|_| admin.create_obj(0, &caps, None, None).unwrap()).collect();

    std::thread::scope(|s| {
        for (w, obj) in objs.iter().enumerate() {
            let client = cluster.client(1 + w as u32, 0);
            let caps = caps.clone();
            s.spawn(move || {
                for i in 0..WRITES {
                    let payload = [w as u8 * 16 + i as u8; 32];
                    client.write(0, &caps, None, *obj, (i * 32) as u64, &payload).unwrap();
                }
            });
        }
    });

    cluster.crash_storage(0);
    cluster.restart_storage(0);

    for (w, obj) in objs.iter().enumerate() {
        let data = admin.read(0, &caps, *obj, 0, WRITERS * WRITES * 32).unwrap();
        assert_eq!(data.len(), WRITES * 32, "object {w} truncated after replay");
        for i in 0..WRITES {
            assert!(
                data[i * 32..(i + 1) * 32].iter().all(|&b| b == w as u8 * 16 + i as u8),
                "object {w} chunk {i} corrupted after replay"
            );
        }
    }
}
