//! What a primary ships, under buffer reuse.
//!
//! A replication primary encodes each ship once into a buffer its worker
//! reuses for the next request, and re-sends those same bytes when an
//! attempt or its ack is lost. The worker may take the buffer back only
//! once nothing else holds it. The first test loses messages at random
//! while writes overwrite a ring of objects, each write with its own
//! payload, then crashes the primary: the promoted backup must hold every
//! object's last payload byte for byte. A buffer reclaimed while a
//! re-sent ship still referenced it would show up there as another
//! write's bytes.
//!
//! The ship carries the frames the primary's log appended, batched in the
//! worker's buffer as they are framed; the second test fails an append
//! and checks that its frame leaves the batch unshipped.

use std::time::Duration;

use lwfs::portals::FaultPlan;
use lwfs::prelude::*;
use lwfs::storage::StorageConfig;

const OBJECTS: usize = 32;
const WRITES: usize = 400;
const LEN: usize = 256 * 1024;

/// The payload of write `n`: no two writes share one.
fn payload(n: usize) -> Vec<u8> {
    let mut data: Vec<u8> = (0..LEN).map(|j| (j * 31 + n * 7) as u8).collect();
    data[..8].copy_from_slice(&(n as u64).to_le_bytes());
    data
}

#[test]
fn every_payload_survives_retried_ships_and_the_primary() {
    let mut cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        replication: 2,
        storage: StorageConfig { workers: 2, ..Default::default() },
        // A lost ship attempt is re-sent after a quarter of this.
        ship_deadline: Some(Duration::from_secs(1)),
        ..Default::default()
    });
    let mut client = cluster.client(0, 0);
    client.get_cred(cluster.kdc().kinit("app", "secret").unwrap()).unwrap();
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let objs: Vec<ObjId> =
        (0..OBJECTS).map(|_| client.create_obj(0, &caps, None, None).unwrap()).collect();

    // Lose 1.5 % of all messages: ships, acks, and the client's own
    // requests and replies, which it re-sends after its shorter timeout.
    // Over 400 ships some attempt is lost all but surely, and a ship is
    // never lost on every attempt within its deadline.
    client.set_rpc_timeout(Duration::from_millis(200));
    cluster.network().set_faults(FaultPlan { drop_rate: 0.015, ..Default::default() });
    for n in 0..WRITES {
        let written = client.write(0, &caps, None, objs[n % OBJECTS], 0, &payload(n)).unwrap();
        assert_eq!(written, LEN as u64);
    }
    cluster.network().heal();

    let frame = cluster.network().obs().frame(0);
    assert!(frame.counter("storage.ship_retries").unwrap_or(0) > 0, "no ship was re-sent");
    assert_eq!(frame.counter("storage.ship_failures").unwrap_or(0), 0, "a backup was dropped");

    cluster.crash_storage(0);
    for (i, obj) in objs.iter().enumerate() {
        let last = (0..WRITES).rev().find(|n| n % OBJECTS == i).unwrap();
        let back = client.read(0, &caps, *obj, 0, LEN).unwrap();
        assert!(back == payload(last), "object {i} does not hold write {last}'s payload");
    }
}

#[test]
fn a_record_the_primary_failed_to_log_is_not_shipped() {
    let root = std::env::temp_dir().join(format!("lwfs-unlogged-ship-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // One-byte segments: every append seals its segment and opens the
    // next, so an append fails as soon as the log's directory is gone.
    let wal = WalConfig { segment_bytes: 1, ..WalConfig::new(&root) };
    let cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        replication: 2,
        storage: StorageConfig { wal: Some(wal), ..Default::default() },
        ..Default::default()
    });
    let mut client = cluster.client(0, 0);
    client.get_cred(cluster.kdc().kinit("app", "secret").unwrap()).unwrap();
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    let logged = payload(0);
    client.write(0, &caps, None, obj, 0, &logged).unwrap();
    let ships = || cluster.network().obs().frame(0).counter("storage.repl_ships").unwrap_or(0);
    let shipped = ships();

    std::fs::remove_dir_all(root.join("srv0")).unwrap();
    let err = client.write(0, &caps, None, obj, 0, &payload(1)).unwrap_err();
    assert!(matches!(err, Error::StorageIo(_)), "{err:?}");
    assert_eq!(ships(), shipped, "a write the primary's log refused was shipped");
    let backup = cluster.storage_server(1).store();
    assert!(backup.read(cid, obj, 0, LEN as u64).unwrap() == logged, "the backup applied it");
    drop((client, cluster));
    let _ = std::fs::remove_dir_all(&root);
}
