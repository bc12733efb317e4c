//! Replicated storage groups, end to end: WAL log-shipping to backups,
//! primary failover without restart, and client-side transparent retry.
//!
//! These tests run the full stack — auth, authz, group directory, and
//! R-member storage groups — and exercise the paper-level guarantee the
//! replication layer adds: **every acknowledged mutation survives the
//! primary** and is observed exactly once by readers.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lwfs::portals::FaultPlan;
use lwfs::prelude::*;

/// Boot `groups` replication groups of `r` members each.
fn boot(groups: usize, r: usize) -> LwfsCluster {
    LwfsCluster::boot(ClusterConfig {
        storage_servers: groups,
        replication: r,
        ..Default::default()
    })
}

fn login(cluster: &LwfsCluster, client: &mut LwfsClient) {
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
}

#[test]
fn acknowledged_writes_are_on_the_backup_before_the_ack() {
    let cluster = boot(1, 2);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();

    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"ship before ack").unwrap();

    // The moment the write is acknowledged, the backup's store already
    // holds the object and its bytes — no anti-entropy, no wait.
    let backup = cluster.storage_server(1);
    assert!(backup.replica().is_backup());
    assert_eq!(backup.store().object_count(), 1);
    assert_eq!(backup.store().bytes_stored(), 15);

    let frame = cluster.network().obs().frame(0);
    assert!(frame.counter("storage.repl_ships").unwrap_or(0) >= 2, "create + write both ship");
    assert_eq!(frame.counter("storage.ship_failures").unwrap_or(0), 0);
}

#[test]
fn reads_are_served_by_a_backup_while_the_primary_is_partitioned() {
    let cluster = boot(1, 2);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"any in-sync member").unwrap();

    // Cut the primary off. No failover happens (the control plane saw no
    // crash); the client's read sweep simply falls through to the backup.
    let mut plan = FaultPlan::default();
    plan.partitioned.insert(cluster.addrs().storage[0].nid);
    cluster.network().set_faults(plan);
    assert_eq!(client.read(0, &caps, obj, 0, 18).unwrap(), b"any in-sync member");
    cluster.network().heal();
}

#[test]
fn primary_crash_promotes_the_backup_and_clients_fail_over() {
    let mut cluster = boot(1, 2);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"survives the primary").unwrap();

    cluster.crash_storage(0);

    // The map advanced and now names the old backup as primary.
    let map = cluster.group_map();
    assert_eq!(map.epoch, 2);
    assert_eq!(map.groups[0].primary(), Some(cluster.addrs().storage[1]));

    // Reads and writes keep working through the same client handle.
    assert_eq!(client.read(0, &caps, obj, 0, 20).unwrap(), b"survives the primary");
    client.write(0, &caps, None, obj, 0, b"writable after loss!").unwrap();
    assert_eq!(client.read(0, &caps, obj, 0, 20).unwrap(), b"writable after loss!");

    let frame = cluster.network().obs().frame(0);
    assert_eq!(frame.gauge("storage.failovers"), Some(1));
}

#[test]
fn losing_a_backup_shrinks_the_group_but_keeps_it_writable() {
    let mut cluster = boot(1, 3);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();

    cluster.crash_storage(2);
    // No failover — the primary just stops shipping to the dead member.
    client.write(0, &caps, None, obj, 0, b"two of three").unwrap();
    let map = cluster.group_map();
    assert_eq!(map.epoch, 2);
    assert_eq!(map.groups[0].members.len(), 2);
    assert_eq!(cluster.network().obs().frame(0).gauge("storage.failovers"), None);
    // The surviving backup still got the write.
    assert_eq!(cluster.storage_server(1).store().bytes_stored(), 12);
}

#[test]
fn write_storm_through_a_primary_crash_is_exactly_once() {
    // The acceptance scenario: clients hammer a 2-member group, the
    // primary dies mid-storm and is never restarted, and afterwards every
    // acknowledged object reads back with exactly its acknowledged bytes.
    let mut cluster = boot(1, 2);
    let mut admin = cluster.client(99, 0);
    login(&cluster, &mut admin);
    let cid = admin.create_container().unwrap();
    let caps = admin.get_caps(cid, OpMask::ALL).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for t in 0..4u32 {
        let mut worker = cluster.client(t, 0);
        login(&cluster, &mut worker);
        let caps = caps.clone();
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut acked: Vec<(ObjId, Vec<u8>)> = Vec::new();
            let mut seq = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let payload = format!("worker {t} op {seq}").into_bytes();
                // Only fully acknowledged create+write pairs count: an op
                // the storm lost to the crash window made no promise.
                if let Ok(obj) = worker.create_obj(0, &caps, None, None) {
                    if worker.write(0, &caps, None, obj, 0, &payload).is_ok() {
                        acked.push((obj, payload));
                    }
                }
                seq += 1;
            }
            acked
        }));
    }

    // Let the storm ramp, kill the primary under it, let the survivors
    // keep writing against the promoted backup, then stop.
    std::thread::sleep(Duration::from_millis(100));
    cluster.crash_storage(0);
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    let acked: Vec<(ObjId, Vec<u8>)> =
        threads.into_iter().flat_map(|t| t.join().unwrap()).collect();
    assert!(!acked.is_empty(), "storm acknowledged nothing");

    // Exactly once: every acknowledged object exists with its exact
    // bytes, no object was created twice (all ids distinct), and the
    // survivor lists each acknowledged id.
    let ids: HashSet<ObjId> = acked.iter().map(|(o, _)| *o).collect();
    assert_eq!(ids.len(), acked.len(), "an acknowledged create was applied twice");
    for (obj, payload) in &acked {
        assert_eq!(&admin.read(0, &caps, *obj, 0, payload.len()).unwrap(), payload);
    }
    let listed: HashSet<ObjId> = admin.list_objs(0, &caps).unwrap().into_iter().collect();
    for (obj, _) in &acked {
        assert!(listed.contains(obj), "acknowledged {obj:?} missing from the survivor");
    }

    let frame = cluster.network().obs().frame(0);
    assert_eq!(frame.gauge("storage.failovers"), Some(1));
    assert_eq!(cluster.group_map().epoch, 2);
}

#[test]
fn replication_metrics_are_exported() {
    let cluster = boot(2, 2);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    for group in 0..2 {
        let obj = client.create_obj(group, &caps, None, None).unwrap();
        client.write(group, &caps, None, obj, 0, b"metered").unwrap();
    }

    let frame = cluster.network().obs().frame(0);
    assert!(frame.counter("storage.repl_ships").unwrap_or(0) >= 4);
    assert_eq!(frame.gauge("storage.repl_lag"), Some(0), "all ships acknowledged");
    assert_eq!(frame.gauge("storage.repl_epoch"), Some(1));
    assert_eq!(frame.counter("storage.dedup_hits").unwrap_or(0), 0);
}

#[test]
fn a_backup_dropped_at_the_ship_deadline_leaves_the_map_and_is_never_promoted() {
    // The silent-staleness scenario: a backup misses its ship deadline,
    // the primary drops it and *reports the drop to the directory*, so
    // the republished map stops routing reads to the out-of-sync member
    // — and a later election can never promote it over a member that
    // holds the acknowledged write it missed.
    let mut cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        replication: 3,
        ship_deadline: Some(Duration::from_millis(100)),
        ..Default::default()
    });
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"before the drop!").unwrap();

    // Cut off the junior backup; the next write misses its ship deadline
    // there and evicts it from the group.
    let stale = cluster.addrs().storage[2];
    let mut plan = FaultPlan::default();
    plan.partitioned.insert(stale.nid);
    cluster.network().set_faults(plan);
    client.write(0, &caps, None, obj, 0, b"after it was cut").unwrap();
    cluster.network().heal();

    // The map was republished without the member ...
    let map = cluster.group_map();
    assert_eq!(map.epoch, 2);
    assert_eq!(map.groups[0].members, vec![cluster.addrs().storage[0], cluster.addrs().storage[1]]);
    let frame = cluster.network().obs().frame(0);
    assert_eq!(frame.counter("storage.ship_failures"), Some(1));
    assert_eq!(frame.counter("storage.drop_reports"), Some(1));

    // ... while the member itself — healed, reachable, happy to answer —
    // still holds only the pre-drop bytes. It is genuinely stale.
    assert_eq!(
        cluster.storage_server(2).store().read(cid, obj, 0, u64::MAX).unwrap(),
        b"before the drop!"
    );

    // Reads keep returning the acknowledged bytes, never the stale ones.
    for _ in 0..4 {
        assert_eq!(client.read(0, &caps, obj, 0, 16).unwrap(), b"after it was cut");
    }

    // And when the primary dies, the election promotes the in-sync
    // survivor: promoting the dropped member would silently roll back an
    // acknowledged write.
    cluster.crash_storage(0);
    let map = cluster.group_map();
    assert_eq!(map.groups[0].primary(), Some(cluster.addrs().storage[1]));
    assert!(!map.groups[0].members.contains(&stale), "the stale member stays out of the map");
    assert_eq!(client.read(0, &caps, obj, 0, 16).unwrap(), b"after it was cut");
    client.write(0, &caps, None, obj, 0, b"still writable..").unwrap();
    assert_eq!(client.read(0, &caps, obj, 0, 16).unwrap(), b"still writable..");
}

#[test]
fn a_ship_from_anyone_but_the_primary_is_refused_before_it_applies() {
    use lwfs::portals::RpcClient;
    use lwfs::proto::{OpNum, RequestBody};

    let cluster = boot(1, 2);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"legitimate").unwrap();

    // A rogue process can learn the group and epoch from the public map,
    // but its crafted ship must be refused before anything is logged,
    // applied, or cached — ships bypass capability checks, so sender
    // identity is the only gate.
    let map = cluster.group_map();
    let backup = cluster.addrs().storage[1];
    let rogue_id = ProcessId::new(66, 0);
    let rogue_ep = cluster.network().register(rogue_id);
    let rogue = RpcClient::new(&rogue_ep);
    let err = rogue
        .call(
            backup,
            RequestBody::ReplShip {
                group: 0,
                epoch: map.epoch,
                seq: 1000,
                origin: rogue_id,
                origin_opnum: OpNum(1),
                records: vec![],
                reply: Default::default(),
            },
        )
        .unwrap_err();
    assert_eq!(err, Error::AccessDenied);

    // Nothing was applied and the reply cache was not poisoned.
    let backup_srv = cluster.storage_server(1);
    assert_eq!(backup_srv.store().object_count(), 1);
    assert!(backup_srv.replica().replies.get(rogue_id, OpNum(1)).is_none());

    // Ships from the actual primary keep flowing.
    client.write(0, &caps, None, obj, 0, b"still ships").unwrap();
    assert_eq!(backup_srv.store().read(cid, obj, 0, u64::MAX).unwrap(), b"still ships");
}

#[test]
fn the_primary_fences_mutations_stamped_with_a_retired_epoch() {
    use lwfs::portals::{reply_match, Event, REQUEST_MATCH};
    use lwfs::proto::{Decode as _, Encode as _, OpNum, Reply, Request, RequestBody};

    let mut cluster = boot(1, 2);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let cap = caps.for_op(OpMask::CREATE).unwrap();

    // Retire epoch 1: losing the backup republishes the map at epoch 2
    // and walks the primary up to it.
    cluster.crash_storage(1);
    assert_eq!(cluster.group_map().epoch, 2);

    // A mutation still stamped with epoch 1 routed on the retired map is
    // fenced — the sender must refresh; epoch 0 ("no epoch info", the
    // transaction-coordinator path) still passes.
    let ep = cluster.network().register(ProcessId::new(77, 0));
    let primary = cluster.addrs().storage[0];
    let send = |opnum: u64, epoch: u64| {
        let body = RequestBody::CreateObj { txn: None, cap, obj: None };
        let req = Request::new(OpNum(opnum), ep.id(), body).with_epoch(epoch);
        ep.send(primary, REQUEST_MATCH, req.to_bytes()).unwrap();
        let want = reply_match(opnum);
        let ev = ep
            .recv_match(
                Duration::from_secs(2),
                |e| matches!(e, Event::Message { match_bits, .. } if *match_bits == want),
            )
            .unwrap();
        Reply::from_bytes(ev.message_data().unwrap().clone()).unwrap().into_result()
    };
    assert_eq!(send(1, 1).unwrap_err(), Error::NotPrimary);
    assert!(send(2, 2).is_ok(), "the current epoch passes");
    assert!(send(3, 0).is_ok(), "epoch 0 means no epoch info and always passes");
}

#[test]
fn replication_one_is_a_group_of_one_routed_without_the_directory() {
    // R=1 is the degenerate case of R: one single-member group per server.
    let cluster = boot(3, 1);
    let map = cluster.group_map();
    assert_eq!(map.epoch, 1);
    assert_eq!(map.groups.len(), 3);
    for (g, group) in map.groups.iter().enumerate() {
        assert_eq!(group.members, vec![cluster.addrs().storage[g]], "group {g}");
    }
    drop(cluster);

    // Clients route by the boot map at every R: a full checkpoint and
    // restore never consults the directory. The directory answers every
    // request it receives, so its silence means nobody asked.
    for r in [1, 2] {
        let cluster = boot(2, r);
        let mut client = cluster.client(0, 0);
        login(&cluster, &mut client);
        let cid = client.create_container().unwrap();
        let caps = client.get_caps(cid, OpMask::CHECKPOINT | OpMask::READ).unwrap();
        let stats = cluster.network().stats();
        stats.reset();
        let ck = LwfsCheckpointer::new(&client, Group::new(vec![client.id()]), 0, caps, "/r");
        let state = vec![0x5Au8; 48 * 1024];
        ck.checkpoint(1, &state).unwrap();
        assert_eq!(ck.restore(1).unwrap(), state, "R={r}");
        assert_eq!(stats.sent_by(cluster.addrs().directory), 0, "R={r}: the directory spoke");
        let ships = cluster.network().obs().frame(0).counter("storage.repl_ships").unwrap_or(0);
        assert_eq!(ships == 0, r == 1, "R={r}: {ships} ships");
    }
}

#[test]
fn a_restarted_group_of_one_keeps_its_map_and_needs_no_directory() {
    use lwfs::storage::StorageConfig;

    let root = std::env::temp_dir().join(format!("lwfs-repl-r1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 2,
        storage: StorageConfig { wal: Some(WalConfig::new(root.clone())), ..Default::default() },
        ..Default::default()
    });
    let directory = cluster.addrs().directory;
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(1, &caps, None, None).unwrap();
    client.write(1, &caps, None, obj, 0, b"logged, not shipped").unwrap();

    cluster.network().stats().reset();
    cluster.crash_storage(1);
    // No member to promote: the map stays as booted, and the client fails
    // fast instead of polling the directory for a successor.
    assert_eq!(cluster.group_map().epoch, 1);
    assert_eq!(client.read(1, &caps, obj, 0, 19).unwrap_err(), Error::Unreachable);

    cluster.restart_storage(1);
    assert_eq!(cluster.group_map().epoch, 1);
    assert_eq!(client.read(1, &caps, obj, 0, 19).unwrap(), b"logged, not shipped");
    assert_eq!(cluster.network().stats().sent_by(directory), 0, "the directory spoke");
    drop(cluster);
    let _ = std::fs::remove_dir_all(&root);
}
