//! End-to-end tests of the LWFS-core over a full in-process cluster:
//! the Figure 4 protocols, SPMD capability scatter, object I/O, naming,
//! and distributed transactions.

use std::sync::Arc;

use bytes::Bytes;
use lwfs_core::{CapSet, ClusterConfig, LwfsClient, LwfsCluster};
use lwfs_portals::Group;
use lwfs_proto::{Error, LockMode, LockResource, OpMask, PrincipalId, ProcessId};

fn boot(storage: usize) -> LwfsCluster {
    LwfsCluster::boot(ClusterConfig { storage_servers: storage, ..Default::default() })
}

fn login(cluster: &LwfsCluster, client: &mut LwfsClient) {
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
}

#[test]
fn figure4a_protocol_acquire_caps() {
    let cluster = boot(2);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);

    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::CHECKPOINT).unwrap();
    assert_eq!(caps.container().unwrap(), cid);
    assert!(caps.ops().contains(OpMask::CREATE | OpMask::WRITE));

    // The authorization service verified the credential with the
    // authentication service exactly once (first contact), then cached it.
    let stats = cluster.authz_service().stats();
    assert_eq!(stats.cred_verifications, 1);
}

#[test]
fn figure4b_protocol_data_access_with_cache() {
    let cluster = boot(1);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);

    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();

    for i in 0..20u64 {
        client.write(0, &caps, None, obj, i * 4, b"data").unwrap();
    }
    let back = client.read(0, &caps, obj, 0, 80).unwrap();
    assert_eq!(back.len(), 80);

    // One verify-through per distinct capability; everything else hits the
    // storage server's cache.
    let cache = cluster.storage_server(0).cap_cache_stats();
    assert!(cache.misses <= 3, "misses: {}", cache.misses);
    assert!(cache.hits >= 19);
}

#[test]
fn spmd_group_scatters_caps_in_log_rounds() {
    // Figure 4-a step 3: one rank acquires, the group scatters. The
    // authorization server must see exactly ONE GetCaps regardless of n
    // (scalability rule 1: no system-imposed O(n) operations).
    let n = 8;
    let cluster = Arc::new(boot(2));
    let mut rank0 = cluster.client(0, 0);
    login(&cluster, &mut rank0);
    let cid = rank0.create_container().unwrap();

    let mut clients: Vec<LwfsClient> = vec![rank0];
    for r in 1..n {
        clients.push(cluster.client(r as u32, 0));
    }
    let group = Group::new((0..n as u32).map(|i| ProcessId::new(i, 0)).collect());

    let issued_before = cluster.authz_service().stats().caps_issued;

    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(rank, client)| {
            let group = group.clone();
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let caps = if rank == 0 {
                    let caps = client.get_caps(cid, OpMask::CHECKPOINT).unwrap();
                    client.scatter_caps(&group, 0, 0, 77, Some(&caps)).unwrap()
                } else {
                    client.scatter_caps(&group, rank, 0, 77, None).unwrap()
                };
                // Every rank can immediately create + write with the
                // scattered capabilities.
                let obj = client.create_obj(rank % 2, &caps, None, None).unwrap();
                client
                    .write(rank % 2, &caps, None, obj, 0, format!("rank{rank}").as_bytes())
                    .unwrap();
                let _ = cluster; // keep alive
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let issued_after = cluster.authz_service().stats().caps_issued;
    assert_eq!(
        issued_after - issued_before,
        OpMask::CHECKPOINT.len() as u64,
        "capabilities issued once, not per rank"
    );
}

#[test]
fn naming_binds_and_resolves() {
    let cluster = boot(1);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);

    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"named data").unwrap();

    client.name_create(None, "/data/run1", cid, obj).unwrap();
    let (rcid, robj) = client.name_lookup("/data/run1").unwrap();
    assert_eq!((rcid, robj), (cid, obj));
    assert_eq!(client.name_list("/data").unwrap(), vec!["/data/run1".to_string()]);

    let back = client.read(0, &caps, robj, 0, 10).unwrap();
    assert_eq!(back, b"named data");
}

#[test]
fn distributed_txn_commits_across_storage_and_naming() {
    let cluster = boot(2);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);

    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let txn = client.txn_begin().unwrap();

    // Touch both storage servers and the naming service in one txn.
    let o0 = client.create_obj(0, &caps, Some(txn), None).unwrap();
    let o1 = client.create_obj(1, &caps, Some(txn), None).unwrap();
    client.write(0, &caps, Some(txn), o0, 0, b"half a").unwrap();
    client.write(1, &caps, Some(txn), o1, 0, b"half b").unwrap();
    client.name_create(Some(txn), "/txn/commit", cid, o0).unwrap();

    let participants =
        vec![cluster.addrs().storage[0], cluster.addrs().storage[1], cluster.addrs().naming];
    let outcome = client.txn_commit(txn, participants).unwrap();
    assert!(outcome.is_committed());

    assert_eq!(client.read(0, &caps, o0, 0, 6).unwrap(), b"half a");
    assert_eq!(client.read(1, &caps, o1, 0, 6).unwrap(), b"half b");
    assert!(client.name_lookup("/txn/commit").is_ok());
}

#[test]
fn distributed_txn_abort_rolls_back_everywhere() {
    let cluster = boot(2);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);

    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let txn = client.txn_begin().unwrap();

    let o0 = client.create_obj(0, &caps, Some(txn), None).unwrap();
    client.write(0, &caps, Some(txn), o0, 0, b"ghost").unwrap();
    client.name_create(Some(txn), "/txn/abort", cid, o0).unwrap();

    let participants = vec![cluster.addrs().storage[0], cluster.addrs().naming];
    client.txn_abort(txn, participants).unwrap();

    assert_eq!(client.read(0, &caps, o0, 0, 5).unwrap_err(), Error::NoSuchObject(o0));
    assert_eq!(client.name_lookup("/txn/abort").unwrap_err(), Error::NoSuchName);
}

#[test]
fn locks_serialize_conflicting_clients() {
    let cluster = boot(1);
    let mut a = cluster.client(0, 0);
    let mut b = cluster.client(1, 0);
    login(&cluster, &mut a);
    login(&cluster, &mut b);

    let cid = a.create_container().unwrap();
    let caps_a = a.get_caps(cid, OpMask::ALL).unwrap();
    // b shares the same principal so may acquire its own caps.
    let caps_b = b.get_caps(cid, OpMask::ALL).unwrap();

    let obj = a.create_obj(0, &caps_a, None, None).unwrap();
    let res = LockResource::whole_object(cid, obj);

    let lock = a.lock_acquire(&caps_a, res, LockMode::Exclusive, false).unwrap();
    assert_eq!(
        b.lock_acquire(&caps_b, res, LockMode::Exclusive, false).unwrap_err(),
        Error::WouldBlock
    );
    a.lock_release(&caps_a, lock).unwrap();
    let lock_b = b.lock_acquire(&caps_b, res, LockMode::Exclusive, false).unwrap();
    b.lock_release(&caps_b, lock_b).unwrap();
}

#[test]
fn chmod_scenario_end_to_end() {
    // §3.1.4's motivating example over the full stack: revoke write via a
    // policy change; reads keep working without re-acquisition.
    let cluster = boot(1);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);

    let cid = client.create_container().unwrap();
    let caps = client
        .get_caps(
            cid,
            OpMask::READ | OpMask::WRITE | OpMask::CREATE | OpMask::ADMIN | OpMask::GETATTR,
        )
        .unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"before chmod").unwrap();
    // Warm the read capability's cache entry.
    assert_eq!(client.read(0, &caps, obj, 0, 12).unwrap(), b"before chmod");

    client.mod_policy(&caps, PrincipalId(1), OpMask::NONE, OpMask::WRITE).unwrap();

    let err = client.write(0, &caps, None, obj, 0, b"after chmod!").unwrap_err();
    assert!(err.is_security(), "write must be refused after chmod: {err:?}");
    // Read still works — partial revocation left it cached and valid.
    assert_eq!(client.read(0, &caps, obj, 0, 12).unwrap(), b"before chmod");
}

#[test]
fn caps_are_transferable_between_processes() {
    let cluster = boot(1);
    let mut owner = cluster.client(0, 0);
    login(&cluster, &mut owner);
    let cid = owner.create_container().unwrap();
    let caps = owner.get_caps(cid, OpMask::CREATE | OpMask::WRITE).unwrap();

    // A second process that never authenticated receives the capability
    // set out of band and can act with it (delegation, §3.1.2).
    let delegate = cluster.client(1, 0);
    let wire = caps.to_wire();
    let adopted = CapSet::from_wire(wire).unwrap();
    let obj = delegate.create_obj(0, &adopted, None, None).unwrap();
    delegate.write(0, &adopted, None, obj, 0, b"delegated").unwrap();
}

#[test]
fn collective_gather_assembles_rank_data() {
    let cluster = Arc::new(boot(1));
    let n = 5usize;
    let group = Group::new((0..n as u32).map(|i| ProcessId::new(i, 0)).collect());
    let clients: Vec<LwfsClient> = (0..n).map(|r| cluster.client(r as u32, 0)).collect();

    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(rank, client)| {
            let group = group.clone();
            std::thread::spawn(move || {
                let data = Bytes::from(format!("md-{rank}"));
                client.gather(&group, rank, 0, 55, data).unwrap()
            })
        })
        .collect();
    let mut roots = 0;
    for h in handles {
        if let Some(all) = h.join().unwrap() {
            roots += 1;
            assert_eq!(all.len(), n);
            for (rank, blob) in all.iter().enumerate() {
                assert_eq!(blob.as_ref(), format!("md-{rank}").as_bytes());
            }
        }
    }
    assert_eq!(roots, 1);
}

#[test]
fn expired_capabilities_refresh_without_reauthentication() {
    // The §5 contrast with NASD: after a long compute gap the capability
    // set has expired; a single GetCaps with the (transferable, longer-
    // lived) credential refreshes it — no new authentication, no O(n)
    // traffic, and the data path works again.
    let cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        manual_clock: true,
        capability_ttl_ns: Some(1_000_000), // 1 ms capabilities
        ..Default::default()
    });
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let mut caps = client.get_caps(cid, OpMask::CREATE | OpMask::WRITE | OpMask::READ).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"before the gap").unwrap();

    // Long compute phase: the capability lifetime passes (the credential,
    // with its default 8 h lifetime, stays valid).
    cluster.manual_clock().unwrap().advance(2_000_000);
    let err = client.write(0, &caps, None, obj, 0, b"stale").unwrap_err();
    assert_eq!(err, Error::CapabilityExpired);

    // One GetCaps with the same credential re-acquires the set; nothing
    // re-authenticates.
    let auth_issued_before = cluster.auth_service().stats().issued;
    caps = client.get_caps(cid, OpMask::CREATE | OpMask::WRITE | OpMask::READ).unwrap();
    client.write(0, &caps, None, obj, 0, b"fresh again!").unwrap();
    assert_eq!(
        cluster.auth_service().stats().issued,
        auth_issued_before,
        "re-acquiring must not mint a new credential"
    );
    assert_eq!(client.read(0, &caps, obj, 0, 12).unwrap(), b"fresh again!");
}
