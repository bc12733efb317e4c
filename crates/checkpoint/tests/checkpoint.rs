//! End-to-end tests of all three checkpoint implementations: dump,
//! restore, atomicity, and the bottleneck signatures the paper measures.

use std::sync::Arc;
use std::time::Duration;

use lwfs_checkpoint::{CkptReport, LwfsCheckpointer, PfsCheckpointer, PfsStyle};
use lwfs_core::{CapSet, ClusterConfig, LwfsClient, LwfsCluster};
use lwfs_pfs::{PfsCluster, PfsConfig};
use lwfs_portals::Group;
use lwfs_proto::{ContainerId, OpMask, ProcessId};

fn rank_state(rank: usize, epoch: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i as u64 * 31 + rank as u64 * 7 + epoch * 13) % 251) as u8).collect()
}

fn spmd_group(n: usize) -> Group {
    Group::new((0..n as u32).map(|i| ProcessId::new(i, 0)).collect())
}

/// MAIN() line 3 plus the scatter: rank 0 (already authenticated) acquires
/// the capabilities and shares them, and its credential, with every rank.
/// Credentials are fully transferable (§3.1.2), so every rank can BEGINTXN.
fn share_cred_and_caps(
    client: &mut LwfsClient,
    group: &Group,
    rank: usize,
    cid: ContainerId,
) -> CapSet {
    use lwfs_proto::{Credential, Decode as _, Encode as _};
    if rank == 0 {
        let caps = client.get_caps(cid, OpMask::CHECKPOINT | OpMask::READ).unwrap();
        let cred = client.current_cred().unwrap();
        client.broadcast(group, 0, 0, 2, Some(cred.to_bytes())).unwrap();
        client.scatter_caps(group, 0, 0, 1, Some(&caps)).unwrap()
    } else {
        let wire = client.broadcast(group, rank, 0, 2, None).unwrap();
        client.adopt_cred(Credential::from_bytes(wire).unwrap());
        client.scatter_caps(group, rank, 0, 1, None).unwrap()
    }
}

/// Run the Figure 8 flow across `n` rank threads on a fresh LWFS cluster.
fn run_lwfs_checkpoint(
    n: usize,
    servers: usize,
    state_len: usize,
) -> (Arc<LwfsCluster>, CkptReport) {
    let cluster = Arc::new(LwfsCluster::boot(ClusterConfig {
        storage_servers: servers,
        ..Default::default()
    }));

    // MAIN() lines 1–3 on rank 0, then scatter.
    let mut rank0 = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    rank0.get_cred(ticket).unwrap();
    let cid = rank0.create_container().unwrap();

    let group = spmd_group(n);
    let mut clients = vec![rank0];
    for r in 1..n {
        clients.push(cluster.client(r as u32, 0));
    }

    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(rank, mut client)| {
            let group = group.clone();
            std::thread::spawn(move || {
                let caps = share_cred_and_caps(&mut client, &group, rank, cid);
                let ck = LwfsCheckpointer::new(&client, group.clone(), rank, caps, "/ckpt/job");
                let state = rank_state(rank, 1, state_len);
                let report = ck.checkpoint(1, &state).unwrap();
                // Restore immediately and verify.
                let restored = ck.restore(1).unwrap();
                assert_eq!(restored, state, "rank {rank} restore mismatch");
                report
            })
        })
        .collect();

    let report =
        handles.into_iter().map(|h| h.join().unwrap()).fold(CkptReport::default(), CkptReport::max);
    (cluster, report)
}

#[test]
fn lwfs_checkpoint_and_restore_roundtrip() {
    let n = 6;
    let state_len = 64 * 1024;
    let (cluster, report) = run_lwfs_checkpoint(n, 3, state_len);
    assert_eq!(report.bytes, (n * state_len) as u64);
    assert!(report.create_secs >= 0.0 && report.dump_secs > 0.0);

    // The dataset is registered in the naming service.
    assert_eq!(cluster.namespace().len(), 1);
    // n data objects + 1 metadata object across the servers.
    let objects: usize = (0..3).map(|i| cluster.storage_server(i).store().object_count()).sum();
    assert_eq!(objects, n + 1);
}

#[test]
fn lwfs_checkpoint_creates_never_touch_a_central_metadata_server() {
    // The create path is distributed: object creates are spread across
    // storage servers, none funnels through a single service.
    let n = 8;
    let (cluster, _) = run_lwfs_checkpoint(n, 4, 4096);
    for i in 0..4 {
        let creates = cluster.storage_server(i).stats().creates.get();
        assert!(creates >= 2, "server {i} created {creates} objects; creates must be distributed");
    }
}

#[test]
fn lwfs_multiple_epochs_coexist() {
    let cluster = LwfsCluster::boot(ClusterConfig { storage_servers: 2, ..Default::default() });
    let mut client = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
    let cid = client.create_container().unwrap();
    let caps: CapSet = client.get_caps(cid, OpMask::CHECKPOINT | OpMask::READ).unwrap();

    let group = spmd_group(1);
    let ck = LwfsCheckpointer::new(&client, group, 0, caps, "/ckpt/solo");
    for epoch in 1..=3u64 {
        let state = rank_state(0, epoch, 8 * 1024);
        ck.checkpoint(epoch, &state).unwrap();
    }
    assert_eq!(ck.list().unwrap().len(), 3);
    // Each epoch restores its own contents.
    for epoch in 1..=3u64 {
        assert_eq!(ck.restore(epoch).unwrap(), rank_state(0, epoch, 8 * 1024));
    }
}

/// Run `f(rank, t)` on one thread per rank and hand the results back in
/// rank order; a rank that panics fails the caller at the join.
fn per_rank<T: Send, U: Send>(ranks: Vec<T>, f: impl Fn(usize, T) -> U + Sync) -> Vec<U> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> =
            ranks.into_iter().enumerate().map(|(rank, t)| s.spawn(move || f(rank, t))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn replicated_epochs_commit_before_and_after_a_primary_crash() {
    // Two groups of two: `server` arguments name groups, and a 2PC must
    // name each group's *current primary* — not `storage[rank % 4]`, which
    // is a backup for rank 1 and, after the crash below, a dead process
    // for rank 0.
    const RANKS: usize = 2;
    const LEN: usize = 96 * 1024;
    let mut cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 2,
        replication: 2,
        ..Default::default()
    });
    let mut rank0 = cluster.client(0, 0);
    rank0.get_cred(cluster.kdc().kinit("app", "secret").unwrap()).unwrap();
    let cid = rank0.create_container().unwrap();
    let mut clients = vec![rank0];
    clients.extend((1..RANKS).map(|r| cluster.client(r as u32, 0)));

    let group = spmd_group(RANKS);
    let ranks = per_rank(clients, |rank, mut client| {
        let caps = share_cred_and_caps(&mut client, &group, rank, cid);
        (client, caps)
    });
    // One epoch on every rank, then every epoch so far restored byte-exact.
    // The rank threads are joined between epochs so the crash lands
    // strictly between two of them.
    let run_epoch = |ranks: Vec<(LwfsClient, CapSet)>, epoch: u64| {
        per_rank(ranks, |rank, (client, caps)| {
            let ck = LwfsCheckpointer::new(&client, group.clone(), rank, caps.clone(), "/ckpt/r");
            ck.checkpoint(epoch, &rank_state(rank, epoch, LEN)).unwrap();
            for e in 1..=epoch {
                assert_eq!(ck.restore(e).unwrap(), rank_state(rank, e, LEN), "rank {rank} @{e}");
            }
            (client, caps)
        })
    };
    let ranks = run_epoch(ranks, 1);
    // Kill group 0's primary. The next epoch's own writes fail over and
    // refresh the map, so its commit names the promoted backup.
    cluster.crash_storage(0);
    run_epoch(ranks, 2);
    assert_eq!(cluster.namespace().len(), 2, "both epochs are named");
}

fn boot_pfs(osts: usize) -> PfsCluster {
    PfsCluster::boot(PfsConfig {
        lwfs: ClusterConfig { storage_servers: osts, ..Default::default() },
        mds_create_service: Duration::from_micros(200),
        mds_open_service: Duration::from_micros(20),
    })
}

fn run_pfs_checkpoint(
    style: PfsStyle,
    n: usize,
    osts: usize,
    state_len: usize,
) -> (Arc<PfsCluster>, CkptReport) {
    let cluster = Arc::new(boot_pfs(osts));
    let group = spmd_group(n);
    // Register every rank's endpoint before any thread runs: a collective
    // may otherwise race a peer that has not joined the fabric yet.
    let clients: Vec<_> = (0..n).map(|rank| cluster.client(rank as u32, 0)).collect();
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(rank, client)| {
            let cluster = Arc::clone(&cluster);
            let group = group.clone();
            std::thread::spawn(move || {
                let _ = &cluster;
                let ck = PfsCheckpointer::new(
                    &client,
                    group.clone(),
                    rank,
                    style,
                    "/ckpt/pfs",
                    osts as u32,
                    64 * 1024,
                );
                let state = rank_state(rank, 1, state_len);
                let report = ck.checkpoint(1, &state).unwrap();
                let restored = ck.restore(1, state.len()).unwrap();
                assert_eq!(restored, state, "rank {rank} restore mismatch");
                report
            })
        })
        .collect();
    let report =
        handles.into_iter().map(|h| h.join().unwrap()).fold(CkptReport::default(), CkptReport::max);
    (cluster, report)
}

#[test]
fn pfs_file_per_process_roundtrip_and_mds_bottleneck() {
    let n = 5;
    let (cluster, report) = run_pfs_checkpoint(PfsStyle::FilePerProcess, n, 2, 32 * 1024);
    assert_eq!(report.bytes, (n * 32 * 1024) as u64);
    // Every create went through the MDS.
    assert_eq!(cluster.mds_stats().creates.load(std::sync::atomic::Ordering::Relaxed), n as u64);
}

#[test]
fn pfs_shared_file_roundtrip_and_lock_contention() {
    let n = 4;
    let osts = 2;
    let (cluster, report) = run_pfs_checkpoint(PfsStyle::SharedFile, n, osts, 128 * 1024);
    assert_eq!(report.bytes, (n * 128 * 1024) as u64);
    // Exactly one file create despite n ranks.
    assert_eq!(cluster.mds_stats().creates.load(std::sync::atomic::Ordering::Relaxed), 1);
    // The expanded extent locks were exercised.
    let total_granted: u64 = (0..osts).map(|i| cluster.dlm_table(i).contention().0).sum();
    assert!(total_granted >= n as u64, "locks granted: {total_granted}");
}

#[test]
fn all_three_implementations_produce_identical_restores() {
    // The correctness baseline behind the performance comparison: same
    // state in, same state out, for every implementation.
    let n = 3;
    let state_len = 16 * 1024;

    let (_c1, _r) = run_lwfs_checkpoint(n, 2, state_len);
    let (_c2, _r) = run_pfs_checkpoint(PfsStyle::FilePerProcess, n, 2, state_len);
    let (_c3, _r) = run_pfs_checkpoint(PfsStyle::SharedFile, n, 2, state_len);
    // The per-rank assertions inside the runners already verified
    // byte-exact restores; reaching here without panic is the test.
}

#[test]
fn latest_epoch_and_retention_sweep() {
    let cluster = LwfsCluster::boot(ClusterConfig { storage_servers: 2, ..Default::default() });
    let mut client = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::CHECKPOINT | OpMask::READ | OpMask::REMOVE).unwrap();

    let ck = LwfsCheckpointer::new(&client, spmd_group(1), 0, caps, "/ckpt/gc");
    assert_eq!(ck.latest_epoch().unwrap(), None);

    for epoch in 1..=5u64 {
        ck.checkpoint(epoch, &rank_state(0, epoch, 4096)).unwrap();
    }
    assert_eq!(ck.latest_epoch().unwrap(), Some(5));
    // 5 data + 5 metadata objects across the servers.
    let objects = |cluster: &LwfsCluster| -> usize {
        (0..2).map(|i| cluster.storage_server(i).store().object_count()).sum()
    };
    assert_eq!(objects(&cluster), 10);

    // Keep the newest two; epochs 1..3 vanish — names AND objects.
    let removed = ck.retain_latest(2).unwrap();
    assert_eq!(removed, vec![1, 2, 3]);
    assert_eq!(ck.list().unwrap(), vec!["/ckpt/gc/000004", "/ckpt/gc/000005"]);
    assert_eq!(objects(&cluster), 4);

    // The survivors still restore byte-exactly.
    assert_eq!(ck.restore(4).unwrap(), rank_state(0, 4, 4096));
    assert_eq!(ck.restore(5).unwrap(), rank_state(0, 5, 4096));
    assert_eq!(ck.latest_epoch().unwrap(), Some(5));

    // Retaining more than exist is a no-op.
    assert!(ck.retain_latest(10).unwrap().is_empty());
}
