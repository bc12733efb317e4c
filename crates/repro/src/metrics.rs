//! The metrics probe (`lwfs-repro probe metrics`).
//!
//! The paper's figures come from the simulator, which has no live metric
//! registry. This probe boots a small replicated LWFS cluster on the
//! functional plane, drives a representative mix through every
//! instrumented subsystem (server-directed writes and reads, a committed
//! and an aborted two-phase commit, naming ops, capability verification,
//! a ship-deadline eviction, a primary failover), and dumps the fabric
//! registry — counters, gauges, latency histograms, per-request stage
//! spans, and the control-plane event journal — as JSON. With a trace
//! path it additionally assembles the span log into distributed traces
//! and writes Chrome `trace_event` JSON loadable in Perfetto /
//! `about:tracing`.
//!
//! The probe is also the acceptance harness for the tracing pipeline:
//! it asserts that one replicated write produced spans from the client,
//! the primary (WAL append/fsync, one ship per backup), and the backup
//! (apply) under a single propagated `trace_id`, and that the induced
//! eviction was journaled *before* the directory republished the map.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use lwfs_core::{ClusterConfig, LwfsCluster, TransportKind};
use lwfs_obs::json::Json;
use lwfs_obs::{Snapshot, TraceCollector, TOTAL_STAGE};
use lwfs_portals::FaultPlan;
use lwfs_proto::OpMask;
use lwfs_storage::StorageConfig;
use lwfs_wal::WalConfig;

use crate::write_file;

/// The JSON `meta` object stamped onto every probe artifact: wall-clock
/// run timestamp, wire protocol version, and whatever census pairs the
/// caller adds (storage-server count, endpoint count) — enough to tell
/// two archived artifacts apart without external context.
pub(crate) fn artifact_meta(census: &[(&str, u64)]) -> Json {
    let unix_ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let version = u64::from(lwfs_proto::PROTOCOL_VERSION);
    let mut meta = vec![("unix_ts", unix_ts.into()), ("protocol_version", version.into())];
    meta.extend(census.iter().map(|&(k, v)| (k, v.into())));
    Json::obj(meta)
}

/// Boot a two-group replicated cluster, exercise every instrumented
/// subsystem, and return the registry snapshot — written to `metrics` as
/// registry JSON and to `trace` as Chrome `trace_event` JSON when given.
///
/// # Panics
/// Panics when any driven operation fails or when the tracing pipeline's
/// acceptance invariants do not hold: the probe cluster lives entirely
/// inside this process (over loopback sockets under `Tcp`), so a failure
/// is a bug, not an environmental condition.
pub fn run_metrics_probe(
    transport: TransportKind,
    metrics: Option<&Path>,
    trace: Option<&Path>,
) -> std::io::Result<Snapshot> {
    const SERVERS: usize = 2;
    // Unique WAL root per probe run: tests run probes concurrently in one
    // process, and two servers replaying each other's logs would corrupt
    // both runs.
    static PROBE_SEQ: AtomicUsize = AtomicUsize::new(0);
    let wal_root = std::env::temp_dir().join(format!(
        "lwfs-probe-wal-{}-{}",
        std::process::id(),
        PROBE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&wal_root);

    // Two replication groups of two members each: the probe exercises the
    // log-shipping path on every mutation, so the snapshot carries the
    // replication gauges (`storage.repl_lag`, `storage.failovers`) too.
    // The WAL makes the durability stages (`wal.append`, `wal.fsync`)
    // visible in every mutation's trace; the short ship deadline lets the
    // probe evict a partitioned backup quickly. It must still leave
    // headroom over scheduler noise: the deadline applies to *every*
    // ship, and with the whole test suite running in parallel a >100ms
    // stall on a healthy backup's ship path would evict it spuriously —
    // leaving no survivor to promote when the crash below kills the
    // primary, and the flush reads against a lost group never succeed.
    let mut cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: SERVERS,
        replication: 2,
        ship_deadline: Some(std::time::Duration::from_millis(1000)),
        storage: StorageConfig { wal: Some(WalConfig::new(&wal_root)), ..Default::default() },
        transport,
        ..Default::default()
    });
    let mut client = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").expect("probe user registered at boot");
    client.get_cred(ticket).expect("get_cred");
    let cid = client.create_container().expect("create_container");
    let caps = client.get_caps(cid, OpMask::ALL).expect("get_caps");

    // Server-directed writes and reads on every server. 640 KiB spans
    // multiple default-size chunks, so the write trace shows repeated
    // pull/store_write span pairs crossing the pinned pool.
    let payload = vec![0xA5u8; 640 * 1024];
    for server in 0..SERVERS {
        let obj = client.create_obj(server, &caps, None, None).expect("create_obj");
        let n = client.write(server, &caps, None, obj, 0, &payload).expect("write");
        assert_eq!(n, payload.len() as u64);
        let back = client.read(server, &caps, obj, 0, payload.len()).expect("read");
        assert_eq!(back.len(), payload.len());
    }

    // A committed two-phase commit spanning both storage servers and the
    // naming service (the Figure 8 checkpoint pattern).
    let txn = client.txn_begin().expect("txn_begin");
    let mut participants = Vec::new();
    for server in 0..SERVERS {
        let obj = client.create_obj(server, &caps, Some(txn), None).expect("txn create_obj");
        if server == 0 {
            client.name_create(Some(txn), "/probe/ckpt", cid, obj).expect("name_create");
        }
        participants.push(client.txn_participant(server).expect("group has a primary"));
    }
    participants.push(cluster.addrs().naming);
    let outcome = client.txn_commit(txn, participants).expect("txn_commit");
    assert!(outcome.is_committed(), "probe txn must commit: {outcome:?}");

    // An aborted transaction, so abort metrics are populated too.
    let txn = client.txn_begin().expect("txn_begin 2");
    let _ = client.create_obj(0, &caps, Some(txn), None).expect("txn create_obj 2");
    client.txn_abort(txn, vec![cluster.addrs().storage[0]]).expect("txn_abort");

    // Naming reads.
    client.name_lookup("/probe/ckpt").expect("name_lookup");
    client.name_list("/probe").expect("name_list");

    // Partition group 1's backup; the next write to the group misses its
    // ship deadline there, evicts the member, and reports the drop to the
    // directory — the journal must show the eviction *before* the
    // republish that makes it visible.
    let stale = cluster.addrs().storage[3];
    let mut plan = FaultPlan::default();
    plan.partitioned.insert(stale.nid);
    cluster.network().set_faults(plan);
    let obj = client.create_obj(1, &caps, None, None).expect("create_obj for eviction");
    client.write(1, &caps, None, obj, 0, b"ships past the dead backup").expect("eviction write");
    cluster.network().heal();

    // Kill group 0's primary so the failover path (promotion, client
    // retry, `storage.failovers`, the `failover.promote` journal entry)
    // is represented in the snapshot; the flush reads below run against
    // the promoted backup.
    cluster.crash_storage(0);

    // Flush: a storage server closes a request's trace *after* sending
    // its reply, so drive one more op through each server — its reply
    // proves every earlier trace on that server is finished. (The flush
    // ops themselves may still be open in the sampled span log.) The
    // group-0 flush races the promotion triggered by the crash above:
    // under a loaded scheduler (the whole test suite in parallel) the
    // client's failover deadline can expire before the backup finishes
    // promoting, so tolerate `RetriesExhausted` for a bounded period
    // instead of treating the first exhausted deadline as fatal.
    for server in 0..SERVERS {
        let flush_deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            match client.list_objs(server, &caps) {
                Ok(_) => break,
                Err(lwfs_proto::Error::RetriesExhausted)
                    if std::time::Instant::now() < flush_deadline =>
                {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(e) => panic!("flush list_objs on group {server}: {e}"),
            }
        }
    }
    let snap = cluster.network().obs().snapshot();
    assert_replicated_write_traced(&snap);
    assert_eviction_journaled(&snap);

    if let Some(path) = metrics {
        let meta = artifact_meta(&[
            ("storage_servers", (SERVERS * 2) as u64),
            ("endpoints", cluster.network().endpoint_count() as u64),
        ]);
        write_file(path, &format!("{}\n", snap.to_json(meta)))?;
    }
    if let Some(path) = trace {
        let mut collector = TraceCollector::new();
        collector.add_spans(snap.spans.iter().cloned());
        write_file(path, &format!("{}\n", collector.to_chrome_json()))?;
    }
    drop(cluster);
    let _ = std::fs::remove_dir_all(&wal_root);
    Ok(snap)
}

/// Acceptance invariant: at least one replicated write was traced end to
/// end — the client's span, the primary's write (with its WAL append and
/// fsync and one ship per backup), and the backup's apply all share one
/// wire-propagated `trace_id` across three distinct nodes.
fn assert_replicated_write_traced(snap: &Snapshot) {
    let mut collector = TraceCollector::new();
    collector.add_spans(snap.spans.iter().cloned());
    let traced = collector.traces().into_iter().any(|t| {
        let has = |op: &str, stage: &str| t.spans.iter().any(|s| s.op == op && s.stage == stage);
        has("client.mutate", TOTAL_STAGE)
            && has("storage.write", TOTAL_STAGE)
            && has("wal", "append")
            && has("wal", "fsync")
            && has("repl", "ship")
            && has("storage.repl_ship", "apply")
            && t.nodes().len() >= 3
    });
    assert!(
        traced,
        "no trace carries a replicated write end to end \
         (client + primary wal/ship + backup apply on >= 3 nodes)"
    );
}

/// Acceptance invariant: the induced ship-deadline eviction reached the
/// journal, and did so *before* the directory republished the shrunken
/// map — the order a post-mortem relies on.
fn assert_eviction_journaled(snap: &Snapshot) {
    let evict = snap.events_of_kind("repl.evict_backup");
    let republish = snap.events_of_kind("directory.republish");
    assert!(!evict.is_empty(), "ship-deadline eviction missing from the event journal");
    assert!(!republish.is_empty(), "directory republish missing from the event journal");
    assert!(
        evict[0].seq < republish[0].seq,
        "journal order inverted: republish (seq {}) before eviction (seq {})",
        republish[0].seq,
        evict[0].seq
    );
    assert!(
        !snap.events_of_kind("failover.promote").is_empty(),
        "primary failover missing from the event journal"
    );
}
