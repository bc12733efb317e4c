//! Cluster-wide causal tracing, end to end: wire-propagated trace
//! contexts, per-node span invariants, and the control-plane event
//! journal.
//!
//! The properties here are the contract the tracing subsystem sells:
//!
//! 1. one acknowledged mutation = one trace, with exactly one `total`
//!    span per participating node,
//! 2. each node's stage decomposition accounts for no more than its own
//!    end-to-end span,
//! 3. a backup's `ReplShip` spans carry the *originating* client's
//!    `trace_id` (propagated, never re-derived), and
//! 4. control-plane transitions land in the journal in causal order —
//!    eviction before republish, promotion when the primary dies.
//!
//! Alongside them, `storage.queue_depth` is checked to count the requests
//! waiting for a storage worker, and a telemetry scrape is checked to be
//! answered while every storage worker is stalled.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lwfs::obs::{SpanRecord, Trace, TraceCollector, TOTAL_STAGE};
use lwfs::portals::FaultPlan;
use lwfs::prelude::*;
use proptest::{prop_assert, prop_assert_eq, proptest};

/// Ops recorded as annotations *inside* another op's stage intervals
/// (`wal.append`/`wal.fsync` under `wal_append`, `repl.ship` around the
/// backup round trip, `authz.verify_through` inside `authorize`). They
/// carry no `total` and overlap their parent's stages.
const ANNOTATION_OPS: &[&str] = &["wal", "repl", "authz"];

fn login(cluster: &LwfsCluster, client: &mut LwfsClient) {
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
}

/// Traces that contain a client-side mutation span — the acked-mutation
/// traces invariants 1–3 quantify over.
fn mutation_traces(spans: &[SpanRecord]) -> Vec<Trace> {
    let mut collector = TraceCollector::new();
    collector.add_spans(spans.iter().cloned());
    collector
        .traces()
        .into_iter()
        .filter(|t| t.spans.iter().any(|s| s.op == "client.mutate"))
        .collect()
}

/// A server finishes a request's trace moments *after* its reply is on
/// the wire, so the span log can catch the tail mutation still closing.
/// Poll until every mutation trace has a `total` on each node it
/// touched (bounded; the close is prompt).
fn settled_spans(cluster: &LwfsCluster) -> Vec<SpanRecord> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let spans = cluster.network().obs().spans().recent(usize::MAX);
        let settled = mutation_traces(&spans).iter().all(|t| {
            t.nodes()
                .into_iter()
                .all(|nid| t.spans.iter().any(|s| s.nid == nid && s.stage == TOTAL_STAGE))
        });
        if settled || Instant::now() > deadline {
            return spans;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

proptest! {
    /// Random mutation workloads on a healthy replicated group: every
    /// acked mutation forms one trace spanning client, primary, and
    /// backup, with exactly one `total` per node, per-node stage sums
    /// within that `total`, and ship spans referencing the originating
    /// trace.
    #[test]
    fn mutation_traces_span_every_replica_exactly_once(
        ops in proptest::collection::vec((0usize..3, 1usize..96), 1..5),
    ) {
        let cluster = LwfsCluster::boot(ClusterConfig {
            storage_servers: 1,
            replication: 2,
            ..Default::default()
        });
        let mut client = cluster.client(0, 0);
        login(&cluster, &mut client);
        let cid = client.create_container().unwrap();
        let caps = client.get_caps(cid, OpMask::ALL).unwrap();

        let mut objs: Vec<ObjId> = Vec::new();
        let mut acked = 0usize;
        for &(kind, size_kib) in &ops {
            match kind {
                // A removal consumes an object when one exists, else
                // falls through to a create.
                0 if !objs.is_empty() => {
                    let obj = objs.remove(objs.len() / 2);
                    client.remove_obj(0, &caps, None, obj).unwrap();
                    acked += 1;
                }
                1 if !objs.is_empty() => {
                    let obj = objs[objs.len() / 2];
                    let payload = vec![0x5Au8; size_kib * 1024];
                    client.write(0, &caps, None, obj, 0, &payload).unwrap();
                    acked += 1;
                }
                _ => {
                    objs.push(client.create_obj(0, &caps, None, None).unwrap());
                    acked += 1;
                }
            }
        }

        let spans = settled_spans(&cluster);
        let traces = mutation_traces(&spans);
        prop_assert_eq!(traces.len(), acked, "one trace per acked mutation");

        for t in &traces {
            // Invariant 1: client (nid 0), primary (1100), backup (1101)
            // each contributed, and each closed exactly one total.
            prop_assert_eq!(
                t.nodes(),
                vec![0u32, 1100, 1101],
                "trace {:#x} must span client, primary, and backup", t.trace_id
            );
            for nid in t.nodes() {
                let totals =
                    t.spans.iter().filter(|s| s.nid == nid && s.stage == TOTAL_STAGE).count();
                prop_assert_eq!(
                    totals, 1,
                    "trace {:#x}: node {} closed {} totals", t.trace_id, nid, totals
                );
            }

            // Invariant 2: per (node, op), stages stay within the total.
            let mut per_node: BTreeMap<(u32, &str), (u64, u64)> = BTreeMap::new();
            for s in t.spans.iter().filter(|s| !ANNOTATION_OPS.contains(&s.op)) {
                let e = per_node.entry((s.nid, s.op)).or_default();
                if s.stage == TOTAL_STAGE {
                    e.1 += s.dur_ns;
                } else {
                    e.0 += s.dur_ns;
                }
            }
            for ((nid, op), (stages, total)) in per_node {
                prop_assert!(
                    stages <= total,
                    "trace {:#x}: {op} on node {nid} stages {stages}ns > total {total}ns",
                    t.trace_id
                );
            }

            // Invariant 3: the backup's ship application rides the
            // originating trace — its spans carry the client's trace_id
            // but their own (distinct) request id.
            let ships: Vec<_> =
                t.spans.iter().filter(|s| s.op == "storage.repl_ship").collect();
            prop_assert!(!ships.is_empty(), "trace {:#x}: mutation never shipped", t.trace_id);
            for s in &ships {
                prop_assert_eq!(s.trace_id, t.trace_id);
                prop_assert!(
                    s.req_id != t.trace_id,
                    "ship req {:#x} must be a child request, not the trace root", s.req_id
                );
            }
        }

        // Annotation spans never stand alone: each belongs to one of the
        // mutation traces above.
        for s in spans.iter().filter(|s| ANNOTATION_OPS.contains(&s.op)) {
            prop_assert!(
                traces.iter().any(|t| t.trace_id == s.trace_id),
                "annotation {}.{} carries unknown trace {:#x}", s.op, s.stage, s.trace_id
            );
        }
    }
}

#[test]
fn event_journal_records_eviction_republish_and_promotion_in_order() {
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
    client.write(0, &caps, None, obj, 0, b"healthy write").unwrap();

    // Partition the junior backup; the next write evicts it at the ship
    // deadline and the directory republishes the shrunken map.
    let stale = cluster.addrs().storage[2];
    let mut plan = FaultPlan::default();
    plan.partitioned.insert(stale.nid);
    cluster.network().set_faults(plan);
    client.write(0, &caps, None, obj, 0, b"evicting write").unwrap();
    cluster.network().heal();

    // Kill the primary: the control plane promotes the surviving backup.
    cluster.crash_storage(0);
    assert_eq!(client.read(0, &caps, obj, 0, 14).unwrap(), b"evicting write");

    let journal = cluster.network().obs().events();
    let evict = journal.of_kind("repl.evict_backup");
    let republish = journal.of_kind("directory.republish");
    let promote = journal.of_kind("failover.promote");

    // The eviction is journaled by the primary (its decision), the
    // republish and promotion by the directory (where they become
    // visible).
    assert_eq!(evict.len(), 1, "exactly one eviction: {evict:?}");
    assert_eq!(evict[0].nid, 1100);
    assert!(evict[0].detail.contains(&format!("{stale}")), "eviction names the backup");
    assert_eq!(republish.len(), 1, "exactly one republish: {republish:?}");
    assert_eq!(republish[0].nid, 1004);
    assert_eq!(promote.len(), 1, "exactly one promotion: {promote:?}");
    assert_eq!(promote[0].nid, 1004);
    assert!(promote[0].detail.contains("promoting"), "promotion names the winner");

    // Causal order: the primary decided the eviction before the
    // directory republished, and the promotion came after both.
    assert!(evict[0].seq < republish[0].seq, "eviction must precede its republish");
    assert!(republish[0].seq < promote[0].seq, "promotion happened last");

    // The promoted survivor journals its epoch bump when it takes over.
    let bumps = journal.of_kind("repl.epoch_bump");
    assert!(
        bumps.iter().any(|e| e.nid == 1101 && e.detail.contains("promoted to primary")),
        "promoted backup must journal its epoch bump: {bumps:?}"
    );
}

#[test]
fn wal_recovery_is_journaled_on_restart() {
    let dir = std::env::temp_dir().join(format!("lwfs-trace-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        storage: lwfs::storage::StorageConfig {
            wal: Some(WalConfig::new(&dir)),
            ..Default::default()
        },
        ..Default::default()
    });
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"durable").unwrap();

    // A fresh boot replays nothing and journals nothing.
    assert!(cluster.network().obs().events().of_kind("wal.recovery").is_empty());

    cluster.crash_storage(0);
    cluster.restart_storage(0);
    let recovery = cluster.network().obs().events().of_kind("wal.recovery");
    assert_eq!(recovery.len(), 1, "one restart, one recovery event: {recovery:?}");
    assert_eq!(recovery[0].nid, 1100);
    assert!(
        recovery[0].detail.contains("objects restored"),
        "recovery detail summarizes the replay: {:?}",
        recovery[0].detail
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_depth_counts_requests_waiting_for_a_worker() {
    // One worker on the primary, stalled shipping to a partitioned backup:
    // requests sent meanwhile wait for that worker, and the gauge counts
    // them until the stall ends.
    let cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        replication: 2,
        ship_deadline: Some(Duration::from_secs(1)),
        storage: lwfs::storage::StorageConfig { workers: 1, ..Default::default() },
        ..Default::default()
    });
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"healthy write").unwrap();
    let obs = cluster.network().obs();
    let depth = obs.gauge("storage.queue_depth");
    assert_eq!(depth.get(), 0, "nothing waits at rest");

    let mut plan = FaultPlan::default();
    plan.partitioned.insert(cluster.addrs().storage[1].nid);
    cluster.network().set_faults(plan);
    let (held, stalled_meanwhile) = std::thread::scope(|s| {
        let stalled = s.spawn(|| client.write(0, &caps, None, obj, 0, b"stalled write"));
        let in_flight = obs.gauge("storage.in_flight");
        while in_flight.get() == 0 {
            std::thread::yield_now();
        }
        let waiters: Vec<_> = (0..3)
            .map(|i| {
                let (cluster, caps) = (&cluster, &caps);
                s.spawn(move || cluster.client(10 + i, 0).getattr(0, caps, obj))
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while depth.get() < 3 && !stalled.is_finished() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        // Held, not a transient: the three wait as long as the worker does.
        std::thread::sleep(Duration::from_millis(50));
        let held = (depth.get(), !stalled.is_finished());
        stalled.join().unwrap().unwrap();
        for w in waiters {
            w.join().unwrap().unwrap();
        }
        held
    });
    cluster.network().heal();
    assert!(stalled_meanwhile, "the ship stall ended before the gauge was read");
    assert_eq!(held, 3, "three requests wait behind the stalled worker");
    assert_eq!(depth.get(), 0, "the queue drains once the stall ends");
}

#[test]
fn a_scrape_is_answered_while_every_worker_is_stalled() {
    use lwfs::portals::RpcClient;
    use lwfs::proto::{ProcessId, ReplyBody, RequestBody};

    // The same stall as above: the primary's one worker ships to a
    // partitioned backup for up to a second. A monitor must still read the
    // node meanwhile — a scrape that queued behind the stalled write would
    // lose its window at the moment the cluster degrades.
    let cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        replication: 2,
        ship_deadline: Some(Duration::from_secs(1)),
        storage: lwfs::storage::StorageConfig { workers: 1, ..Default::default() },
        ..Default::default()
    });
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"healthy write").unwrap();
    let (primary, backup) = (cluster.addrs().storage[0], cluster.addrs().storage[1]);
    let scraper_ep = cluster.network().register(ProcessId::new(77, 0));
    let scraper = RpcClient::new(&scraper_ep);

    let mut plan = FaultPlan::default();
    plan.partitioned.insert(backup.nid);
    cluster.network().set_faults(plan);
    let (scraped_in, stalled_meanwhile) = std::thread::scope(|s| {
        let stalled = s.spawn(|| client.write(0, &caps, None, obj, 0, b"stalled write"));
        let in_flight = cluster.network().obs().gauge("storage.in_flight");
        while in_flight.get() == 0 {
            std::thread::yield_now();
        }
        let start = Instant::now();
        let reply = scraper.call(primary, RequestBody::GetTelemetry { events_from: 0 }).unwrap();
        let scraped_in = start.elapsed();
        assert!(matches!(reply, ReplyBody::Telemetry(_)), "{reply:?}");
        let stalled_meanwhile = !stalled.is_finished();
        stalled.join().unwrap().unwrap();
        (scraped_in, stalled_meanwhile)
    });
    cluster.network().heal();
    assert!(stalled_meanwhile, "the ship stall ended before the scrape was answered");
    assert!(
        scraped_in < Duration::from_millis(50),
        "the scrape took {scraped_in:?} while the only worker was stalled"
    );
}
