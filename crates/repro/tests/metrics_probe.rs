//! Integration test for the metrics probe (`lwfs-repro probe metrics`): the
//! registry snapshot must carry every instrumented subsystem, the stage
//! decomposition of each traced request must account for no more than
//! its end-to-end latency, and the trace export must assemble a
//! replicated write across nodes.

use std::collections::BTreeMap;

use lwfs_core::TransportKind;
use lwfs_obs::{TraceCollector, TOTAL_STAGE};
use lwfs_repro::run_metrics_probe;

/// Ops recorded as *annotations inside* another op's stage intervals
/// (`wal.append` under `storage.write.wal_append`, `repl.ship` around
/// the backup round trip, `authz.verify_through` inside `authorize`).
/// They carry no `total` of their own and overlap their parent's
/// stages, so the per-request stage accounting must skip them.
const ANNOTATION_OPS: &[&str] = &["wal", "repl", "authz"];

#[test]
fn snapshot_covers_every_instrumented_subsystem() {
    let snap = run_metrics_probe(TransportKind::InProcess, None, None).unwrap();

    // Storage: queue/buffer gauges exist (drained back to zero by the
    // time we sample) and the data-path counters moved.
    assert_eq!(snap.gauge("storage.queue_depth"), Some(0));
    assert_eq!(snap.gauge("storage.pool_in_use"), Some(0));
    assert!(snap.counter("storage.writes").unwrap() >= 2);
    assert!(snap.counter("storage.reads").unwrap() >= 2);
    assert!(snap.counter("storage.bytes_pulled").unwrap() >= 2 * 640 * 1024);

    // Authorization: the cap cache missed cold, hit warm, and verified
    // through to the authz server.
    assert!(snap.counter("authz.cache.hits").unwrap() >= 1);
    assert!(snap.counter("authz.cache.misses").unwrap() >= 1);
    assert!(snap.counter("authz.cache.verify_through").unwrap() >= 1);

    // Transactions: one committed and one aborted 2PC, with both phase
    // latencies recorded.
    assert_eq!(snap.counter("txn.commits"), Some(1));
    assert_eq!(snap.counter("txn.aborts"), Some(1));
    assert_eq!(snap.histogram("txn.prepare_ns").unwrap().count, 1);
    assert_eq!(snap.histogram("txn.commit_ns").unwrap().count, 1);
    assert_eq!(snap.histogram("txn.abort_ns").unwrap().count, 1);

    // Naming and the message fabric.
    assert!(snap.counter("naming.ops").unwrap() >= 4);
    assert!(snap.counter("portals.messages").unwrap() > 0);
    assert!(snap.counter("portals.gets").unwrap() > 0);

    // The write path decomposed into stages, including the WAL the probe
    // cluster now runs with.
    for h in [
        "storage.write.queue_wait_ns",
        "storage.write.authorize_ns",
        "storage.write.pull_ns",
        "storage.write.store_write_ns",
        "storage.write.reply_ns",
        "storage.write.total_ns",
        "wal.append_ns",
    ] {
        assert!(snap.histogram(h).unwrap().count > 0, "missing {h}");
    }

    // The control-plane journal recorded the probe's induced faults.
    assert!(!snap.events_of_kind("repl.evict_backup").is_empty());
    assert!(!snap.events_of_kind("failover.promote").is_empty());

    // JSON export round-trips the same names, plus the journal.
    let json = snap.to_json();
    for key in ["storage.queue_depth", "authz.cache.hits", "txn.prepare_ns", "portals.messages"] {
        assert!(json.contains(key), "JSON export missing {key}");
    }
    assert!(json.contains("failover.promote"), "JSON export missing the event journal");
}

#[test]
fn stage_latencies_sum_to_at_most_end_to_end() {
    let snap = run_metrics_probe(TransportKind::InProcess, None, None).unwrap();
    assert!(!snap.spans.is_empty());

    // Group the span log by traced request; compare the sum of its stage
    // durations against its end-to-end `total` spans. A retried request
    // reuses its `req_id` by design (that is what makes server-side dedup
    // work), so one `(req_id, op)` may execute more than once — each
    // execution records a `total`, and the stage sum must stay within
    // their sum. Annotation spans overlap the stages that contain them
    // and are accounted separately below.
    let mut per_req: BTreeMap<(u64, &str), (u64, u64, usize)> = BTreeMap::new();
    for s in snap.spans.iter().filter(|s| !ANNOTATION_OPS.contains(&s.op)) {
        let e = per_req.entry((s.req_id, s.op)).or_default();
        if s.stage == TOTAL_STAGE {
            e.1 += s.dur_ns;
            e.2 += 1;
        } else {
            e.0 += s.dur_ns;
        }
    }

    let mut checked = 0usize;
    let mut in_flight = 0usize;
    for ((req_id, op), (stage_sum, total_sum, totals)) in per_req {
        // A request whose reply the probe saw can still be closing its
        // trace on the server thread; the probe's flush round bounds
        // these to the final op per server.
        if totals == 0 {
            in_flight += 1;
            continue;
        }
        assert!(
            stage_sum <= total_sum,
            "trace {req_id:#x}/{op}: stage sum {stage_sum}ns exceeds end-to-end {total_sum}ns \
             over {totals} execution(s)"
        );
        checked += 1;
    }
    assert!(in_flight <= 2, "{in_flight} traces still open after the flush round");
    // Storage ops on two servers, the txn coordinator, and naming all
    // trace; expect a healthy number of decomposed requests.
    assert!(checked >= 10, "only {checked} traced requests");

    // Annotation spans ride inside a request, recorded *before* its
    // total closes — so each must reference a (req_id, nid) that either
    // recorded a total or is one of the few requests still in flight at
    // snapshot time (the same allowance as above).
    let closed: std::collections::BTreeSet<(u64, u32)> =
        snap.spans.iter().filter(|s| s.stage == TOTAL_STAGE).map(|s| (s.req_id, s.nid)).collect();
    let dangling: std::collections::BTreeSet<(u64, u32)> = snap
        .spans
        .iter()
        .filter(|s| ANNOTATION_OPS.contains(&s.op) && !closed.contains(&(s.req_id, s.nid)))
        .map(|s| (s.req_id, s.nid))
        .collect();
    assert!(
        dangling.len() <= 2,
        "{} annotated requests never closed their trace: {dangling:x?}",
        dangling.len()
    );
}

#[test]
fn trace_export_assembles_a_replicated_write() {
    let dir = std::env::temp_dir().join(format!("lwfs-trace-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trace_path = dir.join("probe_trace.json");
    let snap = run_metrics_probe(TransportKind::InProcess, None, Some(&trace_path)).unwrap();

    // The exported file is the Chrome trace_event envelope with spans
    // from the client and both storage roles.
    let json = std::fs::read_to_string(&trace_path).unwrap();
    assert!(json.starts_with("{\"traceEvents\": ["));
    for name in [
        "client.mutate.send",
        "storage.write.pull",
        "wal.append",
        "repl.ship",
        "storage.repl_ship.apply",
    ] {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "export missing {name}");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    // Reassemble from the snapshot: some trace must span the client and
    // at least two storage nodes (primary + backup) under one trace_id,
    // and its client total must dominate every span it contains.
    let mut collector = TraceCollector::new();
    collector.add_spans(snap.spans.iter().cloned());
    let t = collector
        .traces()
        .into_iter()
        .find(|t| {
            t.spans.iter().any(|s| s.op == "client.mutate")
                && t.spans.iter().any(|s| s.op == "storage.repl_ship" && s.stage == "apply")
        })
        .expect("no assembled trace spans client and backup");
    let storage_nodes = t.nodes().iter().filter(|&&n| n >= 1100).count();
    assert!(storage_nodes >= 2, "trace touched {storage_nodes} storage nodes, expected >= 2");
    let client_total = t
        .spans
        .iter()
        .filter(|s| s.op == "client.mutate" && s.stage == TOTAL_STAGE)
        .map(|s| s.dur_ns)
        .max()
        .expect("client total span");
    assert!(client_total > 0, "client total must be a real interval");
    // Causality on the shared timeline: the trace begins at the client
    // (the origin of the propagated context), and no participant's span
    // dwarfs the overall trace. (The server's `total` closes a hair
    // *after* the client's — the trace finishes after the reply is on
    // the wire — so the client total is a floor, not the max.)
    let first = t.spans.first().expect("trace has spans");
    assert_eq!(first.op, "client.mutate", "trace must start at the client, not {}", first.op);
    assert!(t.total_ns() >= client_total);

    let _ = std::fs::remove_dir_all(&dir);
}
