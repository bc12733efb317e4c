//! Integration test for the metrics probe (`lwfs-repro probe metrics`): the
//! registry must carry every instrumented subsystem, the stage
//! decomposition of each traced request must account for no more than
//! its end-to-end latency, and the trace export must assemble a
//! replicated write across nodes.

use std::collections::BTreeMap;

use lwfs_core::TransportKind;
use lwfs_obs::export::metrics_json;
use lwfs_obs::json::Json;
use lwfs_obs::{parse_chrome_spans, SpanRecord, TraceCollector, TOTAL_STAGE};
use lwfs_repro::run_metrics_probe;

/// Ops recorded as *annotations inside* another op's stage intervals
/// (`wal.append` under `storage.write.wal_append`, `repl.ship` around
/// the backup round trip, `authz.verify_through` inside `authorize`).
/// They carry no `total` of their own and overlap their parent's
/// stages, so the per-request stage accounting must skip them.
const ANNOTATION_OPS: &[&str] = &["wal", "repl", "authz"];

#[test]
fn snapshot_covers_every_instrumented_subsystem() {
    let obs = run_metrics_probe(TransportKind::InProcess, None, None).unwrap();
    let frame = obs.frame(0);

    // Storage: the queue gauge exists (drained back to zero by the time
    // we sample) and the data-path counters moved.
    assert_eq!(frame.gauge("storage.queue_depth"), Some(0));
    assert!(frame.counter("storage.writes").unwrap() >= 2);
    assert!(frame.counter("storage.reads").unwrap() >= 2);
    assert!(frame.counter("storage.bytes_pulled").unwrap() >= 2 * 640 * 1024);

    // Authorization: the cap cache missed cold, hit warm, and verified
    // through to the authz server.
    assert!(frame.counter("authz.cache.hits").unwrap() >= 1);
    assert!(frame.counter("authz.cache.misses").unwrap() >= 1);
    assert!(frame.counter("authz.cache.verify_through").unwrap() >= 1);

    // Transactions: one committed and one aborted 2PC, with both phase
    // latencies recorded.
    assert_eq!(frame.counter("txn.commits"), Some(1));
    assert_eq!(frame.counter("txn.aborts"), Some(1));
    assert_eq!(frame.histogram("txn.prepare_ns").unwrap().count, 1);
    assert_eq!(frame.histogram("txn.commit_ns").unwrap().count, 1);
    assert_eq!(frame.histogram("txn.abort_ns").unwrap().count, 1);

    // Naming and the message fabric.
    assert!(frame.counter("naming.ops").unwrap() >= 4);
    assert!(frame.counter("portals.messages").unwrap() > 0);
    assert!(frame.counter("portals.gets").unwrap() > 0);

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
        assert!(frame.histogram(h).unwrap().count > 0, "missing {h}");
    }

    // The control-plane journal recorded the probe's induced faults.
    assert!(!obs.events().of_kind("repl.evict_backup").is_empty());
    assert!(!obs.events().of_kind("failover.promote").is_empty());

    // The JSON export reads back the same values, plus the journal.
    let spans = obs.spans().recent(usize::MAX);
    let json = metrics_json(Json::Null, &frame, &spans, &obs.events().all());
    let json = Json::parse(&json.to_string()).unwrap();
    let section = |name: &str, key: &str| json.get(name)?.get(key);
    for key in ["authz.cache.hits", "portals.messages"] {
        assert_eq!(section("counters", key).and_then(Json::as_u64), frame.counter(key));
    }
    let depth = section("gauges", "storage.queue_depth");
    assert_eq!(depth.and_then(Json::as_i64), frame.gauge("storage.queue_depth"));
    let prepare = section("histograms", "txn.prepare_ns");
    assert_eq!(prepare.and_then(|h| h.get("count")).and_then(Json::as_u64), Some(1));
    let events = json.get("events").map(Json::as_arr).unwrap_or_default();
    assert!(
        events.iter().any(|e| e.get("kind").and_then(Json::as_str) == Some("failover.promote")),
        "JSON export missing the event journal"
    );
}

#[test]
fn stage_latencies_sum_to_at_most_end_to_end() {
    let spans =
        run_metrics_probe(TransportKind::InProcess, None, None).unwrap().spans().recent(usize::MAX);
    assert!(!spans.is_empty());

    // Group the span log by traced request; compare the sum of its stage
    // durations against its end-to-end `total` spans. A retried request
    // reuses its `req_id` by design (that is what makes server-side dedup
    // work), so one `(req_id, op)` may execute more than once — each
    // execution records a `total`, and the stage sum must stay within
    // their sum. Annotation spans overlap the stages that contain them
    // and are accounted separately below.
    let mut per_req: BTreeMap<(u64, &str), (u64, u64, usize)> = BTreeMap::new();
    for s in spans.iter().filter(|s| !ANNOTATION_OPS.contains(&s.op)) {
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
    // sampling time (the same allowance as above).
    let closed: std::collections::BTreeSet<(u64, u32)> =
        spans.iter().filter(|s| s.stage == TOTAL_STAGE).map(|s| (s.req_id, s.nid)).collect();
    let dangling: std::collections::BTreeSet<(u64, u32)> = spans
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
    let obs = run_metrics_probe(TransportKind::InProcess, None, Some(&trace_path)).unwrap();

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
    // The file reads back span for span.
    let mut back = parse_chrome_spans(&json).unwrap();
    let mut recorded = obs.spans().recent(usize::MAX);
    let key = |s: &SpanRecord| (s.trace_id, s.req_id, s.nid, s.op, s.stage, s.start_ns, s.dur_ns);
    back.sort_by_key(key);
    recorded.sort_by_key(key);
    assert_eq!(back, recorded);

    // Reassemble from the span log: some trace must span the client and
    // at least two storage nodes (primary + backup) under one trace_id,
    // and its client total must dominate every span it contains.
    let mut collector = TraceCollector::new();
    collector.add_spans(obs.spans().recent(usize::MAX));
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
