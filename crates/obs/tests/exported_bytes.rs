//! The exported bytes, pinned: a fixed registry's metrics JSON and JSONL
//! window line, byte for byte. CI's validators and `lwfs-inspect` read
//! these artifacts, so any change to a key, a label, a quantile, a mean, a
//! max or a number's formatting must show up here as a deliberate edit.

use lwfs_obs::export::{event_json, metrics_json, window_json};
use lwfs_obs::json::Json;
use lwfs_obs::{Event, MetricFrame, Registry, SpanRecord, WindowTracker};

/// Counters, gauges (both signs, the extremes), `srv`/`worker` label
/// names, and histograms with known observations — among them one that
/// never recorded and one whose mean does not terminate.
fn fixed_registry() -> Registry {
    let reg = Registry::new();
    reg.counter("authz.cache.hits").add(5);
    reg.counter("portals.messages").add(123_456_789);
    reg.counter("storage.srv1100.writes").add(7);
    reg.counter("storage.srv1101.writes").add(9);
    reg.counter("storage.worker3.busy_rejects").add(u64::MAX);
    reg.gauge("storage.queue_depth").set(3);
    reg.gauge("storage.srv1100.in_flight").set(-2);
    reg.gauge("storage.srv1101.in_flight").set(i64::MIN);
    for v in [1u64, 7, 64, 1000, 1_000_000, 1_000_000] {
        reg.histogram("storage.worker3.dispatch_ns").record(v);
    }
    for v in 1..=1000u64 {
        reg.histogram("txn.prepare_ns").record(v);
    }
    for v in [0u64, 0, 1] {
        reg.histogram("wal.append_ns").record(v);
    }
    for v in [1u64 << 40, (3u64 << 40) + 5, 17] {
        reg.histogram("storage.srv1100.ship_ns").record(v);
    }
    reg.histogram("storage.write.total_ns");
    reg.spans().record(SpanRecord {
        req_id: u64::MAX - 1,
        trace_id: 0x9e37_79b9_7f4a_7c15,
        nid: 1100,
        op: "storage.write",
        stage: "total",
        start_ns: 14_123,
        dur_ns: 7,
    });
    reg.spans().record(SpanRecord {
        req_id: 9,
        trace_id: 9,
        nid: 1101,
        op: "repl",
        stage: "ship",
        start_ns: 20_000,
        dur_ns: 1_500,
    });
    reg
}

fn fixed_events() -> Vec<Event> {
    vec![
        Event {
            seq: 0,
            ts_ns: 10,
            nid: 1100,
            kind: "repl.evict_backup",
            detail: "backup 1101".into(),
        },
        Event {
            seq: 1,
            ts_ns: 25,
            nid: 1005,
            kind: "alert.fire",
            detail: "rule=x: \"p99\"\n\u{1}é".into(),
        },
    ]
}

#[test]
fn metrics_json_is_byte_stable() {
    let reg = fixed_registry();
    let spans = reg.spans().recent(usize::MAX);
    let json = metrics_json(Json::Null, &reg.frame(0), &spans, &fixed_events());
    assert_eq!(json.to_string(), METRICS_JSON);
}

#[test]
fn window_line_is_byte_stable() {
    let mut windows = WindowTracker::new(2);
    windows.observe(MetricFrame::default());
    let w = windows.observe(fixed_registry().frame(1_000_000_000)).unwrap();
    let events = fixed_events()
        .iter()
        .map(|e| event_json(e.seq, e.ts_ns, e.nid, e.kind, &e.detail))
        .collect();
    assert_eq!(window_json(w, events).to_string(), WINDOW_LINE);
}

const METRICS_JSON: &str = r##"{"meta": null, "counters": {"authz.cache.hits": 5, "portals.messages": 123456789, "storage.srv1100.writes": 7, "storage.srv1101.writes": 9, "storage.worker3.busy_rejects": 18446744073709551615}, "gauges": {"storage.queue_depth": 3, "storage.srv1100.in_flight": -2, "storage.srv1101.in_flight": -9223372036854775808}, "histograms": {"storage.srv1100.ship_ns": {"count": 3, "sum": 4398046511126, "mean": 1466015503708.6667, "p50": 1168231104512, "p95": 3298534883333, "p99": 3298534883333, "max": 3298534883333}, "storage.worker3.dispatch_ns": {"count": 6, "sum": 2001072, "mean": 333512.0, "p50": 68, "p95": 1000000, "p99": 1000000, "max": 1000000}, "storage.write.total_ns": {"count": 0, "sum": 0, "mean": 0.0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "txn.prepare_ns": {"count": 1000, "sum": 500500, "mean": 500.5, "p50": 496, "p95": 928, "p99": 992, "max": 1000}, "wal.append_ns": {"count": 3, "sum": 1, "mean": 0.3333333333333333, "p50": 0, "p95": 1, "p99": 1, "max": 1}}, "spans": [{"req_id": 18446744073709551614, "trace_id": 11400714819323198485, "nid": 1100, "op": "storage.write", "stage": "total", "start_ns": 14123, "dur_ns": 7}, {"req_id": 9, "trace_id": 9, "nid": 1101, "op": "repl", "stage": "ship", "start_ns": 20000, "dur_ns": 1500}], "events": [{"seq": 0, "ts_ns": 10, "nid": 1100, "kind": "repl.evict_backup", "detail": "backup 1101"}, {"seq": 1, "ts_ns": 25, "nid": 1005, "kind": "alert.fire", "detail": "rule=x: \"p99\"\n\u0001é"}]}"##;

const WINDOW_LINE: &str = r##"{"ts_ns": 1000000000, "dur_ns": 1000000000, "counters": {"authz_cache_hits": {"delta": 5, "rate": 5.0}, "portals_messages": {"delta": 123456789, "rate": 123456789.0}, "storage_writes{nid=\"1100\"}": {"delta": 7, "rate": 7.0}, "storage_writes{nid=\"1101\"}": {"delta": 9, "rate": 9.0}, "storage_busy_rejects{worker=\"3\"}": {"delta": 18446744073709551615, "rate": 18446744073709551616.0}}, "gauges": {"storage_queue_depth": 3, "storage_in_flight{nid=\"1100\"}": -2, "storage_in_flight{nid=\"1101\"}": -9223372036854775808}, "histograms": {"storage_ship_ns{nid=\"1100\"}": {"count": 3, "sum": 4398046511126, "mean": 1466015503708.6667, "p50": 1168231104512, "p95": 3298534883333, "p99": 3298534883333, "max": 3298534883333}, "storage_dispatch_ns{worker=\"3\"}": {"count": 6, "sum": 2001072, "mean": 333512.0, "p50": 68, "p95": 1000000, "p99": 1000000, "max": 1000000}, "txn_prepare_ns": {"count": 1000, "sum": 500500, "mean": 500.5, "p50": 496, "p95": 928, "p99": 992, "max": 1000}, "wal_append_ns": {"count": 3, "sum": 1, "mean": 0.3333333333333333, "p50": 0, "p95": 1, "p99": 1, "max": 1}}, "events": [{"seq": 0, "ts_ns": 10, "nid": 1100, "kind": "repl.evict_backup", "detail": "backup 1101"}, {"seq": 1, "ts_ns": 25, "nid": 1005, "kind": "alert.fire", "detail": "rule=x: \"p99\"\n\u0001é"}]}"##;
