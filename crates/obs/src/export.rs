//! Export-side naming and the exporters: the metrics JSON renders a
//! [`MetricFrame`], the JSONL series renders a [`WindowDelta`], and every
//! histogram reaches JSON through the one [`histogram_json`] of its
//! [`HistogramInterval`].
//!
//! Registry names are dotted (`component.op.stat`) and sometimes encode a
//! node inline (`storage.srv1100.in_flight`). A time series wants that
//! per-node dimension as a *label* beside a stable metric name, so
//! dashboards and `lwfs-inspect` can group one metric across nodes.
//! [`metric_key`] is the single shared translation: the JSONL window keys
//! go through it, so the same registry renders to the same keys in every
//! window and a query written against one window works against the next.

use crate::event::Event;
use crate::json::Json;
use crate::span::SpanRecord;
use crate::window::{HistogramInterval, MetricFrame, WindowDelta};

/// An export-ready metric identity: a sanitized base name plus the
/// labels extracted from the raw registry name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricKey {
    /// Sanitized to the charset `[a-zA-Z0-9_:]`, never starting with a
    /// digit.
    pub name: String,
    /// `(label, value)` pairs, e.g. `("nid", "1100")` extracted from a
    /// `srv1100` name segment. Every value is ASCII digits.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Canonical rendering, the JSONL object key: `name` or
    /// `name{k="v",...}`. A label value is the digits of a
    /// `srv<digits>`/`worker<digits>` segment, so nothing in it needs
    /// escaping.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// Translate a raw dotted registry name into its export identity.
///
/// - dots become underscores: `wal.append_ns` → `wal_append_ns`;
/// - a `srv<digits>` segment becomes a `nid` label:
///   `storage.srv1100.in_flight` → `storage_in_flight{nid="1100"}`;
/// - a `worker<digits>` segment becomes a `worker` label:
///   `storage.worker3.dispatch_ns` → `storage_dispatch_ns{worker="3"}`;
/// - any character outside `[a-zA-Z0-9_:]` is replaced by `_`, and a
///   leading digit gets a `_` prefix, so the name always matches
///   `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn metric_key(raw: &str) -> MetricKey {
    let mut parts = Vec::new();
    let mut labels = Vec::new();
    for segment in raw.split('.') {
        if let Some(id) = strip_numeric_suffix(segment, "srv") {
            labels.push(("nid".to_string(), id.to_string()));
        } else if let Some(id) = strip_numeric_suffix(segment, "worker") {
            labels.push(("worker".to_string(), id.to_string()));
        } else if !segment.is_empty() {
            parts.push(sanitize_segment(segment));
        }
    }
    let mut name = parts.join("_");
    if name.is_empty() {
        name.push('_');
    }
    if name.as_bytes()[0].is_ascii_digit() {
        name.insert(0, '_');
    }
    MetricKey { name, labels }
}

fn strip_numeric_suffix<'a>(segment: &'a str, prefix: &str) -> Option<&'a str> {
    let rest = segment.strip_prefix(prefix)?;
    (!rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit())).then_some(rest)
}

fn sanitize_segment(segment: &str) -> String {
    segment
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

/// One journal event, as the metrics JSON and the JSONL window both carry
/// it (the window's events arrive as wire structs, hence fields).
pub fn event_json(seq: u64, ts_ns: u64, nid: u32, kind: &str, detail: &str) -> Json {
    Json::obj([
        ("seq", seq.into()),
        ("ts_ns", ts_ns.into()),
        ("nid", u64::from(nid).into()),
        ("kind", Json::str(kind)),
        ("detail", Json::str(detail)),
    ])
}

/// One histogram summary, as the metrics JSON and the JSONL window both
/// carry it: count, sum, mean, p50/p95/p99 and max.
pub(crate) fn histogram_json(h: &HistogramInterval) -> Json {
    Json::obj([
        ("count", h.count.into()),
        ("sum", h.sum.into()),
        ("mean", h.mean().into()),
        ("p50", h.quantile(0.50).into()),
        ("p95", h.quantile(0.95).into()),
        ("p99", h.quantile(0.99).into()),
        ("max", h.max.into()),
    ])
}

/// The metrics JSON (what `lwfs-repro probe metrics --out` writes): a
/// frame's counters, gauges and histogram summaries, then the retained
/// spans and journal events, led by `meta` — the run timestamp, protocol
/// version and node census the caller stamps, things this
/// dependency-free crate cannot know itself.
pub fn metrics_json(
    meta: Json,
    frame: &MetricFrame,
    spans: &[SpanRecord],
    events: &[Event],
) -> Json {
    let span = |s: &SpanRecord| {
        Json::obj([
            ("req_id", s.req_id.into()),
            ("trace_id", s.trace_id.into()),
            ("nid", u64::from(s.nid).into()),
            ("op", Json::str(s.op)),
            ("stage", Json::str(s.stage)),
            ("start_ns", s.start_ns.into()),
            ("dur_ns", s.dur_ns.into()),
        ])
    };
    let events = events.iter().map(|e| event_json(e.seq, e.ts_ns, e.nid, e.kind, &e.detail));
    Json::obj([
        ("meta", meta),
        ("counters", Json::obj(frame.counters.iter().map(|(k, v)| (k.as_str(), (*v).into())))),
        ("gauges", Json::obj(frame.gauges.iter().map(|(k, v)| (k.as_str(), (*v).into())))),
        (
            "histograms",
            Json::obj(frame.histograms.iter().map(|(k, h)| (k.as_str(), histogram_json(h)))),
        ),
        ("spans", Json::Arr(spans.iter().map(span).collect())),
        ("events", Json::Arr(events.collect())),
    ])
}

/// One completed window as one JSONL value: end timestamp, window length,
/// counter deltas and per-second rates, gauge levels, and histogram
/// interval summaries — all keyed by the [`metric_key`] rendering — plus,
/// when the scrape brought any, the journal `events` ([`event_json`]), so
/// the series carries the causal story (alerts, evictions, failovers) next
/// to the deltas that explain it.
pub fn window_json(w: &WindowDelta, events: Vec<Json>) -> Json {
    let key = |raw: &str| metric_key(raw).render();
    let counters = w.counters.iter().map(|(raw, delta)| {
        (key(raw), Json::obj([("delta", (*delta).into()), ("rate", w.rate_per_sec(raw).into())]))
    });
    let gauges = w.gauges.iter().map(|(raw, v)| (key(raw), Json::from(*v)));
    // Quiet histograms would dominate every line.
    let histograms = w
        .histograms
        .iter()
        .filter(|(_, iv)| !iv.is_empty())
        .map(|(raw, iv)| (key(raw), histogram_json(iv)));
    let mut line = vec![
        ("ts_ns", w.ts_ns.into()),
        ("dur_ns", w.dur_ns.into()),
        ("counters", Json::obj(counters)),
        ("gauges", Json::obj(gauges)),
        ("histograms", Json::obj(histograms)),
    ];
    if !events.is_empty() {
        line.push(("events", Json::Arr(events)));
    }
    Json::obj(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowTracker;
    use crate::Registry;

    #[test]
    fn metric_key_sanitizes_and_extracts_labels() {
        let plain = metric_key("wal.append_ns");
        assert_eq!(plain.name, "wal_append_ns");
        assert!(plain.labels.is_empty());
        assert_eq!(plain.render(), "wal_append_ns");

        let srv = metric_key("storage.srv1100.in_flight");
        assert_eq!(srv.name, "storage_in_flight");
        assert_eq!(srv.labels, vec![("nid".to_string(), "1100".to_string())]);
        assert_eq!(srv.render(), "storage_in_flight{nid=\"1100\"}");

        let worker = metric_key("storage.worker3.dispatch_ns");
        assert_eq!(worker.render(), "storage_dispatch_ns{worker=\"3\"}");

        // `srvX` with a non-numeric tail is a name, not a label.
        assert_eq!(metric_key("storage.srvfoo.x").name, "storage_srvfoo_x");
        // Hostile characters collapse to underscores; leading digits are
        // prefixed so the name stays charset-valid.
        assert_eq!(metric_key("9lives.a-b c").name, "_9lives_a_b_c");
    }

    #[test]
    fn keys_use_the_metric_name_charset() {
        for raw in ["storage.write.total_ns", "storage.srv1100.in_flight", "x.y-z", "1.2.3", "..."]
        {
            let key = metric_key(raw);
            let mut chars = key.name.chars();
            let first = chars.next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_' || first == ':', "{key:?}");
            assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'), "{key:?}");
        }
    }

    /// Whatever a raw name holds, every label value [`metric_key`] emits
    /// is ASCII digits, so [`MetricKey::render`] never has a byte to
    /// escape. Names are built from segments a hostile registry or scrape
    /// could carry: quotes, backslashes, newlines, and `srv`/`worker`
    /// prefixes whose tails are empty, non-digit, non-ASCII digits, or
    /// digits followed by more.
    #[test]
    fn hostile_names_yield_only_digit_label_values() {
        const SEGMENTS: [&str; 18] = [
            "srv1100",
            "worker3",
            "srv007",
            "srv",
            "worker",
            "srvX",
            "workerX",
            "srv1x",
            "srv12\n",
            "srv1 ",
            "srv\u{663}",
            "srv\"1\"",
            "worker\\3",
            "worker3\\n",
            "a\"b",
            "c\\d",
            "e\nf",
            "",
        ];
        let check = |raw: &str| {
            let key = metric_key(raw);
            for (_, v) in &key.labels {
                assert!(
                    !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()),
                    "{raw:?} -> {key:?}"
                );
            }
        };
        for a in SEGMENTS {
            for b in SEGMENTS {
                check(&format!("{a}{b}"));
                for c in SEGMENTS {
                    check(&format!("storage.{a}.{b}.{c}"));
                }
            }
        }
        let key = metric_key("storage.srv\"1\".worker3\\n.srv007.x");
        assert_eq!(key.labels, [("nid".to_string(), "007".to_string())]);
        assert_eq!(key.render(), "storage_srv_1__worker3_n_x{nid=\"007\"}");
    }

    #[test]
    fn window_keys_read_back_field_by_field() {
        let reg = Registry::new();
        reg.counter("storage.srv1100.writes").add(7);
        reg.gauge("storage.repl_lag").set(2);
        reg.histogram("wal.append_ns").record(500);

        let mut tracker = WindowTracker::new(4);
        tracker.observe(MetricFrame::default());
        let w = tracker.observe(reg.frame(1_000_000)).unwrap();
        let event = event_json(7, 5, 1100, "alert.fire", "rule=x: \"p99\"\nhigh");
        let line = window_json(w, vec![event.clone()]).to_string();
        assert!(!line.contains('\n'), "{line}");
        assert!(window_json(w, Vec::new()).get("events").is_none());

        // The line reads back field by field, under the `metric_key` keys.
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("ts_ns").and_then(Json::as_u64), Some(w.ts_ns));
        assert_eq!(back.get("dur_ns").and_then(Json::as_u64), Some(w.dur_ns));
        let writes = back.get("counters").and_then(|c| c.get("storage_writes{nid=\"1100\"}"));
        assert_eq!(writes.and_then(|c| c.get("delta")).and_then(Json::as_u64), Some(7));
        assert_eq!(
            writes.and_then(|c| c.get("rate")).and_then(Json::as_f64),
            Some(w.rate_per_sec("storage.srv1100.writes"))
        );
        let lag = back.get("gauges").and_then(|g| g.get("storage_repl_lag"));
        assert_eq!(lag.and_then(Json::as_i64), Some(2));
        let hist = back.get("histograms").and_then(|h| h.get("wal_append_ns"));
        assert_eq!(hist, Some(&histogram_json(w.histogram("wal.append_ns").unwrap())));
        assert_eq!(back.get("events").map(Json::as_arr), Some(&[event][..]));
    }

    #[test]
    fn metrics_json_reads_back_field_by_field() {
        let r = Registry::new();
        r.counter("authz.cache.hits").add(u64::MAX);
        r.gauge("storage.queue.depth").set(i64::MIN);
        r.histogram("txn.prepare.latency_ns").record(1500);
        r.histogram("txn.prepare.latency_ns").record(1);
        r.trace(0x9e37_79b9_7f4a_7c15, "storage.write").on_node(1100).stage("pull");
        r.events().record(1004, "directory.republish", "epoch 1 -> 2 \"quoted\"\n\u{1}");
        let (frame, spans, events) = (r.frame(0), r.spans().recent(usize::MAX), r.events().all());
        let meta = Json::obj([("unix_ts", Json::from(7u64))]);
        let json = metrics_json(meta.clone(), &frame, &spans, &events);
        let back = Json::parse(&json.to_string()).unwrap();

        let names: Vec<&str> = back.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["meta", "counters", "gauges", "histograms", "spans", "events"]);
        assert_eq!(back.get("meta"), Some(&meta));
        for (name, v) in &frame.counters {
            assert_eq!(
                back.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64),
                Some(*v)
            );
        }
        for (name, v) in &frame.gauges {
            assert_eq!(
                back.get("gauges").and_then(|g| g.get(name)).and_then(Json::as_i64),
                Some(*v)
            );
        }
        for (name, h) in &frame.histograms {
            let read = back.get("histograms").and_then(|hs| hs.get(name)).unwrap();
            let field = |k: &str| read.get(k).and_then(Json::as_u64);
            assert_eq!(
                [
                    field("count"),
                    field("sum"),
                    field("p50"),
                    field("p95"),
                    field("p99"),
                    field("max")
                ],
                [h.count, h.sum, h.quantile(0.5), h.quantile(0.95), h.quantile(0.99), h.max]
                    .map(Some)
            );
            assert_eq!(read.get("mean").and_then(Json::as_f64), Some(h.mean()));
        }
        let read_spans = back.get("spans").map(Json::as_arr).unwrap();
        assert_eq!(read_spans.len(), spans.len());
        for (read, s) in read_spans.iter().zip(&spans) {
            let field = |k: &str| read.get(k).and_then(Json::as_u64);
            assert_eq!(
                [
                    field("req_id"),
                    field("trace_id"),
                    field("nid"),
                    field("start_ns"),
                    field("dur_ns")
                ],
                [s.req_id, s.trace_id, u64::from(s.nid), s.start_ns, s.dur_ns].map(Some)
            );
            let names = [read.get("op"), read.get("stage")].map(|v| v.and_then(Json::as_str));
            assert_eq!(names, [Some(s.op), Some(s.stage)]);
        }
        let read_events = back.get("events").map(Json::as_arr).unwrap();
        let e = &events[0];
        assert_eq!(read_events, [event_json(e.seq, e.ts_ns, e.nid, e.kind, &e.detail)]);
        assert_eq!(read_events[0].get("detail").and_then(Json::as_str), Some(e.detail.as_str()));
    }
}
