//! Export-side naming and the two telemetry exporters.
//!
//! Registry names are dotted (`component.op.stat`) and sometimes encode a
//! node inline (`storage.srv1100.in_flight`) — neither survives contact
//! with Prometheus, whose metric names are `[a-zA-Z_:][a-zA-Z0-9_:]*` and
//! whose per-node dimension belongs in a *label*. [`metric_key`] is the
//! single shared translation: every exporter (Prometheus text exposition,
//! JSONL time series) goes through it, so the same registry renders to
//! the same keys in every view and a dashboard query written against one
//! export works against the others.

use crate::json::Json;
use crate::metrics::HistogramSnapshot;
use crate::registry::Snapshot;
use crate::window::WindowDelta;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An export-ready metric identity: a sanitized base name plus the
/// labels extracted from the raw registry name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// Sanitized to the Prometheus name charset `[a-zA-Z0-9_:]`, never
    /// starting with a digit.
    pub name: String,
    /// `(label, value)` pairs, e.g. `("nid", "1100")` extracted from a
    /// `srv1100` name segment.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Canonical rendering: `name` or `name{k="v",...}` — identical in
    /// the Prometheus exposition and as a JSONL object key.
    pub fn render(&self) -> String {
        self.render_with(&[])
    }

    /// Rendering with extra labels appended (the summary exporter adds
    /// `quantile="..."` this way).
    pub fn render_with(&self, extra: &[(&str, &str)]) -> String {
        if self.labels.is_empty() && extra.is_empty() {
            return self.name.clone();
        }
        let mut out = format!("{}{{", self.name);
        let mut first = true;
        for (k, v) in
            self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", prometheus_escape_label(v));
            first = false;
        }
        out.push('}');
        out
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
///   leading digit gets a `_` prefix, so the result is always a valid
///   Prometheus metric name.
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

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline.
pub fn prometheus_escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a snapshot in the Prometheus text exposition format (version
/// 0.0.4): one `# TYPE` line per metric family, counters and gauges as
/// single samples, histograms as summaries (`{quantile="…"}` series plus
/// `_sum` and `_count`).
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();

    // Group per family: label-bearing series (storage.srv1100.* and
    // storage.srv1101.*) share one name and must share one TYPE line.
    let mut counters: BTreeMap<String, Vec<(MetricKey, u64)>> = BTreeMap::new();
    for (raw, v) in &snap.counters {
        let key = metric_key(raw);
        counters.entry(key.name.clone()).or_default().push((key, *v));
    }
    for (family, series) in &counters {
        let _ = writeln!(out, "# TYPE {family} counter");
        for (key, v) in series {
            let _ = writeln!(out, "{} {v}", key.render());
        }
    }

    let mut gauges: BTreeMap<String, Vec<(MetricKey, i64)>> = BTreeMap::new();
    for (raw, v) in &snap.gauges {
        let key = metric_key(raw);
        gauges.entry(key.name.clone()).or_default().push((key, *v));
    }
    for (family, series) in &gauges {
        let _ = writeln!(out, "# TYPE {family} gauge");
        for (key, v) in series {
            let _ = writeln!(out, "{} {v}", key.render());
        }
    }

    let mut summaries: BTreeMap<String, Vec<(MetricKey, &HistogramSnapshot)>> = BTreeMap::new();
    for (raw, h) in &snap.histograms {
        let key = metric_key(raw);
        summaries.entry(key.name.clone()).or_default().push((key, h));
    }
    for (family, series) in &summaries {
        let _ = writeln!(out, "# TYPE {family} summary");
        for (key, h) in series {
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                let _ = writeln!(out, "{} {v}", key.render_with(&[("quantile", q)]));
            }
            let _ = writeln!(out, "{}_sum{} {}", key.name, suffix_labels(key), h.sum);
            let _ = writeln!(out, "{}_count{} {}", key.name, suffix_labels(key), h.count);
        }
    }
    out
}

fn suffix_labels(key: &MetricKey) -> String {
    if key.labels.is_empty() {
        String::new()
    } else {
        let rendered = key.render();
        rendered[key.name.len()..].to_string()
    }
}

/// One journal event, as the registry snapshot and the JSONL window both
/// carry it (the window's events arrive as wire structs, hence fields).
pub fn event_json(seq: u64, ts_ns: u64, nid: u32, kind: &str, detail: &str) -> Json {
    Json::obj([
        ("seq", seq.into()),
        ("ts_ns", ts_ns.into()),
        ("nid", u64::from(nid).into()),
        ("kind", Json::str(kind)),
        ("detail", Json::str(detail)),
    ])
}

/// One histogram summary, as the registry snapshot and the JSONL window
/// both carry it.
pub(crate) fn histogram_json(h: &HistogramSnapshot) -> Json {
    Json::obj([
        ("count", h.count.into()),
        ("sum", h.sum.into()),
        ("mean", h.mean.into()),
        ("p50", h.p50.into()),
        ("p95", h.p95.into()),
        ("p99", h.p99.into()),
        ("max", h.max.into()),
    ])
}

/// One completed window as one JSONL value: end timestamp, window length,
/// counter deltas and per-second rates, gauge levels, and histogram
/// interval summaries — all keyed by the same [`metric_key`] rendering the
/// Prometheus exposition uses — plus, when the scrape brought any, the
/// journal `events` ([`event_json`]), so the series carries the causal
/// story (alerts, evictions, failovers) next to the deltas that explain it.
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
        .map(|(raw, iv)| (key(raw), histogram_json(&iv.summary())));
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
    use crate::window::{MetricFrame, WindowTracker};
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
    fn keys_are_valid_prometheus_names() {
        for raw in ["storage.write.total_ns", "storage.srv1100.in_flight", "x.y-z", "1.2.3", "..."]
        {
            let key = metric_key(raw);
            let mut chars = key.name.chars();
            let first = chars.next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_' || first == ':', "{key:?}");
            assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'), "{key:?}");
        }
    }

    #[test]
    fn label_escaping() {
        assert_eq!(prometheus_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = Registry::new();
        reg.counter("storage.writes").add(42);
        reg.gauge("storage.srv1100.in_flight").set(3);
        reg.gauge("storage.srv1101.in_flight").set(5);
        reg.histogram("storage.write.total_ns").record(1000);
        let text = to_prometheus(&reg.snapshot());

        assert!(text.contains("# TYPE storage_writes counter\nstorage_writes 42\n"));
        // One TYPE line for the whole labeled family, then both series.
        assert_eq!(text.matches("# TYPE storage_in_flight gauge").count(), 1);
        assert!(text.contains("storage_in_flight{nid=\"1100\"} 3"));
        assert!(text.contains("storage_in_flight{nid=\"1101\"} 5"));
        assert!(text.contains("# TYPE storage_write_total_ns summary"));
        assert!(text.contains("storage_write_total_ns{quantile=\"0.5\"}"));
        assert!(text.contains("storage_write_total_ns_sum 1000"));
        assert!(text.contains("storage_write_total_ns_count 1"));
    }

    #[test]
    fn jsonl_and_prometheus_agree_on_keys() {
        let reg = Registry::new();
        reg.counter("storage.srv1100.writes").add(7);
        reg.gauge("storage.repl_lag").set(2);
        reg.histogram("wal.append_ns").record(500);

        let mut tracker = WindowTracker::new(4);
        tracker.observe(MetricFrame::default());
        let w = tracker.observe(reg.frame(1_000_000)).unwrap();
        let event = event_json(7, 5, 1100, "alert.fire", "rule=x: \"p99\"\nhigh");
        let line = window_json(w, vec![event.clone()]).to_string();
        let prom = to_prometheus(&reg.snapshot());
        assert!(!line.contains('\n'), "{line}");
        assert!(window_json(w, Vec::new()).get("events").is_none());

        // The line reads back field by field, under the keys Prometheus uses.
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
        let summary = w.histogram("wal.append_ns").unwrap().summary();
        let hist = back.get("histograms").and_then(|h| h.get("wal_append_ns"));
        assert_eq!(hist, Some(&histogram_json(&summary)));
        assert_eq!(back.get("events").map(Json::as_arr), Some(&[event][..]));
        for key in ["storage_writes{nid=\"1100\"}", "storage_repl_lag", "wal_append_ns"] {
            assert!(prom.contains(key), "{prom}");
        }
        assert!(prom.contains("# TYPE wal_append_ns summary"));
    }
}
