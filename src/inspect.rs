//! Offline tail-latency inspection: the logic behind `lwfs-inspect`.
//!
//! A post-mortem starts from two artifacts the monitoring pipeline
//! already exports — the Chrome `trace_event` JSON of scraped slow
//! traces (`--trace-out`) and the monitor's windowed JSONL time series
//! (`lwfs-repro probe telemetry --out`) — and must reproduce the live pipeline's blame
//! verdict **without** a running cluster. This module re-ingests both
//! artifacts, reassembles the traces, reruns the critical-path
//! attribution from [`lwfs_obs::critpath`], and renders:
//!
//! * the fleet tail decomposition ([`lwfs_obs::TailReport::render`],
//!   whose `blame <stage> share=<f>` lines CI greps),
//! * per-trace text trees for the slowest K traces, annotated with the
//!   nanoseconds each span claimed on the critical path,
//! * the alert firings carried in the JSONL event stream, and
//! * a warn-only Little's-law sanity check: mean queue depth vs
//!   arrival rate × mean service time from the same windows.
//!
//! Both artifacts are read with the workspace's one JSON reader
//! ([`lwfs_obs::json`], depth-capped, integers exact); the Chrome export is
//! re-ingested by [`lwfs_obs::parse_chrome_spans`] beside its writer, so
//! this module keeps only the window queries and the report.

use std::collections::BTreeMap;

use lwfs_obs::json::Json;
use lwfs_obs::{attribute, attribute_with_claims, parse_chrome_spans, TailReport, TraceCollector};

/// The monitor's parsed JSONL artifact: the leading meta stamp and one
/// parsed object per aggregation window.
pub struct MonitorLog {
    pub meta: Option<Json>,
    pub windows: Vec<Json>,
}

/// Parse a `probe telemetry --out` JSONL file (meta line first, then windows).
pub fn parse_monitor_jsonl(text: &str) -> Result<MonitorLog, String> {
    let mut meta = None;
    let mut windows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("meta").is_some() && meta.is_none() {
            meta = Some(v);
        } else {
            windows.push(v);
        }
    }
    Ok(MonitorLog { meta, windows })
}

/// One alert firing (or clearing) recovered from the JSONL event stream.
#[derive(Debug, Clone)]
pub struct AlertEvent {
    pub seq: u64,
    pub nid: u32,
    pub kind: String,
    pub detail: String,
}

impl MonitorLog {
    /// Every `alert.*` event in window order, deduplicated by journal seq
    /// (consecutive windows can re-ship an overlapping journal tail).
    pub fn alerts(&self) -> Vec<AlertEvent> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for w in &self.windows {
            for e in w.get("events").map(Json::as_arr).unwrap_or_default() {
                let kind = e.get("kind").and_then(Json::as_str).unwrap_or("");
                if !kind.starts_with("alert.") {
                    continue;
                }
                let seq = e.get("seq").and_then(Json::as_u64).unwrap_or(0);
                if !seen.insert(seq) {
                    continue;
                }
                out.push(AlertEvent {
                    seq,
                    nid: e
                        .get("nid")
                        .and_then(Json::as_u64)
                        .and_then(|n| n.try_into().ok())
                        .unwrap_or(0),
                    kind: kind.to_string(),
                    detail: e.get("detail").and_then(Json::as_str).unwrap_or("").to_string(),
                });
            }
        }
        out
    }

    /// Mean of gauge `name` over windows that report it.
    fn mean_gauge(&self, name: &str) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for w in &self.windows {
            if let Some(v) = w.get("gauges").and_then(|g| g.get(name)).and_then(Json::as_f64) {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Summed counter deltas and wall time for rate computation.
    fn counter_delta_and_secs(&self, name: &str) -> (f64, f64) {
        let mut delta = 0.0;
        let mut secs = 0.0;
        for w in &self.windows {
            if let Some(d) = w
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(|e| e.get("delta"))
                .and_then(Json::as_f64)
            {
                delta += d;
                secs += w.get("dur_ns").and_then(Json::as_f64).unwrap_or(0.0) / 1e9;
            }
        }
        (delta, secs)
    }

    /// Count-weighted mean of histogram `name` across windows.
    fn histogram_mean_ns(&self, name: &str) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0.0;
        for w in &self.windows {
            if let Some(h) = w.get("histograms").and_then(|hs| hs.get(name)) {
                sum += h.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
                count += h.get("count").and_then(Json::as_f64).unwrap_or(0.0);
            }
        }
        (count > 0.0).then(|| sum / count)
    }

    /// Little's-law sanity check over the write path: mean queue depth L
    /// should be near arrival rate λ × mean service time W. A large
    /// excess means requests queue somewhere the latency histogram does
    /// not see — the report flags it but never fails (warn-only by
    /// design: the check needs steady state the windows may not cover).
    pub fn littles_law_check(&self) -> Option<String> {
        let observed = self.mean_gauge("storage_queue_depth")?;
        let (delta, secs) = self.counter_delta_and_secs("storage_writes");
        let mean_ns = self.histogram_mean_ns("storage_write_total_ns")?;
        if secs <= 0.0 {
            return None;
        }
        let rate = delta / secs;
        let predicted = rate * mean_ns / 1e9;
        let verdict = if observed > predicted + 2.0 && observed > 4.0 * (predicted + 0.5) {
            "WARN: queueing outside the latency histogram"
        } else {
            "ok"
        };
        Some(format!(
            "littles-law: observed mean queue depth {observed:.2}, predicted λW = \
             {rate:.1}/s × {:.3} ms = {predicted:.2} [{verdict}]",
            mean_ns / 1e6
        ))
    }
}

/// Render the full offline report from the two artifacts (either may be
/// absent; at least one must be present for the report to say anything).
pub fn render_report(
    trace_text: Option<&str>,
    jsonl_text: Option<&str>,
    top_k: usize,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();

    let log = jsonl_text.map(parse_monitor_jsonl).transpose()?;
    if let Some(log) = &log {
        if let Some(meta) = log.meta.as_ref().and_then(|m| m.get("meta")) {
            // By key; strings bare, anything else as written.
            let fields: BTreeMap<&str, String> = meta
                .members()
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str().map_or_else(|| v.to_string(), String::from)))
                .collect();
            let fields: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "run: {}", fields.join(" "));
        }
        let _ = writeln!(out, "windows: {}", log.windows.len());
    }

    if let Some(text) = trace_text {
        let spans = parse_chrome_spans(text)?;
        let mut collector = TraceCollector::new();
        collector.add_spans(spans);
        let traces = collector.traces();
        let attrs: Vec<_> = traces.iter().filter_map(attribute).collect();
        match TailReport::from_attributions(&attrs) {
            Some(tail) => {
                out.push('\n');
                out.push_str(&tail.render());
            }
            None => out.push_str("\nno traces in the artifact\n"),
        }
        for t in traces.iter().take(top_k.max(1)) {
            out.push('\n');
            out.push_str(&collector.text_tree(t.trace_id));
            if let Some((attr, claims)) = attribute_with_claims(t) {
                let _ = writeln!(out, "  critical path of {}:", attr.root_op);
                for (s, ns) in t.spans.iter().zip(&claims) {
                    if *ns == 0 {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "    {:<28} claims {:>10.3} us  [{}]",
                        format!("{}.{}", s.op, s.stage),
                        *ns as f64 / 1e3,
                        lwfs_obs::critpath::classify(s.op, s.stage).as_str()
                    );
                }
            }
        }
    }

    if let Some(log) = &log {
        let alerts = log.alerts();
        out.push('\n');
        if alerts.is_empty() {
            out.push_str("alerts: none\n");
        } else {
            let _ = writeln!(out, "alerts: {}", alerts.len());
            for a in &alerts {
                let _ =
                    writeln!(out, "  seq {:>4} nid {:>4} {} {}", a.seq, a.nid, a.kind, a.detail);
            }
        }
        if let Some(check) = log.littles_law_check() {
            out.push_str(&check);
            out.push('\n');
        }
    }

    if out.is_empty() {
        return Err("nothing to report: pass --trace and/or --jsonl".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_obs::{BlameStage, SpanRecord, TOTAL_STAGE};

    fn span(
        req_id: u64,
        trace_id: u64,
        nid: u32,
        op: &'static str,
        stage: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanRecord {
        SpanRecord { req_id, trace_id, nid, op, stage, start_ns, dur_ns }
    }

    /// A stalled replicated write: 100 ms total, ~90 ms inside the ship.
    fn stalled_write() -> Vec<SpanRecord> {
        vec![
            span(1, 7, 0, "client.mutate", TOTAL_STAGE, 0, 100_000_000),
            span(2, 7, 1100, "storage.write", TOTAL_STAGE, 1_000_000, 98_000_000),
            span(2, 7, 1100, "storage.write", "pull", 1_500_000, 500_000),
            span(2, 7, 1100, "repl", "ship", 3_000_000, 90_000_000),
            span(9, 8, 1100, "storage.write", TOTAL_STAGE, 0, 2_000_000),
        ]
    }

    #[test]
    fn json_parser_handles_the_artifact_grammar() {
        let v =
            Json::parse("{\"a\": [1, -2.5, \"x\\n\\u0041\"], \"b\": {\"c\": true, \"d\": null}}")
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr()[1].as_f64(), Some(-2.5));
        assert_eq!(v.get("a").unwrap().as_arr()[2].as_str(), Some("x\nA"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn chrome_roundtrip_reproduces_the_attribution() {
        let mut live = TraceCollector::new();
        live.add_spans(stalled_write());
        let json = live.to_chrome_json().to_string();

        let spans = parse_chrome_spans(&json).unwrap();
        let mut offline = TraceCollector::new();
        offline.add_spans(spans);
        let traces = offline.traces();
        assert_eq!(traces.len(), 2);
        let attrs: Vec<_> = traces.iter().filter_map(attribute).collect();
        let tail = TailReport::from_attributions(&attrs).unwrap();
        let (stage, share) = tail.dominant().unwrap();
        assert_eq!(stage, BlameStage::ShipRtt, "offline blame must match live: {tail:?}");
        assert!(share > 0.5, "ship share {share}");
    }

    #[test]
    fn chrome_roundtrip_skips_synthetic_orphan_roots() {
        let mut live = TraceCollector::new();
        live.add_spans(vec![
            span(4, 5, 1100, "storage.write", "pull", 1_000_000, 400_000),
            span(4, 5, 1100, "storage.write", "store_write", 1_400_000, 200_000),
        ]);
        let json = live.to_chrome_json().to_string();
        assert!(json.contains(".orphan"), "exporter roots the orphans: {json}");
        let spans = parse_chrome_spans(&json).unwrap();
        assert_eq!(spans.len(), 2, "synthetic root must not re-ingest");
        let mut offline = TraceCollector::new();
        offline.add_spans(spans);
        assert_eq!(offline.traces()[0].total_ns(), 600_000, "extent survives the roundtrip");
    }

    #[test]
    fn monitor_jsonl_yields_alerts_and_littles_law() {
        let text = concat!(
            "{\"meta\": {\"unix_ts\": 1, \"protocol_version\": 5}}\n",
            "{\"ts_ns\": 100, \"dur_ns\": 1000000000, \"counters\": ",
            "{\"storage_writes\": {\"delta\": 100, \"rate\": 100.000}}, ",
            "\"gauges\": {\"storage_queue_depth\": 1}, \"histograms\": ",
            "{\"storage_write_total_ns\": {\"count\": 100, \"sum\": 1000000000, ",
            "\"mean\": 10000000.0, \"p50\": 9, \"p95\": 9, \"p99\": 9, \"max\": 9}}, ",
            "\"events\": [{\"seq\": 4, \"ts_ns\": 5, \"nid\": 1005, ",
            "\"kind\": \"alert.fire\", \"detail\": \"rule=x: p99 high; blame=ship_rtt\"}, ",
            "{\"seq\": 5, \"ts_ns\": 6, \"nid\": 1100, ",
            "\"kind\": \"repl.evict_backup\", \"detail\": \"gone\"}]}\n",
            "{\"ts_ns\": 200, \"dur_ns\": 1000000000, \"counters\": {}, \"gauges\": {}, ",
            "\"histograms\": {}, \"events\": [{\"seq\": 4, \"ts_ns\": 5, \"nid\": 1005, ",
            "\"kind\": \"alert.fire\", \"detail\": \"rule=x: p99 high; blame=ship_rtt\"}]}\n",
        );
        let log = parse_monitor_jsonl(text).unwrap();
        assert!(log.meta.is_some());
        assert_eq!(log.windows.len(), 2);
        let alerts = log.alerts();
        assert_eq!(alerts.len(), 1, "journal seq dedups the re-shipped tail");
        assert!(alerts[0].detail.contains("blame=ship_rtt"));
        // 100 writes/s × 10 ms = 1 in queue: matches the observed gauge.
        let check = log.littles_law_check().unwrap();
        assert!(check.contains("[ok]"), "{check}");
    }

    #[test]
    fn report_renders_blame_lines_ci_can_grep() {
        let mut live = TraceCollector::new();
        live.add_spans(stalled_write());
        let json = live.to_chrome_json().to_string();
        let report = render_report(Some(&json), None, 2).unwrap();
        assert!(report.contains("blame ship_rtt share=0."), "{report}");
        assert!(report.contains("dominant: ship_rtt"), "{report}");
        assert!(report.contains("critical path of client.mutate"), "{report}");
        assert!(report.contains("repl.ship"), "{report}");
        assert!(render_report(None, None, 1).is_err());
    }
}
