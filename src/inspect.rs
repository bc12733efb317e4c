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
//! Parsing is a small recursive-descent JSON reader over the artifact
//! grammar — the workspace deliberately has no external JSON dependency,
//! and the artifacts are produced by our own hand-rolled writers, so the
//! reader only needs honest JSON, not every escape-sequence corner.

use std::collections::BTreeMap;

use lwfs_obs::{attribute, attribute_with_claims, intern, SpanRecord, TailReport, TraceCollector};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document; trailing whitespace is allowed, trailing
    /// garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?} at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-UTF-8 string".to_string())?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] got {other:?} at {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                other => return Err(format!("expected , or }} got {other:?} at {}", self.pos)),
            }
        }
    }
}

/// Parse a `0x…` hex id as written by the Chrome exporter.
fn parse_hex_id(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// Re-ingest a Chrome `trace_event` export into span records on the
/// shared timeline. The exporter's synthetic `*.orphan` roots are
/// skipped — they are a rendering aid, not recorded spans, and
/// re-ingesting them would double-count orphan extents.
pub fn parse_chrome_spans(text: &str) -> Result<Vec<SpanRecord>, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("no traceEvents array — not a Chrome trace export")?;
    let mut spans = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let name = e.get("name").and_then(|v| v.as_str()).ok_or(format!("event {i}: no name"))?;
        let (op, stage) =
            name.rsplit_once('.').ok_or(format!("event {i}: name {name:?} is not op.stage"))?;
        if stage == "orphan" {
            continue;
        }
        let us_to_ns = |v: &Json| (v.as_f64().unwrap_or(0.0) * 1000.0).round().max(0.0) as u64;
        let args = e.get("args").cloned().unwrap_or(Json::Obj(Vec::new()));
        let trace_id = args
            .get("trace_id")
            .and_then(|v| v.as_str())
            .and_then(parse_hex_id)
            .ok_or(format!("event {i}: bad trace_id"))?;
        let req_id = args
            .get("req_id")
            .and_then(|v| v.as_str())
            .and_then(parse_hex_id)
            .ok_or(format!("event {i}: bad req_id"))?;
        spans.push(SpanRecord {
            req_id,
            trace_id,
            nid: e.get("pid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u32,
            op: intern(op),
            stage: intern(stage),
            start_ns: e.get("ts").map(&us_to_ns).unwrap_or(0),
            dur_ns: e.get("dur").map(&us_to_ns).unwrap_or(0),
        });
    }
    Ok(spans)
}

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
            for e in w.get("events").and_then(|v| v.as_arr()).unwrap_or(&[]) {
                let kind = e.get("kind").and_then(|v| v.as_str()).unwrap_or("");
                if !kind.starts_with("alert.") {
                    continue;
                }
                let seq = e.get("seq").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
                if !seen.insert(seq) {
                    continue;
                }
                out.push(AlertEvent {
                    seq,
                    nid: e.get("nid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u32,
                    kind: kind.to_string(),
                    detail: e.get("detail").and_then(|v| v.as_str()).unwrap_or("").to_string(),
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
            if let Some(v) = w.get("gauges").and_then(|g| g.get(name)).and_then(|v| v.as_f64()) {
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
                .and_then(|v| v.as_f64())
            {
                delta += d;
                secs += w.get("dur_ns").and_then(|v| v.as_f64()).unwrap_or(0.0) / 1e9;
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
                sum += h.get("sum").and_then(|v| v.as_f64()).unwrap_or(0.0);
                count += h.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0);
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
        if let Some(meta) = &log.meta {
            if let Some(obj) = meta.get("meta") {
                let mut fields: BTreeMap<&str, String> = BTreeMap::new();
                for (k, v) in obj.members() {
                    let rendered = match v {
                        Json::Num(n) => format!("{n}"),
                        Json::Str(s) => s.clone(),
                        other => format!("{other:?}"),
                    };
                    fields.insert(k.as_str(), rendered);
                }
                let _ = writeln!(
                    out,
                    "run: {}",
                    fields.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
                );
            }
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
    use lwfs_obs::{BlameStage, TOTAL_STAGE};

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
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(-2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_str(), Some("x\nA"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn chrome_roundtrip_reproduces_the_attribution() {
        let mut live = TraceCollector::new();
        live.add_spans(stalled_write());
        let json = live.to_chrome_json();

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
        let json = live.to_chrome_json();
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
        let json = live.to_chrome_json();
        let report = render_report(Some(&json), None, 2).unwrap();
        assert!(report.contains("blame ship_rtt share=0."), "{report}");
        assert!(report.contains("dominant: ship_rtt"), "{report}");
        assert!(report.contains("critical path of client.mutate"), "{report}");
        assert!(report.contains("repl.ship"), "{report}");
        assert!(render_report(None, None, 1).is_err());
    }
}
