//! Distributed-trace assembly and export.
//!
//! [`TraceCollector`] harvests span logs, normalizes per-process epochs
//! onto one shared timeline, groups spans by their wire-propagated
//! `trace_id`, and exports either Chrome `trace_event` JSON (loadable in
//! `about:tracing` / Perfetto, read back by [`parse_chrome_spans`]) or a
//! compact text tree. The [`FlightRecorder`] pins complete traces of
//! outlier operations so they survive the bounded span ring.
//!
//! **Epoch normalization caveat:** every `SpanLog` timestamps spans
//! relative to its own creation instant. In this workspace all nodes of
//! one simulated cluster share a single fabric-wide registry (one log,
//! one epoch), so offsets are zero. A genuinely multi-process deployment
//! must measure each process's epoch skew out of band and pass it to
//! [`TraceCollector::add_node_spans`]; the collector only shifts timestamps,
//! it cannot discover skew itself.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Mutex;

use crate::json::Json;
use crate::span::{intern, SpanLog, SpanRecord, TOTAL_STAGE};

/// One assembled distributed trace: every retained span, on every node,
/// that carried this `trace_id`.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub trace_id: u64,
    /// Spans sorted by `(start_ns, dur_ns desc)` so parents precede the
    /// stages they contain.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Distinct node ids that contributed spans.
    pub fn nodes(&self) -> Vec<u32> {
        let mut nids: Vec<u32> = self.spans.iter().map(|s| s.nid).collect();
        nids.sort_unstable();
        nids.dedup();
        nids
    }

    /// The longest [`TOTAL_STAGE`] span — the end-to-end latency as seen
    /// by the outermost participant (normally the client). An orphan
    /// trace (no `total` arrived — a partial scrape) falls back to its span extent so it still sorts and renders
    /// meaningfully instead of reporting zero.
    pub fn total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == TOTAL_STAGE)
            .map(|s| s.dur_ns)
            .max()
            .unwrap_or_else(|| self.extent_ns())
    }

    /// Wall span covered by all spans: max end minus min start.
    pub fn extent_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self.spans.iter().map(|s| s.start_ns.saturating_add(s.dur_ns)).max().unwrap_or(0);
        end.saturating_sub(start)
    }
}

/// Assembles spans from one or more nodes into per-`trace_id` traces.
#[derive(Debug, Default)]
pub struct TraceCollector {
    spans: Vec<SpanRecord>,
}

impl TraceCollector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest spans already on the shared timeline (the single-registry
    /// case: one fabric-wide `SpanLog`, offsets are zero by construction).
    pub fn add_spans(&mut self, spans: impl IntoIterator<Item = SpanRecord>) {
        self.spans.extend(spans);
    }

    /// Ingest one node's spans — e.g. scraped off the wire via
    /// `GetFlightTraces` — stamping `nid` over any zero node ids and
    /// shifting its private epoch onto the collector's shared timeline by
    /// `epoch_offset_ns` (that process's epoch instant minus the reference
    /// epoch, in nanoseconds; negative when the process started before the
    /// reference). Skew must be measured out of band — see the module docs.
    pub fn add_node_spans(
        &mut self,
        nid: u32,
        epoch_offset_ns: i64,
        spans: impl IntoIterator<Item = SpanRecord>,
    ) {
        for mut s in spans {
            if s.nid == 0 {
                s.nid = nid;
            }
            s.start_ns = s.start_ns.saturating_add_signed(epoch_offset_ns);
            self.spans.push(s);
        }
    }

    /// All assembled traces, largest end-to-end latency first.
    pub fn traces(&self) -> Vec<Trace> {
        let mut by_id: BTreeMap<u64, Trace> = BTreeMap::new();
        for s in &self.spans {
            let t = by_id
                .entry(s.trace_id)
                .or_insert_with(|| Trace { trace_id: s.trace_id, spans: Vec::new() });
            t.spans.push(s.clone());
        }
        let mut out: Vec<Trace> = by_id.into_values().collect();
        for t in &mut out {
            t.spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
        }
        out.sort_by_key(|t| std::cmp::Reverse(t.total_ns()));
        out
    }

    /// The assembled trace for one id, if any span carried it.
    pub fn trace(&self, trace_id: u64) -> Option<Trace> {
        self.traces().into_iter().find(|t| t.trace_id == trace_id)
    }

    /// Export every assembled trace as Chrome `trace_event` JSON; read it
    /// back with [`parse_chrome_spans`].
    ///
    /// Complete events (`ph: "X"`), microsecond timestamps; `pid` is the
    /// recording node, `tid` a per-request lane within it, so Perfetto
    /// renders one process track per node with the request's stages
    /// nested under its `total` span. Full-width ids travel as hex
    /// strings in `args`: viewers read numbers as doubles.
    pub fn to_chrome_json(&self) -> Json {
        let mut lanes: HashMap<(u32, u64), u64> = HashMap::new();
        let mut events = Vec::new();
        let event = |name: String, tid: u64, s: &SpanRecord, start_ns: u64, dur_ns: u64| {
            Json::obj([
                ("name", Json::Str(name)),
                ("cat", Json::str("lwfs")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(start_ns as f64 / 1e3)),
                ("dur", Json::Num(dur_ns as f64 / 1e3)),
                ("pid", u64::from(s.nid).into()),
                ("tid", tid.into()),
                (
                    "args",
                    Json::obj([
                        ("trace_id", Json::Str(format!("{:#x}", s.trace_id))),
                        ("req_id", Json::Str(format!("{:#x}", s.req_id))),
                    ]),
                ),
            ])
        };
        for t in self.traces() {
            // Orphan participants (no `total` arrived) get a synthetic
            // `<op>.orphan` root covering their span extent, so viewers
            // still nest their stages under a parent bar instead of
            // dropping them onto a bare lane.
            let mut rooted: HashSet<(u32, u64)> = HashSet::new();
            for s in t.spans.iter().filter(|s| s.stage == TOTAL_STAGE) {
                rooted.insert((s.nid, s.req_id));
            }
            for s in &t.spans {
                let next = lanes.len() as u64 + 1;
                let tid = *lanes.entry((s.nid, s.req_id)).or_insert(next);
                if rooted.insert((s.nid, s.req_id)) {
                    let mine = t.spans.iter().filter(|o| o.nid == s.nid && o.req_id == s.req_id);
                    let start = mine.clone().map(|o| o.start_ns).min().unwrap_or(0);
                    let end =
                        mine.map(|o| o.start_ns.saturating_add(o.dur_ns)).max().unwrap_or(start);
                    events.push(event(format!("{}.orphan", s.op), tid, s, start, end - start));
                }
                events.push(event(format!("{}.{}", s.op, s.stage), tid, s, s.start_ns, s.dur_ns));
            }
        }
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ns"))])
    }

    /// Compact text rendering of one trace: one block per `(nid, req_id)`
    /// participant, its `total` first, stages indented underneath.
    pub fn text_tree(&self, trace_id: u64) -> String {
        use std::fmt::Write as _;
        let Some(t) = self.trace(trace_id) else {
            return format!("trace {trace_id:#x}: no spans\n");
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {:#x}: {} spans on {} node(s), {:.3} ms end to end",
            t.trace_id,
            t.spans.len(),
            t.nodes().len(),
            t.total_ns() as f64 / 1e6
        );
        // Participants in order of first activity.
        let mut participants: Vec<(u32, u64)> = Vec::new();
        for s in &t.spans {
            if !participants.contains(&(s.nid, s.req_id)) {
                participants.push((s.nid, s.req_id));
            }
        }
        for (nid, req_id) in participants {
            let mine: Vec<&SpanRecord> =
                t.spans.iter().filter(|s| s.nid == nid && s.req_id == req_id).collect();
            let op = mine.first().map(|s| s.op).unwrap_or("?");
            let total = mine.iter().find(|s| s.stage == TOTAL_STAGE);
            match total {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "  [nid {nid}] {op} req {req_id:#x}  total {:.3} ms",
                        s.dur_ns as f64 / 1e6
                    );
                }
                None => {
                    // Orphan participant: its `total` never arrived, so
                    // report the extent its stages cover and say so.
                    let start = mine.iter().map(|s| s.start_ns).min().unwrap_or(0);
                    let end = mine
                        .iter()
                        .map(|s| s.start_ns.saturating_add(s.dur_ns))
                        .max()
                        .unwrap_or(start);
                    let _ = writeln!(
                        out,
                        "  [nid {nid}] {op} req {req_id:#x}  orphan (no total span; \
                         stages cover {:.3} ms)",
                        (end - start) as f64 / 1e6
                    );
                }
            }
            for s in mine.iter().filter(|s| s.stage != TOTAL_STAGE) {
                let _ = writeln!(
                    out,
                    "    {:<28} {:>12.3} us  @ {:.3} us",
                    format!("{}.{}", s.op, s.stage),
                    s.dur_ns as f64 / 1e3,
                    s.start_ns as f64 / 1e3
                );
            }
        }
        out
    }
}

/// Re-ingest a [`TraceCollector::to_chrome_json`] export as span records
/// on the shared timeline. The synthetic `*.orphan` roots are skipped —
/// they are a rendering aid, not recorded spans, and re-ingesting them
/// would double-count orphan extents. Span names are interned (bounded,
/// see [`intern`]): the artifact is outside input.
pub fn parse_chrome_spans(text: &str) -> Result<Vec<SpanRecord>, String> {
    let doc = Json::parse(text)?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("no traceEvents array — not a Chrome trace export".into());
    };
    let mut spans = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let name = e.get("name").and_then(Json::as_str).ok_or(format!("event {i}: no name"))?;
        let (op, stage) =
            name.rsplit_once('.').ok_or(format!("event {i}: name {name:?} is not op.stage"))?;
        if stage == "orphan" {
            continue;
        }
        let hex_id = |key: &str| {
            let hex = e.get("args").and_then(|a| a.get(key)).and_then(Json::as_str);
            hex.and_then(|h| u64::from_str_radix(h.strip_prefix("0x")?, 16).ok())
                .ok_or(format!("event {i}: bad {key}"))
        };
        let us_to_ns = |key: &str| {
            e.get(key).and_then(Json::as_f64).map_or(0, |us| (us * 1e3).round().max(0.0) as u64)
        };
        let nid = e.get("pid").and_then(Json::as_u64).and_then(|pid| pid.try_into().ok());
        spans.push(SpanRecord {
            req_id: hex_id("req_id")?,
            trace_id: hex_id("trace_id")?,
            nid: nid.unwrap_or(0),
            op: intern(op),
            stage: intern(stage),
            start_ns: us_to_ns("ts"),
            dur_ns: us_to_ns("dur"),
        });
    }
    Ok(spans)
}

/// One trace pinned by the [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct PinnedTrace {
    pub trace_id: u64,
    /// Largest end-to-end duration observed for the trace so far.
    pub total_ns: u64,
    pub spans: Vec<SpanRecord>,
    /// Dedup keys of spans already merged (late observes re-offer spans
    /// the pin-time ring scan already captured).
    seen: HashSet<(u64, &'static str, &'static str, u64)>,
}

impl PinnedTrace {
    fn merge(&mut self, spans: Vec<SpanRecord>) {
        for s in spans {
            if self.seen.insert((s.req_id, s.op, s.stage, s.start_ns)) {
                self.spans.push(s);
            }
        }
    }
}

/// Slow-op flight recorder: pins complete traces of outlier operations
/// (by latency threshold or top-K competition) so they survive the span
/// ring's eviction. Observed on every finished op; pinning itself is
/// rare by construction.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Ops faster than this never pin (`0` = no floor, pure top-K).
    threshold_ns: u64,
    /// Maximum pinned traces; the slowest K are kept.
    top_k: usize,
    pinned: Mutex<Vec<PinnedTrace>>,
}

/// Pin floor of a registry's flight recorder (`0`: no floor, pure top-K).
const FLIGHT_THRESHOLD_NS: u64 = 0;
/// Slowest traces a registry's flight recorder keeps pinned.
const FLIGHT_TOP_K: usize = 8;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(FLIGHT_THRESHOLD_NS, FLIGHT_TOP_K)
    }
}

impl FlightRecorder {
    pub fn new(threshold_ns: u64, top_k: usize) -> Self {
        Self { threshold_ns, top_k: top_k.max(1), pinned: Mutex::new(Vec::new()) }
    }

    /// Offer a finished operation (its `total` just closed). If the trace
    /// is already pinned, its spans merge in (indexed `for_req` lookup).
    /// Otherwise it pins when it clears the threshold and either fits or
    /// beats the current slowest pinned trace — the pin does one ring
    /// scan to capture spans other participants already recorded.
    pub fn observe(&self, log: &SpanLog, req_id: u64, trace_id: u64, total_ns: u64) {
        let mut pinned = self.pinned.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(t) = pinned.iter_mut().find(|t| t.trace_id == trace_id) {
            t.total_ns = t.total_ns.max(total_ns);
            t.merge(log.for_req(req_id));
            return;
        }
        if total_ns < self.threshold_ns {
            return;
        }
        if pinned.len() >= self.top_k {
            let (idx, min) = pinned
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.total_ns)
                .map(|(i, t)| (i, t.total_ns))
                .expect("top_k >= 1");
            if total_ns <= min {
                return;
            }
            pinned.swap_remove(idx);
        }
        let mut t = PinnedTrace { trace_id, total_ns, spans: Vec::new(), seen: HashSet::new() };
        t.merge(log.for_trace(trace_id));
        pinned.push(t);
    }

    /// Pinned traces, slowest first.
    pub fn pinned(&self) -> Vec<PinnedTrace> {
        let mut out = self.pinned.lock().unwrap_or_else(|p| p.into_inner()).clone();
        out.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        out
    }

    pub fn clear(&self) {
        self.pinned.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn replicated_write() -> Vec<SpanRecord> {
        vec![
            span(1, 1, 0, "client.mutate", "send", 0, 900),
            span(1, 1, 0, "client.mutate", TOTAL_STAGE, 0, 1000),
            span(2, 1, 1100, "storage.write", "pull", 100, 200),
            span(2, 1, 1100, "storage.write", TOTAL_STAGE, 100, 700),
            span(3, 1, 1101, "storage.repl_ship", "apply", 500, 100),
            span(3, 1, 1101, "storage.repl_ship", TOTAL_STAGE, 450, 200),
            span(9, 2, 1100, "storage.read", TOTAL_STAGE, 2000, 10),
        ]
    }

    #[test]
    fn collector_groups_by_trace_and_orders_by_latency() {
        let mut c = TraceCollector::new();
        c.add_spans(replicated_write());
        let traces = c.traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].trace_id, 1, "slowest trace first");
        assert_eq!(traces[0].total_ns(), 1000);
        assert_eq!(traces[0].nodes(), vec![0, 1100, 1101]);
        assert_eq!(traces[1].trace_id, 2);
        assert!(c.trace(3).is_none());
    }

    #[test]
    fn add_node_spans_stamps_nid_and_shifts_epoch() {
        let log = SpanLog::default();
        log.record(span(1, 1, 0, "client.mutate", TOTAL_STAGE, 1000, 10));
        let mut c = TraceCollector::new();
        c.add_node_spans(7, -500, log.recent(usize::MAX));
        let t = c.trace(1).unwrap();
        assert_eq!(t.spans[0].nid, 7);
        assert_eq!(t.spans[0].start_ns, 500);
        // Positive shift and an already-stamped nid.
        let log2 = SpanLog::default();
        log2.record(span(2, 1, 42, "storage.write", TOTAL_STAGE, 0, 5));
        c.add_node_spans(9, 100, log2.recent(usize::MAX));
        let t = c.trace(1).unwrap();
        let shifted = t.spans.iter().find(|s| s.req_id == 2).unwrap();
        assert_eq!(shifted.nid, 42, "explicit nid wins over the node's");
        assert_eq!(shifted.start_ns, 100);
    }

    #[test]
    fn chrome_export_reads_back_field_by_field() {
        let mut recorded = replicated_write();
        recorded.push(span(u64::MAX, 0x9e37_79b9_7f4a_7c15, u32::MAX, "x.y", "z", 1, 999_999));
        let mut c = TraceCollector::new();
        c.add_spans(recorded.clone());
        let json = c.to_chrome_json().to_string();
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"trace_id\": \"0x1\""));
        // Microsecond scale: 450ns -> 0.45us.
        assert!(json.contains("\"ts\": 0.45,"));

        // The orphan `x.y` gained a synthetic root, which does not read back.
        let mut back = parse_chrome_spans(&json).unwrap();
        let key = |s: &SpanRecord| (s.trace_id, s.req_id, s.nid, s.op, s.stage, s.start_ns);
        back.sort_by_key(key);
        recorded.sort_by_key(key);
        assert_eq!(back, recorded);
    }

    #[test]
    fn text_tree_lists_participants_with_stages() {
        let mut c = TraceCollector::new();
        c.add_spans(replicated_write());
        let tree = c.text_tree(1);
        assert!(tree.contains("3 node(s)"));
        assert!(tree.contains("[nid 0] client.mutate"));
        assert!(tree.contains("[nid 1100] storage.write"));
        assert!(tree.contains("storage.repl_ship.apply"));
        assert!(c.text_tree(77).contains("no spans"));
    }

    #[test]
    fn orphan_spans_render_under_synthetic_root() {
        // Trace 5's parent never arrived (partial scrape):
        // only two stage spans on one node, no TOTAL anywhere.
        let mut c = TraceCollector::new();
        c.add_spans(vec![
            span(4, 5, 1100, "storage.write", "pull", 1_000_000, 400_000),
            span(4, 5, 1100, "storage.write", "store_write", 1_400_000, 200_000),
            span(9, 2, 1100, "storage.read", TOTAL_STAGE, 2_000_000, 10),
        ]);
        // The orphan trace sorts by its span extent, not zero.
        let t = c.trace(5).unwrap();
        assert_eq!(t.total_ns(), 600_000);
        assert_eq!(c.traces()[0].trace_id, 5, "extent-ranked above the 10ns read");
        // Text tree names the orphan instead of claiming a 0ms total.
        let tree = c.text_tree(5);
        assert!(tree.contains("orphan"), "{tree}");
        assert!(tree.contains("0.600 ms"), "{tree}");
        assert!(tree.contains("storage.write.pull"), "{tree}");
        // Chrome export nests the stages under a synthetic root span.
        let json = c.to_chrome_json().to_string();
        assert!(json.contains("\"name\": \"storage.write.orphan\""), "{json}");
        assert!(json.contains("\"dur\": 600.0"), "{json}");
        // Rooted participants get no synthetic span.
        assert_eq!(json.matches(".orphan").count(), 1, "{json}");
    }

    #[test]
    fn flight_recorder_pins_outliers_and_merges_late_spans() {
        let log = SpanLog::default();
        let fr = FlightRecorder::new(0, 2);
        // Three traces; capacity two — the fastest is evicted.
        for (trace, total) in [(1u64, 100u64), (2, 500), (3, 300)] {
            log.record(span(trace * 10, trace, 1100, "storage.write", TOTAL_STAGE, 0, total));
            fr.observe(&log, trace * 10, trace, total);
        }
        let pinned = fr.pinned();
        assert_eq!(pinned.len(), 2);
        assert_eq!(pinned[0].trace_id, 2);
        assert_eq!(pinned[1].trace_id, 3);
        // A slower op of an already-pinned trace merges and raises total.
        log.record(span(21, 2, 0, "client.mutate", TOTAL_STAGE, 0, 900));
        fr.observe(&log, 21, 2, 900);
        let pinned = fr.pinned();
        assert_eq!(pinned[0].total_ns, 900);
        assert_eq!(pinned[0].spans.len(), 2, "client span merged into the pin");
        // Merging is idempotent.
        fr.observe(&log, 21, 2, 900);
        assert_eq!(fr.pinned()[0].spans.len(), 2);
        fr.clear();
        assert!(fr.pinned().is_empty());
    }

    #[test]
    fn flight_recorder_threshold_gates_pinning() {
        let log = SpanLog::default();
        let fr = FlightRecorder::new(200, 4);
        log.record(span(1, 1, 0, "storage.write", TOTAL_STAGE, 0, 150));
        fr.observe(&log, 1, 1, 150);
        assert!(fr.pinned().is_empty(), "below threshold never pins");
        log.record(span(2, 2, 0, "storage.write", TOTAL_STAGE, 0, 250));
        fr.observe(&log, 2, 2, 250);
        assert_eq!(fr.pinned().len(), 1);
        // Pin-time ring scan captures spans other reqs already recorded.
        log.record(span(30, 3, 1100, "storage.write", "pull", 0, 40));
        log.record(span(31, 3, 1101, "storage.repl_ship", TOTAL_STAGE, 10, 60));
        log.record(span(30, 3, 1100, "storage.write", TOTAL_STAGE, 0, 400));
        fr.observe(&log, 30, 3, 400);
        let t = fr.pinned().into_iter().find(|t| t.trace_id == 3).unwrap();
        assert_eq!(t.spans.len(), 3, "backup span captured by the pin scan");
    }
}
