//! The metric registry: named counters, gauges, and histograms plus the
//! span log, with point-in-time snapshots exportable as JSON.
//!
//! Names follow the `component.op.stat` convention (`portals.messages`,
//! `storage.write.pull_ns`, `txn.prepare.latency_ns`); snapshots sort
//! lexicographically, so related metrics group together in exports.

use crate::event::{Event, EventLog};
use crate::export::{event_json, histogram_json};
use crate::json::Json;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::span::{SpanLog, SpanRecord, TOTAL_STAGE};
use crate::trace::FlightRecorder;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

type Table<T> = Mutex<BTreeMap<String, Arc<T>>>;

fn get_or_insert<T: Default>(table: &Table<T>, name: &str) -> Arc<T> {
    let mut map = table.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    let fresh = Arc::new(T::default());
    map.insert(name.to_string(), Arc::clone(&fresh));
    fresh
}

/// Ring and recorder sizing for a [`Registry`].
///
/// The defaults match the historical hard-coded values; soak runs under a
/// polling monitor raise them (threaded from the cluster config) so hours
/// of spans and events survive without the rings silently wrapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Span ring length ([`SpanLog::with_capacity`]).
    pub span_capacity: usize,
    /// Event journal length ([`EventLog::with_capacity`]).
    pub event_capacity: usize,
    /// Flight-recorder pin threshold in nanoseconds (`0` = pure top-K).
    pub flight_threshold_ns: u64,
    /// Maximum pinned outlier traces.
    pub flight_top_k: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self { span_capacity: 4096, event_capacity: 1024, flight_threshold_ns: 0, flight_top_k: 8 }
    }
}

/// Process-wide (or per-`Network`) metric registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Table<Counter>,
    gauges: Table<Gauge>,
    histograms: Table<Histogram>,
    spans: SpanLog,
    events: EventLog,
    flight: FlightRecorder,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry with explicitly sized rings and flight recorder.
    pub fn with_config(config: &ObsConfig) -> Self {
        Self {
            counters: Table::default(),
            gauges: Table::default(),
            histograms: Table::default(),
            spans: SpanLog::with_capacity(config.span_capacity),
            events: EventLog::with_capacity(config.event_capacity),
            flight: FlightRecorder::new(config.flight_threshold_ns, config.flight_top_k),
        }
    }

    /// Get or create the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// Get or create the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// Get or create the histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// The span log shared by every service on this registry.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// The control-plane event journal shared by every service on this
    /// registry.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The slow-op flight recorder fed by every finished [`OpTrace`].
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Start tracing one operation; see [`OpTrace`]. The trace starts
    /// self-rooted (`trace_id = req_id`, node 0); servers handling a
    /// propagated context chain [`OpTrace::in_trace`]/[`OpTrace::on_node`]
    /// to attribute the spans.
    pub fn trace(&self, req_id: u64, op: &'static str) -> OpTrace<'_> {
        OpTrace {
            registry: self,
            req_id,
            trace_id: req_id,
            nid: 0,
            op,
            origin: Instant::now(),
            origin_ns: self.spans.now_ns(),
            last_ns: 0,
            finished: false,
        }
    }

    /// Reset every counter, gauge, and histogram and clear the span log.
    /// Registered names survive so exports stay stable across resets.
    pub fn reset(&self) {
        for c in self.counters.lock().unwrap_or_else(|p| p.into_inner()).values() {
            c.reset();
        }
        for g in self.gauges.lock().unwrap_or_else(|p| p.into_inner()).values() {
            g.reset();
        }
        for h in self.histograms.lock().unwrap_or_else(|p| p.into_inner()).values() {
            h.reset();
        }
        self.spans.clear();
        self.events.clear();
        self.flight.clear();
    }

    /// Cumulative bucket-level capture of every metric for windowed
    /// aggregation — the local-node entry point into the `window` module
    /// (scraped remote nodes build the same frame from wire parts).
    /// `ts_ns` comes from the caller so frames of many nodes share one
    /// monitor-side timeline.
    pub fn frame(&self, ts_ns: u64) -> crate::window::MetricFrame {
        use crate::window::HistogramInterval;
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), HistogramInterval::from_histogram(v)))
            .collect();
        crate::window::MetricFrame::new(ts_ns, counters, gauges, histograms)
    }

    /// Point-in-time copy of every registered metric plus retained spans.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            spans: self.spans.recent(usize::MAX),
            events: self.events.all(),
        }
    }
}

/// In-flight trace of one operation.
///
/// Each [`OpTrace::stage`] call closes the stage that just ran: it
/// records a span for the elapsed time since the previous checkpoint
/// and feeds the same duration into the `{op}.{stage}_ns` histogram.
/// Dropping the trace (or calling [`OpTrace::finish`]) records the
/// end-to-end `{op}.total_ns` span covering the whole operation.
pub struct OpTrace<'a> {
    registry: &'a Registry,
    req_id: u64,
    trace_id: u64,
    nid: u32,
    op: &'static str,
    origin: Instant,
    origin_ns: u64,
    last_ns: u64,
    finished: bool,
}

impl OpTrace<'_> {
    /// Attribute this trace's spans to node `nid` (builder style).
    pub fn on_node(mut self, nid: u32) -> Self {
        self.nid = nid;
        self
    }

    /// Join the distributed trace `trace_id` instead of self-rooting.
    /// A zero id (an untraced request) keeps the `req_id` self-root, so
    /// its spans form a per-hop trace rather than being lost.
    pub fn in_trace(mut self, trace_id: u64) -> Self {
        if trace_id != 0 {
            self.trace_id = trace_id;
        }
        self
    }

    /// The distributed trace id this op's spans carry.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Close the stage that ran since the last checkpoint; returns the
    /// stage duration in nanoseconds (so callers can feed aggregate
    /// histograms without re-measuring).
    pub fn stage(&mut self, stage: &'static str) -> u64 {
        let now = self.elapsed_ns();
        let dur = now - self.last_ns;
        self.record(stage, self.last_ns, dur);
        self.last_ns = now;
        dur
    }

    /// Record a sub-span under a *different* op name (e.g. `wal.append`
    /// inside a `storage.write`) covering the wall interval that ended
    /// just now. Feeds no histogram — subsystems like the WAL already
    /// time themselves; this only adds the span to the causal trace.
    /// Does not move the running checkpoint.
    pub fn span_with_duration(&mut self, op: &'static str, stage: &'static str, dur_ns: u64) {
        let end = self.elapsed_ns();
        self.registry.spans.record(SpanRecord {
            req_id: self.req_id,
            trace_id: self.trace_id,
            nid: self.nid,
            op,
            stage,
            start_ns: self.origin_ns + end.saturating_sub(dur_ns),
            dur_ns,
        });
    }

    fn record(&self, stage: &'static str, start_off_ns: u64, dur_ns: u64) {
        self.registry.spans.record(SpanRecord {
            req_id: self.req_id,
            trace_id: self.trace_id,
            nid: self.nid,
            op: self.op,
            stage,
            start_ns: self.origin_ns + start_off_ns,
            dur_ns,
        });
        self.registry.histogram(&format!("{}.{}_ns", self.op, stage)).record(dur_ns);
    }

    /// Record the end-to-end span. Also invoked on drop.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let total = self.elapsed_ns();
        self.record(TOTAL_STAGE, 0, total);
        self.registry.flight.observe(&self.registry.spans, self.req_id, self.trace_id, total);
    }
}

impl Drop for OpTrace<'_> {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

/// Point-in-time export of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Retained spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Retained control-plane events, oldest first.
    pub events: Vec<Event>,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Retained control-plane events of one kind, oldest first.
    pub fn events_of_kind(&self, kind: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }

    /// Roll another node's snapshot into this one, producing a cluster
    /// series from per-node series: counters and gauges with the same
    /// name add, histograms combine summary-wise (count/sum/max exact;
    /// quantiles count-weighted, so the merged p99 is an *estimate* —
    /// exact cross-node quantiles go through the bucket-level
    /// [`HistogramInterval`](crate::window::HistogramInterval) merge
    /// instead). Spans and events concatenate; events re-sort by
    /// timestamp since per-node `seq` counters are not comparable.
    pub fn merge(&mut self, other: &Snapshot) {
        fn fold<V: Copy, M: FnMut(&mut V, V)>(
            dst: &mut Vec<(String, V)>,
            src: &[(String, V)],
            mut combine: M,
        ) {
            for (name, v) in src {
                match dst.iter_mut().find(|(n, _)| n == name) {
                    Some((_, cur)) => combine(cur, *v),
                    None => dst.push((name.clone(), *v)),
                }
            }
            dst.sort_by(|a, b| a.0.cmp(&b.0));
        }
        fold(&mut self.counters, &other.counters, |a, b| *a += b);
        fold(&mut self.gauges, &other.gauges, |a, b| *a += b);
        fold(&mut self.histograms, &other.histograms, |a, b| {
            let total = a.count + b.count;
            if total > 0 {
                let (wa, wb) = (a.count as f64, b.count as f64);
                let weight =
                    |x: u64, y: u64| ((x as f64 * wa + y as f64 * wb) / (wa + wb)).round() as u64;
                a.p50 = weight(a.p50, b.p50);
                a.p95 = weight(a.p95, b.p95);
                a.p99 = weight(a.p99, b.p99);
            }
            a.count = total;
            a.sum += b.sum;
            a.max = a.max.max(b.max);
            a.mean = if total == 0 { 0.0 } else { a.sum as f64 / total as f64 };
        });
        self.spans.extend(other.spans.iter().cloned());
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| (e.ts_ns, e.seq));
    }

    /// The JSON export, led by `meta`: `lwfs-repro` stamps run timestamp,
    /// protocol version and node census there — things this
    /// dependency-free crate cannot know itself.
    pub fn to_json(&self, meta: Json) -> Json {
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
        let events =
            self.events.iter().map(|e| event_json(e.seq, e.ts_ns, e.nid, e.kind, &e.detail));
        Json::obj([
            ("meta", meta),
            ("counters", Json::obj(self.counters.iter().map(|(k, v)| (k.as_str(), (*v).into())))),
            ("gauges", Json::obj(self.gauges.iter().map(|(k, v)| (k.as_str(), (*v).into())))),
            (
                "histograms",
                Json::obj(self.histograms.iter().map(|(k, h)| (k.as_str(), histogram_json(h)))),
            ),
            ("spans", Json::Arr(self.spans.iter().map(span).collect())),
            ("events", Json::Arr(events.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instance() {
        let r = Registry::new();
        let a = r.counter("portals.messages");
        let b = r.counter("portals.messages");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn trace_records_stages_and_total() {
        let r = Registry::new();
        {
            let mut t = r.trace(7, "storage.write");
            t.stage("authorize");
            t.stage("pull");
            t.finish();
        }
        let spans = r.spans().for_req(7);
        assert_eq!(spans.len(), 3);
        let total = spans.iter().find(|s| s.stage == TOTAL_STAGE).unwrap();
        let stage_sum: u64 =
            spans.iter().filter(|s| s.stage != TOTAL_STAGE).map(|s| s.dur_ns).sum();
        assert!(stage_sum <= total.dur_ns, "{stage_sum} > {}", total.dur_ns);
        assert_eq!(r.histogram("storage.write.total_ns").count(), 1);
        assert_eq!(r.histogram("storage.write.authorize_ns").count(), 1);
    }

    #[test]
    fn drop_finishes_trace_once() {
        let r = Registry::new();
        {
            let mut t = r.trace(9, "txn.commit");
            t.stage("prepare");
        } // drop records total
        assert_eq!(r.spans().completed_reqs(), vec![9]);
        assert_eq!(r.histogram("txn.commit.total_ns").count(), 1);
    }

    #[test]
    fn snapshot_and_exports() {
        let r = Registry::new();
        r.counter("authz.cache.hits").add(5);
        r.gauge("storage.queue.depth").set(3);
        r.histogram("txn.prepare.latency_ns").record(1500);
        let snap = r.snapshot();
        assert_eq!(snap.counter("authz.cache.hits"), Some(5));
        assert_eq!(snap.gauge("storage.queue.depth"), Some(3));
        assert_eq!(snap.histogram("txn.prepare.latency_ns").unwrap().count, 1);
    }

    #[test]
    fn snapshot_json_reads_back_field_by_field() {
        let r = Registry::new();
        r.counter("authz.cache.hits").add(u64::MAX);
        r.gauge("storage.queue.depth").set(i64::MIN);
        r.histogram("txn.prepare.latency_ns").record(1500);
        r.histogram("txn.prepare.latency_ns").record(1);
        r.trace(0x9e37_79b9_7f4a_7c15, "storage.write").on_node(1100).stage("pull");
        r.events().record(1004, "directory.republish", "epoch 1 -> 2 \"quoted\"\n\u{1}");
        let snap = r.snapshot();
        let meta = Json::obj([("unix_ts", Json::from(7u64))]);
        let back = Json::parse(&snap.to_json(meta.clone()).to_string()).unwrap();

        let names: Vec<&str> = back.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["meta", "counters", "gauges", "histograms", "spans", "events"]);
        assert_eq!(back.get("meta"), Some(&meta));
        for (name, v) in &snap.counters {
            assert_eq!(
                back.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64),
                Some(*v)
            );
        }
        for (name, v) in &snap.gauges {
            assert_eq!(
                back.get("gauges").and_then(|g| g.get(name)).and_then(Json::as_i64),
                Some(*v)
            );
        }
        for (name, h) in &snap.histograms {
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
                [h.count, h.sum, h.p50, h.p95, h.p99, h.max].map(Some)
            );
            assert_eq!(read.get("mean").and_then(Json::as_f64), Some(h.mean));
        }
        let spans = back.get("spans").map(Json::as_arr).unwrap();
        assert_eq!(spans.len(), snap.spans.len());
        for (read, s) in spans.iter().zip(&snap.spans) {
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
        let events = back.get("events").map(Json::as_arr).unwrap();
        let e = &snap.events[0];
        assert_eq!(events, [event_json(e.seq, e.ts_ns, e.nid, e.kind, &e.detail)]);
        assert_eq!(events[0].get("detail").and_then(Json::as_str), Some(e.detail.as_str()));
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let r = Registry::new();
        r.counter("portals.puts").add(2);
        r.histogram("naming.lookup.latency_ns").record(10);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("portals.puts"), Some(0));
        assert_eq!(snap.histogram("naming.lookup.latency_ns").unwrap().count, 0);
    }

    #[test]
    fn with_config_sizes_rings() {
        let r = Registry::with_config(&ObsConfig {
            span_capacity: 2,
            event_capacity: 3,
            flight_threshold_ns: 0,
            flight_top_k: 1,
        });
        for i in 0..5u64 {
            let mut t = r.trace(i, "storage.write");
            t.stage("only");
        }
        assert_eq!(r.spans().recent(usize::MAX).len(), 2);
        for i in 0..5u32 {
            r.events().record(i, "repl.epoch_bump", "x");
        }
        assert_eq!(r.events().len(), 3);
        assert!(r.flight().pinned().len() <= 1);
    }

    #[test]
    fn snapshot_merge_rolls_up_nodes() {
        let (a, b) = (Registry::new(), Registry::new());
        a.counter("storage.writes").add(3);
        b.counter("storage.writes").add(4);
        b.counter("naming.ops").add(1);
        a.gauge("storage.repl_lag").set(2);
        b.gauge("storage.repl_lag").set(5);
        a.histogram("storage.write.total_ns").record(100);
        b.histogram("storage.write.total_ns").record(300);
        a.events().record(0, "wal.recovery", "a");
        b.events().record(1, "failover.promote", "b");

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("storage.writes"), Some(7));
        assert_eq!(merged.counter("naming.ops"), Some(1));
        assert_eq!(merged.gauge("storage.repl_lag"), Some(7));
        let h = merged.histogram("storage.write.total_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 400);
        assert_eq!(h.max, 300);
        assert_eq!(merged.events.len(), 2);
        // Names stay sorted so exports remain stable.
        let names: Vec<_> = merged.counters.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
