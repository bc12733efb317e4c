//! The metric registry: named counters, gauges, and histograms plus the
//! span log, the event journal and the flight recorder, captured as one
//! [`MetricFrame`] for export and windowing.
//!
//! Names follow the `component.op.stat` convention (`portals.messages`,
//! `storage.write.pull_ns`, `txn.prepare.latency_ns`); frames sort
//! lexicographically, so related metrics group together in exports.

use crate::event::EventLog;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::span::{SpanLog, SpanRecord, TOTAL_STAGE};
use crate::trace::FlightRecorder;
use crate::window::{HistogramInterval, MetricFrame};
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

    /// Point-in-time capture of every registered metric — cumulative
    /// counters, gauge levels and bucket-level histograms. The one capture
    /// of a registry: the exporters render it, the window layer subtracts
    /// it, and a scraped node's wire snapshot decodes back into the same
    /// shape. `ts_ns` comes from the caller so frames of many nodes share
    /// one monitor-side timeline.
    pub fn frame(&self, ts_ns: u64) -> MetricFrame {
        MetricFrame::new(
            ts_ns,
            collect(&self.counters, Counter::get),
            collect(&self.gauges, Gauge::get),
            collect(&self.histograms, HistogramInterval::from_histogram),
        )
    }
}

/// `(name, read(metric))` for every metric of one table, sorted by name.
fn collect<T, V>(table: &Table<T>, read: impl Fn(&T) -> V) -> Vec<(String, V)> {
    let map = table.lock().unwrap_or_else(|p| p.into_inner());
    map.iter().map(|(k, v)| (k.clone(), read(v))).collect()
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

    /// Start the trace at `start` instead of now (builder style), so its
    /// first stage and its total cover time that passed before the trace
    /// was opened — a request's wait between arrival and a worker.
    pub fn since(mut self, start: Instant) -> Self {
        let back = self.origin.saturating_duration_since(start);
        self.origin -= back;
        self.origin_ns = self.origin_ns.saturating_sub(back.as_nanos() as u64);
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
    fn a_backdated_trace_covers_the_wait_before_it_opened() {
        let r = Registry::new();
        let arrived = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut t = r.trace(3, "storage.write").since(arrived);
        let waited = t.stage("queue_wait");
        t.finish();
        assert!(waited >= 5_000_000, "queue_wait {waited} ns misses the wait before the trace");
        let spans = r.spans().for_req(3);
        let total = spans.iter().find(|s| s.stage == TOTAL_STAGE).unwrap();
        let wait = spans.iter().find(|s| s.stage == "queue_wait").unwrap();
        assert_eq!(wait.start_ns, total.start_ns, "both start at the arrival");
        assert!(total.dur_ns >= waited);
    }

    #[test]
    fn drop_finishes_trace_once() {
        let r = Registry::new();
        {
            let mut t = r.trace(9, "txn.commit");
            t.stage("prepare");
        } // drop records total
        let totals = r.spans().for_req(9).iter().filter(|s| s.stage == TOTAL_STAGE).count();
        assert_eq!(totals, 1);
        assert_eq!(r.histogram("txn.commit.total_ns").count(), 1);
    }

    #[test]
    fn frame_captures_every_table() {
        let r = Registry::new();
        r.counter("authz.cache.hits").add(5);
        r.gauge("storage.queue.depth").set(3);
        r.histogram("txn.prepare.latency_ns").record(1500);
        let frame = r.frame(7);
        assert_eq!(frame.ts_ns, 7);
        assert_eq!(frame.counter("authz.cache.hits"), Some(5));
        assert_eq!(frame.gauge("storage.queue.depth"), Some(3));
        assert_eq!(frame.histogram("txn.prepare.latency_ns").unwrap().count, 1);
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let r = Registry::new();
        r.counter("portals.puts").add(2);
        r.histogram("naming.lookup.latency_ns").record(10);
        r.reset();
        let frame = r.frame(0);
        assert_eq!(frame.counter("portals.puts"), Some(0));
        assert_eq!(frame.histogram("naming.lookup.latency_ns").unwrap().count, 0);
    }
}
