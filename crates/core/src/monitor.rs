//! The cluster health monitor: a polling scraper over the wire telemetry
//! plane.
//!
//! The monitor registers its own endpoint (nid [`MONITOR_NID`], beside
//! the directory in the service partition) and periodically sends
//! `GetTelemetry` to every scrape target — storage servers, the naming
//! and authorization services, and the group directory. Each tick it:
//!
//! 1. **Detects failures by scrape staleness.** A target that misses
//!    [`MonitorConfig::stale_after`] consecutive scrapes is declared
//!    stale — the classic poll-based failure detector. Recovery clears
//!    the state. Both transitions journal `alert.fire` / `alert.clear`
//!    events so post-mortems see detector output in causal order with
//!    the cluster events it predicted.
//! 2. **Feeds windowed aggregation.** The scraped cumulative snapshot
//!    decodes ([`lwfs_portals::telemetry::frame_of`]) into the
//!    [`MetricFrame`] its node's registry captured, stamped on the
//!    monitor's own timeline; the [`WindowTracker`] subtracts consecutive
//!    frames into [`WindowDelta`]s (per-window rates, gauge levels,
//!    interval quantiles — see `lwfs_obs::window`). The journal tail rides
//!    the same scrape behind a cursor; when the node's bounded journal
//!    evicted events the cursor had not reached, the gap is counted in
//!    `monitor.events_lost` instead of vanishing silently.
//! 3. **Evaluates declarative health rules** ([`HealthRule`]) of the
//!    form "`storage.repl_lag > 0` for 2 consecutive windows" or
//!    "`p99(storage.write.total_ns) > SLO`". A rule that crosses its
//!    streak journals `alert.fire` once; the first clean window after
//!    that journals `alert.clear`. Because the journal is globally
//!    sequenced, a test can assert the lag alert fired *before* the
//!    eviction it predicts.
//! 4. **Exports.** Every completed window appends one JSONL value
//!    (`lwfs_obs::export::window_json`, carrying the scraped journal
//!    tail) to the series [`ClusterMonitor::jsonl`] returns.
//!
//! ### One registry, many endpoints
//!
//! An in-process cluster shares a single metric registry across every
//! service on the fabric, so the snapshots scraped from two live targets
//! are *identical*. The monitor therefore takes the first successful
//! scrape of each tick as the cluster view — merging them would
//! N-multiply every counter — and uses the remaining per-target scrapes
//! purely as liveness probes. Per-node attribution still works because
//! node-scoped series carry the node in the metric name
//! (`storage.srv1100.in_flight`), which the JSONL window keys turn into
//! a `nid` label.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::collections::HashSet;

use lwfs_obs::export::{event_json, window_json};
use lwfs_obs::json::Json;
use lwfs_obs::{Attribution, SpanRecord, TailReport, TraceCollector, WindowDelta, WindowTracker};
use lwfs_portals::telemetry::frame_of;
use lwfs_portals::{Network, RpcClient};
use lwfs_proto::{FlightTrace, ProcessId, ReplyBody, RequestBody, TelemetrySnapshot};
use parking_lot::Mutex;

use crate::cluster::MONITOR_NID;

/// What a [`HealthRule`] tests against each completed window.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Gauge level at window end above a threshold (e.g. `repl_lag`
    /// watermark, WAL fsync backlog, queue depth).
    GaugeAbove { gauge: String, threshold: i64 },
    /// Window-interval p99 of a latency histogram above an SLO.
    P99AboveNs { histogram: String, threshold_ns: u64 },
}

impl Condition {
    /// The observed value when the condition holds on `w`, else `None`.
    fn observe(&self, w: &WindowDelta) -> Option<String> {
        match self {
            Condition::GaugeAbove { gauge, threshold } => {
                let v = w.gauge(gauge)?;
                (v > *threshold).then(|| format!("{gauge}={v} > {threshold}"))
            }
            Condition::P99AboveNs { histogram, threshold_ns } => {
                let h = w.histogram(histogram)?;
                if h.is_empty() {
                    return None;
                }
                let p99 = h.quantile(0.99);
                (p99 > *threshold_ns)
                    .then(|| format!("p99({histogram})={p99}ns > {threshold_ns}ns"))
            }
        }
    }
}

/// One declarative health rule: a [`Condition`] that must hold for
/// `for_windows` consecutive windows before the alert fires.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRule {
    /// Stable rule name, carried in the `alert.fire` / `alert.clear`
    /// journal detail.
    pub name: String,
    pub condition: Condition,
    /// Consecutive windows the condition must hold. A debounce: one
    /// window of replication lag during a burst is normal, two in a row
    /// means shipping is not keeping up.
    pub for_windows: usize,
}

impl HealthRule {
    pub fn gauge_above(name: &str, gauge: &str, threshold: i64, for_windows: usize) -> Self {
        Self {
            name: name.into(),
            condition: Condition::GaugeAbove { gauge: gauge.into(), threshold },
            for_windows: for_windows.max(1),
        }
    }

    pub fn p99_above(name: &str, histogram: &str, threshold_ns: u64, for_windows: usize) -> Self {
        Self {
            name: name.into(),
            condition: Condition::P99AboveNs { histogram: histogram.into(), threshold_ns },
            for_windows: for_windows.max(1),
        }
    }
}

/// The default rule set: replication lag sustained across two windows,
/// a WAL fsync backlog, and a storage-write p99 SLO.
pub fn default_rules() -> Vec<HealthRule> {
    vec![
        HealthRule::gauge_above("repl_lag_sustained", "storage.repl_lag", 0, 2),
        HealthRule::gauge_above("storage_queue_backlog", "storage.queue_depth", 256, 2),
        HealthRule::p99_above(
            "write_p99_slo",
            "storage.write.total_ns",
            Duration::from_millis(50).as_nanos() as u64,
            2,
        ),
    ]
}

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Scrape/window interval.
    pub interval: Duration,
    /// Windows retained by the tracker (and the JSONL buffer bound).
    pub window_limit: usize,
    /// Consecutive missed scrapes before a target is declared stale.
    pub stale_after: u32,
    pub rules: Vec<HealthRule>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(50),
            window_limit: 128,
            stale_after: 3,
            rules: default_rules(),
        }
    }
}

/// Liveness of one scrape target, derived purely from scrape outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetHealth {
    pub id: ProcessId,
    /// Consecutive failed scrapes (0 = last scrape succeeded).
    pub missed: u32,
    /// `missed >= stale_after`: the failure detector has declared the
    /// target down until a scrape succeeds again.
    pub stale: bool,
}

/// Current state of one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertState {
    pub rule: String,
    pub firing: bool,
    /// Consecutive windows the condition has held.
    pub streak: usize,
}

struct RuleState {
    rule: HealthRule,
    streak: usize,
    firing: bool,
}

struct TargetState {
    id: ProcessId,
    missed: u32,
    stale: bool,
}

#[derive(Default)]
struct MonitorState {
    tracker: WindowTracker,
    /// Journal cursor: next event seq the monitor has not yet scraped.
    events_cursor: u64,
    jsonl: Vec<Json>,
    ticks: u64,
    windows: u64,
    /// Slow-trace spans assembled from the latest flight scrape, deduped
    /// onto the monitor's timeline.
    flight_spans: Vec<SpanRecord>,
    /// Critical-path attribution of each assembled trace, slowest first.
    attributions: Vec<Attribution>,
    /// Fleet-wide p99 decomposition over the attributions.
    tail: Option<TailReport>,
}

struct MonitorInner {
    net: Network,
    targets: Vec<ProcessId>,
    config: MonitorConfig,
    state: Mutex<MonitorState>,
    target_states: Mutex<Vec<TargetState>>,
    rule_states: Mutex<Vec<RuleState>>,
    stop: AtomicBool,
}

impl MonitorInner {
    fn new(net: &Network, targets: Vec<ProcessId>, config: MonitorConfig) -> Self {
        let target_states =
            targets.iter().map(|&id| TargetState { id, missed: 0, stale: false }).collect();
        let rule_states = config
            .rules
            .iter()
            .map(|r| RuleState { rule: r.clone(), streak: 0, firing: false })
            .collect();
        Self {
            net: net.clone(),
            targets,
            state: Mutex::new(MonitorState {
                tracker: WindowTracker::new(config.window_limit),
                ..Default::default()
            }),
            config,
            target_states: Mutex::new(target_states),
            rule_states: Mutex::new(rule_states),
            stop: AtomicBool::new(false),
        }
    }

    /// One scrape-and-aggregate tick: a no-op for the window state when no
    /// target answered.
    fn tick(&self, client: &RpcClient<'_>, epoch: Instant) {
        let obs = Arc::clone(self.net.obs());
        let mut cluster_view: Option<TelemetrySnapshot> = None;
        let mut flights: Vec<(ProcessId, Vec<FlightTrace>)> = Vec::new();
        let cursor = self.state.lock().events_cursor;
        for (i, &target) in self.targets.iter().enumerate() {
            let reply = client.call(target, RequestBody::GetTelemetry { events_from: cursor });
            let ok = matches!(reply, Ok(ReplyBody::Telemetry(_)));
            if let Ok(ReplyBody::Telemetry(snap)) = reply {
                obs.counter("monitor.scrapes").inc();
                // All live targets share the fabric registry, so the
                // first answer *is* the cluster view; the rest of the
                // sweep only feeds the failure detector.
                if cluster_view.is_none() {
                    cluster_view = Some(snap);
                }
                // Flight traces ride the same sweep, but only from
                // targets that just answered — a partitioned node must
                // cost one timeout per tick, not two.
                if let Ok(ReplyBody::FlightTraces(traces)) =
                    client.call(target, RequestBody::GetFlightTraces)
                {
                    if !traces.is_empty() {
                        flights.push((target, traces));
                    }
                }
            } else {
                obs.counter("monitor.scrape_failures").inc();
            }
            self.update_target(i, ok, &obs);
        }

        let stale = self.target_states.lock().iter().filter(|t| t.stale).count();
        obs.gauge("monitor.stale_targets").set(stale as i64);

        let Some(snap) = cluster_view else { return };
        // The journal keeps only its newest events: a tail that starts past
        // the cursor means the ring dropped the difference unscraped.
        let lost = snap.events.first().map_or(0, |e| e.seq.saturating_sub(cursor));
        if lost > 0 {
            obs.counter("monitor.events_lost").add(lost);
        }
        let ts_ns = epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let frame = frame_of(&snap, ts_ns);
        let (flight_spans, attributions, tail) = self.assemble_flights(&flights);

        let mut state = self.state.lock();
        state.ticks += 1;
        state.flight_spans = flight_spans;
        state.attributions = attributions;
        state.tail = tail;
        if let Some(last) = snap.events.last() {
            state.events_cursor = last.seq + 1;
        }
        // Borrow dance: evaluate rules on a clone-free reference, then
        // mutate the JSONL buffer.
        let line = state.tracker.observe(frame).map(|w| {
            let events =
                snap.events.iter().map(|e| event_json(e.seq, e.ts_ns, e.nid, &e.kind, &e.detail));
            window_json(w, events.collect())
        });
        let window_done = if let Some(line) = line {
            state.jsonl.push(line);
            let limit = self.config.window_limit.max(1);
            if state.jsonl.len() > limit {
                let excess = state.jsonl.len() - limit;
                state.jsonl.drain(..excess);
            }
            state.windows += 1;
            true
        } else {
            false
        };
        let latest = state.tracker.latest().cloned();
        let tail = state.tail.clone();
        drop(state);

        if window_done {
            obs.counter("monitor.windows").inc();
            if let Some(w) = latest {
                self.evaluate_rules(&w, tail.as_ref(), &obs);
            }
        }
    }

    /// Assemble the tick's scraped flight traces onto the monitor's
    /// timeline and attribute them. Pins are cumulative on each node, so
    /// the view is rebuilt from scratch every tick; duplicates (every
    /// in-process target serves the same shared recorder) dedup away on
    /// span identity.
    fn assemble_flights(
        &self,
        flights: &[(ProcessId, Vec<FlightTrace>)],
    ) -> (Vec<SpanRecord>, Vec<Attribution>, Option<TailReport>) {
        let mut collector = TraceCollector::new();
        let mut seen: HashSet<(u64, u64, u32, &'static str, &'static str, u64)> = HashSet::new();
        for (target, traces) in flights {
            let mut spans: Vec<SpanRecord> = Vec::new();
            for t in traces {
                for s in &t.spans {
                    // Scraped names are owned strings off the wire; the
                    // bounded interner re-enters the record shape.
                    let op = lwfs_obs::intern(&s.op);
                    let stage = lwfs_obs::intern(&s.stage);
                    if seen.insert((t.trace_id, s.req_id, s.nid, op, stage, s.start_ns)) {
                        spans.push(SpanRecord {
                            req_id: s.req_id,
                            trace_id: t.trace_id,
                            nid: s.nid,
                            op,
                            stage,
                            start_ns: s.start_ns,
                            dur_ns: s.dur_ns,
                        });
                    }
                }
            }
            // Every scrape target shares the monitor's span-log epoch (one
            // fabric, one timeline), so no node needs a skew offset.
            collector.add_node_spans(target.nid.0, 0, spans);
        }
        let traces = collector.traces();
        let attributions: Vec<Attribution> =
            traces.iter().filter_map(lwfs_obs::attribute).collect();
        let tail = TailReport::from_attributions(&attributions);
        let mut spans = Vec::new();
        for mut t in traces {
            spans.append(&mut t.spans);
        }
        (spans, attributions, tail)
    }

    fn update_target(&self, idx: usize, ok: bool, obs: &lwfs_obs::Registry) {
        let mut targets = self.target_states.lock();
        let t = &mut targets[idx];
        if ok {
            if t.stale {
                obs.events().record(
                    MONITOR_NID,
                    "alert.clear",
                    format!("rule=stale_target: {} answering again", t.id),
                );
            }
            t.missed = 0;
            t.stale = false;
        } else {
            t.missed = t.missed.saturating_add(1);
            if !t.stale && t.missed >= self.config.stale_after {
                t.stale = true;
                obs.events().record(
                    MONITOR_NID,
                    "alert.fire",
                    format!("rule=stale_target: {} missed {} consecutive scrapes", t.id, t.missed),
                );
            }
        }
    }

    fn evaluate_rules(&self, w: &WindowDelta, tail: Option<&TailReport>, obs: &lwfs_obs::Registry) {
        // The blame suffix: when the latest flight scrape attributed the
        // fleet's tail, every firing alert names the dominant stage and
        // its share — "write p99 blew the SLO" becomes "…and 87% of the
        // tail is ship RTT".
        let blame = tail
            .and_then(|t| t.dominant())
            .map(|(stage, share)| format!("; blame={} share={share:.2}", stage.as_str()))
            .unwrap_or_default();
        let mut rules = self.rule_states.lock();
        for rs in rules.iter_mut() {
            match rs.rule.condition.observe(w) {
                Some(observed) => {
                    rs.streak += 1;
                    if !rs.firing && rs.streak >= rs.rule.for_windows {
                        rs.firing = true;
                        obs.events().record(
                            MONITOR_NID,
                            "alert.fire",
                            format!(
                                "rule={}: {} for {} consecutive windows{}",
                                rs.rule.name, observed, rs.streak, blame
                            ),
                        );
                        obs.counter("monitor.alerts_fired").inc();
                    }
                }
                None => {
                    if rs.firing {
                        obs.events().record(
                            MONITOR_NID,
                            "alert.clear",
                            format!("rule={}: condition no longer holds", rs.rule.name),
                        );
                    }
                    rs.firing = false;
                    rs.streak = 0;
                }
            }
        }
    }
}

/// A running [`ClusterMonitor`]'s control handle. Dropping it stops the
/// scrape thread and unregisters the monitor endpoint.
pub struct ClusterMonitor {
    inner: Arc<MonitorInner>,
    thread: Option<JoinHandle<()>>,
    id: ProcessId,
}

impl ClusterMonitor {
    /// Spawn the monitor at nid [`MONITOR_NID`], scraping `targets` every
    /// [`MonitorConfig::interval`].
    ///
    /// # Panics
    /// Panics if the monitor endpoint is already registered (spawn one
    /// monitor per fabric).
    pub fn spawn(net: &Network, targets: Vec<ProcessId>, config: MonitorConfig) -> Self {
        let id = ProcessId::new(MONITOR_NID, 0);
        let ep = net.register(id);
        let inner = Arc::new(MonitorInner::new(net, targets, config));
        let thread_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("lwfs-monitor".into())
            .spawn(move || {
                // Bounded scrape timeout: a wedged or overloaded node must
                // count as a missed scrape (the staleness detector's
                // signal), not stall the tick and stretch every window.
                // Storage answers scrapes where they are delivered, so a
                // healthy node replies well inside even one polling interval.
                let mut client = RpcClient::new(&ep);
                client.reply_timeout = thread_inner.config.interval.max(Duration::from_millis(5));
                let epoch = Instant::now();
                while !thread_inner.stop.load(Ordering::SeqCst) {
                    thread_inner.tick(&client, epoch);
                    // Short sleeps between stop checks keep shutdown
                    // prompt even with long scrape intervals.
                    let mut remaining = thread_inner.config.interval;
                    let step = Duration::from_millis(5);
                    while remaining > Duration::ZERO && !thread_inner.stop.load(Ordering::SeqCst) {
                        let d = remaining.min(step);
                        std::thread::sleep(d);
                        remaining = remaining.saturating_sub(d);
                    }
                }
            })
            .expect("spawn monitor thread");
        Self { inner, thread: Some(thread), id }
    }

    /// Liveness of every scrape target, in target order.
    pub fn health(&self) -> Vec<TargetHealth> {
        self.inner
            .target_states
            .lock()
            .iter()
            .map(|t| TargetHealth { id: t.id, missed: t.missed, stale: t.stale })
            .collect()
    }

    /// Current state of every rule, in rule order.
    pub fn alerts(&self) -> Vec<AlertState> {
        self.inner
            .rule_states
            .lock()
            .iter()
            .map(|r| AlertState { rule: r.rule.name.clone(), firing: r.firing, streak: r.streak })
            .collect()
    }

    /// Completed windows so far.
    pub fn windows(&self) -> u64 {
        self.inner.state.lock().windows
    }

    /// Scrape ticks that produced a cluster view.
    pub fn ticks(&self) -> u64 {
        self.inner.state.lock().ticks
    }

    /// The retained JSONL time series: one value per completed window,
    /// oldest first, bounded by [`MonitorConfig::window_limit`]; each
    /// `Display`s as one line.
    pub fn jsonl(&self) -> Vec<Json> {
        self.inner.state.lock().jsonl.clone()
    }

    /// Critical-path attributions of the latest flight scrape's traces,
    /// slowest first (empty before any pinned trace was scraped).
    pub fn attributions(&self) -> Vec<Attribution> {
        self.inner.state.lock().attributions.clone()
    }

    /// Fleet-wide p99 decomposition over the latest attributions.
    pub fn tail_report(&self) -> Option<TailReport> {
        self.inner.state.lock().tail.clone()
    }

    /// The latest scraped slow-trace spans, assembled on the monitor's
    /// timeline.
    pub fn flight_spans(&self) -> Vec<SpanRecord> {
        self.inner.state.lock().flight_spans.clone()
    }

    /// Chrome `trace_event` JSON of the latest scraped slow traces — the
    /// on-wire counterpart of the in-process trace export, ready for
    /// `--trace-out` artifacts and `lwfs-inspect`.
    pub fn trace_chrome_json(&self) -> Json {
        let mut collector = TraceCollector::new();
        collector.add_spans(self.inner.state.lock().flight_spans.iter().cloned());
        collector.to_chrome_json()
    }

    /// Stop the scrape thread and unregister the monitor endpoint.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.inner.net.unregister(self.id);
    }
}

impl Drop for ClusterMonitor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, LwfsCluster};

    fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        done()
    }

    fn fast_config() -> MonitorConfig {
        MonitorConfig { interval: Duration::from_millis(10), ..Default::default() }
    }

    #[test]
    fn monitor_scrapes_and_windows_a_cluster() {
        let cluster = LwfsCluster::boot(ClusterConfig::default());
        let monitor = cluster.spawn_monitor(fast_config());
        assert!(wait_until(Duration::from_secs(5), || monitor.windows() >= 3));

        // Drive some traffic so counters move between windows.
        let mut client = cluster.client(0, 0);
        let ticket = cluster.kdc().kinit("app", "secret").unwrap();
        client.get_cred(ticket).unwrap();
        let _cid = client.create_container().unwrap();

        let health = monitor.health();
        assert!(!health.is_empty());
        assert!(health.iter().all(|h| !h.stale), "all targets live: {health:?}");

        let jsonl = monitor.jsonl();
        assert!(!jsonl.is_empty());
        assert!(jsonl[0].get("ts_ns").and_then(Json::as_u64).is_some(), "{}", jsonl[0]);
        monitor.shutdown();
    }

    #[test]
    fn staleness_detector_fires_and_clears_on_partition() {
        let cluster = LwfsCluster::boot(ClusterConfig { storage_servers: 2, ..Default::default() });
        let monitor = cluster.spawn_monitor(MonitorConfig {
            interval: Duration::from_millis(10),
            stale_after: 2,
            ..Default::default()
        });
        assert!(wait_until(Duration::from_secs(5), || monitor.windows() >= 1));

        // Partition one storage server; the detector must declare it.
        let victim = cluster.addrs().storage[1];
        let mut plan = lwfs_portals::FaultPlan::default();
        plan.partitioned.insert(victim.nid);
        cluster.network().set_faults(plan);
        assert!(wait_until(Duration::from_secs(5), || {
            monitor.health().iter().any(|h| h.id == victim && h.stale)
        }));
        let fired = cluster.network().obs().events().of_kind("alert.fire");
        assert!(fired.iter().any(|e| e.detail.contains("rule=stale_target")), "{fired:?}");

        // Heal: the detector clears.
        cluster.network().heal();
        assert!(wait_until(Duration::from_secs(5), || {
            monitor.health().iter().all(|h| !h.stale)
        }));
        let cleared = cluster.network().obs().events().of_kind("alert.clear");
        assert!(cleared.iter().any(|e| e.detail.contains("rule=stale_target")));
        monitor.shutdown();
    }

    #[test]
    fn flight_scrape_attributes_traces_and_blames_alerts() {
        let cluster = LwfsCluster::boot(ClusterConfig::default());
        let obs = Arc::clone(cluster.network().obs());
        let monitor = cluster.spawn_monitor(MonitorConfig {
            interval: Duration::from_millis(10),
            rules: vec![HealthRule::gauge_above("lag_watch", "storage.repl_lag", 0, 1)],
            ..Default::default()
        });

        // Drive a write so the flight recorder pins a trace (default
        // threshold 0: every completed op competes for the top-K).
        let mut client = cluster.client(0, 0);
        let ticket = cluster.kdc().kinit("app", "secret").unwrap();
        client.get_cred(ticket).unwrap();
        let cid = client.create_container().unwrap();
        let caps = client.get_caps(cid, lwfs_proto::OpMask::ALL).unwrap();
        let obj = client.create_obj(0, &caps, None, None).unwrap();
        client.write(0, &caps, None, obj, 0, b"flight me").unwrap();

        // The monitor scrapes the pins over the wire and attributes them.
        // A tick may land between the create's pin and the write's, so wait
        // for the write's.
        assert!(wait_until(Duration::from_secs(5), || {
            monitor.trace_chrome_json().to_string().contains("storage.write")
        }));
        let attrs = monitor.attributions();
        assert!(attrs
            .iter()
            .all(|a| { a.blames.iter().map(|(_, ns)| ns).sum::<u64>() == a.total_ns }));
        let tail = monitor.tail_report().expect("attributions imply a tail report");
        assert!(tail.dominant().is_some());
        let json = monitor.trace_chrome_json().to_string();
        assert!(json.contains("storage.write"), "{json}");

        // A firing alert now carries the blame field.
        obs.gauge("storage.repl_lag").set(5);
        assert!(wait_until(Duration::from_secs(5), || {
            obs.events()
                .of_kind("alert.fire")
                .iter()
                .any(|e| e.detail.contains("rule=lag_watch") && e.detail.contains("blame="))
        }));
        monitor.shutdown();
    }

    #[test]
    fn gauge_rule_fires_after_streak_and_clears() {
        let cluster = LwfsCluster::boot(ClusterConfig::default());
        let obs = Arc::clone(cluster.network().obs());
        let monitor = cluster.spawn_monitor(MonitorConfig {
            interval: Duration::from_millis(10),
            rules: vec![HealthRule::gauge_above("lag_watch", "storage.repl_lag", 0, 2)],
            ..Default::default()
        });

        obs.gauge("storage.repl_lag").set(5);
        assert!(wait_until(Duration::from_secs(5), || {
            monitor.alerts().iter().any(|a| a.rule == "lag_watch" && a.firing)
        }));
        let fired = obs.events().of_kind("alert.fire");
        assert!(fired.iter().any(|e| e.detail.contains("rule=lag_watch")), "{fired:?}");

        obs.gauge("storage.repl_lag").set(0);
        assert!(wait_until(Duration::from_secs(5), || {
            monitor.alerts().iter().all(|a| !a.firing)
        }));
        assert!(obs
            .events()
            .of_kind("alert.clear")
            .iter()
            .any(|e| e.detail.contains("rule=lag_watch")));
        monitor.shutdown();
    }

    #[test]
    fn journal_overflow_between_scrapes_is_counted_not_silent() {
        const JOURNAL: u64 = 1024; // the registry journal's retained events
        const N: u64 = 37;
        let cluster = LwfsCluster::boot(ClusterConfig::default());
        let obs = Arc::clone(cluster.network().obs());
        let config = MonitorConfig { rules: Vec::new(), ..fast_config() };
        // Ticked by hand, so exactly what lands between two scrapes is known.
        let monitor = MonitorInner::new(cluster.network(), vec![cluster.addrs().naming], config);
        let ep = cluster.network().register(ProcessId::new(MONITOR_NID, 0));
        let client = RpcClient::new(&ep);
        let epoch = Instant::now();

        monitor.tick(&client, epoch);
        let cursor = monitor.state.lock().events_cursor;
        for i in 0..JOURNAL + N {
            obs.events().record(1100, "repl.epoch_bump", format!("epoch {i}"));
        }
        monitor.tick(&client, epoch);

        assert_eq!(obs.frame(0).counter("monitor.events_lost"), Some(N));
        let state = monitor.state.lock();
        let window = state.jsonl.last().expect("the second scrape closes a window");
        let events = window.get("events").map(Json::as_arr).unwrap_or_default();
        assert_eq!(events.len() as u64, JOURNAL);
        let first_seq = events[0].get("seq").and_then(Json::as_u64);
        assert_eq!(first_seq, Some(cursor + N), "the window starts at the first retained event");
        assert_eq!(state.events_cursor, cursor + JOURNAL + N);
    }
}
