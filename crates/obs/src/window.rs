//! Windowed aggregation: delta snapshots over a live registry (or a
//! scraped node) and rolling windows of them.
//!
//! Every metric in the registry is cumulative-since-boot; a monitor wants
//! *rates* ("writes per second over the last 100 ms") and *interval
//! quantiles* ("p99 write latency this window"), both of which require
//! subtracting two observations. Counters subtract trivially. Histograms
//! subtract only in bucket form — a quantile summary is not invertible —
//! so the window layer works on [`HistogramInterval`]s: the sparse
//! nonzero buckets of the log-linear layout, which subtract (newer scrape
//! minus older scrape → this window's observations) and add (same window
//! across nodes → cluster interval) exactly, losing nothing beyond the
//! layout's own ≤ 12.5% bucket resolution.
//!
//! The pipeline is: [`Registry::frame`](crate::Registry::frame) (or a
//! frame decoded from a scraped wire snapshot) →
//! [`WindowTracker::observe`] → [`WindowDelta`] with per-window counter
//! deltas, rates, gauge levels, and histogram intervals.

use crate::metrics::{bucket_mid, Histogram, BUCKETS};
use std::collections::VecDeque;

/// A histogram's observations over one interval, in mergeable sparse
/// bucket form — the one reader of a histogram: every quantile, mean and
/// merge the exporters, monitor rules and benchmark report comes from
/// here. See the module docs for why buckets rather than quantiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramInterval {
    pub count: u64,
    pub sum: u64,
    /// Largest observation. Exact for cumulative captures; for a
    /// [`delta`](HistogramInterval::delta) it is the tightest bound the
    /// bucket layout supports (the top nonzero delta bucket, capped by
    /// the cumulative max).
    pub max: u64,
    /// `(bucket_index, count)` pairs, nonzero only, ascending index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramInterval {
    /// Cumulative capture of a live histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        Self { count: h.count(), sum: h.sum(), max: h.max(), buckets: h.bucket_counts() }
    }

    /// Build from wire parts (a scraped `TelemetrySnapshot` histogram).
    /// Hostile or malformed input is tolerated: buckets are re-sorted,
    /// duplicates folded, and out-of-range indexes dropped.
    pub fn from_parts(count: u64, sum: u64, max: u64, buckets: Vec<(u32, u64)>) -> Self {
        let mut clean: Vec<(u32, u64)> =
            buckets.into_iter().filter(|(i, n)| (*i as usize) < BUCKETS && *n > 0).collect();
        clean.sort_by_key(|(i, _)| *i);
        clean.dedup_by(|(bi, bn), (ai, an)| {
            if ai == bi {
                *an = an.saturating_add(*bn);
                true
            } else {
                false
            }
        });
        Self { count, sum, max, buckets: clean }
    }

    /// `newer - older` for two cumulative captures of the *same*
    /// histogram: the observations recorded between them, bucket-exact.
    /// Saturating throughout, so a registry reset between captures yields
    /// an empty interval instead of garbage.
    pub fn delta(newer: &Self, older: &Self) -> Self {
        let mut buckets = Vec::new();
        let mut old = older.buckets.iter().peekable();
        for &(idx, n) in &newer.buckets {
            let mut prev = 0;
            while let Some(&&(oidx, on)) = old.peek() {
                if oidx < idx {
                    old.next();
                } else {
                    if oidx == idx {
                        prev = on;
                    }
                    break;
                }
            }
            let d = n.saturating_sub(prev);
            if d > 0 {
                buckets.push((idx, d));
            }
        }
        // The window's true max is unrecoverable from cumulative maxima
        // (the all-time max may predate the window); bound it by the top
        // bucket that actually gained observations.
        let max =
            buckets.last().map(|&(idx, _)| bucket_mid(idx as usize).min(newer.max)).unwrap_or(0);
        Self {
            count: newer.count.saturating_sub(older.count),
            sum: newer.sum.saturating_sub(older.sum),
            max,
            buckets,
        }
    }

    /// Fold another interval in — the same window on another node, or an
    /// adjacent window on this one. Bucket-exact: the result equals the
    /// capture of one histogram that recorded both observation streams.
    pub fn merge(&mut self, other: &Self) {
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ai, an)), Some(&&(bi, bn))) => {
                    if ai == bi {
                        merged.push((ai, an + bn));
                        a.next();
                        b.next();
                    } else if ai < bi {
                        merged.push((ai, an));
                        a.next();
                    } else {
                        merged.push((bi, bn));
                        b.next();
                    }
                }
                (Some(&&p), None) => {
                    merged.push(p);
                    a.next();
                }
                (None, Some(&&p)) => {
                    merged.push(p);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in [0, 1]: the midpoint of the bucket
    /// holding the rank-`ceil(q*n)` observation, capped by `max`, except
    /// that the top quantile reports `max` itself (exact for a cumulative
    /// capture).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_mid(idx as usize).min(self.max);
            }
        }
        self.max
    }
}

/// A cumulative observation of one node's metrics at one instant — either
/// captured locally from a [`Registry`](crate::Registry) or rebuilt from
/// a scraped wire snapshot. Frames are what [`WindowTracker`] subtracts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricFrame {
    /// Caller-supplied capture timestamp (monotonic nanoseconds; the
    /// monitor uses its own clock so frames from many nodes share one
    /// timeline).
    pub ts_ns: u64,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramInterval)>,
}

impl MetricFrame {
    /// Capture a registry's cumulative state. See
    /// [`Registry::frame`](crate::Registry::frame) for the usual entry
    /// point.
    pub fn new(
        ts_ns: u64,
        counters: Vec<(String, u64)>,
        gauges: Vec<(String, i64)>,
        histograms: Vec<(String, HistogramInterval)>,
    ) -> Self {
        Self { ts_ns, counters, gauges, histograms }
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramInterval> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// One window: what changed between two consecutive frames.
#[derive(Debug, Clone, Default)]
pub struct WindowDelta {
    /// End-of-window timestamp (the newer frame's `ts_ns`).
    pub ts_ns: u64,
    /// Window length in nanoseconds.
    pub dur_ns: u64,
    /// Per-counter increments over the window.
    pub counters: Vec<(String, u64)>,
    /// Gauge levels at window end (gauges are instantaneous; a window
    /// reports the latest level, not a delta).
    pub gauges: Vec<(String, i64)>,
    /// Per-histogram observation intervals for the window.
    pub histograms: Vec<(String, HistogramInterval)>,
}

impl WindowDelta {
    /// The window between two cumulative frames of the same node.
    /// Counters subtract saturating (a registry reset reads as a quiet
    /// window, not an underflow); a counter absent from `older` is
    /// treated as previously zero.
    pub fn between(older: &MetricFrame, newer: &MetricFrame) -> Self {
        let counters = newer
            .counters
            .iter()
            .map(|(name, v)| (name.clone(), v.saturating_sub(older.counter(name).unwrap_or(0))))
            .collect();
        let histograms = newer
            .histograms
            .iter()
            .map(|(name, h)| {
                let interval = match older.histogram(name) {
                    Some(prev) => HistogramInterval::delta(h, prev),
                    None => h.clone(),
                };
                (name.clone(), interval)
            })
            .collect();
        Self {
            ts_ns: newer.ts_ns,
            dur_ns: newer.ts_ns.saturating_sub(older.ts_ns),
            counters,
            gauges: newer.gauges.clone(),
            histograms,
        }
    }

    pub fn counter_delta(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Counter increments per second of window time; `0.0` for unknown
    /// counters or zero-length windows.
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        match (self.counter_delta(name), self.dur_ns) {
            (Some(d), dur) if dur > 0 => d as f64 * 1e9 / dur as f64,
            _ => 0.0,
        }
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramInterval> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// Rolling window state for one node: remembers the last frame, turns
/// each new frame into a [`WindowDelta`], and retains the most recent
/// `limit` windows for rules of the form "… for N consecutive windows".
#[derive(Debug, Default)]
pub struct WindowTracker {
    last: Option<MetricFrame>,
    windows: VecDeque<WindowDelta>,
    limit: usize,
}

impl WindowTracker {
    pub fn new(limit: usize) -> Self {
        Self { last: None, windows: VecDeque::new(), limit: limit.max(1) }
    }

    /// Feed the next cumulative frame. Returns the completed window, or
    /// `None` for the very first frame (nothing to subtract yet).
    pub fn observe(&mut self, frame: MetricFrame) -> Option<&WindowDelta> {
        let delta = self.last.as_ref().map(|prev| WindowDelta::between(prev, &frame));
        self.last = Some(frame);
        let delta = delta?;
        if self.windows.len() == self.limit {
            self.windows.pop_front();
        }
        self.windows.push_back(delta);
        self.windows.back()
    }

    /// The most recently completed window.
    pub fn latest(&self) -> Option<&WindowDelta> {
        self.windows.back()
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowDelta> {
        self.windows.iter()
    }

    pub fn len(&self) -> usize {
        self.windows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use proptest::{prop_assert, prop_assert_eq, proptest};

    fn capture(values: impl IntoIterator<Item = u64>) -> HistogramInterval {
        let h = Histogram::new();
        for v in values {
            h.record(v);
        }
        HistogramInterval::from_histogram(&h)
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let iv = capture(1..=1000u64);
        assert_eq!((iv.count, iv.sum, iv.max), (1000, 500_500, 1000));
        assert_eq!(iv.mean(), 500.5);
        let [p50, p95, p99] = [0.50, 0.95, 0.99].map(|q| iv.quantile(q));
        // Log-linear: each within 12.5% of the exact rank value.
        assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.125, "p50={p50}");
        assert!((p95 as f64 - 950.0).abs() / 950.0 < 0.125, "p95={p95}");
        assert!((p99 as f64 - 990.0).abs() / 990.0 < 0.125, "p99={p99}");
        assert!(p50 <= p95 && p95 <= p99 && p99 <= iv.max);
        assert_eq!(iv.quantile(1.0), 1000, "the top quantile is the exact max");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let iv = capture([]);
        assert!(iv.is_empty());
        assert_eq!((iv.count, iv.sum, iv.max), (0, 0, 0));
        assert_eq!([0.5, 0.95, 0.99].map(|q| iv.quantile(q)), [0, 0, 0]);
        assert_eq!(iv.mean(), 0.0);
        assert!(iv.buckets.is_empty());
    }

    #[test]
    fn delta_recovers_window_observations() {
        let h = Histogram::new();
        for v in [5u64, 500, 50_000] {
            h.record(v);
        }
        let before = HistogramInterval::from_histogram(&h);
        let window_only = Histogram::new();
        for v in [9u64, 900, 90_000] {
            h.record(v);
            window_only.record(v);
        }
        let after = HistogramInterval::from_histogram(&h);
        let delta = HistogramInterval::delta(&after, &before);
        let expect = HistogramInterval::from_histogram(&window_only);
        assert_eq!(delta.count, expect.count);
        assert_eq!(delta.sum, expect.sum);
        assert_eq!(delta.buckets, expect.buckets);
        // Bucket-resolution bound on the recovered max.
        assert!(delta.max as f64 >= expect.max as f64 * 0.875, "{} vs {}", delta.max, expect.max);
    }

    #[test]
    fn merge_is_union_across_nodes() {
        let (a, b, union) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 40, 7_000] {
            a.record(v);
            union.record(v);
        }
        for v in [40u64, 41, 1 << 30] {
            b.record(v);
            union.record(v);
        }
        let mut ia = HistogramInterval::from_histogram(&a);
        ia.merge(&HistogramInterval::from_histogram(&b));
        assert_eq!(ia, HistogramInterval::from_histogram(&union));
    }

    #[test]
    fn from_parts_sanitizes_hostile_buckets() {
        let iv = HistogramInterval::from_parts(
            5,
            100,
            60,
            vec![(9, 2), (3, 1), (9, 1), (u32::MAX, 7), (4, 0)],
        );
        assert_eq!(iv.buckets, vec![(3, 1), (9, 3)]);
        // Quantile walk must not panic on any index that survived.
        let _ = iv.quantile(0.99);
    }

    #[test]
    fn tracker_windows_and_rates() {
        let reg = Registry::new();
        let mut tracker = WindowTracker::new(4);
        assert!(tracker.observe(reg.frame(0)).is_none(), "first frame opens no window");

        reg.counter("storage.writes").add(10);
        reg.gauge("storage.repl_lag").set(3);
        reg.histogram("storage.write.total_ns").record(1000);
        {
            let w = tracker.observe(reg.frame(1_000_000_000)).expect("second frame closes");
            assert_eq!(w.counter_delta("storage.writes"), Some(10));
            assert_eq!(w.rate_per_sec("storage.writes"), 10.0);
            assert_eq!(w.gauge("storage.repl_lag"), Some(3));
            assert_eq!(w.histogram("storage.write.total_ns").unwrap().count, 1);
        }

        // A quiet window: rates drop to zero, gauge level persists.
        let w = tracker.observe(reg.frame(2_000_000_000)).unwrap();
        assert_eq!(w.counter_delta("storage.writes"), Some(0));
        assert_eq!(w.gauge("storage.repl_lag"), Some(3));
        assert_eq!(tracker.len(), 2);
        assert_eq!(tracker.latest().unwrap().ts_ns, 2_000_000_000);
    }

    #[test]
    fn tracker_ring_is_bounded() {
        let reg = Registry::new();
        let mut tracker = WindowTracker::new(2);
        for i in 0..10u64 {
            reg.counter("c").inc();
            tracker.observe(reg.frame(i));
        }
        assert_eq!(tracker.len(), 2);
        assert_eq!(tracker.windows().next().unwrap().ts_ns, 8);
    }

    proptest! {
        /// Any partition of an observation stream into windows has window
        /// deltas that sum back to the cumulative totals — for counters
        /// and, bucket-exactly, for histograms.
        #[test]
        fn windows_sum_to_cumulative(
            values in proptest::collection::vec(0u64..1_000_000, 1..60),
            cuts in proptest::collection::vec(proptest::bool::ANY, 1..60),
        ) {
            let reg = Registry::new();
            let mut tracker = WindowTracker::new(usize::MAX >> 1);
            tracker.observe(reg.frame(0));

            let mut ts = 0u64;
            for (i, v) in values.iter().enumerate() {
                reg.counter("ops").inc();
                reg.histogram("lat_ns").record(*v);
                if *cuts.get(i % cuts.len()).unwrap_or(&true) {
                    ts += 1;
                    tracker.observe(reg.frame(ts));
                }
            }
            ts += 1;
            tracker.observe(reg.frame(ts)); // flush the tail window

            let total_ops: u64 =
                tracker.windows().map(|w| w.counter_delta("ops").unwrap_or(0)).sum();
            prop_assert_eq!(total_ops, values.len() as u64);

            let mut rebuilt = HistogramInterval::default();
            for w in tracker.windows() {
                if let Some(h) = w.histogram("lat_ns") {
                    rebuilt.merge(h);
                }
            }
            let cumulative = HistogramInterval::from_histogram(&reg.histogram("lat_ns"));
            prop_assert_eq!(rebuilt.count, cumulative.count);
            prop_assert_eq!(rebuilt.sum, cumulative.sum);
            prop_assert_eq!(&rebuilt.buckets, &cumulative.buckets);
        }

        /// Merging per-node intervals preserves total count/sum and the
        /// merged quantiles stay within the layout's resolution of the
        /// true union quantiles.
        #[test]
        fn merged_intervals_bound_quantile_drift(
            xs in proptest::collection::vec(1u64..10_000_000, 1..80),
            ys in proptest::collection::vec(1u64..10_000_000, 1..80),
        ) {
            let (a, b, union) = (Histogram::new(), Histogram::new(), Histogram::new());
            for v in &xs { a.record(*v); union.record(*v); }
            for v in &ys { b.record(*v); union.record(*v); }

            let mut merged = HistogramInterval::from_histogram(&a);
            merged.merge(&HistogramInterval::from_histogram(&b));
            prop_assert_eq!(merged.count, (xs.len() + ys.len()) as u64);
            prop_assert_eq!(merged.sum, xs.iter().sum::<u64>() + ys.iter().sum::<u64>());

            // Same buckets as the union histogram ⇒ identical quantiles.
            let union = HistogramInterval::from_histogram(&union);
            for q in [0.5, 0.95, 0.99] {
                prop_assert_eq!(merged.quantile(q), union.quantile(q));
            }
            // And those quantiles are within the documented 12.5% of the
            // exact rank statistic.
            let mut sorted: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
            sorted.sort_unstable();
            let exact_p50 = sorted[(sorted.len() - 1) / 2] as f64;
            let got = merged.quantile(0.5) as f64;
            prop_assert!(
                (got - exact_p50).abs() <= exact_p50 * 0.125 + 1.0,
                "p50 {} vs exact {}", got, exact_p50
            );
        }
    }
}
