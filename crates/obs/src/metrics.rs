//! Metric primitives: counters, gauges, and log-linear latency
//! histograms.
//!
//! All three are lock-free and cheap enough to sit on the hot paths of
//! the portals substrate and the storage server's dispatch loop. The
//! histogram is log-linear — 8 linear sub-buckets per power-of-two
//! octave — which bounds the relative quantile error at 1/16 (6.25%)
//! when reporting bucket midpoints, comfortably inside the 12.5%
//! budget the evaluation harness assumes.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Self { value: AtomicU64::new(0) }
    }

    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Instantaneous level (queue depth, buffers in use). Signed so that
/// racing inc/dec pairs can transiently dip below zero without wrapping.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub const fn new() -> Self {
        Self { value: AtomicI64::new(0) }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.set(0);
    }
}

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per octave.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS; // 8
/// Values below 2^SUB_BITS get one exact bucket each.
const LINEAR_CUTOFF: u64 = 1 << SUB_BITS;
/// Octaves for exponents SUB_BITS..=63, SUBS buckets each, plus the
/// exact low range.
pub(crate) const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS; // 496

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // v in [2^exp, 2^(exp+1))
        let sub = ((v >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        SUBS + (exp - SUB_BITS) as usize * SUBS + sub
    }
}

/// Midpoint of the bucket's value range — the representative
/// [`HistogramInterval::quantile`](crate::HistogramInterval::quantile)
/// reports.
#[inline]
pub(crate) fn bucket_mid(index: usize) -> u64 {
    if index < SUBS {
        index as u64
    } else {
        let oct = (index - SUBS) / SUBS;
        let sub = ((index - SUBS) % SUBS) as u64;
        let exp = oct as u32 + SUB_BITS;
        let width = 1u64 << (exp - SUB_BITS);
        let lo = (SUBS as u64 + sub) << (exp - SUB_BITS);
        lo + width / 2
    }
}

/// Lock-free log-linear histogram over `u64` observations — a recorder
/// only: quantiles, means and merges are read from its captured
/// [`HistogramInterval`](crate::HistogramInterval).
///
/// Observations are dimensionless `u64`s; latency callers record
/// nanoseconds (wall-clock via [`Histogram::record_duration`], simulated
/// time by passing the `SimDuration` nanosecond count directly).
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a wall-clock duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub(crate) fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Sparse `(bucket_index, count)` pairs of every nonzero bucket,
    /// ascending by index — the *mergeable* form of the histogram that
    /// [`HistogramInterval::from_histogram`](crate::HistogramInterval::from_histogram)
    /// captures. Two cumulative bucket lists from the same histogram
    /// subtract into an exact interval, and interval lists from different
    /// nodes add into an exact union, neither losing more resolution than
    /// the log-linear layout itself.
    pub(crate) fn bucket_counts(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let v = b.load(Ordering::Relaxed);
                (v != 0).then_some((i as u32, v))
            })
            .collect()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.inc();
        g.add(9);
        g.dec();
        assert_eq!(g.get(), 9);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn bucket_index_is_monotone_and_exact_below_cutoff() {
        for v in 0..LINEAR_CUTOFF {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
        let mut last = 0;
        for shift in 2..60 {
            // Strictly increasing probe values, so indices must be
            // non-decreasing.
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift) + off;
                let idx = bucket_index(v);
                assert!(idx >= last, "index not monotone at {v}");
                last = idx;
            }
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }
}
