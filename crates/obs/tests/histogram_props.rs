//! Property tests for the log-linear histogram, read through its one
//! reader, [`HistogramInterval`]: quantile ordering, bounded bucket error,
//! and stream-union merge semantics.

use lwfs_obs::{Histogram, HistogramInterval};
use proptest::{prop_assert, prop_assert_eq, proptest};

/// 8 sub-buckets per octave bound the bucket *width* to 1/8 of the value,
/// so the reported midpoint is within 1/16 — we assert the looser 12.5%.
const MAX_RELATIVE_ERROR: f64 = 0.125;

fn capture(values: &[u64]) -> HistogramInterval {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    HistogramInterval::from_histogram(&h)
}

proptest! {
    /// Quantiles never invert: p50 <= p95 <= p99 <= max, and all reported
    /// values stay within the observed range's bucket of the maximum.
    #[test]
    fn quantiles_are_ordered(values in proptest::collection::vec(0u64..1 << 48, 1..200)) {
        let s = capture(&values);
        let [p50, p95, p99] = [0.50, 0.95, 0.99].map(|q| s.quantile(q));
        prop_assert!(p50 <= p95, "p50 {} > p95 {}", p50, p95);
        prop_assert!(p95 <= p99, "p95 {} > p99 {}", p95, p99);
        prop_assert!(p99 <= s.max, "p99 {} > max {}", p99, s.max);
        prop_assert_eq!(s.max, *values.iter().max().unwrap());
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.sum, values.iter().sum::<u64>());
    }

    /// A bucket's reported midpoint is within 12.5% of any value that
    /// landed in it: record one value many times, read it back as p50.
    #[test]
    fn bucket_error_is_bounded(v in 0u64..1 << 48, copies in 2usize..10) {
        let p50 = capture(&vec![v; copies]).quantile(0.5);
        let err = (p50 as f64 - v as f64).abs();
        prop_assert!(
            err <= v as f64 * MAX_RELATIVE_ERROR,
            "p50 {} vs recorded {} (err {:.2}%)",
            p50,
            v,
            100.0 * err / v.max(1) as f64
        );
    }

    /// Merging two histograms' captures is bucket-exact: identical to
    /// recording the union of both observation streams into one histogram.
    #[test]
    fn merge_equals_union(
        a in proptest::collection::vec(0u64..1 << 48, 0..100),
        b in proptest::collection::vec(0u64..1 << 48, 0..100),
    ) {
        let mut merged = capture(&a);
        merged.merge(&capture(&b));
        let union = capture(&[a, b].concat());

        prop_assert_eq!(&merged, &union);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), union.quantile(q), "quantile {} diverged", q);
        }
        prop_assert_eq!(merged.mean(), union.mean());
    }
}
