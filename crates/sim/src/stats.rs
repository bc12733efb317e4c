//! Trial statistics.
//!
//! The paper reports "the average and standard deviation over a minimum of
//! 5 trials" for every point in Figures 9 and 10; [`Summary`] reproduces
//! exactly that reduction (sample standard deviation, n − 1 denominator).

/// Accumulates observations and reports summary statistics.
///
/// Non-finite observations (NaN, ±∞) are never mixed into the moments —
/// one poisoned trial would turn the whole sweep's mean into NaN. They
/// are dropped and tallied in [`Summary::dropped_nonfinite`] so the
/// harness can still report that a trial misbehaved.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    values: Vec<f64>,
    dropped_nonfinite: u64,
}

impl Summary {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        let mut s = Self::new();
        for v in values {
            s.add(v);
        }
        s
    }

    pub fn add(&mut self, v: f64) {
        if !v.is_finite() {
            self.dropped_nonfinite += 1;
            return;
        }
        self.values.push(v);
    }

    /// How many non-finite observations were dropped by [`Summary::add`].
    pub fn dropped_nonfinite(&self) -> u64 {
        self.dropped_nonfinite
    }

    pub fn count(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation (n − 1). Zero for fewer than two samples.
    pub fn stddev(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let ss: f64 = self.values.iter().map(|v| (v - mean).powi(2)).sum();
        (ss / (n - 1) as f64).sqrt()
    }

    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2} (n={})", self.mean(), self.stddev(), self.count())?;
        if self.dropped_nonfinite > 0 {
            write!(f, " [dropped {} non-finite]", self.dropped_nonfinite)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn known_values() {
        // Classic example: 2, 4, 4, 4, 5, 5, 7, 9 → mean 5, sample sd ≈ 2.138.
        let s = Summary::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
        assert!((s.stddev() - 2.13809).abs() < 1e-4, "{}", s.stddev());
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn single_value_has_zero_stddev() {
        let s = Summary::from_values([3.25]);
        assert_eq!(s.mean(), 3.25);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn constant_series_has_zero_spread() {
        let s = Summary::from_values(std::iter::repeat_n(7.0, 5));
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn nonfinite_dropped_not_mixed_in() {
        let mut s = Summary::new();
        s.add(1.0);
        s.add(f64::NAN);
        s.add(f64::INFINITY);
        s.add(f64::NEG_INFINITY);
        s.add(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.dropped_nonfinite(), 3);
        assert_eq!(s.mean(), 2.0);
        assert!(s.mean().is_finite() && s.stddev().is_finite());
        assert_eq!(format!("{s}"), "2.00 ± 1.41 (n=2) [dropped 3 non-finite]");
    }

    #[test]
    fn display_format() {
        let s = Summary::from_values([1.0, 2.0, 3.0]);
        assert_eq!(format!("{s}"), "2.00 ± 1.00 (n=3)");
    }

    proptest::proptest! {
        #[test]
        fn prop_mean_within_min_max(values in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
            let s = Summary::from_values(values);
            let eps = 1e-9 * (1.0 + s.max().abs() + s.min().abs());
            proptest::prop_assert!(s.mean() >= s.min() - eps);
            proptest::prop_assert!(s.mean() <= s.max() + eps);
            proptest::prop_assert!(s.stddev() >= 0.0);
        }
    }
}
