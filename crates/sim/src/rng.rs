//! Seeded randomness for reproducible trials.
//!
//! Every experiment point runs ≥5 trials; each trial seeds its own RNG so
//! that re-running any single trial in isolation reproduces it exactly.

use rand::distributions::{Distribution, Uniform};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::time::SimDuration;

/// A deterministic simulation RNG.
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    pub fn new(seed: u64) -> Self {
        Self { inner: ChaCha8Rng::seed_from_u64(seed) }
    }

    /// Uniform jitter in `[lo, hi)` nanoseconds — used for compute-phase
    /// skew between ranks so request bursts are not artificially aligned.
    pub fn jitter(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "invalid jitter range");
        if lo == hi {
            return lo;
        }
        let dist = Uniform::new(lo.0, hi.0);
        SimDuration(dist.sample(&mut self.inner))
    }

    /// Exponentially distributed duration with the given mean — used for
    /// bursty Poisson arrivals (§2.2 "I/O is bursty in nature").
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    /// Uniform usize in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// A full-range u64 (for ids and tags).
    pub fn bits(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..32 {
            assert_eq!(a.bits(), b.bits());
        }
    }

    #[test]
    fn jitter_in_range() {
        let mut rng = SimRng::new(7);
        let lo = SimDuration::from_micros(10);
        let hi = SimDuration::from_micros(20);
        for _ in 0..100 {
            let j = rng.jitter(lo, hi);
            assert!(j >= lo && j < hi, "{j:?}");
        }
    }

    #[test]
    fn jitter_degenerate_range() {
        let mut rng = SimRng::new(7);
        let d = SimDuration::from_micros(5);
        assert_eq!(rng.jitter(d, d), d);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(99);
        let mean = SimDuration::from_millis(10);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exponential(mean).as_secs_f64()).sum();
        let observed = total / n as f64;
        assert!((observed - 0.010).abs() < 0.0005, "observed mean {observed}");
    }

    #[test]
    fn index_bounds() {
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            assert!(rng.index(5) < 5);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities clamp instead of panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }
}
