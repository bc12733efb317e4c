//! Seeded randomness for reproducible trials.
//!
//! Every experiment point runs ≥5 trials; each trial seeds its own RNG so
//! that re-running any single trial in isolation reproduces it exactly.

use lwfs_proto::rng::ChaCha8;

use crate::time::SimDuration;

/// A deterministic simulation RNG.
pub struct SimRng {
    inner: ChaCha8,
}

impl SimRng {
    pub fn new(seed: u64) -> Self {
        Self { inner: ChaCha8::seed_from_u64(seed) }
    }

    /// Uniform jitter in `[lo, hi)` nanoseconds — used for compute-phase
    /// skew between ranks so request bursts are not artificially aligned.
    pub fn jitter(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "invalid jitter range");
        if lo == hi {
            return lo;
        }
        SimDuration(lo.0 + self.inner.below(hi.0 - lo.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let (lo, hi) = (SimDuration(0), SimDuration(u64::MAX));
        for _ in 0..32 {
            assert_eq!(a.jitter(lo, hi), b.jitter(lo, hi));
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
}
