//! Virtual time: nanosecond-resolution instants and durations.
//!
//! All model parameters (latencies, bandwidths, service times) convert into
//! these types at model-construction time so the hot simulation loop is
//! integer arithmetic only.

/// A point in virtual time, in nanoseconds from simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn saturating_sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The time to move `bytes` through a pipe of `mb_per_sec` (decimal
    /// megabytes per second, the unit the paper's tables use).
    pub fn for_transfer(bytes: u64, mb_per_sec: f64) -> Self {
        assert!(mb_per_sec > 0.0, "bandwidth must be positive");
        SimDuration::from_secs_f64(bytes as f64 / (mb_per_sec * 1e6))
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl std::ops::AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl std::ops::Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("negative SimTime difference"))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_micros(2), SimDuration(2_000));
        assert_eq!(SimDuration::from_millis(3), SimDuration(3_000_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration(1_000_000_000));
        assert!((SimDuration::from_secs_f64(0.5).as_secs_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_matches_table2_numbers() {
        // Red Storm I/O node: 400 MB/s to RAID. 512 MB should take 1.28 s.
        let d = SimDuration::for_transfer(512 * 1_000_000, 400.0);
        assert!((d.as_secs_f64() - 1.28).abs() < 1e-9, "{d}");
        // 6 GB/s link: 1 MB in ~167 µs.
        let d = SimDuration::for_transfer(1_000_000, 6_000.0);
        assert!((d.as_secs_f64() - 1.0 / 6000.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t, SimTime(1_500_000_000));
        assert_eq!(t - SimTime(500_000_000), SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_micros(10) * 3, SimDuration::from_micros(30));
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(SimTime(5).saturating_sub(SimTime(10)), SimDuration::ZERO);
        assert_eq!(SimTime(10).saturating_sub(SimTime(4)), SimDuration(6));
    }

    #[test]
    #[should_panic]
    fn negative_difference_panics() {
        let _ = SimTime(1) - SimTime(2);
    }
}
