//! First-come-first-served queueing resources.
//!
//! A [`FcfsResource`] models a station that serves one job at a time at a
//! fixed rate: a RAID controller (400 MB/s on Red Storm, Table 2), a NIC
//! injection port, a metadata server CPU. Reservations are *analytic*: the
//! caller asks "I arrive at `now` with this much work" and receives the
//! `(start, finish)` interval; the resource advances its free pointer. This
//! composes with the event heap — the caller schedules its completion event
//! at `finish` — and keeps the hot loop allocation-free.
//!
//! For stations where work is counted in operations rather than bytes (a
//! metadata server handling `create` RPCs), use [`FcfsResource::reserve_time`]
//! with a per-op service time.

use crate::time::{SimDuration, SimTime};

/// A single FCFS service station.
#[derive(Debug, Clone)]
pub struct FcfsResource {
    /// Descriptive name (appears in experiment reports).
    pub name: String,
    /// Service rate in bytes per second (for byte-counted work).
    rate_bytes_per_sec: f64,
    /// When the station next becomes free.
    free_at: SimTime,
    /// Total busy time, for utilization reporting.
    busy: SimDuration,
    /// Number of jobs served.
    jobs: u64,
}

impl FcfsResource {
    /// A byte-rate station (`mb_per_sec` in decimal MB/s, as the paper's
    /// tables quote).
    pub fn with_bandwidth(name: impl Into<String>, mb_per_sec: f64) -> Self {
        assert!(mb_per_sec > 0.0, "bandwidth must be positive");
        Self {
            name: name.into(),
            rate_bytes_per_sec: mb_per_sec * 1e6,
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
            jobs: 0,
        }
    }

    /// A station used only with explicit per-job service times
    /// ([`reserve_time`](Self::reserve_time)).
    pub fn with_service_times(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            rate_bytes_per_sec: f64::INFINITY,
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
            jobs: 0,
        }
    }

    /// Reserve the station for `bytes` of work arriving at `now`.
    /// Returns the `(start, finish)` service interval.
    pub fn reserve(&mut self, now: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let service = SimDuration::from_secs_f64(bytes as f64 / self.rate_bytes_per_sec);
        self.reserve_time(now, service)
    }

    /// Reserve the station for an explicit `service` duration.
    pub fn reserve_time(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let start = self.free_at.max(now);
        let finish = start + service;
        self.free_at = finish;
        self.busy = self.busy + service;
        self.jobs += 1;
        (start, finish)
    }

    /// When the station next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Fraction of `[0, horizon]` the station spent serving.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }

    pub fn jobs_served(&self) -> u64 {
        self.jobs
    }

    /// Reset for the next trial, keeping the configuration.
    pub fn reset(&mut self) {
        self.free_at = SimTime::ZERO;
        self.busy = SimDuration::ZERO;
        self.jobs = 0;
    }
}

/// A pool of identical FCFS stations with *round-robin-by-least-loaded*
/// dispatch — models, e.g., the two OSTs an I/O node hosts, or a bank of
/// RAID controllers behind one server.
#[derive(Debug, Clone)]
pub struct FcfsPool {
    stations: Vec<FcfsResource>,
}

impl FcfsPool {
    pub fn new(count: usize, make: impl Fn(usize) -> FcfsResource) -> Self {
        assert!(count > 0, "pool needs at least one station");
        Self { stations: (0..count).map(make).collect() }
    }

    /// Reserve on the station that can start the job earliest.
    pub fn reserve(&mut self, now: SimTime, bytes: u64) -> (usize, SimTime, SimTime) {
        let idx = self.least_loaded();
        let (s, f) = self.stations[idx].reserve(now, bytes);
        (idx, s, f)
    }

    /// Reserve a fixed service time on the least-loaded station.
    pub fn reserve_time(
        &mut self,
        now: SimTime,
        service: SimDuration,
    ) -> (usize, SimTime, SimTime) {
        let idx = self.least_loaded();
        let (s, f) = self.stations[idx].reserve_time(now, service);
        (idx, s, f)
    }

    fn least_loaded(&self) -> usize {
        self.stations
            .iter()
            .enumerate()
            .min_by_key(|(_, st)| st.free_at())
            .map(|(i, _)| i)
            .expect("non-empty pool")
    }

    pub fn len(&self) -> usize {
        self.stations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    pub fn station(&self, idx: usize) -> &FcfsResource {
        &self.stations[idx]
    }

    pub fn reset(&mut self) {
        for s in &mut self.stations {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_station_starts_immediately() {
        let mut r = FcfsResource::with_bandwidth("disk", 400.0);
        let (start, finish) = r.reserve(SimTime(1_000), 400_000_000);
        assert_eq!(start, SimTime(1_000));
        assert_eq!(finish, SimTime(1_000) + SimDuration::from_secs(1));
    }

    #[test]
    fn busy_station_queues_fcfs() {
        let mut r = FcfsResource::with_bandwidth("disk", 100.0);
        let (_, f1) = r.reserve(SimTime::ZERO, 100_000_000); // 1 s
        let (s2, f2) = r.reserve(SimTime::ZERO, 100_000_000); // queued
        assert_eq!(s2, f1);
        assert_eq!(f2, SimTime(2_000_000_000));
        assert_eq!(r.free_at(), SimTime(2_000_000_000));
    }

    #[test]
    fn late_arrival_does_not_inherit_idle_gap() {
        let mut r = FcfsResource::with_bandwidth("disk", 100.0);
        r.reserve(SimTime::ZERO, 100_000_000); // busy until 1 s
                                               // Arrive at t=5s: station idle since 1s; service starts at arrival.
        let (s, f) = r.reserve(SimTime(5_000_000_000), 100_000_000);
        assert_eq!(s, SimTime(5_000_000_000));
        assert_eq!(f, SimTime(6_000_000_000));
    }

    #[test]
    fn utilization_accounts_busy_fraction() {
        let mut r = FcfsResource::with_bandwidth("disk", 100.0);
        r.reserve(SimTime::ZERO, 100_000_000); // 1 s busy
        let u = r.utilization(SimTime(4_000_000_000));
        assert!((u - 0.25).abs() < 1e-9, "{u}");
    }

    #[test]
    fn service_time_station() {
        // A metadata server at ~650 creates/sec: 1.538 ms per op.
        let mut mds = FcfsResource::with_service_times("mds");
        let op = SimDuration::from_micros(1538);
        let mut finish = SimTime::ZERO;
        for _ in 0..650 {
            let (_, f) = mds.reserve_time(SimTime::ZERO, op);
            finish = f;
        }
        let secs = finish.as_secs_f64();
        assert!((secs - 1.0).abs() < 0.01, "650 ops should take ~1s, got {secs}");
        assert_eq!(mds.jobs_served(), 650);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = FcfsResource::with_bandwidth("x", 10.0);
        r.reserve(SimTime::ZERO, 10_000_000);
        r.reset();
        assert_eq!(r.free_at(), SimTime::ZERO);
        assert_eq!(r.jobs_served(), 0);
        assert_eq!(r.utilization(SimTime(1)), 0.0);
    }

    #[test]
    fn pool_spreads_load() {
        let mut pool = FcfsPool::new(2, |i| FcfsResource::with_bandwidth(format!("ost{i}"), 100.0));
        let (i1, s1, _) = pool.reserve(SimTime::ZERO, 100_000_000);
        let (i2, s2, _) = pool.reserve(SimTime::ZERO, 100_000_000);
        assert_ne!(i1, i2, "second job must go to the idle station");
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(s2, SimTime::ZERO);
        // Third job queues behind the earliest-free station.
        let (_, s3, _) = pool.reserve(SimTime::ZERO, 100_000_000);
        assert_eq!(s3, SimTime(1_000_000_000));
    }

    #[test]
    fn pool_reset() {
        let mut pool = FcfsPool::new(3, |_| FcfsResource::with_bandwidth("d", 10.0));
        pool.reserve(SimTime::ZERO, 1_000_000);
        pool.reset();
        for i in 0..pool.len() {
            assert_eq!(pool.station(i).free_at(), SimTime::ZERO);
        }
    }

    #[test]
    fn aggregate_pool_throughput_scales_with_stations() {
        // 16 stations at 100 MB/s each: 1600 MB served in ~1 s.
        let mut pool = FcfsPool::new(16, |i| FcfsResource::with_bandwidth(format!("d{i}"), 100.0));
        let mut last = SimTime::ZERO;
        for _ in 0..16 {
            let (_, _, f) = pool.reserve(SimTime::ZERO, 100_000_000);
            last = last.max(f);
        }
        assert_eq!(last, SimTime(1_000_000_000));
    }
}
