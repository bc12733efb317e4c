//! The control-plane **event journal**: structured, timestamped records
//! of rare cluster-shaping transitions — failovers, backup drops and
//! ship-deadline evictions, epoch bumps, WAL recovery, membership
//! republishes.
//!
//! Counters answer "how many failovers?"; the journal answers "what
//! happened, in what order, on which node?" — the question every
//! replication-test post-mortem actually asks. Events are deliberately
//! coarse (a handful per fault, never per-operation), so a modest ring
//! retains the full history of any test run.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// One control-plane transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global recording order within this journal. Two events from
    /// different threads may share a timestamp; `seq` never ties, so
    /// causal assertions ("eviction before republish") compare it.
    pub seq: u64,
    /// Nanoseconds since the journal was created.
    pub ts_ns: u64,
    /// Node that recorded the event.
    pub nid: u32,
    /// Stable machine-matchable kind, dotted like metric names:
    /// `repl.evict_backup`, `directory.republish`, `failover.promote`,
    /// `failover.drop_backup`, `wal.recovery`, `repl.epoch_bump`.
    pub kind: &'static str,
    /// Human-readable specifics (who, which group, which epoch).
    pub detail: String,
}

/// Events a registry's journal retains before the oldest is dropped.
const EVENT_CAPACITY: usize = 1024;

/// Bounded ring of [`Event`]s shared by every service on a registry.
pub struct EventLog {
    epoch: Instant,
    inner: Mutex<(u64, VecDeque<Event>)>,
    capacity: usize,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::with_capacity(EVENT_CAPACITY)
    }
}

impl EventLog {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new((0, VecDeque::new())),
            capacity: capacity.max(1),
        }
    }

    /// Append an event; returns its journal sequence number.
    pub fn record(&self, nid: u32, kind: &'static str, detail: impl Into<String>) -> u64 {
        let ts_ns = self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let (ref mut next_seq, ref mut q) = *inner;
        let seq = *next_seq;
        *next_seq += 1;
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(Event { seq, ts_ns, nid, kind, detail: detail.into() });
        seq
    }

    /// All retained events, oldest first.
    pub fn all(&self) -> Vec<Event> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).1.iter().cloned().collect()
    }

    /// Retained events with `seq >= from`, oldest first — the journal
    /// cursor a polling scraper advances (to last seen seq + 1) so each
    /// scrape ships only the tail it has not yet seen. `from = 0` returns
    /// everything retained.
    pub fn from_seq(&self, from: u64) -> Vec<Event> {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .1
            .iter()
            .filter(|e| e.seq >= from)
            .cloned()
            .collect()
    }

    /// Retained events of one kind, oldest first.
    pub fn of_kind(&self, kind: &str) -> Vec<Event> {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .1
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).1.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).1.clear();
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog").field("len", &self.len()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_keep_global_order_and_kinds() {
        let log = EventLog::default();
        let a = log.record(1100, "repl.evict_backup", "backup 1101 missed ship deadline");
        let b = log.record(1004, "directory.republish", "epoch 1 -> 2");
        assert!(a < b, "seq must order causally chained events");
        let all = log.all();
        assert_eq!(all.len(), 2);
        assert!(all[0].ts_ns <= all[1].ts_ns);
        assert_eq!(log.of_kind("directory.republish").len(), 1);
        assert_eq!(log.of_kind("nope").len(), 0);
        log.clear();
        assert!(log.is_empty());
        // Seq survives clear — later events still order after earlier ones.
        let c = log.record(0, "wal.recovery", "replayed 3 records");
        assert!(c > b);
    }

    #[test]
    fn journal_is_bounded() {
        let log = EventLog::with_capacity(4);
        for i in 0..10u32 {
            log.record(i, "repl.epoch_bump", format!("epoch {i}"));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.all()[0].nid, 6);
    }
}
