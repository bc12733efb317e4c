//! The event heap and virtual clock.
//!
//! Events are boxed `FnOnce(&mut Sim<W>, &mut W)` closures: an executing
//! event mutates the world and schedules follow-up events. Determinism is
//! guaranteed by breaking time ties with a monotone sequence number, so two
//! events scheduled for the same instant always execute in schedule order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

type Action<W> = Box<dyn FnOnce(&mut Sim<W>, &mut W)>;

struct Scheduled<W> {
    time: SimTime,
    seq: u64,
    action: Action<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A discrete-event simulator over a world type `W`.
pub struct Sim<W> {
    now: SimTime,
    heap: BinaryHeap<Scheduled<W>>,
    seq: u64,
    executed: u64,
}

impl<W> Sim<W> {
    pub fn new() -> Self {
        Self { now: SimTime::ZERO, heap: BinaryHeap::new(), seq: 0, executed: 0 }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `action` to run at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — an event may never rewind the clock.
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Sim<W>, &mut W) + 'static) {
        assert!(at >= self.now, "cannot schedule into the past ({at} < {})", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time: at, seq, action: Box::new(action) });
    }

    /// Schedule `action` to run `delay` from now.
    pub fn schedule(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) {
        self.schedule_at(self.now + delay, action);
    }

    /// Run until the heap drains. Returns the final virtual time.
    pub fn run(&mut self, world: &mut W) -> SimTime {
        while let Some(ev) = self.heap.pop() {
            self.now = ev.time;
            self.executed += 1;
            (ev.action)(self, world);
        }
        self.now
    }
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new();
        let mut w = World::default();
        sim.schedule(SimDuration::from_secs(3), |s, w: &mut World| w.log.push((s.now().0, "c")));
        sim.schedule(SimDuration::from_secs(1), |s, w: &mut World| w.log.push((s.now().0, "a")));
        sim.schedule(SimDuration::from_secs(2), |s, w: &mut World| w.log.push((s.now().0, "b")));
        let end = sim.run(&mut w);
        assert_eq!(end, SimTime(3_000_000_000));
        assert_eq!(w.log, vec![(1_000_000_000, "a"), (2_000_000_000, "b"), (3_000_000_000, "c")]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut sim = Sim::new();
        let mut w = World::default();
        for (i, name) in ["first", "second", "third"].iter().enumerate() {
            let name: &'static str = name;
            sim.schedule(SimDuration::from_secs(1), move |s, w: &mut World| {
                w.log.push((s.now().0 + i as u64, name))
            });
        }
        sim.run(&mut w);
        let names: Vec<_> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut w: Vec<u64> = Vec::new();
        fn tick(s: &mut Sim<Vec<u64>>, w: &mut Vec<u64>) {
            w.push(s.now().0);
            if w.len() < 5 {
                s.schedule(SimDuration::from_secs(1), tick);
            }
        }
        sim.schedule(SimDuration::ZERO, tick);
        sim.run(&mut w);
        assert_eq!(w, vec![0, 1_000_000_000, 2_000_000_000, 3_000_000_000, 4_000_000_000]);
        assert_eq!(sim.executed(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim: Sim<()> = Sim::new();
        let mut w = ();
        sim.schedule(SimDuration::from_secs(5), |s, _| {
            s.schedule_at(SimTime(1), |_, _| {});
        });
        sim.run(&mut w);
    }

    #[test]
    fn deterministic_across_runs() {
        fn run_once() -> Vec<u64> {
            let mut sim: Sim<Vec<u64>> = Sim::new();
            let mut w = Vec::new();
            for i in 0..100u64 {
                // Same delay for many events: tie-break order must hold.
                sim.schedule(SimDuration::from_nanos(i % 7), move |_, w: &mut Vec<u64>| w.push(i));
            }
            sim.run(&mut w);
            w
        }
        assert_eq!(run_once(), run_once());
    }
}
