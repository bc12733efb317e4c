//! Transport-level statistics.
//!
//! The paper's scalability rules (§2.3) are stated in terms of *message
//! counts*: no system-imposed O(n) operations, O(m) inter-server traffic
//! rare. The test suite enforces those rules by reading these counters, so
//! they are maintained unconditionally — a few relaxed atomics and a
//! lock-free per-sender table, negligible next to a channel send.
//!
//! Counters live in the network's `lwfs_obs::Registry` under
//! `portals.*`, so they appear in metric snapshots alongside the other
//! services while remaining directly readable here.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lwfs_obs::{Counter, Registry};
use lwfs_proto::ProcessId;
use parking_lot::Mutex;

/// Counters for one network instance. Shared by all endpoints.
#[derive(Debug)]
pub struct NetStats {
    /// Eager messages successfully delivered.
    pub messages: Arc<Counter>,
    /// Eager messages rejected because the target queue was full.
    pub messages_rejected: Arc<Counter>,
    /// Eager messages lost to injected faults.
    pub messages_dropped: Arc<Counter>,
    /// One-sided put operations.
    pub puts: Arc<Counter>,
    /// One-sided get operations.
    pub gets: Arc<Counter>,
    /// Total payload bytes moved by messages, puts, and gets.
    pub bytes: Arc<Counter>,
    /// Per-sender operation counts (messages + puts + gets initiated).
    sent_by: SenderTable,
}

impl Default for NetStats {
    fn default() -> Self {
        Self::with_registry(&Registry::new())
    }
}

impl NetStats {
    /// Build the stats block with its counters registered under
    /// `portals.*` in `registry`.
    pub fn with_registry(registry: &Registry) -> Self {
        Self {
            messages: registry.counter("portals.messages"),
            messages_rejected: registry.counter("portals.messages_rejected"),
            messages_dropped: registry.counter("portals.messages_dropped"),
            puts: registry.counter("portals.puts"),
            gets: registry.counter("portals.gets"),
            bytes: registry.counter("portals.bytes"),
            sent_by: SenderTable::new(),
        }
    }

    pub fn record_send(&self, from: ProcessId, bytes: usize) {
        self.messages.inc();
        self.bytes.add(bytes as u64);
        self.sent_by.record(from);
    }

    pub fn record_reject(&self) {
        self.messages_rejected.inc();
    }

    pub fn record_drop(&self) {
        self.messages_dropped.inc();
    }

    pub fn record_put(&self, from: ProcessId, bytes: usize) {
        self.puts.inc();
        self.bytes.add(bytes as u64);
        self.sent_by.record(from);
    }

    pub fn record_get(&self, from: ProcessId, bytes: usize) {
        self.gets.inc();
        self.bytes.add(bytes as u64);
        self.sent_by.record(from);
    }

    /// Operations initiated by `id` (messages, puts, gets).
    pub fn sent_by(&self, id: ProcessId) -> u64 {
        self.sent_by.get(id)
    }

    /// Total operations initiated across all processes.
    pub fn total_ops(&self) -> u64 {
        self.messages.get() + self.puts.get() + self.gets.get()
    }

    /// Zero every counter. Tests call this between phases so that rule
    /// checks measure exactly one protocol step.
    pub fn reset(&self) {
        self.messages.reset();
        self.messages_rejected.reset();
        self.messages_dropped.reset();
        self.puts.reset();
        self.gets.reset();
        self.bytes.reset();
        self.sent_by.reset();
    }
}

/// Lock-free fixed-capacity per-sender counter table.
///
/// The hot path (`record`) is a hash probe over pre-sized slots with one
/// `fetch_add` — no lock, no allocation — replacing the former
/// `Mutex<HashMap<ProcessId, u64>>` that serialized every send on the
/// transport. Clusters here are at most a few hundred processes; in the
/// unlikely event the fixed table fills, further senders fall back to a
/// mutexed overflow map, preserving exact counting semantics.
#[derive(Debug)]
struct SenderTable {
    slots: Box<[Slot; SLOTS]>,
    overflow: Mutex<HashMap<ProcessId, u64>>,
}

const SLOTS: usize = 256;

/// Slot publication states for `Slot::tag`.
const EMPTY: u64 = 0;
const CLAIMED: u64 = 1;
const PUBLISHED: u64 = 2;

#[derive(Debug)]
struct Slot {
    tag: AtomicU64,
    key: AtomicU64,
    count: AtomicU64,
}

fn pack(id: ProcessId) -> u64 {
    (id.nid.0 as u64) << 32 | id.pid.0 as u64
}

fn slot_of(key: u64) -> usize {
    // splitmix64 finalizer: spreads sequential nids across the table.
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as usize % SLOTS
}

impl SenderTable {
    fn new() -> Self {
        Self {
            slots: Box::new(std::array::from_fn(|_| Slot {
                tag: AtomicU64::new(EMPTY),
                key: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })),
            overflow: Mutex::new(HashMap::new()),
        }
    }

    fn record(&self, from: ProcessId) {
        let key = pack(from);
        let start = slot_of(key);
        for probe in 0..SLOTS {
            let slot = &self.slots[(start + probe) % SLOTS];
            match slot.tag.load(Ordering::Acquire) {
                PUBLISHED => {
                    if slot.key.load(Ordering::Relaxed) == key {
                        slot.count.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    // Occupied by another sender — keep probing.
                }
                EMPTY => {
                    if slot
                        .tag
                        .compare_exchange(EMPTY, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        slot.key.store(key, Ordering::Relaxed);
                        slot.tag.store(PUBLISHED, Ordering::Release);
                        slot.count.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    // Lost the race; retry this slot (now CLAIMED or
                    // PUBLISHED by the winner).
                    let winner = loop {
                        let t = slot.tag.load(Ordering::Acquire);
                        if t != CLAIMED {
                            break t;
                        }
                        std::hint::spin_loop();
                    };
                    if winner == PUBLISHED && slot.key.load(Ordering::Relaxed) == key {
                        slot.count.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                _ => {
                    // CLAIMED: writer is mid-publish. Wait for the key,
                    // then treat like PUBLISHED.
                    while slot.tag.load(Ordering::Acquire) == CLAIMED {
                        std::hint::spin_loop();
                    }
                    if slot.key.load(Ordering::Relaxed) == key {
                        slot.count.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
            }
        }
        // Table full of other senders: exact counts continue in the
        // overflow map.
        *self.overflow.lock().entry(from).or_insert(0) += 1;
    }

    fn get(&self, id: ProcessId) -> u64 {
        let key = pack(id);
        let start = slot_of(key);
        for probe in 0..SLOTS {
            let slot = &self.slots[(start + probe) % SLOTS];
            match slot.tag.load(Ordering::Acquire) {
                EMPTY => break,
                PUBLISHED if slot.key.load(Ordering::Relaxed) == key => {
                    return slot.count.load(Ordering::Relaxed);
                }
                _ => {}
            }
        }
        self.overflow.lock().get(&id).copied().unwrap_or(0)
    }

    /// Zero all counts. Slots stay assigned to their senders (harmless:
    /// a zero-count slot reads as 0).
    fn reset(&self) {
        for slot in self.slots.iter() {
            if slot.tag.load(Ordering::Acquire) == PUBLISHED {
                slot.count.store(0, Ordering::Relaxed);
            }
        }
        self.overflow.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = NetStats::default();
        let p = ProcessId::new(1, 0);
        s.record_send(p, 10);
        s.record_put(p, 20);
        s.record_get(p, 30);
        s.record_reject();
        s.record_drop();
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.bytes.get(), 60);
        assert_eq!(s.sent_by(p), 3);
        assert_eq!(s.sent_by(ProcessId::new(2, 0)), 0);
        s.reset();
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.sent_by(p), 0);
    }

    #[test]
    fn counters_feed_shared_registry() {
        let registry = Registry::new();
        let s = NetStats::with_registry(&registry);
        s.record_send(ProcessId::new(3, 0), 100);
        let frame = registry.frame(0);
        assert_eq!(frame.counter("portals.messages"), Some(1));
        assert_eq!(frame.counter("portals.bytes"), Some(100));
    }

    #[test]
    fn sender_table_many_senders_snapshot() {
        let s = NetStats::default();
        // More senders than table slots: overflow must keep exact counts.
        for nid in 0..400u32 {
            let p = ProcessId::new(nid, 0);
            for _ in 0..=nid % 5 {
                s.record_send(p, 1);
            }
        }
        for nid in 0..400u32 {
            let p = ProcessId::new(nid, 0);
            assert_eq!(s.sent_by(p), (nid % 5 + 1) as u64, "nid {nid}");
        }
        s.reset();
        for nid in [17, 399] {
            assert_eq!(s.sent_by(ProcessId::new(nid, 0)), 0);
        }
    }

    #[test]
    fn sender_table_concurrent_recording_is_exact() {
        let s = std::sync::Arc::new(NetStats::default());
        let threads: Vec<_> = (0..8u32)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        // Every thread hits shared and private senders.
                        s.record_send(ProcessId::new(i % 19, 0), 0);
                        s.record_send(ProcessId::new(1000 + t, 0), 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for i in 0..19u32 {
            let expected = 8 * (1000 / 19 + u64::from(i < 1000 % 19));
            assert_eq!(s.sent_by(ProcessId::new(i, 0)), expected, "sender {i}");
        }
        for t in 0..8u32 {
            assert_eq!(s.sent_by(ProcessId::new(1000 + t, 0)), 1000);
        }
    }
}
