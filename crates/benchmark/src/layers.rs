//! The `reg` rows of the per-layer table: deltas of counters and histograms
//! the program already exports, taken across the measured window.
//!
//! Nothing here adds a counter; a row whose source the program does not
//! register on a given workload (no WAL, no replication, no sockets) reads
//! exactly 0, which is the bypass prediction the smoke test asserts.
//! Counts are per op over the window — the retention sweeps inside it
//! included, since their RPCs are part of what a checkpointing job sends.

use lwfs_obs::window::{MetricFrame, WindowDelta};
use lwfs_portals::Network;
use lwfs_proto::ProcessId;

/// Cumulative state at one boundary of the window.
pub struct Boundary {
    frame: MetricFrame,
    authz_sent: u64,
}

impl Boundary {
    pub fn capture(net: &Network, authz: ProcessId) -> Boundary {
        // Every request the authorization service serves costs it one
        // reply, so its send count is the message count the paper's "no
        // authz on the data path" rule is about.
        Boundary { frame: net.obs().frame(0), authz_sent: net.stats().sent_by(authz) }
    }
}

/// `reg` metrics for the window between two boundaries.
pub fn reg_rows(
    start: &Boundary,
    end: &Boundary,
    ops: u64,
    user_bytes: u64,
) -> Vec<(&'static str, f64)> {
    let delta = WindowDelta::between(&start.frame, &end.frame);
    let n = ops.max(1) as f64;
    let count = |name: &str| delta.counter_delta(name).unwrap_or(0) as f64;
    let per_op = |name: &str| count(name) / n;
    let p50 = |name: &str| {
        delta.histogram(name).filter(|h| !h.is_empty()).map_or(0.0, |h| h.quantile(0.5) as f64)
    };
    let hit_ratio = |hits: &str, misses: &str| {
        let (h, m) = (count(hits), count(misses));
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    };
    vec![
        ("portals.msgs_per_op", per_op("portals.messages")),
        ("portals.bytes_per_op", per_op("portals.bytes")),
        ("portals.gets_per_op", per_op("portals.gets")),
        ("portals.puts_per_op", per_op("portals.puts")),
        ("portals.rejected", count("portals.messages_rejected")),
        ("portals.dropped", count("portals.messages_dropped")),
        ("fabric.frames_per_op", per_op("fabric.frames_sent")),
        ("fabric.send_rejects", count("fabric.send_rejects")),
        ("fabric.stream_errors", count("fabric.stream_errors")),
        ("cap.verify_p50_ns", p50("cap.verify_ns")),
        ("cap.cache_hit_ratio", hit_ratio("cap.cache.hits", "cap.cache.misses")),
        ("authz.cache_hit_ratio", hit_ratio("authz.cache.hits", "authz.cache.misses")),
        ("authz.verify_through_per_op", per_op("authz.cache.verify_through")),
        ("authz.msgs_per_op", end.authz_sent.saturating_sub(start.authz_sent) as f64 / n),
        ("storage.dispatch_p50_ns", p50("storage.dispatch_ns")),
        ("storage.authorize_p50_ns", p50("storage.write.authorize_ns")),
        ("storage.write_pull_p50_ns", p50("storage.write.pull_ns")),
        ("storage.write_total_p50_ns", p50("storage.write.total_ns")),
        ("storage.conflict_defers", count("storage.conflict_defer")),
        ("storage.busy_rejects", count("storage.busy_rejects")),
        ("wal.appends_per_op", per_op("wal.appends")),
        ("wal.fsyncs_per_op", per_op("wal.fsyncs")),
        ("wal.bytes_per_user_byte", count("wal.appended_bytes") / user_bytes.max(1) as f64),
        ("wal.append_p50_ns", p50("wal.append_ns")),
        ("wal.fsync_p50_ns", p50("wal.fsync_ns")),
        ("replica.ships_per_op", per_op("storage.repl_ships")),
        ("replica.ship_p50_ns", p50("storage.ship_ns")),
        ("replica.ship_retries", count("storage.ship_retries")),
        ("replica.ship_failures", count("storage.ship_failures")),
        ("replica.dedup_hits", count("storage.dedup_hits")),
        ("txn.prepare_p50_ns", p50("txn.prepare_ns")),
        ("txn.commit_p50_ns", p50("txn.commit_ns")),
        ("txn.aborts", count("txn.aborts")),
    ]
}
