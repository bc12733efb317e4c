//! Critical-path attribution: blame every nanosecond of a slow trace.
//!
//! Given an assembled cross-node [`Trace`], [`attribute`] finds its root
//! span (the longest [`TOTAL_STAGE`] span — the end-to-end latency as
//! seen by the outermost participant) and partitions the root interval
//! among the spans that cover it. Each elementary sub-interval is
//! claimed by the *innermost* covering span (latest start, then shortest
//! duration), so nested stages beat their parents and the blame lands on
//! the most specific cause that was live at that instant. Claimed time
//! is then classified into a small, fixed [`BlameStage`] taxonomy
//! (dispatch queue, conflict defer, cap verify, WAL append/fsync, ship
//! RTT, backup apply, ...).
//!
//! **Invariant:** the per-stage blames of an [`Attribution`] sum to
//! exactly the root span's `total_ns` — every nanosecond is accounted
//! for, with [`BlameStage::Unattributed`] absorbing intervals no
//! sub-span covers (time the root spent that no instrumented stage
//! explains). The sweep partitions the root interval exactly, so the
//! invariant holds by construction; the proptests below pin it against
//! arbitrary span soups, arrival reordering, and uniform node-skew
//! shifts.
//!
//! [`TailReport`] aggregates many attributions into a fleet-wide p99
//! decomposition: the slowest 1% of traces, their summed blame per
//! stage, and the dominant stage — the one-line answer to "where does
//! our tail latency go?".

use std::collections::BTreeMap;

use crate::span::TOTAL_STAGE;
use crate::trace::Trace;

/// The blame taxonomy: where time on the critical path is spent.
///
/// Variants are ordered roughly along the request path; the discriminant
/// order only matters as a deterministic tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlameStage {
    /// Client-side retry/refresh wait (map refresh after a miss).
    ClientRetry,
    /// Client-side send/RPC time not explained by server stages.
    ClientRtt,
    /// Time a request waited between arrival and a worker picking it up.
    DispatchQueue,
    /// Conflict-serialization defer behind an in-flight mutation.
    ConflictDefer,
    /// Capability verification (authz round-trip or local crypto).
    CapVerify,
    /// Server-directed data pull from the client.
    DataPull,
    /// The object store write/read itself.
    StoreWrite,
    /// WAL record append (buffer + encode).
    WalAppend,
    /// WAL fsync stall.
    WalFsync,
    /// Replica ship round-trip (includes retry windows against a
    /// partitioned or slow backup — the classic tail amplifier).
    ShipRtt,
    /// Backup-side apply (log + store write on the replica).
    BackupApply,
    /// Two-phase-commit coordination (prepare/commit phases).
    TxnPhase,
    /// Instrumented stage outside the taxonomy.
    Other,
    /// Root time no sub-span covers.
    Unattributed,
}

impl BlameStage {
    /// Stable snake_case name, used in alert details and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            BlameStage::ClientRetry => "client_retry",
            BlameStage::ClientRtt => "client_rtt",
            BlameStage::DispatchQueue => "dispatch_queue",
            BlameStage::ConflictDefer => "conflict_defer",
            BlameStage::CapVerify => "cap_verify",
            BlameStage::DataPull => "data_pull",
            BlameStage::StoreWrite => "store_write",
            BlameStage::WalAppend => "wal_append",
            BlameStage::WalFsync => "wal_fsync",
            BlameStage::ShipRtt => "ship_rtt",
            BlameStage::BackupApply => "backup_apply",
            BlameStage::TxnPhase => "txn_phase",
            BlameStage::Other => "other",
            BlameStage::Unattributed => "unattributed",
        }
    }
}

impl std::fmt::Display for BlameStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Map an instrumented `(op, stage)` pair onto the blame taxonomy.
///
/// Exact stage names win over op-family fallbacks, so a future
/// `txn.prepare` span with a `queue_wait` stage still blames the queue.
pub fn classify(op: &str, stage: &str) -> BlameStage {
    match (op, stage) {
        ("wal", "append") => return BlameStage::WalAppend,
        ("wal", "fsync") => return BlameStage::WalFsync,
        ("repl", "ship") | ("repl", "ship_retry") => return BlameStage::ShipRtt,
        _ => {}
    }
    match stage {
        "queue_wait" => return BlameStage::DispatchQueue,
        "conflict_defer" | "defer" => return BlameStage::ConflictDefer,
        "authorize" | "verify" => return BlameStage::CapVerify,
        "pull" => return BlameStage::DataPull,
        "store_write" | "store_read" => return BlameStage::StoreWrite,
        "map_refresh" | "retry_wait" => return BlameStage::ClientRetry,
        "prepare" | "commit" | "vote" => return BlameStage::TxnPhase,
        _ => {}
    }
    if op == "storage.repl_ship" {
        return BlameStage::BackupApply;
    }
    if op.contains("txn") {
        return BlameStage::TxnPhase;
    }
    if op.starts_with("authz") || op.starts_with("cap") {
        return BlameStage::CapVerify;
    }
    if op.starts_with("client.") {
        return BlameStage::ClientRtt;
    }
    BlameStage::Other
}

/// One trace's critical-path attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    pub trace_id: u64,
    /// Op of the root span the blame decomposes.
    pub root_op: String,
    /// Root span duration; the blames below sum to exactly this.
    pub total_ns: u64,
    /// Blamed nanoseconds per stage, largest first; only nonzero
    /// entries appear.
    pub blames: Vec<(BlameStage, u64)>,
}

impl Attribution {
    /// Nanoseconds blamed on `stage` (0 when absent).
    pub fn blamed(&self, stage: BlameStage) -> u64 {
        self.blames.iter().find(|(s, _)| *s == stage).map(|(_, ns)| *ns).unwrap_or(0)
    }

    /// Fraction of the root total blamed on `stage`.
    pub fn share(&self, stage: BlameStage) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.blamed(stage) as f64 / self.total_ns as f64
    }

    /// The stage carrying the most blame, with its share of the total.
    pub fn dominant(&self) -> Option<(BlameStage, f64)> {
        let (s, ns) = *self.blames.first()?;
        if self.total_ns == 0 {
            return None;
        }
        Some((s, ns as f64 / self.total_ns as f64))
    }
}

/// Attribute a trace's root span. Returns `None` for an empty trace.
pub fn attribute(trace: &Trace) -> Option<Attribution> {
    attribute_with_claims(trace).map(|(a, _)| a)
}

/// Like [`attribute`], additionally returning the nanoseconds each input
/// span claimed on the critical path (parallel to `trace.spans`; the
/// root span's entry holds the unattributed remainder). This feeds the
/// per-span blame annotations in `lwfs-inspect`'s text trees.
pub fn attribute_with_claims(trace: &Trace) -> Option<(Attribution, Vec<u64>)> {
    let spans = &trace.spans;
    if spans.is_empty() {
        return None;
    }
    // Root: the longest TOTAL span; ties break on span content (never
    // on position), so the choice is stable under arrival reordering. A
    // trace with no TOTAL at all (a partial scrape) gets a synthetic
    // root covering the span extent.
    let root_idx = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.stage == TOTAL_STAGE)
        .max_by(|(_, a), (_, b)| {
            a.dur_ns
                .cmp(&b.dur_ns)
                .then(b.start_ns.cmp(&a.start_ns))
                .then(b.req_id.cmp(&a.req_id))
                .then(b.op.cmp(a.op))
                .then(b.nid.cmp(&a.nid))
        })
        .map(|(i, _)| i);
    let (root_start, root_end, root_op) = match root_idx {
        Some(i) => {
            let s = &spans[i];
            (s.start_ns, s.start_ns.saturating_add(s.dur_ns), s.op.to_string())
        }
        None => {
            let start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
            let end =
                spans.iter().map(|s| s.start_ns.saturating_add(s.dur_ns)).max().unwrap_or(start);
            // Name the synthetic root after the earliest span (content
            // tie-breaks keep this order-independent too).
            let first = spans
                .iter()
                .min_by(|a, b| {
                    a.start_ns
                        .cmp(&b.start_ns)
                        .then(a.op.cmp(b.op))
                        .then(a.stage.cmp(b.stage))
                        .then(a.req_id.cmp(&b.req_id))
                        .then(a.nid.cmp(&b.nid))
                })
                .expect("non-empty");
            (start, end, first.op.to_string())
        }
    };
    let total_ns = root_end - root_start;
    let mut claims = vec![0u64; spans.len()];
    if total_ns == 0 {
        let attr =
            Attribution { trace_id: trace.trace_id, root_op, total_ns: 0, blames: Vec::new() };
        return Some((attr, claims));
    }

    // Candidate spans clipped to the root interval. The sweep visits the
    // elementary intervals between all clip boundaries; within each, the
    // innermost covering candidate claims the time.
    struct Cand {
        idx: usize,
        start: u64,
        end: u64,
    }
    let mut cands: Vec<Cand> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if Some(i) == root_idx {
            continue;
        }
        let start = s.start_ns.max(root_start);
        let end = s.start_ns.saturating_add(s.dur_ns).min(root_end);
        if end > start {
            cands.push(Cand { idx: i, start, end });
        }
    }
    let mut points: Vec<u64> = vec![root_start, root_end];
    for c in &cands {
        points.push(c.start);
        points.push(c.end);
    }
    points.sort_unstable();
    points.dedup();

    let mut totals: BTreeMap<BlameStage, u64> = BTreeMap::new();
    for w in points.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let len = hi - lo;
        let mut best: Option<&Cand> = None;
        for c in cands.iter().filter(|c| c.start <= lo && c.end >= hi) {
            best = Some(match best {
                None => c,
                Some(b) => {
                    // Innermost wins: latest start, then earliest end
                    // (the tightest interval); final tie-break on span
                    // content so the winner is order-independent.
                    let cs = &spans[c.idx];
                    let bs = &spans[b.idx];
                    let ord = c
                        .start
                        .cmp(&b.start)
                        .then(b.end.cmp(&c.end))
                        .then(bs.op.cmp(cs.op))
                        .then(bs.stage.cmp(cs.stage))
                        .then(bs.req_id.cmp(&cs.req_id))
                        .then(bs.nid.cmp(&cs.nid));
                    if ord == std::cmp::Ordering::Greater {
                        c
                    } else {
                        b
                    }
                }
            });
        }
        match best {
            Some(c) => {
                claims[c.idx] += len;
                let s = &spans[c.idx];
                *totals.entry(classify(s.op, s.stage)).or_insert(0) += len;
            }
            None => {
                *totals.entry(BlameStage::Unattributed).or_insert(0) += len;
                if let Some(ri) = root_idx {
                    claims[ri] += len;
                }
            }
        }
    }

    let mut blames: Vec<(BlameStage, u64)> = totals.into_iter().filter(|(_, ns)| *ns > 0).collect();
    blames.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let attr = Attribution { trace_id: trace.trace_id, root_op, total_ns, blames };
    Some((attr, claims))
}

/// Fleet-wide tail decomposition: the slowest 1% of attributed traces
/// (at least one), their blame summed per stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailReport {
    /// Attributions aggregated.
    pub traces: usize,
    /// Traces admitted to the tail.
    pub tail: usize,
    /// Tail admission threshold: the p99 end-to-end latency.
    pub threshold_ns: u64,
    /// Summed root time across the tail traces.
    pub total_ns: u64,
    /// Summed blame per stage across the tail, largest first.
    pub blames: Vec<(BlameStage, u64)>,
}

impl TailReport {
    /// Aggregate attributions into a tail decomposition. `None` when
    /// `attrs` is empty. Exactly `ceil(len / 100)` traces are admitted
    /// (ties at the threshold break on trace id), so a fleet of
    /// identical latencies cannot flood the tail.
    pub fn from_attributions(attrs: &[Attribution]) -> Option<TailReport> {
        if attrs.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = (0..attrs.len()).collect();
        order.sort_by(|&a, &b| {
            attrs[b]
                .total_ns
                .cmp(&attrs[a].total_ns)
                .then(attrs[a].trace_id.cmp(&attrs[b].trace_id))
        });
        let tail_n = attrs.len().div_ceil(100).max(1);
        let chosen = &order[..tail_n];
        let threshold_ns = attrs[*chosen.last().expect("tail_n >= 1")].total_ns;
        let mut sums: BTreeMap<BlameStage, u64> = BTreeMap::new();
        let mut total_ns = 0u64;
        for &i in chosen {
            total_ns += attrs[i].total_ns;
            for &(s, ns) in &attrs[i].blames {
                *sums.entry(s).or_insert(0) += ns;
            }
        }
        let mut blames: Vec<(BlameStage, u64)> = sums.into_iter().collect();
        blames.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Some(TailReport { traces: attrs.len(), tail: tail_n, threshold_ns, total_ns, blames })
    }

    /// Nanoseconds blamed on `stage` across the tail.
    pub fn blamed(&self, stage: BlameStage) -> u64 {
        self.blames.iter().find(|(s, _)| *s == stage).map(|(_, ns)| *ns).unwrap_or(0)
    }

    /// Fraction of summed tail time blamed on `stage`.
    pub fn share(&self, stage: BlameStage) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.blamed(stage) as f64 / self.total_ns as f64
    }

    /// The dominant stage across the tail, with its share.
    pub fn dominant(&self) -> Option<(BlameStage, f64)> {
        let (s, ns) = *self.blames.first()?;
        if self.total_ns == 0 {
            return None;
        }
        Some((s, ns as f64 / self.total_ns as f64))
    }

    /// Multi-line text rendering: one `blame <stage> share=<f> ms=<f>`
    /// line per stage (a stable, grep-friendly shape for CI).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tail: {} of {} trace(s) at or above p99 {:.3} ms ({:.3} ms summed)",
            self.tail,
            self.traces,
            self.threshold_ns as f64 / 1e6,
            self.total_ns as f64 / 1e6
        );
        for &(s, ns) in &self.blames {
            let _ = writeln!(
                out,
                "blame {} share={:.3} ms={:.3}",
                s.as_str(),
                self.share(s),
                ns as f64 / 1e6
            );
        }
        if let Some((s, share)) = self.dominant() {
            let _ = writeln!(out, "dominant: {} share={share:.3}", s.as_str());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecord;
    use proptest::{prop_assert, prop_assert_eq, proptest};

    fn span(
        req_id: u64,
        nid: u32,
        op: &'static str,
        stage: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanRecord {
        SpanRecord { req_id, trace_id: 1, nid, op, stage, start_ns, dur_ns }
    }

    fn sum_blames(a: &Attribution) -> u64 {
        a.blames.iter().map(|(_, ns)| ns).sum()
    }

    /// A stalled replicated write: 100 total, 5 queue, 10 pull, 70 under
    /// the ship span of which 20 is backup apply, rest unattributed.
    fn stalled_write() -> Trace {
        Trace {
            trace_id: 1,
            spans: vec![
                span(1, 1100, "storage.write", TOTAL_STAGE, 0, 100),
                span(1, 1100, "storage.write", "queue_wait", 0, 5),
                span(1, 1100, "storage.write", "pull", 5, 10),
                span(1, 1100, "repl", "ship", 20, 70),
                span(2, 1101, "storage.repl_ship", "apply", 40, 20),
            ],
        }
    }

    #[test]
    fn blames_partition_the_root_exactly() {
        let (a, claims) = attribute_with_claims(&stalled_write()).unwrap();
        assert_eq!(a.total_ns, 100);
        assert_eq!(sum_blames(&a), 100);
        assert_eq!(a.blamed(BlameStage::DispatchQueue), 5);
        assert_eq!(a.blamed(BlameStage::DataPull), 10);
        assert_eq!(a.blamed(BlameStage::ShipRtt), 50, "ship minus nested apply");
        assert_eq!(a.blamed(BlameStage::BackupApply), 20);
        assert_eq!(a.blamed(BlameStage::Unattributed), 15);
        assert_eq!(a.dominant().unwrap().0, BlameStage::ShipRtt);
        // Claims line up with the span order, root holds the remainder.
        assert_eq!(claims, vec![15, 5, 10, 50, 20]);
    }

    #[test]
    fn nested_stage_beats_parent_and_retry_counts_as_ship() {
        let t = Trace {
            trace_id: 1,
            spans: vec![
                span(1, 1100, "storage.write", TOTAL_STAGE, 0, 100),
                span(1, 1100, "repl", "ship", 0, 100),
                span(1, 1100, "repl", "ship_retry", 10, 90),
                span(1, 1100, "wal", "fsync", 0, 10),
            ],
        };
        let a = attribute(&t).unwrap();
        assert_eq!(sum_blames(&a), 100);
        assert_eq!(a.blamed(BlameStage::WalFsync), 10, "fsync nests inside the ship window");
        assert_eq!(a.blamed(BlameStage::ShipRtt), 90);
    }

    #[test]
    fn trace_without_total_gets_synthetic_root() {
        let t = Trace {
            trace_id: 7,
            spans: vec![
                span(1, 1100, "storage.write", "pull", 100, 50),
                span(1, 1100, "storage.write", "store_write", 150, 30),
            ],
        };
        let a = attribute(&t).unwrap();
        assert_eq!(a.total_ns, 80, "synthetic root covers the span extent");
        assert_eq!(sum_blames(&a), 80);
        assert_eq!(a.blamed(BlameStage::DataPull), 50);
        assert_eq!(a.blamed(BlameStage::StoreWrite), 30);
    }

    #[test]
    fn empty_trace_has_no_attribution() {
        assert!(attribute(&Trace { trace_id: 1, spans: Vec::new() }).is_none());
    }

    #[test]
    fn classification_covers_the_taxonomy() {
        assert_eq!(classify("storage.write", "queue_wait"), BlameStage::DispatchQueue);
        assert_eq!(classify("storage.write", "authorize"), BlameStage::CapVerify);
        assert_eq!(classify("wal", "append"), BlameStage::WalAppend);
        assert_eq!(classify("wal", "fsync"), BlameStage::WalFsync);
        assert_eq!(classify("repl", "ship"), BlameStage::ShipRtt);
        assert_eq!(classify("repl", "ship_retry"), BlameStage::ShipRtt);
        assert_eq!(classify("storage.repl_ship", "apply"), BlameStage::BackupApply);
        assert_eq!(classify("txn.commit", "total"), BlameStage::TxnPhase);
        assert_eq!(classify("client.mutate", "send"), BlameStage::ClientRtt);
        assert_eq!(classify("client.mutate", "map_refresh"), BlameStage::ClientRetry);
        assert_eq!(classify("mystery", "stage"), BlameStage::Other);
    }

    #[test]
    fn tail_report_picks_slowest_percent_and_dominant() {
        // 200 fast traces blamed on the store, one slow one on the ship.
        let mut attrs: Vec<Attribution> = (0..200)
            .map(|i| Attribution {
                trace_id: i,
                root_op: "storage.write".into(),
                total_ns: 1000,
                blames: vec![(BlameStage::StoreWrite, 1000)],
            })
            .collect();
        attrs.push(Attribution {
            trace_id: 999,
            root_op: "storage.write".into(),
            total_ns: 1_000_000,
            blames: vec![(BlameStage::ShipRtt, 900_000), (BlameStage::StoreWrite, 100_000)],
        });
        let tr = TailReport::from_attributions(&attrs).unwrap();
        assert_eq!(tr.traces, 201);
        assert!(tr.tail <= 3, "tail is the slowest ~1%: {}", tr.tail);
        assert_eq!(tr.dominant().unwrap().0, BlameStage::ShipRtt);
        assert!(tr.share(BlameStage::ShipRtt) > 0.5);
        let text = tr.render();
        assert!(text.contains("blame ship_rtt share="), "{text}");
        assert!(text.contains("dominant: ship_rtt"), "{text}");
        assert!(TailReport::from_attributions(&[]).is_none());
    }

    const OPS: [&str; 4] = ["storage.write", "client.mutate", "repl", "wal"];
    const STAGES: [&str; 6] = ["queue_wait", "pull", "ship", "fsync", "send", "apply"];

    /// Raw tuple rows the shim's tuple strategies can generate; mapped
    /// into span records inside each property.
    type RawSpan = (usize, usize, u64, u64, u64, u32);

    fn raw_strategy() -> impl proptest::Strategy<Value = Vec<RawSpan>> {
        proptest::collection::vec(
            (0usize..OPS.len(), 0usize..STAGES.len(), 0u64..8, 0u64..10_000, 0u64..5_000, 0u32..4),
            1..24,
        )
    }

    fn build_spans(raw: &[RawSpan]) -> Vec<SpanRecord> {
        raw.iter()
            .map(|&(op, stage, req, start, dur, nid)| SpanRecord {
                req_id: req,
                trace_id: 1,
                nid: 1100 + nid,
                op: OPS[op],
                stage: if req % 3 == 0 && stage == 0 { TOTAL_STAGE } else { STAGES[stage] },
                start_ns: start,
                dur_ns: dur,
            })
            .collect()
    }

    proptest! {
        /// The attribution invariant: blamed time sums to exactly the
        /// root total, for arbitrary span soups (with or without TOTAL
        /// spans, overlapping, zero-length, out of order).
        #[test]
        fn blames_sum_to_root_total(raw in raw_strategy()) {
            let t = Trace { trace_id: 1, spans: build_spans(&raw) };
            let (a, claims) = attribute_with_claims(&t).unwrap();
            prop_assert_eq!(sum_blames(&a), a.total_ns);
            prop_assert_eq!(claims.len(), t.spans.len());
            // Claims on the critical path cannot exceed the root total.
            prop_assert!(claims.iter().sum::<u64>() <= a.total_ns);
        }

        /// Attribution is stable under span arrival reordering: the
        /// collector may see node logs in any order.
        #[test]
        fn attribution_stable_under_reordering(
            raw in raw_strategy(),
            seed in 0usize..1000,
        ) {
            let spans = build_spans(&raw);
            let a1 = attribute(&Trace { trace_id: 1, spans: spans.clone() }).unwrap();
            let mut shuffled = spans;
            // Deterministic pseudo-shuffle driven by the seed.
            let n = shuffled.len();
            for i in 0..n {
                let j = (seed.wrapping_mul(31).wrapping_add(i * 17)) % n;
                shuffled.swap(i, j);
            }
            let a2 = attribute(&Trace { trace_id: 1, spans: shuffled }).unwrap();
            prop_assert_eq!(a1, a2);
        }

        /// Attribution is invariant under a uniform time shift — the
        /// node-skew epoch offsets `add_node_spans` applies move every span by
        /// the same amount, which must not change any blame.
        #[test]
        fn attribution_invariant_under_uniform_shift(
            raw in raw_strategy(),
            shift in 0u64..1_000_000,
        ) {
            let spans = build_spans(&raw);
            let a1 = attribute(&Trace { trace_id: 1, spans: spans.clone() }).unwrap();
            let shifted: Vec<SpanRecord> = spans
                .into_iter()
                .map(|mut s| { s.start_ns += shift; s })
                .collect();
            let a2 = attribute(&Trace { trace_id: 1, spans: shifted }).unwrap();
            prop_assert_eq!(a1.total_ns, a2.total_ns);
            prop_assert_eq!(a1.blames, a2.blames);
        }
    }
}
