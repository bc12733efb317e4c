//! Benchmark-side spans: one per call into a layer, recorded in memory by
//! the traced ops and reduced after the run.
//!
//! The program is not touched: a span is the wall time of one public
//! `LwfsClient` call as seen by the rank that made it. Every op has a root
//! span; its children are the calls; what the children do not cover is the
//! op's self time (metadata codec, payload copies, allocation).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Root span of a traced op.
pub const OP_SPAN: &str = "op";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Shared by every span of one op on every rank.
    pub op: u64,
    pub rank: u8,
    pub name: &'static str,
    /// Index (in this rank's list) of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One rank's span sink.
pub struct Recorder {
    origin: Instant,
    rank: u8,
    spans: Vec<Span>,
    root: Option<u32>,
}

impl Recorder {
    /// `origin` is shared by the ranks so their spans sit on one timeline.
    pub fn new(origin: Instant, rank: usize) -> Recorder {
        Recorder { origin, rank: rank as u8, spans: Vec::new(), root: None }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run one op under a root span; returns its result and duration.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut Recorder) -> T) -> (T, u64) {
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            rank: self.rank,
            name: OP_SPAN,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.root = Some(idx);
        let out = f(self);
        self.root = None;
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Time one call into a layer as a child of the current op.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let root = self.root.expect("Recorder::call outside Recorder::op");
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let op = self.spans[root as usize].op;
        self.spans.push(Span { op, rank: self.rank, name, parent: Some(root), start_ns, end_ns });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// One op on one rank: its total, what its children cover by name, and the
/// remainder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpBreakdown {
    pub total_ns: u64,
    pub self_ns: u64,
    pub by_name: BTreeMap<&'static str, u64>,
}

/// Reduce one rank's spans to per-op breakdowns.
///
/// Self time is the root's duration minus the part of it the children
/// cover. The first reconciliation check lives here: children that overlap
/// each other or leave their parent would make "children + self = total"
/// false, so they are an error, not a rounding matter.
pub fn breakdown(spans: &[Span]) -> Result<BTreeMap<u64, OpBreakdown>, String> {
    let mut out: BTreeMap<u64, OpBreakdown> = BTreeMap::new();
    let mut cursor: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            None => {
                out.entry(s.op).or_default().total_ns = s.dur_ns();
                cursor.insert(s.op, s.start_ns);
            }
            Some(p) => {
                let root = spans.get(p as usize).ok_or(format!("span {i}: dangling parent"))?;
                // Spans are appended in start order, so disjointness is a
                // running check against the previous sibling's end.
                let free_from = cursor.get(&s.op).copied().unwrap_or(0);
                if s.start_ns < free_from || s.end_ns > root.end_ns || s.end_ns < s.start_ns {
                    return Err(format!(
                        "op {} rank {}: span {} [{}..{}] overlaps a sibling or leaves its \
                         parent [{}..{}]",
                        s.op, s.rank, s.name, s.start_ns, s.end_ns, root.start_ns, root.end_ns
                    ));
                }
                cursor.insert(s.op, s.end_ns);
                *out.entry(s.op).or_default().by_name.entry(s.name).or_default() += s.dur_ns();
            }
        }
    }
    for (op, b) in &mut out {
        let covered: u64 = b.by_name.values().sum();
        b.self_ns = b
            .total_ns
            .checked_sub(covered)
            .ok_or(format!("op {op}: children cover more than the op"))?;
    }
    Ok(out)
}

/// Mean nanoseconds per traced op — total, self, and by span name.
pub struct SpanMeans {
    pub ops: u64,
    pub total_ns: f64,
    pub self_ns: f64,
    pub by_name: BTreeMap<&'static str, f64>,
}

/// Means over the *slower* rank of each op: an op's latency is the max over
/// ranks, so that rank's spans are the ones that add up to it.
pub fn critical_rank_means(per_rank: &[Vec<Span>]) -> Result<SpanMeans, String> {
    let ranks: Vec<BTreeMap<u64, OpBreakdown>> =
        per_rank.iter().map(|s| breakdown(s)).collect::<Result<_, _>>()?;
    let mut means = SpanMeans { ops: 0, total_ns: 0.0, self_ns: 0.0, by_name: BTreeMap::new() };
    let Some(first) = ranks.first() else { return Ok(means) };
    for op in first.keys() {
        let Some(slowest) = ranks.iter().filter_map(|r| r.get(op)).max_by_key(|b| b.total_ns)
        else {
            continue;
        };
        means.ops += 1;
        means.total_ns += slowest.total_ns as f64;
        means.self_ns += slowest.self_ns as f64;
        for (name, ns) in &slowest.by_name {
            *means.by_name.entry(name).or_default() += *ns as f64;
        }
    }
    if means.ops > 0 {
        let n = means.ops as f64;
        means.total_ns /= n;
        means.self_ns /= n;
        means.by_name.values_mut().for_each(|v| *v /= n);
    }
    Ok(means)
}

/// The span list as written to `--trace-out`.
pub fn to_json(per_rank: &[Vec<Span>]) -> Json {
    Json::Arr(
        per_rank
            .iter()
            .flatten()
            .map(|s| {
                Json::obj([
                    ("op", Json::from(s.op)),
                    ("rank", Json::from(u64::from(s.rank))),
                    ("name", Json::str(s.name)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::from(u64::from(p)))),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, name: &'static str, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span { op, rank: 0, name, parent, start_ns: start, end_ns: end }
    }

    #[test]
    fn children_plus_self_equal_the_total_exactly() {
        let mut rec = Recorder::new(Instant::now(), 0);
        let ((), total) = rec.op(7, |r| {
            r.call("a", || std::thread::sleep(std::time::Duration::from_millis(2)));
            r.call("b", || ());
            r.call("a", || ());
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 4);
        let b = &breakdown(&spans).unwrap()[&7];
        assert_eq!(b.total_ns, total);
        assert_eq!(b.by_name.values().sum::<u64>() + b.self_ns, b.total_ns);
        assert!(b.by_name["a"] >= 2_000_000);
    }

    #[test]
    fn overlapping_or_escaping_children_fail_the_check() {
        let ok = vec![span(1, OP_SPAN, None, 0, 100), span(1, "a", Some(0), 10, 40)];
        assert_eq!(breakdown(&ok).unwrap()[&1].self_ns, 70);
        let overlap = [ok.clone(), vec![span(1, "b", Some(0), 30, 50)]].concat();
        assert!(breakdown(&overlap).is_err());
        let escape = vec![span(1, OP_SPAN, None, 0, 100), span(1, "a", Some(0), 90, 120)];
        assert!(breakdown(&escape).is_err());
    }

    #[test]
    fn means_follow_the_slower_rank() {
        let fast = vec![span(1, OP_SPAN, None, 0, 100), span(1, "a", Some(0), 0, 50)];
        let mut slow = vec![span(1, OP_SPAN, None, 0, 300), span(1, "a", Some(0), 0, 100)];
        slow.iter_mut().for_each(|s| s.rank = 1);
        let m = critical_rank_means(&[fast, slow]).unwrap();
        assert_eq!((m.ops, m.total_ns, m.self_ns, m.by_name["a"]), (1, 300.0, 200.0, 100.0));
    }
}
