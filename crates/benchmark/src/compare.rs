//! `lwfs-benchmark compare <a.json> <b.json>`: the table a PR pastes.
//!
//! One row per workload × end-to-end metric: both medians, the ratio with
//! its base, the bound, and a verdict. `worse` means b's median is worse
//! than a's by more than the metric's bound; `unresolved` means it is not,
//! but the run-to-run spread of either side is wider than the bound, so
//! "unchanged" cannot be claimed either.

use crate::json::Json;
use crate::spec::{Workload, END_TO_END};

/// Median and interquartile range of one metric's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub iqr: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the rule the driver applies), reduced to median and Q3 − Q1.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return None,
        1 => return Some(Summary { n, median: v[0], iqr: 0.0 }),
        _ => {}
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary { n, median: quartile(2), iqr: quartile(3) - quartile(1) })
}

impl Summary {
    /// Spread as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr / self.median.abs()
        }
    }
}

/// The untraced repeats of `metric` on `workload` in one result file.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("traced").and_then(Json::as_bool) == Some(false))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn judge(worsening: f64, spread: f64, bound: f64) -> Verdict {
    if worsening > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Render the comparison; the flag says whether any row is `worse` (or a
/// side is missing a workload, which cannot be called a pass).
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut bad = false;
    for (label, file) in [("a", a), ("b", b)] {
        let meta = |k: &str| file.get("meta").and_then(|m| m.get(k)).cloned().unwrap_or(Json::Null);
        let _ = writeln!(
            out,
            "{label}: commit {} seed {} budget {}",
            meta("git_commit"),
            meta("seed"),
            meta("budget")
        );
    }
    let _ = writeln!(
        out,
        "{:<14} {:<27} {:>12} {:>12} {:>22} {:>6} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)", "bound", "spread"
    );
    for w in Workload::ALL {
        for m in &END_TO_END {
            let (sa, sb) =
                (summarize(&values(a, w.name(), m.name)), summarize(&values(b, w.name(), m.name)));
            let (Some(sa), Some(sb)) = (sa, sb) else {
                bad = true;
                let _ = writeln!(out, "{:<14} {:<27} missing from one side", w.name(), m.name);
                continue;
            };
            let spread = sa.spread().max(sb.spread());
            let verdict = judge(m.better.worsening(sa.median, sb.median), spread, m.bound);
            bad |= verdict == Verdict::Worse;
            let ratio = if sa.median == 0.0 { f64::NAN } else { sb.median / sa.median };
            let _ = writeln!(
                out,
                "{:<14} {:<27} {:>12.5} {:>12.5} {:>9.4} of {:>9.5} {:>5.1}% {:>6.2}%  {}",
                w.name(),
                m.name,
                sa.median,
                sb.median,
                ratio,
                sa.median,
                m.bound * 100.0,
                spread * 100.0,
                verdict.as_str()
            );
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.median, s.iqr), (5.5, 5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.iqr), (2.0, 2.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.iqr), (1.5, 1.5));
        assert_eq!(summarize(&[4.0]).unwrap().iqr, 0.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn verdicts() {
        assert_eq!(judge(0.08, 0.01, 0.07), Verdict::Worse);
        assert_eq!(judge(0.02, 0.09, 0.07), Verdict::Unresolved);
        assert_eq!(judge(-0.2, 0.01, 0.07), Verdict::Ok);
    }

    fn file(ops_s: f64) -> Json {
        let run = |w: &str| {
            let metrics = END_TO_END.iter().map(|m| {
                let v = if m.name == "ops_s" { ops_s } else { 1.0 };
                (m.name, Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]))
            });
            Json::obj([
                ("workload", Json::str(w)),
                ("traced", Json::Bool(false)),
                ("metrics", Json::obj(metrics)),
            ])
        };
        Json::obj([("runs", Json::Arr(Workload::ALL.iter().map(|w| run(w.name())).collect()))])
    }

    #[test]
    fn a_slower_b_is_flagged_and_an_equal_one_is_not() {
        let (table, bad) = compare(&file(100.0), &file(100.0));
        assert!(!bad, "{table}");
        let (table, bad) = compare(&file(100.0), &file(50.0));
        assert!(bad && table.contains("worse"), "{table}");
        let (_, bad) = compare(&file(100.0), &Json::obj([("runs", Json::Arr(vec![]))]));
        assert!(bad, "a missing side is not a pass");
    }
}
