//! `lwfs-repro pairs`: judge a performance change the one way this
//! project accepts, by alternating two prebuilt `lwfs-benchmark` binaries
//! (the parent's and the change's) on one workload.
//!
//! Pair `i` runs both binaries with seed `i`, the parent first on even
//! pairs and the change first on odd ones, so drift over the session
//! falls on both sides alike. Each run's last stdout line is the
//! benchmark's result. Per end-to-end metric of `BENCHMARK.json` the
//! table gives both sides' medians and quartiles, the change's gain in
//! the metric's better direction, and how many pairs it won. A row is
//! *unresolved* when the parent's quartile spread exceeds the metric's
//! bound: 10 pairs cannot tell such a metric's change from its noise. The
//! last stdout line is the comparison as one JSON object, the form a
//! `BENCH_trajectory.jsonl` line takes.

use std::path::Path;
use std::process::Command;

use lwfs_obs::json::Json;

use crate::Table;

/// The benchmark's declaration, for the metrics' names, directions and
/// bounds.
const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn metrics() -> Vec<Metric> {
    let decl = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let end_to_end = decl.get("end_to_end").expect("BENCHMARK.json lists end_to_end metrics");
    end_to_end
        .as_arr()
        .iter()
        .map(|m| Metric {
            name: m.get("name").and_then(Json::as_str).unwrap_or_default().to_owned(),
            higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect()
}

/// The `q`-quantile of `xs`, interpolated between the two nearest ranks.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Quartiles `[q1, median, q3]`.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|q| quantile(xs, q))
}

/// One metric across the pairs.
struct Row {
    parent: [f64; 3],
    change: [f64; 3],
    /// The change of the median, as a fraction of the parent's, positive
    /// when it went the better way.
    gain: f64,
    wins: usize,
    /// The parent's quartile spread stays within the metric's bound.
    resolved: bool,
}

fn compare(metric: &Metric, parent: &[f64], change: &[f64]) -> Row {
    let sign = if metric.higher_is_better { 1.0 } else { -1.0 };
    let (p, c) = (quartiles(parent), quartiles(change));
    let wins = parent.iter().zip(change).filter(|(p, c)| sign * (*c - *p) > 0.0).count();
    Row {
        parent: p,
        change: c,
        gain: sign * (c[1] - p[1]) / p[1].abs(),
        wins,
        resolved: p[2] - p[0] <= metric.bound * p[1].abs(),
    }
}

/// The verdict a row reads as: a median gain larger than the parent's
/// quartile spread, either way, or neither.
fn verdict(row: &Row) -> &'static str {
    let spread = row.parent[2] - row.parent[0];
    let moved = (row.change[1] - row.parent[1]).abs();
    match (row.resolved, row.gain) {
        (false, _) => "unresolved",
        (true, g) if moved > spread && g > 0.0 => "better",
        (true, g) if moved > spread && g < 0.0 => "worse",
        _ => "same",
    }
}

/// Run `bin` once; the metrics of its last stdout line, or why there are
/// none.
fn run_once(bin: &Path, workload: &str, seed: usize, seconds: u64) -> Result<Json, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{}: last line: {e}", bin.display()))?;
    let correct = result.get("correct") == Some(&Json::Bool(true));
    let failed = result.get("failed").and_then(Json::as_u64);
    if !out.status.success() || !correct || failed != Some(0) {
        return Err(format!(
            "{} seed {seed}: exit {:?}, correct {correct}, failed {failed:?}",
            bin.display(),
            out.status.code()
        ));
    }
    Ok(result)
}

fn value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Alternate `parent` and `change` for `pairs` pairs of `seconds`-long
/// runs of `workload`, then print the comparison. `false` when a run
/// failed or was not correct.
pub fn run(parent: &Path, change: &Path, workload: &str, pairs: usize, seconds: u64) -> bool {
    let metrics = metrics();
    let (mut parents, mut changes) = (Vec::new(), Vec::new());
    for pair in 0..pairs {
        let seed = pair + 1;
        let order = if pair % 2 == 0 { [false, true] } else { [true, false] };
        for is_change in order {
            let (bin, side, runs) = if is_change {
                (change, "change", &mut changes)
            } else {
                (parent, "parent", &mut parents)
            };
            match run_once(bin, workload, seed, seconds) {
                Ok(result) => {
                    let shown = ["ops_s", "cpu_ms_per_op"]
                        .map(|m| format!("{m} {:.3}", value(&result, m).unwrap_or(f64::NAN)));
                    println!("pair {seed}/{pairs} {side:>6}: {}", shown.join("  "));
                    runs.push(result);
                }
                Err(why) => {
                    eprintln!("lwfs-repro pairs: {why}");
                    return false;
                }
            }
        }
    }

    let mut table =
        Table::new(&["metric", "parent q1/med/q3", "change q1/med/q3", "gain", "wins", "verdict"]);
    let mut rows = Vec::new();
    for metric in &metrics {
        let values = |runs: &[Json]| -> Vec<f64> {
            runs.iter().map(|r| value(r, &metric.name).unwrap_or(f64::NAN)).collect()
        };
        let row = compare(metric, &values(&parents), &values(&changes));
        let fmt = |q: [f64; 3]| format!("{:.3} / {:.3} / {:.3}", q[0], q[1], q[2]);
        table.row(&[
            metric.name.clone(),
            fmt(row.parent),
            fmt(row.change),
            format!("{:+.1} %", 100.0 * row.gain),
            format!("{}/{pairs}", row.wins),
            verdict(&row).to_owned(),
        ]);
        let quarts = |q: [f64; 3]| Json::Arr(q.map(Json::from).to_vec());
        rows.push((
            metric.name.clone(),
            Json::obj([
                ("parent", quarts(row.parent)),
                ("change", quarts(row.change)),
                ("wins", Json::from(row.wins as u64)),
                ("verdict", Json::str(verdict(&row))),
            ]),
        ));
    }
    println!("{workload}: {pairs} pairs of {seconds} s runs, quartiles q1 / median / q3");
    table.print();
    let record = Json::obj([
        ("workload", Json::str(workload)),
        ("pairs", Json::from(pairs as u64)),
        ("seconds", Json::from(seconds)),
        ("metrics", Json::obj(rows)),
    ]);
    println!("{record}");
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [1.25, 1.5, 1.75]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn every_end_to_end_metric_has_a_direction_and_a_bound() {
        let metrics = metrics();
        assert!(metrics.iter().any(|m| m.name == "ops_s" && m.higher_is_better));
        assert!(metrics.iter().any(|m| m.name == "cpu_ms_per_op" && !m.higher_is_better));
        assert!(metrics.iter().all(|m| !m.name.is_empty() && m.bound > 0.0));
    }

    #[test]
    fn a_row_counts_wins_in_the_better_direction_and_flags_a_wide_parent() {
        let lower = Metric { name: "ms".into(), higher_is_better: false, bound: 0.25 };
        let parent = [10.0, 11.0, 10.0, 12.0];
        let row = compare(&lower, &parent, &[8.0, 8.0, 10.0, 9.0]);
        assert_eq!((row.wins, row.resolved, verdict(&row)), (3, true, "better"));
        assert!((row.gain - (10.5 - 8.5) / 10.5).abs() < 1e-12);
        let row = compare(&lower, &parent, &[10.5, 10.5, 10.5, 10.5]);
        assert_eq!(verdict(&row), "same");
        let higher = Metric { name: "ops".into(), higher_is_better: true, bound: 0.25 };
        let row = compare(&higher, &parent, &[8.0, 8.0, 10.0, 9.0]);
        assert_eq!((row.wins, verdict(&row)), (0, "worse"));
        let row = compare(&higher, &[1.0, 10.0, 10.0, 20.0], &[30.0; 4]);
        assert_eq!((row.wins, row.resolved, verdict(&row)), (4, false, "unresolved"));
    }
}
