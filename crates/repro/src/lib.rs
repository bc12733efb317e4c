//! The paper, regenerated: every table, figure and attribution study of
//! the evaluation behind the one `lwfs-repro` binary, plus the two
//! observability acceptance probes and the paired benchmark comparison
//! ([`pairs`]).
//!
//! Every study follows the same protocol:
//!
//! 1. run the model (or the functional plane) over the experiment grid,
//! 2. print the series in the same rows/columns the paper reports,
//! 3. write a CSV under `results/`,
//! 4. print explicit **shape checks** comparing the measured curve
//!    features (plateaus, ceilings, ratios, crossovers) against what the
//!    paper's figures show, each marked `ok` / `MISMATCH`,
//!
//! and returns whether every shape check passed. `main` is the only place
//! that reads argv; everything below it takes plain values.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub mod ablation;
pub mod figures;
pub mod functional;
mod metrics;
pub mod pairs;
pub mod petaflop;
pub mod tables;
mod telemetry;

pub use metrics::run_metrics_probe;
pub use telemetry::{run_telemetry_probe, TelemetryReport, LAG_RULE, WRITE_P99_RULE};

/// A simple aligned-column table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    pub fn from_header(header: Vec<String>) -> Self {
        Self { header, rows: Vec::new() }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Write an output file, creating its directory first.
pub(crate) fn write_file(path: &Path, body: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, body)
}

/// CSV writer for experiment output.
pub struct CsvOut {
    path: PathBuf,
    lines: Vec<String>,
}

impl CsvOut {
    /// Create `results/<name>.csv`, relative to the current directory.
    pub fn new(name: &str, header: &[&str]) -> Self {
        let path = Path::new("results").join(format!("{name}.csv"));
        Self { path, lines: vec![header.join(",")] }
    }

    pub fn row(&mut self, cells: &[String]) {
        self.lines.push(cells.join(","));
    }

    /// Write the file; returns the path written.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        write_file(&self.path, &(self.lines.join("\n") + "\n"))?;
        Ok(self.path)
    }
}

/// A paper-shape check with pass/fail display.
#[derive(Default)]
pub struct ShapeCheck {
    checks: Vec<(String, bool)>,
}

impl ShapeCheck {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a check: `description` should state both the paper's claim
    /// and the measured value.
    pub fn check(&mut self, description: impl Into<String>, pass: bool) {
        self.checks.push((description.into(), pass));
    }

    /// Check that `value` lies within `[lo, hi]`.
    pub fn check_range(&mut self, what: &str, value: f64, lo: f64, hi: f64) {
        self.check(
            format!("{what}: measured {value:.2} (expected {lo:.2}..{hi:.2})"),
            (lo..=hi).contains(&value),
        );
    }

    /// Print all checks; returns `true` when every check passed.
    pub fn report(&self) -> bool {
        println!("\nShape checks vs paper:");
        let mut all = true;
        for (desc, pass) in &self.checks {
            println!("  [{}] {desc}", if *pass { "ok" } else { "MISMATCH" });
            all &= *pass;
        }
        all
    }
}

/// Close a study: print the shape checks and write the CSV. `true` when
/// every check passed and the file landed.
pub fn finish(shapes: &ShapeCheck, csv: CsvOut) -> bool {
    let ok = shapes.report();
    match csv.finish() {
        Ok(path) => {
            println!("\nCSV written to {}", path.display());
            ok
        }
        Err(e) => {
            eprintln!("CSV write failed: {e}");
            false
        }
    }
}

/// Format a mean ± stddev cell.
pub fn pm(mean: f64, sd: f64) -> String {
    format!("{mean:.0}±{sd:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["clients", "MB/s"]);
        t.row(&["1".into(), "95".into()]);
        t.row(&["64".into(), "1520".into()]);
        let s = t.render();
        assert!(s.contains("clients"));
        assert!(s.contains("1520"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn shape_check_reports() {
        let mut sc = ShapeCheck::new();
        sc.check_range("x", 5.0, 4.0, 6.0);
        sc.check_range("y", 10.0, 0.0, 5.0);
        assert!(!sc.report());
        let mut sc2 = ShapeCheck::new();
        sc2.check_range("x", 5.0, 4.0, 6.0);
        assert!(sc2.report());
    }

    #[test]
    fn pm_formats() {
        assert_eq!(pm(1520.4, 12.6), "1520±13");
    }

    #[test]
    fn csv_writes_file() {
        let mut csv = CsvOut::new("unit-test-tmp", &["a", "b"]);
        csv.row(&["1".into(), "2".into()]);
        let path = csv.finish().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        let _ = std::fs::remove_file(path);
    }
}
