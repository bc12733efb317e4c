//! ```text
//! lwfs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! lwfs-benchmark all [--seed n] [--scale f | --seconds s] [--repeats k] [--out file]
//! lwfs-benchmark compare <a.json> <b.json>
//! lwfs-benchmark manifest
//! ```
//!
//! A single run prints its full record and then, as the last line of
//! stdout, the object the driver reads. `all` runs every workload
//! untraced (`--repeats` times) and once traced, each in a child process
//! of its own so `peak_rss_mb` and `setup_s` belong to one workload,
//! prints every metric by name with its unit, and writes one result file.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use lwfs_benchmark::compare::{compare, summarize};
use lwfs_benchmark::json::Json;
use lwfs_benchmark::run::{run, Budget, Opts};
use lwfs_benchmark::spec::{manifest, PerLayer, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use lwfs_benchmark::sys;

const USAGE: &str = "usage:
  lwfs-benchmark --workload <name> --seed <n> (--seconds <s> | --scale <f>) --trace <0|1>
                 [--trace-out <file>] [--tmp <dir>]
  lwfs-benchmark all [--seed <n>] [--scale <f> | --seconds <s>] [--repeats <k>]
                 [--out <file>] [--tmp <dir>]
  lwfs-benchmark compare <a.json> <b.json>
  lwfs-benchmark manifest";

/// `--flag value` pairs after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else { return Ok(None) };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.take(flag)?
            .map(|v| v.parse::<T>().map_err(|_| format!("bad value for {flag}: {v}")))
            .transpose()
    }

    fn budget(&mut self) -> Result<Option<Budget>, String> {
        let positive = |v: f64, flag: &str| {
            (v.is_finite() && v > 0.0).then_some(v).ok_or(format!("{flag} must be positive"))
        };
        match (self.parsed::<f64>("--seconds")?, self.parsed::<f64>("--scale")?) {
            (Some(_), Some(_)) => Err("--seconds and --scale exclude each other".into()),
            (Some(s), None) => Ok(Some(Budget::Seconds(positive(s, "--seconds")?))),
            (None, Some(f)) => Ok(Some(Budget::Scale(positive(f, "--scale")?))),
            (None, None) => Ok(None),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some(extra) => Err(format!("unexpected argument {extra}")),
            None => Ok(()),
        }
    }
}

/// Scratch space inside the checkout: the build directory the driver
/// names, else cargo's default.
fn default_tmp() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("lwfs-benchmark-tmp")
}

fn budget_json(b: Budget) -> Json {
    match b {
        Budget::Scale(f) => Json::str(format!("scale {f}")),
        Budget::Seconds(s) => Json::str(format!("seconds {s}")),
    }
}

fn single(mut args: Args) -> Result<bool, String> {
    let workload = args.take("--workload")?.ok_or("missing --workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    let opts = Opts {
        workload,
        seed: args.parsed("--seed")?.unwrap_or(1),
        budget: args.budget()?.unwrap_or(Budget::Seconds(RUN_SECONDS as f64)),
        traced: match args.take("--trace")?.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, not {v}")),
        },
        tmp_root: args.take("--tmp")?.map_or_else(default_tmp, PathBuf::from),
        trace_out: args.take("--trace-out")?.map(PathBuf::from),
    };
    args.finish()?;
    std::fs::create_dir_all(&opts.tmp_root)
        .map_err(|e| format!("creating {}: {e}", opts.tmp_root.display()))?;
    let record = run(&opts)?;
    for e in &record.errors {
        eprintln!("lwfs-benchmark: {e}");
    }
    println!("{}", record.to_json());
    println!("{}", record.driver_line());
    Ok(record.correct())
}

/// Run one workload in a child process and return its full record.
fn child(
    workload: Workload,
    seed: u64,
    budget: Budget,
    traced: bool,
    tmp: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let (flag, value) = match budget {
        Budget::Scale(f) => ("--scale", f.to_string()),
        Budget::Seconds(s) => ("--seconds", s.to_string()),
    };
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string(), flag, &value])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--tmp")
        .arg(tmp)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let (_driver_line, record) = (lines.next(), lines.next());
    let record = record.ok_or(format!("{} printed no record ({})", workload.name(), out.status))?;
    Json::parse(record).map_err(|e| format!("{} record: {e}", workload.name()))
}

/// Print one run's metrics by name, each with its unit and a note (what
/// it is, or how it was obtained and what it should move).
fn print_run(record: &Json, rows: impl Iterator<Item = (&'static str, String)>) {
    for (name, note) in rows {
        let m = record.get("metrics").and_then(|m| m.get(name));
        let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
        let unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str).unwrap_or("?");
        match value {
            Some(v) => println!("  {name:<32} {v:>16.6} {unit:<6} {note}"),
            None => println!("  {name:<32} {:>16} {unit:<6} {note}", "MISSING"),
        }
    }
}

fn all(mut args: Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let budget = args.budget()?.unwrap_or(Budget::Scale(1.0));
    let repeats: usize = args.parsed("--repeats")?.unwrap_or(1).max(1);
    let out =
        args.take("--out")?.map_or_else(|| "results/lwfs-benchmark.json".into(), PathBuf::from);
    let tmp = args.take("--tmp")?.map_or_else(default_tmp, PathBuf::from);
    args.finish()?;

    let repo_root = std::env::current_dir().map_err(|e| e.to_string())?;
    let mut meta: Vec<(String, Json)> =
        sys::host_meta(&repo_root).into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    let unix_ts = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    meta.extend([
        ("seed".to_string(), Json::from(seed)),
        ("budget".to_string(), budget_json(budget)),
        ("repeats".to_string(), Json::from(repeats as u64)),
        ("unix_ts".to_string(), Json::from(unix_ts)),
    ]);

    let mut runs = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {} ==", w.name());
        let first_run = runs.len();
        for repeat in 0..repeats {
            runs.push(child(w, seed, budget, false, &tmp)?);
            if repeat == 0 {
                print_run(
                    &runs[first_run],
                    END_TO_END.iter().map(|m| (m.name, m.what.to_string())),
                );
            }
        }
        if repeats > 1 {
            for m in &END_TO_END {
                let values: Vec<f64> = runs[first_run..]
                    .iter()
                    .filter_map(|r| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                    .collect();
                if let Some(s) = summarize(&values) {
                    println!(
                        "  {:<32} median {:.6} {} over {} runs, spread {:.2}% (bound {:.1}%)",
                        m.name,
                        s.median,
                        m.unit,
                        s.n,
                        s.spread() * 100.0,
                        m.bound * 100.0
                    );
                }
            }
        }
        runs.push(child(w, seed, budget, true, &tmp)?);
        let noted = |m: &PerLayer| (m.name, format!("[{}] moves {}", m.kind.as_str(), m.moves));
        print_run(&runs[runs.len() - 1], PER_LAYER.iter().map(noted));
        for r in &runs[first_run..] {
            let failed_frac = r.get("failed_frac").and_then(Json::as_f64).unwrap_or(1.0);
            let correct = r.get("correct").and_then(Json::as_bool).unwrap_or(false);
            if !correct || failed_frac != 0.0 {
                ok = false;
                println!(
                    "  FAILED: failed_frac {failed_frac}, errors {}",
                    r.get("errors").unwrap_or(&Json::Null)
                );
            }
        }
    }

    let file = Json::obj([("meta", Json::Obj(meta)), ("runs", Json::Arr(runs))]);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, format!("{file}\n"))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    Ok(ok)
}

fn compare_files(args: Args) -> Result<bool, String> {
    let [a, b] = args.0.as_slice() else { return Err(USAGE.into()) };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, bad) = compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("all") => all(Args(argv.split_off(1))),
        Some("compare") => compare_files(Args(argv.split_off(1))),
        Some("manifest") => {
            print!("{}", manifest(RUN_SECONDS).pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => single(Args(argv)),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lwfs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
