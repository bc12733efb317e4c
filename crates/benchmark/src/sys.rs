//! What the benchmark reads from the host: process CPU and memory from
//! `/proc`, free disk, tool versions, and the source-line census that goes
//! into every result file's metadata.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;

/// Linux reports process times in `USER_HZ` ticks, which the kernel ABI
/// fixes at 100 on every architecture this workspace builds for.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process (all threads, dead ones
/// included) has consumed.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name may contain spaces; fields are counted from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let ticks: f64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    ticks / TICKS_PER_SEC
}

/// Ticks (10 ms) of CPU time the hypervisor has given to other guests while
/// this machine wanted to run, all CPUs together; 0 where `/proc/stat` does
/// not say.
pub fn steal_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return 0 };
    // cpu  user nice system idle iowait irq softirq steal ...
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size so far (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Start a new peak: `VmHWM` falls back to the current resident size.
/// Best effort — where the kernel refuses, the peak simply keeps rising.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Bytes available to this user on the filesystem holding `path`.
pub fn free_disk_bytes(path: &Path) -> Option<u64> {
    let out = stdout_of(Command::new("df").arg("-Pk").arg(path))?;
    let kb: u64 = out.lines().nth(1)?.split_whitespace().nth(3)?.parse().ok()?;
    Some(kb * 1024)
}

/// Total size of the regular files under `dir` (0 if it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

fn rs_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                rs_lines(&path)
            } else if path.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&path).map_or(0, |s| s.lines().count() as u64)
            } else {
                0
            }
        })
        .sum()
}

/// Lines of Rust per crate (`crates/*/src` and the root `src/`), so the
/// simplicity round's line target is tracked by the same artifact as the
/// speed it must not cost.
pub fn source_lines(repo_root: &Path) -> Json {
    let mut rows: Vec<(String, Json)> = Vec::new();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(repo_root.join("crates"))
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    crates.sort();
    for dir in crates {
        let name = dir.file_name().unwrap_or_default().to_string_lossy().into_owned();
        rows.push((name, Json::from(rs_lines(&dir.join("src")))));
    }
    rows.push(("src".into(), Json::from(rs_lines(&repo_root.join("src")))));
    Json::Obj(rows)
}

/// Facts about the host and the checkout that every result file carries.
pub fn host_meta(repo_root: &Path) -> Vec<(&'static str, Json)> {
    let or_unknown = |v: Option<String>| Json::str(v.unwrap_or_else(|| "unknown".into()));
    vec![
        (
            "git_commit",
            or_unknown(stdout_of(
                Command::new("git").arg("-C").arg(repo_root).args(["rev-parse", "HEAD"]),
            )),
        ),
        ("rustc", or_unknown(stdout_of(Command::new("rustc").arg("-V")))),
        ("nproc", Json::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64)),
        ("free_disk_bytes", free_disk_bytes(repo_root).map_or(Json::Null, Json::from)),
        ("source_lines", source_lines(repo_root)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 1.0, "VmHWM {}", peak_rss_mb());
        assert!(free_disk_bytes(Path::new(".")).is_some());
    }

    #[test]
    fn census_counts_this_crate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let lines = source_lines(&root);
        assert!(lines.get("benchmark").and_then(Json::as_f64).unwrap() > 100.0);
        assert!(lines.get("src").is_some());
    }
}
