//! The `lwfs-repro` binary, driven as CI drives it: every study exits 0
//! with all shape checks `ok` and leaves its CSV, anything outside the
//! usage line exits 2 having run nothing, and the probe artifacts parse.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use lwfs_obs::json::Json;
use lwfs_obs::parse_chrome_spans;

/// A fresh working directory per invocation: studies write `results/`
/// relative to where they run, and tests run in parallel.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lwfs-repro-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lwfs-repro")).args(args).current_dir(cwd).output().unwrap()
}

#[test]
fn every_study_passes_its_shape_checks_and_writes_its_csv() {
    let studies: [(&[&str], &[&str]); 5] = [
        (&["tables"], &["table1", "table2"]),
        (&["figure9", "--smoke"], &["figure9"]),
        (&["figure10", "--smoke"], &["figure10"]),
        (&["petaflop"], &["petaflop"]),
        (&["ablation"], &["ablation"]),
    ];
    for (args, csvs) in studies {
        let cwd = scratch(args[0]);
        let out = repro(&cwd, args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?} exited {:?}:\n{stdout}", out.status.code());
        assert!(stdout.contains("[ok]"), "{args:?} reported no shape check:\n{stdout}");
        assert!(!stdout.contains("MISMATCH"), "{args:?} failed a shape check:\n{stdout}");
        for csv in csvs {
            let body = std::fs::read_to_string(cwd.join(format!("results/{csv}.csv")))
                .unwrap_or_else(|e| panic!("{args:?} left no {csv}.csv: {e}"));
            assert!(body.lines().count() > 1, "{csv}.csv has a header and no rows");
        }
        let _ = std::fs::remove_dir_all(&cwd);
    }
}

#[test]
fn anything_outside_the_usage_line_exits_2_and_runs_nothing() {
    let bad: [&[&str]; 11] = [
        &[],
        &["figure11"],
        &["figure9", "--smokee"],
        &["tables", "--smoke"],
        &["probe", "metrics", "--transport", "bogus"],
        &["probe", "metrics", "--out"],
        &["probe", "telemetry", "--metrics-out", "m.json"],
        &["pairs", "a"],
        &["pairs", "a", "b", "--pairs", "3"],
        &["pairs", "a", "b", "--workload", "w", "--pairs", "ten"],
        &["pairs", "a", "b", "--workload", "w", "--seconds", "0"],
    ];
    let cwd = scratch("bad-args");
    for args in bad {
        let out = repro(&cwd, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something: {:?}", out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: lwfs-repro"), "{args:?} printed no usage:\n{stderr}");
    }
    assert_eq!(std::fs::read_dir(&cwd).unwrap().count(), 0, "a rejected run wrote files");
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn metrics_probe_writes_parseable_artifacts() {
    let cwd = scratch("probe");
    let out =
        repro(&cwd, &["probe", "metrics", "--out", "m/metrics.json", "--trace-out", "t.json"]);
    assert!(out.status.success(), "probe failed:\n{}", String::from_utf8_lossy(&out.stderr));

    let metrics = Json::parse(&std::fs::read_to_string(cwd.join("m/metrics.json")).unwrap())
        .expect("metrics artifact is JSON");
    let meta = metrics.get("meta").expect("metrics artifact carries its meta stamp");
    assert_eq!(meta.get("storage_servers").and_then(Json::as_u64), Some(4));
    assert!(meta.get("protocol_version").and_then(Json::as_u64).unwrap() >= 4);
    assert!(!metrics.get("counters").expect("counters").members().is_empty());

    let spans = parse_chrome_spans(&std::fs::read_to_string(cwd.join("t.json")).unwrap())
        .expect("trace artifact is Chrome trace JSON");
    assert!(spans.iter().any(|s| s.op == "repl" && s.stage == "ship"), "trace lost the ships");
    let _ = std::fs::remove_dir_all(&cwd);
}

/// A stand-in for `lwfs-benchmark` that prints a result line whose
/// figures depend on the seed, the way the real one's last line reads.
#[cfg(unix)]
fn fake_benchmark(dir: &Path, name: &str, ops_base: u32, cpu_ms: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let path = dir.join(name);
    let metric =
        |name: &str, value: &str| format!(r#""{name}": {{"value": {value}, "unit": "x"}}"#);
    let metrics = [
        metric("ops_s", &format!("$(({ops_base} + $4))")),
        metric("cpu_ms_per_op", cpu_ms),
        metric("peak_rss_mb", "$((40 + $4 % 2))"),
    ];
    let line =
        format!(r#"{{"correct": true, "failed": 0, "metrics": {{{}}}}}"#, metrics.join(", "));
    // `$4` is the seed: the script runs as `<bin> --workload W --seed S ...`.
    let script = format!("#!/bin/sh\necho warming up\necho \"{}\"\n", line.replace('"', "\\\""));
    std::fs::write(&path, script).unwrap();
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
    path
}

#[cfg(unix)]
#[test]
fn pairs_alternates_two_binaries_and_scores_each_metric() {
    let cwd = scratch("pairs");
    let parent = fake_benchmark(&cwd, "parent", 100, "4.0");
    let change = fake_benchmark(&cwd, "change", 150, "3.0");
    let (parent, change) = (parent.to_str().unwrap(), change.to_str().unwrap());
    let out = repro(
        &cwd,
        &["pairs", parent, change, "--workload", "w", "--pairs", "3", "--seconds", "1"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "pairs failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Parent first on pair 1, change first on pair 2.
    let order: Vec<&str> = stdout.lines().filter(|l| l.starts_with("pair ")).collect();
    assert_eq!(order.len(), 6, "{stdout}");
    assert!(order[0].contains("parent") && order[2].contains("change"), "{stdout}");
    let record = Json::parse(stdout.lines().last().unwrap()).expect("the last line is JSON");
    let row = |m: &str| record.get("metrics").and_then(|ms| ms.get(m)).unwrap().clone();
    assert_eq!(row("ops_s").get("change").unwrap().as_arr()[1].as_f64(), Some(152.0));
    assert_eq!(row("ops_s").get("wins").and_then(Json::as_u64), Some(3));
    assert_eq!(row("ops_s").get("verdict").and_then(Json::as_str), Some("better"));
    assert_eq!(row("cpu_ms_per_op").get("verdict").and_then(Json::as_str), Some("better"));
    assert_eq!(row("peak_rss_mb").get("verdict").and_then(Json::as_str), Some("same"));
    let _ = std::fs::remove_dir_all(&cwd);
}
