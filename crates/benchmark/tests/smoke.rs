//! Every workload and the micro table at `--scale 0.01`: the names in
//! `BENCHMARK.json` are emitted exactly once each with a finite value and
//! the declared unit, nothing undeclared is emitted, no op fails, and the
//! bypass predictions hold — then the same through the `all` and `compare`
//! commands.

use std::path::PathBuf;
use std::process::Command;

use lwfs_benchmark::json::Json;
use lwfs_benchmark::run::{run, Budget, Opts, RunRecord};
use lwfs_benchmark::spec::Workload;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(manifest: &Json, section: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    manifest
        .get(section)
        .expect(section)
        .as_arr()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn assert_emits_exactly(record: &RunRecord, declared: &[(String, String)]) {
    let w = record.workload.name();
    for (name, unit) in declared {
        let hits: Vec<_> = record.metrics.iter().filter(|m| m.name == name).collect();
        assert_eq!(hits.len(), 1, "{w}: {name} emitted {} times", hits.len());
        assert!(hits[0].value.is_finite(), "{w}: {name} = {}", hits[0].value);
        assert_eq!(hits[0].unit, unit, "{w}: unit of {name}");
    }
    for m in &record.metrics {
        assert!(declared.iter().any(|(n, _)| n == m.name), "{w}: undeclared metric {}", m.name);
    }
}

#[test]
fn every_workload_emits_the_declared_metrics_and_the_bypass_predictions_hold() {
    let manifest = manifest();
    let workloads: Vec<String> = declared_names(&manifest, "workloads");
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");

    for workload in Workload::ALL {
        let opts = |traced| Opts {
            workload,
            seed: 1,
            budget: Budget::Scale(0.01),
            traced,
            tmp_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
            trace_out: None,
        };
        let w = workload.name();

        let untraced = run(&opts(false)).expect(w);
        assert!(untraced.correct(), "{w}: {:?}", untraced.errors);
        assert_eq!(untraced.tally.failed_frac(), 0.0, "{w}");
        assert_emits_exactly(&untraced, &end_to_end);
        assert_eq!(untraced.metric("verified_frac"), Some(1.0), "{w}");
        for name in ["setup_s", "ops_s", "goodput_mb_s", "op_ms_p50", "peak_rss_mb"] {
            assert!(untraced.metric(name).unwrap() > 0.0, "{w}: {name} must never be 0");
        }
        // Log bytes per byte written + store bytes per byte retained.
        let space = untraced.metric("stored_bytes_per_user_byte").unwrap();
        let expect = match workload {
            Workload::CkptDurable | Workload::ReplWrite => 2.0,
            _ => 1.0,
        };
        assert!((space - expect).abs() < 0.05, "{w}: stored_bytes_per_user_byte {space}");

        let traced = run(&opts(true)).expect(w);
        assert!(traced.correct(), "{w}: {:?}", traced.errors);
        assert_emits_exactly(&traced, &per_layer);
        let value = |name: &str| traced.metric(name).unwrap();

        // Layers the workload does not touch read exactly 0; the one
        // workload that does touch them reads more.
        let wal_rows = [
            "wal.appends_per_op",
            "wal.fsyncs_per_op",
            "wal.bytes_per_user_byte",
            "wal.append_p50_ns",
            "wal.fsync_p50_ns",
            "wal.recovery_ms",
            "wal.replay_records",
        ];
        for name in wal_rows {
            assert_eq!(value(name) > 0.0, workload == Workload::CkptDurable, "{w}: {name}");
        }
        for name in
            ["replica.ships_per_op", "replica.ship_p50_ns", "replica.failover_first_read_ms"]
        {
            assert_eq!(value(name) > 0.0, workload == Workload::ReplWrite, "{w}: {name}");
        }
        for name in ["replica.ship_retries", "replica.ship_failures", "replica.dedup_hits"] {
            assert_eq!(value(name), 0.0, "{w}: {name}");
        }
        let on_sockets = workload == Workload::CkptDumpTcp;
        assert_eq!(value("fabric.frames_per_op") > 0.0, on_sockets, "{w}: fabric.frames_per_op");
        for name in
            ["fabric.send_rejects", "fabric.stream_errors", "portals.rejected", "txn.aborts"]
        {
            assert_eq!(value(name), 0.0, "{w}: {name}");
        }
        // Caps are cached (Legacy) or self-certifying (Signed) after the
        // warm-up: the authorization service is off the data path.
        assert_eq!(value("authz.msgs_per_op"), 0.0, "{w}");
        assert_eq!(value("authz.verify_through_per_op"), 0.0, "{w}");
        let signed = matches!(workload, Workload::CkptCreate | Workload::CkptDumpTcp);
        assert_eq!(value("cap.cache_hit_ratio"), if signed { 1.0 } else { 0.0 }, "{w}");
        // The rows that must move with the workload's own layers.
        let reads = workload == Workload::CkptRestore;
        assert_eq!(value("storage.read_ms") > 0.0, reads, "{w}: storage.read_ms");
        assert_eq!(value("storage.write_ms") > 0.0, !reads, "{w}: storage.write_ms");
    }
}

fn declared_names(manifest: &Json, section: &str) -> Vec<String> {
    manifest
        .get(section)
        .expect(section)
        .as_arr()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect()
}

#[test]
fn all_writes_a_result_file_that_compares_clean_against_itself() {
    let exe = env!("CARGO_BIN_EXE_lwfs-benchmark");
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("all");
    let out = tmp.join("results.json");
    let status = Command::new(exe)
        .args(["all", "--seed", "2", "--scale", "0.01", "--out"])
        .arg(&out)
        .arg("--tmp")
        .arg(&tmp)
        .status()
        .expect("spawning lwfs-benchmark all");
    assert!(status.success(), "all exited with {status}");

    let file = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let meta = file.get("meta").expect("meta");
    for key in ["git_commit", "rustc", "nproc", "seed", "budget", "source_lines", "free_disk_bytes"]
    {
        assert!(meta.get(key).is_some(), "meta lacks {key}");
    }
    // One untraced and one traced run per workload, each with its counts.
    let runs = file.get("runs").unwrap().as_arr();
    assert_eq!(runs.len(), 2 * Workload::ALL.len());
    for r in runs {
        assert_eq!(r.get("correct").and_then(Json::as_bool), Some(true));
        for key in ["timed_ops", "warm_ops_per_round", "run_wall_s"] {
            assert!(r.get(key).and_then(Json::as_f64).is_some(), "run lacks {key}");
        }
    }

    let compared = Command::new(exe).arg("compare").arg(&out).arg(&out).output().unwrap();
    let table = String::from_utf8_lossy(&compared.stdout);
    assert!(compared.status.success(), "{table}");
    assert!(!table.contains("worse") && !table.contains("missing"), "{table}");
    let rows = manifest().get("end_to_end").unwrap().as_arr().len() * Workload::ALL.len();
    assert_eq!(table.lines().filter(|l| l.ends_with(" ok")).count(), rows, "{table}");
}
