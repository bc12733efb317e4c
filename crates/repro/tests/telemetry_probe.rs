//! End-to-end acceptance for the telemetry plane: run the monitored
//! write-storm probe and read its two artifacts back as their independent
//! readers do (the exporter must not be the only judge of its own
//! output): the JSONL series through the JSON reader, as CI's `json.loads`
//! and `lwfs-inspect --jsonl` read it, and the trace through
//! `parse_chrome_spans`, as `lwfs-inspect --trace` reads it.

use lwfs_core::TransportKind;
use lwfs_obs::json::Json;
use lwfs_obs::parse_chrome_spans;
use lwfs_repro::{run_telemetry_probe, LAG_RULE, WRITE_P99_RULE};

#[test]
fn telemetry_probe_monitors_degrading_cluster() {
    let dir = std::env::temp_dir().join(format!("lwfs-telemetry-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = dir.join("telemetry.jsonl");
    let trace_out = dir.join("trace.json");
    let report = run_telemetry_probe(TransportKind::InProcess, Some(&out), Some(&trace_out))
        .expect("telemetry probe");

    // The probe already asserted the core invariants (nonzero lag window,
    // alert-before-eviction); re-check the ordering from the report.
    assert!(report.windows >= 5, "monitor completed only {} windows", report.windows);
    assert!(
        report.lag_alert_seq < report.evict_seq,
        "lag alert (seq {}) must precede the eviction (seq {})",
        report.lag_alert_seq,
        report.evict_seq
    );
    // The window lines carry the scraped journal tail: the causal story
    // (alert before eviction) must be reconstructible from the JSONL
    // artifact alone — CI asserts exactly this on the exported file.
    let events: Vec<&Json> = report
        .jsonl
        .iter()
        .flat_map(|w| w.get("events").map(Json::as_arr).unwrap_or_default())
        .collect();
    let journaled = |kind: &str, needles: &[&str]| {
        events.iter().any(|e| {
            let detail = e.get("detail").and_then(Json::as_str).unwrap_or_default();
            e.get("kind").and_then(Json::as_str) == Some(kind)
                && needles.iter().all(|n| detail.contains(n))
        })
    };
    assert!(journaled("alert.fire", &[LAG_RULE]), "lag alert missing from the JSONL event stream");
    assert!(journaled("repl.evict_backup", &[]), "eviction missing from the JSONL event stream");

    // Per-node attribution: some per-server series in the windows must
    // carry a nid label in its key.
    let keyed_by_nid = report.jsonl.iter().any(|w| {
        ["counters", "gauges", "histograms"].iter().any(|section| {
            w.get(section).is_some_and(|s| s.members().iter().any(|(k, _)| k.contains("{nid=\"")))
        })
    });
    assert!(keyed_by_nid, "per-server series lost their nid label");

    // The JSONL artifact: meta stamp first, then the windows, which read
    // back value for value.
    let body = std::fs::read_to_string(&out).expect("telemetry jsonl written");
    let mut lines = body.lines().map(|l| Json::parse(l).expect("every line is one JSON value"));
    let meta = lines.next().expect("meta line");
    for key in ["unix_ts", "protocol_version", "storage_servers"] {
        let field = meta.get("meta").and_then(|m| m.get(key)).and_then(Json::as_u64);
        assert!(field.is_some_and(|v| v > 0), "meta line missing {key}: {meta}");
    }
    assert!(report.jsonl.len() >= 5, "jsonl has too few windows");
    assert_eq!(lines.collect::<Vec<_>>(), report.jsonl);

    // The blame-carrying alert: the write-p99 breach must name ship RTT,
    // and the fired alert must be in the JSONL event stream so offline
    // tooling can reconstruct the attribution from artifacts alone.
    assert!(
        report.p99_alert_detail.contains("blame=ship_rtt"),
        "p99 alert detail lost its blame: {}",
        report.p99_alert_detail
    );
    assert!(
        journaled("alert.fire", &[WRITE_P99_RULE, "blame=ship_rtt"]),
        "blame-carrying p99 alert missing from the JSONL event stream"
    );
    // The trace artifact: Chrome trace JSON carrying the storm's ship spans.
    let trace = std::fs::read_to_string(&trace_out).expect("trace json written");
    let spans = parse_chrome_spans(&trace).expect("trace artifact is Chrome trace JSON");
    assert!(spans.iter().any(|s| s.op == "repl" && s.stage == "ship"), "lost the ship spans");

    // The probe writes exactly the two paths it was given: no sibling.
    let mut written: Vec<_> = std::fs::read_dir(&dir)
        .expect("output dir")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    written.sort();
    assert_eq!(written, ["telemetry.jsonl", "trace.json"]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lag_rule_name_is_stable() {
    // CI greps the journal for this rule name; keep it a public constant.
    assert_eq!(LAG_RULE, "repl_lag_sustained");
}
