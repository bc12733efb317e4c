//! End-to-end acceptance for the telemetry plane: run the monitored
//! write-storm probe and validate its artifacts with an *independent*
//! Prometheus exposition-format checker (the exporter must not be the
//! only judge of its own output).

use lwfs_core::TransportKind;
use lwfs_obs::json::Json;
use lwfs_obs::parse_chrome_spans;
use lwfs_repro::{run_telemetry_probe, LAG_RULE, WRITE_P99_RULE};

/// Validate Prometheus text exposition format: every `# TYPE` line names
/// a legal metric with a legal type, every sample line is
/// `name{labels} value` with a legal name, legal label names, properly
/// escaped label values, and a parseable value — and every sample's
/// metric carries a TYPE line.
fn check_prometheus_format(text: &str) -> Result<(), String> {
    fn legal_name(s: &str) -> bool {
        let mut chars = s.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn legal_label_name(s: &str) -> bool {
        let mut chars = s.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
    }
    // Label values must escape backslash, double-quote, and newline.
    fn legal_label_value(s: &str) -> bool {
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('\\') | Some('"') | Some('n') => {}
                    _ => return false,
                },
                '"' | '\n' => return false,
                _ => {}
            }
        }
        true
    }

    let mut typed = std::collections::HashSet::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or(format!("line {lineno}: TYPE without name"))?;
            let ty = parts.next().ok_or(format!("line {lineno}: TYPE without type"))?;
            if !legal_name(name) {
                return Err(format!("line {lineno}: illegal metric name {name:?}"));
            }
            if !matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("line {lineno}: illegal metric type {ty:?}"));
            }
            typed.insert(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free comment
        }
        // Sample: name{label="value",...} value  |  name value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {lineno}: sample without value: {line:?}"))?;
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(format!("line {lineno}: unparseable value {value:?}"));
        }
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or(format!("line {lineno}: unterminated label set"))?;
                (n, Some(body))
            }
            None => (series, None),
        };
        // Histogram series suffixes (_bucket/_sum/_count) are samples of
        // the base metric's TYPE line.
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if !legal_name(name) {
            return Err(format!("line {lineno}: illegal sample name {name:?}"));
        }
        if !typed.contains(name) && !typed.contains(base) {
            return Err(format!("line {lineno}: sample {name:?} has no preceding TYPE line"));
        }
        if let Some(body) = labels {
            // Split on `",` boundaries so escaped quotes inside values
            // survive; every pair must be label="value".
            for pair in body.split("\",") {
                let pair = pair.strip_suffix('"').unwrap_or(pair);
                let (lname, lvalue) = pair
                    .split_once("=\"")
                    .ok_or(format!("line {lineno}: malformed label pair {pair:?}"))?;
                if !legal_label_name(lname) {
                    return Err(format!("line {lineno}: illegal label name {lname:?}"));
                }
                if !legal_label_value(lvalue) {
                    return Err(format!("line {lineno}: unescaped label value {lvalue:?}"));
                }
            }
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("exposition has no samples".into());
    }
    Ok(())
}

#[test]
fn telemetry_probe_monitors_degrading_cluster() {
    let dir = std::env::temp_dir().join(format!("lwfs-telemetry-test-{}", std::process::id()));
    let out = dir.join("telemetry.jsonl");
    let trace_out = dir.join("trace.json");
    let report = run_telemetry_probe(TransportKind::InProcess, Some(&out), Some(&trace_out))
        .expect("telemetry probe");

    // The probe already asserted the core invariants (nonzero lag window,
    // alert-before-eviction); re-check the ordering from the report and
    // hold the exposition to the independent format checker.
    assert!(report.windows >= 5, "monitor completed only {} windows", report.windows);
    assert!(
        report.lag_alert_seq < report.evict_seq,
        "lag alert (seq {}) must precede the eviction (seq {})",
        report.lag_alert_seq,
        report.evict_seq
    );
    check_prometheus_format(&report.prometheus)
        .unwrap_or_else(|e| panic!("Prometheus format violation: {e}\n{}", report.prometheus));

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

    // Per-node attribution: the per-server series must carry a nid label.
    assert!(
        report.prometheus.contains("nid=\""),
        "per-server series lost their nid label:\n{}",
        report.prometheus
    );

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
    let prom = std::fs::read_to_string(out.with_extension("prom")).expect("prom written");
    assert!(prom.starts_with("# meta: "), "prom file missing meta comment");

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

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prometheus_checker_rejects_malformed_expositions() {
    // The checker itself must have teeth, or the probe test proves nothing.
    assert!(check_prometheus_format("# TYPE ok counter\nok 1\n").is_ok());
    assert!(
        check_prometheus_format("# TYPE a gauge\na{nid=\"1\"} 2\n").is_ok(),
        "labelled sample must pass"
    );
    for bad in [
        "",                                      // no samples
        "# TYPE 9bad counter\n9bad 1\n",         // digit-leading name
        "# TYPE ok counter\nok notanumber\n",    // bad value
        "ok 1\n",                                // sample without TYPE
        "# TYPE ok counter\nok{l=\"a\"b\"} 1\n", // unescaped quote in value
        "# TYPE ok wrongtype\nok 1\n",           // unknown type
        "# TYPE ok counter\nok{2l=\"a\"} 1\n",   // digit-leading label name
    ] {
        assert!(check_prometheus_format(bad).is_err(), "checker accepted: {bad:?}");
    }
}

#[test]
fn lag_rule_name_is_stable() {
    // CI greps the journal for this rule name; keep it a public constant.
    assert_eq!(LAG_RULE, "repl_lag_sustained");
}
