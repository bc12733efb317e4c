//! The telemetry probe (`lwfs-repro probe telemetry`): a live run of the
//! whole telemetry plane.
//!
//! Boots a WAL-backed, R=2 replicated cluster, attaches a
//! [`ClusterMonitor`] polling every node over the wire (`GetTelemetry`),
//! and drives a write storm while a backup is partitioned away. The
//! probe is the acceptance harness for the monitoring pipeline: it
//! asserts that
//!
//! * the monitor's windowed JSONL series shows the replication-lag gauge
//!   nonzero while the primary retries ships at the dead backup,
//! * the declarative lag rule journaled its `alert.fire` **before** the
//!   `repl.evict_backup` event it predicts (the monitor saw the cluster
//!   degrading before the cluster acted on it),
//! * the write-p99 SLO rule fired too, and its journaled `alert.fire`
//!   carries a **blame** naming ship RTT as the dominant stage — the
//!   monitor's flight scrape attributed the stalled write's critical
//!   path to the retries against the partitioned backup.
//!
//! With an output path the JSONL time series lands there; with a trace
//! path the scraped slow traces land as Chrome `trace_event` JSON, so
//! `lwfs-inspect` can reproduce the attribution offline from those two
//! files alone.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lwfs_core::{ClusterConfig, HealthRule, LwfsCluster, MonitorConfig, TransportKind};
use lwfs_obs::json::Json;
use lwfs_portals::FaultPlan;
use lwfs_proto::OpMask;
use lwfs_storage::StorageConfig;
use lwfs_wal::WalConfig;

use crate::metrics::artifact_meta;
use crate::write_file;

/// What [`run_telemetry_probe`] observed, for callers that assert more.
pub struct TelemetryReport {
    /// Completed aggregation windows.
    pub windows: u64,
    /// One value per window (the `--out` payload, one line each).
    pub jsonl: Vec<Json>,
    /// Journal seq of the lag rule's `alert.fire`.
    pub lag_alert_seq: u64,
    /// Journal seq of the induced `repl.evict_backup`.
    pub evict_seq: u64,
    /// Full detail of that alert (contains `blame=ship_rtt`).
    pub p99_alert_detail: String,
    /// Chrome trace JSON of the monitor's scraped slow traces.
    pub trace_json: Json,
}

/// Name of the replication-lag rule the probe installs.
pub const LAG_RULE: &str = "repl_lag_sustained";

/// Name of the write-p99 SLO rule the probe installs.
pub const WRITE_P99_RULE: &str = "write_p99_slo";

/// Boot the replicated cluster, run the monitored write storm, and
/// return (and optionally write) the telemetry artifacts.
///
/// # Panics
/// Panics when the monitoring pipeline's acceptance invariants do not
/// hold — the probe cluster lives entirely inside this process (over
/// loopback sockets under `Tcp`), so a failure is a bug, not an
/// environmental condition.
pub fn run_telemetry_probe(
    transport: TransportKind,
    out: Option<&Path>,
    trace_out: Option<&Path>,
) -> std::io::Result<TelemetryReport> {
    const SERVERS: usize = 2;
    static PROBE_SEQ: AtomicUsize = AtomicUsize::new(0);
    let wal_root = std::env::temp_dir().join(format!(
        "lwfs-telemetry-wal-{}-{}",
        std::process::id(),
        PROBE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&wal_root);

    // Two groups of two; the 100 ms ship deadline keeps the induced
    // eviction quick while still spanning many 10 ms monitor windows —
    // the window the lag rule must fire inside.
    let cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: SERVERS,
        replication: 2,
        ship_deadline: Some(Duration::from_millis(100)),
        storage: StorageConfig { wal: Some(WalConfig::new(&wal_root)), ..Default::default() },
        transport,
        ..Default::default()
    });
    // The p99 SLO sits above warm-up jitter (64 KiB writes with WAL
    // fsync) but far below the ~100 ms ship-retry stall; one window is
    // enough because the stall lands in a single 10 ms window. A
    // spurious warm-up fire self-heals: quiet windows have no histogram
    // delta, the condition clears, and the storm re-fires with blame.
    let monitor = cluster.spawn_monitor(MonitorConfig {
        interval: Duration::from_millis(10),
        window_limit: 512,
        stale_after: 3,
        rules: vec![
            HealthRule::gauge_above(LAG_RULE, "storage.repl_lag", 0, 2),
            HealthRule::p99_above(
                WRITE_P99_RULE,
                "storage.write.total_ns",
                Duration::from_millis(25).as_nanos() as u64,
                1,
            ),
        ],
    });

    let mut client = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").expect("probe user registered at boot");
    client.get_cred(ticket).expect("get_cred");
    let cid = client.create_container().expect("create_container");
    let caps = client.get_caps(cid, OpMask::ALL).expect("get_caps");

    // Warm-up traffic on both groups, and let the monitor complete a few
    // quiet windows first so the fired streak is unambiguous.
    let payload = vec![0x3Cu8; 64 * 1024];
    let mut objs = Vec::new();
    for server in 0..SERVERS {
        let obj = client.create_obj(server, &caps, None, None).expect("create_obj");
        client.write(server, &caps, None, obj, 0, &payload).expect("warm-up write");
        objs.push(obj);
    }
    wait_until(Duration::from_secs(10), || monitor.windows() >= 3);

    // Partition group 1's backup, then storm the cluster. The first
    // write to group 1 hangs in ship retries for the full deadline —
    // `storage.repl_lag` stays above zero the whole time, the 10 ms
    // windows see it repeatedly, the rule fires, and only then does the
    // primary give up and journal the eviction.
    let victim = cluster.addrs().storage[3];
    let mut plan = FaultPlan::default();
    plan.partitioned.insert(victim.nid);
    cluster.network().set_faults(plan);
    for round in 0..8u64 {
        for (server, &obj) in objs.iter().enumerate() {
            client
                .write(server, &caps, None, obj, round * payload.len() as u64, &payload)
                .expect("storm write");
        }
    }
    cluster.network().heal();

    // The storm is synchronous, so the eviction already happened; give
    // the monitor a couple more windows to scrape the journal tail.
    let after_storm = monitor.windows();
    wait_until(Duration::from_secs(10), || monitor.windows() >= after_storm + 2);

    let events = cluster.network().obs().events().all();
    let lag_alert = events
        .iter()
        .find(|e| e.kind == "alert.fire" && e.detail.contains(&format!("rule={LAG_RULE}")))
        .unwrap_or_else(|| panic!("lag rule never fired; journal: {events:?}"));
    let evict = events
        .iter()
        .find(|e| e.kind == "repl.evict_backup")
        .expect("partitioned backup was never evicted");
    // The storm's write-p99 breach must carry a blame naming ship RTT:
    // the flight scrape pinned the stalled write, and its critical path
    // is the retry window against the partitioned backup.
    let p99_alert = events
        .iter()
        .find(|e| {
            e.kind == "alert.fire"
                && e.detail.contains(&format!("rule={WRITE_P99_RULE}"))
                && e.detail.contains("blame=ship_rtt")
        })
        .unwrap_or_else(|| {
            panic!("write-p99 rule never fired with ship-RTT blame; journal: {events:?}")
        });
    let tail = monitor.tail_report().expect("flight scrape attributed the storm");
    let (dominant, share) = tail.dominant().expect("tail has a dominant stage");
    assert_eq!(
        dominant,
        lwfs_obs::BlameStage::ShipRtt,
        "tail dominated by {dominant} (share {share:.2}), expected ship RTT: {tail:?}"
    );
    let trace_json = monitor.trace_chrome_json();
    assert!(
        trace_json.to_string().contains("repl.ship"),
        "scraped trace export lost the ship spans: {trace_json}"
    );
    assert!(
        lag_alert.seq < evict.seq,
        "monitor alerted after the eviction it predicts: alert seq {} >= evict seq {}",
        lag_alert.seq,
        evict.seq
    );

    let jsonl = monitor.jsonl();
    let lag = |w: &Json| w.get("gauges")?.get("storage_repl_lag")?.as_i64();
    assert!(
        jsonl.iter().any(|w| lag(w) > Some(0)),
        "no window recorded nonzero storage.repl_lag; lines: {}",
        jsonl.len()
    );

    let report = TelemetryReport {
        windows: monitor.windows(),
        jsonl,
        lag_alert_seq: lag_alert.seq,
        evict_seq: evict.seq,
        p99_alert_detail: p99_alert.detail.clone(),
        trace_json,
    };

    if let Some(path) = out {
        // First JSONL line is the run's meta stamp; every later line is
        // one aggregation window.
        let meta =
            Json::obj([("meta", artifact_meta(&[("storage_servers", (SERVERS * 2) as u64)]))]);
        let lines = std::iter::once(&meta).chain(&report.jsonl);
        write_file(path, &lines.map(|line| format!("{line}\n")).collect::<String>())?;
    }
    if let Some(path) = trace_out {
        write_file(path, &format!("{}\n", report.trace_json))?;
    }

    monitor.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&wal_root);
    Ok(report)
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}
