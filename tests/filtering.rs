//! Integration tests for the remote-filtering extension (§6): server-side
//! filters over the full stack, with wire-traffic accounting showing the
//! data-movement win.

use lwfs::prelude::*;
use lwfs::proto::FilterSpec;
use lwfs::storage::decode_stats;

fn f32s(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn setup() -> (LwfsCluster, LwfsClient, CapSet, ObjId) {
    let cluster = LwfsCluster::boot(ClusterConfig { storage_servers: 1, ..Default::default() });
    let mut client = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    (cluster, client, caps, obj)
}

#[test]
fn threshold_filter_returns_only_events() {
    let (_cluster, client, caps, obj) = setup();
    // A "trace": quiet background with two strong arrivals.
    let mut trace = vec![0.01f32; 10_000];
    trace[1234] = 8.5;
    trace[8765] = -9.25;
    client.write(0, &caps, None, obj, 0, &f32s(&trace)).unwrap();

    let (result, scanned) = client
        .read_filtered(0, &caps, obj, 0, trace.len() * 4, FilterSpec::Threshold { min_abs: 1.0 })
        .unwrap();
    assert_eq!(scanned, trace.len() as u64 * 4);
    let events: Vec<f32> =
        result.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
    assert_eq!(events, vec![8.5, -9.25]);
}

#[test]
fn filtering_moves_less_than_a_full_read() {
    let (cluster, client, caps, obj) = setup();
    let trace = vec![0.001f32; 100_000]; // 400 KB, nothing above threshold
    client.write(0, &caps, None, obj, 0, &f32s(&trace)).unwrap();

    let stats = cluster.network().stats();

    stats.reset();
    let full = client.read(0, &caps, obj, 0, trace.len() * 4).unwrap();
    let full_bytes = stats.bytes.get();
    assert_eq!(full.len(), 400_000);

    stats.reset();
    let (result, scanned) =
        client.read_filtered(0, &caps, obj, 0, trace.len() * 4, FilterSpec::Stats).unwrap();
    let filtered_bytes = stats.bytes.get();
    assert_eq!(result.len(), 16);
    assert_eq!(scanned, 400_000);

    assert!(
        filtered_bytes * 100 < full_bytes,
        "filtered path moved {filtered_bytes}B vs {full_bytes}B for the full read"
    );
}

#[test]
fn stats_filter_computes_reduction() {
    let (_cluster, client, caps, obj) = setup();
    let values = [3.0f32, -1.0, 4.0, 1.5, -9.25];
    client.write(0, &caps, None, obj, 0, &f32s(&values)).unwrap();

    let (block, _) =
        client.read_filtered(0, &caps, obj, 0, values.len() * 4, FilterSpec::Stats).unwrap();
    let (min, max, sum, count) = decode_stats(&block).unwrap();
    assert_eq!(min, -9.25);
    assert_eq!(max, 4.0);
    assert!((sum - (-1.75)).abs() < 1e-5);
    assert_eq!(count, 5);
}

#[test]
fn subsample_filter_decimates_on_the_server() {
    let (_cluster, client, caps, obj) = setup();
    let values: Vec<f32> = (0..1000).map(|i| i as f32).collect();
    client.write(0, &caps, None, obj, 0, &f32s(&values)).unwrap();

    let (result, _) = client
        .read_filtered(0, &caps, obj, 0, 4000, FilterSpec::Subsample { stride: 100 })
        .unwrap();
    let decimated: Vec<f32> =
        result.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
    assert_eq!(decimated, (0..10).map(|i| (i * 100) as f32).collect::<Vec<_>>());
}

#[test]
fn filtered_read_requires_a_read_capability() {
    let cluster = LwfsCluster::boot(ClusterConfig { storage_servers: 1, ..Default::default() });
    let mut client = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
    let cid = client.create_container().unwrap();
    let full = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &full, None, None).unwrap();
    client.write(0, &full, None, obj, 0, &f32s(&[1.0, 2.0])).unwrap();

    // Write-only capabilities cannot run filters.
    let write_only = client.get_caps(cid, OpMask::WRITE).unwrap();
    let err = client.read_filtered(0, &write_only, obj, 0, 8, FilterSpec::Stats).unwrap_err();
    assert_eq!(err, Error::AccessDenied);
}
