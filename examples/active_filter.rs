//! Remote filtering in action: event detection over distributed seismic
//! traces **without moving the traces**.
//!
//! The paper's future work (§6) names "I/O libraries that incorporate
//! remote processing (e.g., remote filtering)" after the active-disk line
//! of work it cites. This example stores a large synthetic trace set on
//! every storage server, then runs a threshold detector *on the servers*
//! and compares the bytes that crossed the network against the same
//! analysis done client-side.
//!
//! ```text
//! cargo run --release --example active_filter
//! ```

use lwfs::prelude::*;
use lwfs::proto::FilterSpec;
use lwfs::storage::decode_stats;

const SERVERS: usize = 4;
const SAMPLES_PER_TRACE: usize = 250_000; // 1 MB of f32 per server

fn synth_trace(server: usize) -> Vec<f32> {
    // Quiet Gaussian-ish background with a handful of strong arrivals.
    let mut v: Vec<f32> = (0..SAMPLES_PER_TRACE)
        .map(|i| (((i * 2654435761 + server * 97) % 1000) as f32 / 1000.0 - 0.5) * 0.02)
        .collect();
    for k in 0..5 {
        v[(k * 49_999 + server * 137) % SAMPLES_PER_TRACE] = 3.0 + k as f32;
    }
    v
}

fn f32s(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn main() -> Result<(), Error> {
    let cluster =
        LwfsCluster::boot(ClusterConfig { storage_servers: SERVERS, ..Default::default() });
    let mut client = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket)?;
    let cid = client.create_container()?;
    let caps = client.get_caps(cid, OpMask::ALL)?;

    // Load one trace object per server.
    let mut objs = Vec::new();
    for s in 0..SERVERS {
        let obj = client.create_obj(s, &caps, None, None)?;
        client.write(s, &caps, None, obj, 0, &f32s(&synth_trace(s)))?;
        objs.push(obj);
    }
    let trace_bytes = SAMPLES_PER_TRACE * 4;
    println!(
        "loaded {SERVERS} traces x {} KB = {} MB total",
        trace_bytes / 1024,
        SERVERS * trace_bytes / 1_000_000
    );

    let stats = cluster.network().stats();

    // --- client-side analysis: ship everything, filter locally ---------
    stats.reset();
    let mut client_side_events = 0usize;
    for (s, obj) in objs.iter().enumerate() {
        let raw = client.read(s, &caps, *obj, 0, trace_bytes)?;
        client_side_events += raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .filter(|v| v.abs() >= 1.0)
            .count();
    }
    let shipped_full = stats.bytes.get();

    // --- server-side analysis: ship only the events ---------------------
    stats.reset();
    let mut server_side_events = 0usize;
    for (s, obj) in objs.iter().enumerate() {
        let (events, scanned) = client.read_filtered(
            s,
            &caps,
            *obj,
            0,
            trace_bytes,
            FilterSpec::Threshold { min_abs: 1.0 },
        )?;
        assert_eq!(scanned as usize, trace_bytes);
        server_side_events += events.len() / 4;
    }
    let shipped_filtered = stats.bytes.get();

    assert_eq!(client_side_events, server_side_events);
    println!("events detected: {server_side_events} (both methods agree)");
    println!(
        "bytes over the network: full read {:.1} MB vs filtered {:.2} KB  ({}x reduction)",
        shipped_full as f64 / 1e6,
        shipped_filtered as f64 / 1e3,
        shipped_full / shipped_filtered.max(1)
    );

    // Bonus: one-shot statistics without shipping anything but 16 bytes.
    let (block, _) = client.read_filtered(0, &caps, objs[0], 0, trace_bytes, FilterSpec::Stats)?;
    let (min, max, _sum, count) = decode_stats(&block).unwrap();
    println!("server-side stats of trace 0: min {min:.3} max {max:.3} over {count} samples");

    println!("active_filter complete");
    Ok(())
}
