//! Regenerate **Tables 1 and 2**.
//!
//! ```text
//! cargo run --release -p lwfs-repro -- tables
//! ```

use lwfs_models::Machine;
use lwfs_sim::{FcfsResource, SimDuration, SimTime};

use crate::{finish, CsvOut, ShapeCheck, Table};

/// Both tables; `true` when every shape check of both passed.
pub fn run() -> bool {
    let ok1 = table1();
    println!();
    let ok2 = table2();
    ok1 && ok2
}

/// **Table 1**: compute and I/O nodes for MPPs at the DOE laboratories,
/// with the compute:I/O ratio.
fn table1() -> bool {
    println!("Table 1: Compute and I/O nodes for MPPs at the DOE laboratories\n");

    let paper_ratios = [58.0, 62.0, 41.0, 64.0];
    let mut table = Table::new(&["Computer", "Compute Nodes", "I/O Nodes", "Ratio"]);
    let mut csv = CsvOut::new("table1", &["machine", "compute_nodes", "io_nodes", "ratio"]);
    let mut shapes = ShapeCheck::new();

    for (machine, paper) in Machine::table1().iter().zip(paper_ratios) {
        let ratio = machine.ratio();
        table.row(&[
            machine.name.to_string(),
            machine.compute_nodes.to_string(),
            machine.io_nodes.to_string(),
            format!("{:.0}:1", ratio),
        ]);
        csv.row(&[
            machine.name.to_string(),
            machine.compute_nodes.to_string(),
            machine.io_nodes.to_string(),
            format!("{ratio:.2}"),
        ]);
        shapes.check_range(
            &format!("{} ratio vs paper {paper:.0}:1", machine.name),
            ratio,
            paper - 1.0,
            paper + 1.0,
        );
    }
    table.print();
    shapes.check(
        "compute nodes outnumber I/O nodes by 1–2 orders of magnitude (§2.1)",
        Machine::table1().iter().all(|m| m.ratio() >= 10.0 && m.ratio() <= 100.0),
    );

    finish(&shapes, csv)
}

/// **Table 2**: Red Storm communication and I/O performance — and
/// *validate* that the simulation substrate reproduces those rates when
/// exercised, rather than merely echoing configuration.
fn table2() -> bool {
    let rs = Machine::red_storm();
    println!("Table 2: Red Storm Communication and I/O Performance\n");

    let mut table = Table::new(&["Quantity", "Paper", "Model"]);
    let mut shapes = ShapeCheck::new();
    let mut csv = CsvOut::new("table2", &["quantity", "paper", "model"]);

    // I/O node bandwidth to RAID: drive the modeled disk with 4 GB of
    // work and measure the achieved rate.
    let mut disk = FcfsResource::with_bandwidth("raid", rs.server_disk_mbps);
    let bytes = 4_000_000_000u64;
    let (_, done) = disk.reserve(SimTime::ZERO, bytes);
    let disk_mbps = bytes as f64 / 1e6 / done.as_secs_f64();
    table.row(&[
        "I/O node B/W (to RAID)".into(),
        "400 MB/s".into(),
        format!("{disk_mbps:.0} MB/s"),
    ]);
    csv.row(&["io_node_raid_mbps".into(), "400".into(), format!("{disk_mbps:.1}")]);
    shapes.check_range("I/O-node RAID bandwidth (MB/s)", disk_mbps, 398.0, 402.0);

    // Link bandwidth: measure a modeled 6 GB/s link.
    let mut link = FcfsResource::with_bandwidth("link", rs.client_nic_mbps);
    let (_, f) = link.reserve(SimTime::ZERO, bytes);
    let link_mbps = bytes as f64 / 1e6 / f.as_secs_f64();
    table.row(&[
        "Bi-Directional Link B/W".into(),
        "6.0 GB/s".into(),
        format!("{:.1} GB/s", link_mbps / 1000.0),
    ]);
    csv.row(&["link_gbps".into(), "6.0".into(), format!("{:.2}", link_mbps / 1000.0)]);
    shapes.check_range("link bandwidth (GB/s)", link_mbps / 1000.0, 5.95, 6.05);

    // MPI latency: the model's one-hop message delay.
    let lat_us = SimDuration::from_nanos(rs.latency_ns).as_secs_f64() * 1e6;
    table.row(&["MPI Latency (1 hop)".into(), "2.0 µs".into(), format!("{lat_us:.1} µs")]);
    csv.row(&["mpi_latency_us".into(), "2.0".into(), format!("{lat_us:.2}")]);
    shapes.check_range("one-hop latency (µs)", lat_us, 1.9, 2.1);

    // Aggregate I/O bandwidth per end: 8×16 mesh of I/O nodes. The paper
    // quotes 50 GB/s aggregate per end over 128 I/O nodes: ~390 MB/s per
    // node of deliverable RAID bandwidth — i.e. the RAID path, not the
    // network, is the limit.
    let per_end_nodes = 128.0;
    let aggregate_gbps = per_end_nodes * rs.server_disk_mbps / 1000.0;
    table.row(&[
        "Aggregate I/O B/W (per end)".into(),
        "50 GB/s".into(),
        format!("{aggregate_gbps:.0} GB/s"),
    ]);
    csv.row(&["aggregate_io_gbps".into(), "50".into(), format!("{aggregate_gbps:.1}")]);
    shapes.check_range("aggregate I/O bandwidth (GB/s)", aggregate_gbps, 45.0, 55.0);

    // The §3.2 imbalance the table exists to illustrate: an I/O node can
    // receive 6 GB/s from the network but deliver only 400 MB/s to RAID.
    let imbalance = rs.server_nic_mbps / rs.server_disk_mbps;
    table.row(&[
        "Network:RAID imbalance".into(),
        "15:1 (derived)".into(),
        format!("{imbalance:.0}:1"),
    ]);
    csv.row(&["network_raid_imbalance".into(), "15".into(), format!("{imbalance:.1}")]);
    shapes.check_range("network:RAID imbalance (×)", imbalance, 14.0, 16.0);

    table.print();
    finish(&shapes, csv)
}
