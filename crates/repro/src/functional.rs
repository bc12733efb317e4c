//! Cross-validation of the model against the **functional plane**: run the
//! three real (threaded) checkpoint implementations on the in-process
//! cluster at laptop scale and confirm the same qualitative ordering the
//! paper's figures show.
//!
//! Absolute numbers here are in-memory-transport numbers, not RAID
//! numbers; what must match is the *structure*: LWFS creates are
//! distributed and fast, file-per-process creates serialize through the
//! MDS, shared-file dumps pay for locking.
//!
//! ```text
//! cargo run --release -p lwfs-repro -- functional
//! ```

use std::sync::Arc;
use std::time::Duration;

use lwfs_checkpoint::{CkptReport, LwfsCheckpointer, PfsCheckpointer, PfsStyle};
use lwfs_core::{ClusterConfig, LwfsCluster};
use lwfs_pfs::{PfsCluster, PfsConfig};
use lwfs_portals::Group;
use lwfs_proto::{Credential, Decode as _, Encode as _, OpMask, ProcessId};

use crate::{finish, CsvOut, ShapeCheck, Table};

const STATE_BYTES: usize = 4 * 1024 * 1024;
const SERVERS: usize = 4;

fn group(n: usize) -> Group {
    Group::new((0..n as u32).map(|i| ProcessId::new(i, 0)).collect())
}

fn run_lwfs(n: usize) -> CkptReport {
    let cluster = Arc::new(LwfsCluster::boot(ClusterConfig {
        storage_servers: SERVERS,
        ..Default::default()
    }));
    let mut rank0 = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    rank0.get_cred(ticket).unwrap();
    let cid = rank0.create_container().unwrap();
    let group = group(n);
    let mut clients = vec![rank0];
    for r in 1..n {
        clients.push(cluster.client(r as u32, 0));
    }
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(rank, mut client)| {
            let group = group.clone();
            std::thread::spawn(move || {
                let caps = if rank == 0 {
                    let caps = client.get_caps(cid, OpMask::CHECKPOINT).unwrap();
                    let cred = client.current_cred().unwrap();
                    client.broadcast(&group, 0, 0, 2, Some(cred.to_bytes())).unwrap();
                    client.scatter_caps(&group, 0, 0, 1, Some(&caps)).unwrap()
                } else {
                    let wire = client.broadcast(&group, rank, 0, 2, None).unwrap();
                    client.adopt_cred(Credential::from_bytes(wire).unwrap());
                    client.scatter_caps(&group, rank, 0, 1, None).unwrap()
                };
                let ck = LwfsCheckpointer::new(&client, group.clone(), rank, caps, "/ckpt/f");
                ck.checkpoint(1, &vec![rank as u8; STATE_BYTES]).unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).fold(CkptReport::default(), CkptReport::max)
}

fn run_pfs(style: PfsStyle, n: usize) -> CkptReport {
    let cluster = Arc::new(PfsCluster::boot(PfsConfig {
        lwfs: ClusterConfig { storage_servers: SERVERS, ..Default::default() },
        mds_create_service: Duration::from_micros(1500),
        mds_open_service: Duration::from_micros(300),
    }));
    let group = group(n);
    let clients: Vec<_> = (0..n).map(|r| cluster.client(r as u32, 0)).collect();
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(rank, client)| {
            let group = group.clone();
            std::thread::spawn(move || {
                let ck = PfsCheckpointer::new(
                    &client,
                    group.clone(),
                    rank,
                    style,
                    "/ckpt/f",
                    SERVERS as u32,
                    1 << 20,
                );
                ck.checkpoint(1, &vec![rank as u8; STATE_BYTES]).unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).fold(CkptReport::default(), CkptReport::max)
}

pub fn run() -> bool {
    println!(
        "Functional-plane cross-validation: {} MB/rank, {SERVERS} storage servers\n",
        STATE_BYTES / (1024 * 1024)
    );
    let mut table = Table::new(&["impl", "ranks", "create (ms)", "dump (ms)", "MB/s"]);
    let mut csv =
        CsvOut::new("functional", &["impl", "ranks", "create_ms", "dump_ms", "throughput_mbps"]);

    let mut results: Vec<(&str, usize, CkptReport)> = Vec::new();
    for &n in &[2usize, 4, 8] {
        let lwfs = run_lwfs(n);
        let fpp = run_pfs(PfsStyle::FilePerProcess, n);
        let shared = run_pfs(PfsStyle::SharedFile, n);
        for (label, r) in [
            ("lwfs-object-per-process", lwfs),
            ("lustre-file-per-process", fpp),
            ("lustre-shared-file", shared),
        ] {
            table.row(&[
                label.to_string(),
                n.to_string(),
                format!("{:.2}", r.create_secs * 1e3),
                format!("{:.2}", r.dump_secs * 1e3),
                format!("{:.0}", r.dump_mb_per_sec() * n as f64),
            ]);
            csv.row(&[
                label.to_string(),
                n.to_string(),
                format!("{:.3}", r.create_secs * 1e3),
                format!("{:.3}", r.dump_secs * 1e3),
                format!("{:.1}", r.dump_mb_per_sec() * n as f64),
            ]);
            results.push((label, n, r));
        }
    }
    table.print();

    let mut shapes = ShapeCheck::new();
    for &n in &[4usize, 8] {
        let find = |label: &str| {
            results.iter().find(|(l, rn, _)| *l == label && *rn == n).map(|(_, _, r)| *r).unwrap()
        };
        let lwfs = find("lwfs-object-per-process");
        let fpp = find("lustre-file-per-process");
        shapes.check(
            format!(
                "{n} ranks: LWFS create ({:.2} ms) beats MDS-serialized create ({:.2} ms)",
                lwfs.create_secs * 1e3,
                fpp.create_secs * 1e3
            ),
            lwfs.create_secs < fpp.create_secs,
        );
        // MDS create time grows roughly linearly with ranks (serialized).
    }
    let fpp4 =
        results.iter().find(|(l, n, _)| *l == "lustre-file-per-process" && *n == 4).unwrap().2;
    let fpp8 =
        results.iter().find(|(l, n, _)| *l == "lustre-file-per-process" && *n == 8).unwrap().2;
    shapes.check(
        format!(
            "MDS create latency grows with ranks ({:.2} ms @4 -> {:.2} ms @8)",
            fpp4.create_secs * 1e3,
            fpp8.create_secs * 1e3
        ),
        fpp8.create_secs > fpp4.create_secs,
    );

    finish(&shapes, csv)
}
