//! Regenerate **Figures 9 and 10** from the discrete-event models.
//!
//! Both figures sweep **client count** (1 → 64: the paper's dev cluster
//! hosted up to 64 client processes on 31 compute nodes) for each of
//! **2, 4, 8, 16 storage servers**, mean ± stddev over 5 seeded trials —
//! the paper's protocol. `--smoke` swaps in a quick grid.
//!
//! ```text
//! cargo run --release -p lwfs-repro -- figure9            # full grid
//! cargo run --release -p lwfs-repro -- figure10 --smoke   # quick grid
//! ```

use std::collections::HashMap;

use lwfs_models::{Calibration, CkptImpl, CreateSim, DumpSim, Machine};
use lwfs_sim::Summary;

use crate::{finish, pm, CsvOut, ShapeCheck, Table};

/// The (clients × servers × trials) sweep both figures share.
struct Grid {
    client_counts: Vec<usize>,
    server_counts: Vec<usize>,
    trials: u64,
}

impl Grid {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self { client_counts: vec![1, 4, 16], server_counts: vec![2, 8], trials: 2 }
        } else {
            Self {
                client_counts: vec![1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64],
                server_counts: vec![2, 4, 8, 16],
                trials: 5,
            }
        }
    }
}

/// **Figure 9**: checkpoint dump throughput (MB/s) as a function of client
/// processes, for the three implementations, 512 MB per process.
pub fn figure9(smoke: bool) -> bool {
    let grid = Grid::new(smoke);
    let machine = Machine::dev_cluster();
    let calib = Calibration::default();
    let bytes_per_client = 512 * 1_000_000u64;

    println!(
        "Figure 9: checkpoint dump throughput, 512 MB per process, {} trials/point\n",
        grid.trials
    );

    let mut csv = CsvOut::new(
        "figure9",
        &["impl", "servers", "clients", "throughput_mbps_mean", "throughput_mbps_sd"],
    );
    // measured[impl][servers][clients] -> Summary
    let mut measured: HashMap<(CkptImpl, usize, usize), Summary> = HashMap::new();

    for impl_kind in CkptImpl::all() {
        println!("== {} ==", impl_kind.label());
        let mut header = vec!["clients".to_string()];
        header.extend(grid.server_counts.iter().map(|s| format!("{s} servers (MB/s)")));
        let mut table = Table::from_header(header);

        for &clients in &grid.client_counts {
            let mut cells = vec![clients.to_string()];
            for &servers in &grid.server_counts {
                let mut summary = Summary::new();
                for trial in 0..grid.trials {
                    let sim = DumpSim {
                        machine: machine.clone(),
                        calib: calib.clone(),
                        impl_kind,
                        clients,
                        servers,
                        bytes_per_client,
                    };
                    let r = sim.run(0xF19_0009 ^ trial);
                    summary.add(r.throughput_mbps);
                }
                cells.push(pm(summary.mean(), summary.stddev()));
                csv.row(&[
                    impl_kind.label().to_string(),
                    servers.to_string(),
                    clients.to_string(),
                    format!("{:.1}", summary.mean()),
                    format!("{:.2}", summary.stddev()),
                ]);
                measured.insert((impl_kind, servers, clients), summary);
            }
            table.row(&cells);
        }
        table.print();
        println!();
    }

    // Shape checks against the paper's Figure 9.
    let max_clients = *grid.client_counts.last().unwrap();
    let mut shapes = ShapeCheck::new();
    let get = |k: CkptImpl, s: usize, c: usize| measured[&(k, s, c)].mean();

    if grid.server_counts.contains(&16) {
        // Plateaus at 16 servers ≈ 1.4–1.6 GB/s in the paper's panels for
        // LWFS and file-per-process.
        shapes.check_range(
            "LWFS plateau @16 servers (paper ~1400-1600 MB/s)",
            get(CkptImpl::LwfsObjPerProc, 16, max_clients),
            1200.0,
            1650.0,
        );
        shapes.check_range(
            "file-per-process plateau @16 servers (paper ~1400-1600 MB/s)",
            get(CkptImpl::LustreFilePerProc, 16, max_clients),
            1200.0,
            1650.0,
        );
    }
    for &servers in &grid.server_counts {
        let fpp = get(CkptImpl::LustreFilePerProc, servers, max_clients);
        let shared = get(CkptImpl::LustreShared, servers, max_clients);
        shapes.check_range(
            &format!("shared-file / file-per-process @{servers} servers (paper: ~0.5)"),
            shared / fpp,
            0.35,
            0.65,
        );
        let lwfs = get(CkptImpl::LwfsObjPerProc, servers, max_clients);
        shapes.check_range(
            &format!("LWFS / file-per-process dump parity @{servers} servers (paper: ~1.0)"),
            lwfs / fpp,
            0.9,
            1.15,
        );
    }
    // Throughput grows with server count (the family ordering in every
    // panel).
    for impl_kind in CkptImpl::all() {
        let mut prev = 0.0;
        let mut monotone = true;
        for &servers in &grid.server_counts {
            let v = get(impl_kind, servers, max_clients);
            monotone &= v > prev;
            prev = v;
        }
        shapes.check(format!("{}: curves ordered by server count", impl_kind.label()), monotone);
    }

    finish(&shapes, csv)
}

/// **Figure 10**: file/object creation throughput (ops/sec) versus client
/// processes. Panel (a) is the log-scale comparison at 16 servers; panels
/// (b) and (c) are the Lustre and LWFS details per server count.
pub fn figure10(smoke: bool) -> bool {
    let grid = Grid::new(smoke);
    let machine = Machine::dev_cluster();
    let calib = Calibration::default();
    let creates_per_client = 32;

    println!(
        "Figure 10: create throughput (ops/sec), {creates_per_client} creates/client, {} trials/point\n",
        grid.trials
    );

    let mut csv = CsvOut::new(
        "figure10",
        &["impl", "servers", "clients", "ops_per_sec_mean", "ops_per_sec_sd"],
    );
    let mut measured: HashMap<(CkptImpl, usize, usize), Summary> = HashMap::new();

    for impl_kind in [CkptImpl::LustreFilePerProc, CkptImpl::LwfsObjPerProc] {
        let panel = match impl_kind {
            CkptImpl::LustreFilePerProc => "(b) Lustre File Creation",
            _ => "(c) LWFS Object Creation",
        };
        println!("== {panel} ==");
        let mut header = vec!["clients".to_string()];
        header.extend(grid.server_counts.iter().map(|s| format!("{s} servers (ops/s)")));
        let mut table = Table::from_header(header);

        for &clients in &grid.client_counts {
            let mut cells = vec![clients.to_string()];
            for &servers in &grid.server_counts {
                let mut summary = Summary::new();
                for trial in 0..grid.trials {
                    let sim = CreateSim {
                        machine: machine.clone(),
                        calib: calib.clone(),
                        impl_kind,
                        clients,
                        servers,
                        creates_per_client,
                    };
                    summary.add(sim.run(0xF16_0010 ^ trial).ops_per_sec);
                }
                cells.push(pm(summary.mean(), summary.stddev()));
                csv.row(&[
                    impl_kind.label().to_string(),
                    servers.to_string(),
                    clients.to_string(),
                    format!("{:.1}", summary.mean()),
                    format!("{:.2}", summary.stddev()),
                ]);
                measured.insert((impl_kind, servers, clients), summary);
            }
            table.row(&cells);
        }
        table.print();
        println!();
    }

    // Panel (a): the log-plot comparison at the largest server count.
    let top_servers = *grid.server_counts.last().unwrap();
    let max_clients = *grid.client_counts.last().unwrap();
    println!("== (a) LWFS vs Lustre at {top_servers} servers (log scale in the paper) ==");
    let mut table = Table::new(&["clients", "Lustre (ops/s)", "LWFS (ops/s)", "factor"]);
    for &clients in &grid.client_counts {
        let lustre = measured[&(CkptImpl::LustreFilePerProc, top_servers, clients)].mean();
        let lwfs = measured[&(CkptImpl::LwfsObjPerProc, top_servers, clients)].mean();
        table.row(&[
            clients.to_string(),
            format!("{lustre:.0}"),
            format!("{lwfs:.0}"),
            format!("{:.0}x", lwfs / lustre),
        ]);
    }
    table.print();

    // Shape checks against the paper's panels.
    let mut shapes = ShapeCheck::new();
    let get = |k: CkptImpl, s: usize, c: usize| measured[&(k, s, c)].mean();

    // (b): Lustre saturates at a few hundred ops/s, roughly independent of
    // server count (paper y-axis tops at 900).
    for &servers in &grid.server_counts {
        shapes.check_range(
            &format!("Lustre ceiling @{servers} servers (paper: 400-900 ops/s)"),
            get(CkptImpl::LustreFilePerProc, servers, max_clients),
            400.0,
            900.0,
        );
    }
    // (c): LWFS scales with server count; 16-server curve reaches tens of
    // thousands (paper y-axis tops at 70000).
    if grid.server_counts.contains(&16) {
        shapes.check_range(
            "LWFS @16 servers, max clients (paper: ~40000-70000 ops/s)",
            get(CkptImpl::LwfsObjPerProc, 16, max_clients),
            40_000.0,
            70_000.0,
        );
    }
    let mut prev = 0.0;
    let mut ordered = true;
    for &servers in &grid.server_counts {
        let v = get(CkptImpl::LwfsObjPerProc, servers, max_clients);
        ordered &= v > prev;
        prev = v;
    }
    shapes.check("LWFS curves fan out by server count (panel c)", ordered);

    // (a): one-to-two orders of magnitude separation at scale.
    let factor = get(CkptImpl::LwfsObjPerProc, top_servers, max_clients)
        / get(CkptImpl::LustreFilePerProc, top_servers, max_clients);
    shapes.check_range(
        "LWFS/Lustre factor at max scale (paper log plot: ~10-100x)",
        factor,
        10.0,
        200.0,
    );

    finish(&shapes, csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_matches_the_paper() {
        let g = Grid::new(false);
        assert_eq!(g.server_counts, vec![2, 4, 8, 16]);
        assert_eq!(g.client_counts.last(), Some(&64));
        assert!(g.trials >= 5, "paper: minimum of 5 trials");
    }
}
