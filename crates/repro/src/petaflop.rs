//! Regenerate the §4 closing extrapolation: checkpoint create/dump times
//! on "a theoretical petaflop system with 100,000 compute nodes and 2000
//! I/O nodes".
//!
//! ```text
//! cargo run --release -p lwfs-repro -- petaflop
//! ```

use lwfs_models::petaflop::DEFAULT_BYTES_PER_NODE;
use lwfs_models::{petaflop_report, CkptImpl, Machine};

use crate::{finish, CsvOut, ShapeCheck, Table};

pub fn run() -> bool {
    let m = Machine::petaflop();
    println!(
        "Petaflop extrapolation: {} compute nodes, {} I/O nodes, {} GB/node\n",
        m.compute_nodes,
        m.io_nodes,
        DEFAULT_BYTES_PER_NODE / 1_000_000_000
    );

    let mut table =
        Table::new(&["implementation", "create (s)", "dump (s)", "total (s)", "create fraction"]);
    let mut csv = CsvOut::new(
        "petaflop",
        &["impl", "create_secs", "dump_secs", "total_secs", "create_fraction"],
    );
    let mut shapes = ShapeCheck::new();

    for impl_kind in CkptImpl::all() {
        let r = petaflop_report(impl_kind, DEFAULT_BYTES_PER_NODE);
        table.row(&[
            impl_kind.label().to_string(),
            format!("{:.1}", r.create_secs),
            format!("{:.1}", r.dump_secs),
            format!("{:.1}", r.total_secs()),
            format!("{:.1}%", 100.0 * r.create_fraction),
        ]);
        csv.row(&[
            impl_kind.label().to_string(),
            format!("{:.2}", r.create_secs),
            format!("{:.2}", r.dump_secs),
            format!("{:.2}", r.total_secs()),
            format!("{:.4}", r.create_fraction),
        ]);
    }
    table.print();

    let fpp = petaflop_report(CkptImpl::LustreFilePerProc, DEFAULT_BYTES_PER_NODE);
    let lwfs = petaflop_report(CkptImpl::LwfsObjPerProc, DEFAULT_BYTES_PER_NODE);
    shapes.check_range(
        "file creation takes multiple minutes (paper: 'multiple minutes')",
        fpp.create_secs / 60.0,
        2.0,
        5.0,
    );
    shapes.check_range(
        "creation is roughly 10% of the checkpoint (paper: ~10%)",
        100.0 * fpp.create_fraction,
        5.0,
        25.0,
    );
    shapes.check(
        format!(
            "LWFS create phase is negligible at scale ({:.2}s, <1% of total)",
            lwfs.create_secs
        ),
        lwfs.create_fraction < 0.01,
    );

    finish(&shapes, csv)
}
