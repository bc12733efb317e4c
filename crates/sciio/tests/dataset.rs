//! End-to-end tests of the sciio layer over a live LWFS cluster:
//! parallel lock-free slab writes, reopen-by-name, fill values, and
//! server-side statistics.

use std::sync::Arc;

use lwfs_core::{CapSet, ClusterConfig, LwfsCluster};
use lwfs_proto::OpMask;
use lwfs_sciio::{Dataset, Schema, SciError, Slab, VarType};

fn f32s(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn to_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect()
}

fn boot(servers: usize) -> (LwfsCluster, CapSet) {
    let cluster =
        LwfsCluster::boot(ClusterConfig { storage_servers: servers, ..Default::default() });
    let mut client = cluster.client(99, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    (cluster, caps)
}

fn climate_schema(time: u64, lat: u64, lon: u64) -> Schema {
    let mut s = Schema::new();
    let t = s.dim("time", time);
    let la = s.dim("lat", lat);
    let lo = s.dim("lon", lon);
    s.var("temp", VarType::F32, &[t, la, lo]);
    s.attr("title", "sciio integration test");
    s
}

#[test]
fn create_write_read_roundtrip() {
    let (cluster, caps) = boot(4);
    let client = cluster.client(0, 0);
    let ds =
        Dataset::create(&client, caps.clone(), "/data/climate", climate_schema(8, 6, 5)).unwrap();

    // Write the whole variable, read back slices.
    let volume = 8 * 6 * 5usize;
    let values: Vec<f32> = (0..volume).map(|i| i as f32).collect();
    ds.put_slab("temp", &Slab::whole(&[8, 6, 5]), &f32s(&values)).unwrap();
    ds.sync_var("temp").unwrap();

    // Whole-variable read.
    let back = to_f32s(&ds.get_slab("temp", &Slab::whole(&[8, 6, 5])).unwrap());
    assert_eq!(back, values);

    // One time slice (row 3).
    let slice = to_f32s(&ds.get_slab("temp", &Slab::rows(&[8, 6, 5], 3, 1)).unwrap());
    assert_eq!(slice, &values[3 * 30..4 * 30]);

    // An interior hyperslab: lat 2..4, lon 1..4 at time 5.
    let slab = Slab::new(vec![5, 2, 1], vec![1, 2, 3]);
    let sub = to_f32s(&ds.get_slab("temp", &slab).unwrap());
    let mut expect = Vec::new();
    for la in 2..4 {
        for lo in 1..4 {
            expect.push(values[5 * 30 + la * 5 + lo]);
        }
    }
    assert_eq!(sub, expect);
}

#[test]
fn variables_distribute_across_servers() {
    let (cluster, caps) = boot(4);
    let client = cluster.client(0, 0);
    let ds = Dataset::create(&client, caps, "/data/dist", climate_schema(16, 4, 4)).unwrap();
    let values: Vec<f32> = (0..16 * 4 * 4).map(|i| i as f32).collect();
    ds.put_slab("temp", &Slab::whole(&[16, 4, 4]), &f32s(&values)).unwrap();

    // Every server holds one row block of 4 rows = 256 bytes… plus the
    // header object on server 0.
    for i in 0..4 {
        let bytes = cluster.storage_server(i).store().bytes_stored();
        assert!(bytes >= 4 * 16 * 4, "server {i} holds {bytes} bytes");
    }
}

#[test]
fn parallel_rank_writes_need_no_locks() {
    // The checkpoint story generalized: each rank owns a row block; writes
    // proceed with zero lock traffic.
    let (cluster, caps) = boot(4);
    let cluster = Arc::new(cluster);
    let owner = cluster.client(99, 1);
    let ds = Dataset::create(&owner, caps.clone(), "/data/par", climate_schema(16, 8, 8)).unwrap();
    drop(ds);

    let wire = caps.to_wire();
    let handles: Vec<_> = (0..4usize)
        .map(|rank| {
            let cluster = Arc::clone(&cluster);
            let wire = wire.clone();
            std::thread::spawn(move || {
                let client = cluster.client(rank as u32, 0);
                let caps = CapSet::from_wire(wire).unwrap();
                let ds = Dataset::open(&client, caps, "/data/par").unwrap();
                // Rank r writes rows [4r, 4r+4).
                let mine: Vec<f32> = (0..4 * 8 * 8).map(|i| (rank * 10_000 + i) as f32).collect();
                ds.put_slab("temp", &Slab::rows(&[16, 8, 8], rank as u64 * 4, 4), &f32s(&mine))
                    .unwrap();
                ds.sync_var("temp").unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // No locks were ever taken.
    assert_eq!(cluster.lock_table().held_count(), 0);
    let (granted, _) = cluster.lock_table().contention();
    assert_eq!(granted, 0, "sciio must not touch the lock service");

    // A reader sees every rank's rows.
    let reader = cluster.client(50, 0);
    let ds = Dataset::open(&reader, caps, "/data/par").unwrap();
    let all = to_f32s(&ds.get_slab("temp", &Slab::whole(&[16, 8, 8])).unwrap());
    for rank in 0..4usize {
        let base = rank * 4 * 64;
        assert_eq!(all[base], (rank * 10_000) as f32, "rank {rank} row start");
        assert_eq!(
            all[base + 4 * 64 - 1],
            (rank * 10_000 + 4 * 64 - 1) as f32,
            "rank {rank} row end"
        );
    }
}

#[test]
fn reopen_by_name_preserves_schema_and_data() {
    let (cluster, caps) = boot(2);
    {
        let client = cluster.client(0, 0);
        let ds = Dataset::create(&client, caps.clone(), "/data/persist", climate_schema(4, 2, 2))
            .unwrap();
        ds.put_slab("temp", &Slab::whole(&[4, 2, 2]), &f32s(&[1.5; 16])).unwrap();
    }
    // A different process opens by name only.
    let client2 = cluster.client(1, 0);
    let ds = Dataset::open(&client2, caps, "/data/persist").unwrap();
    assert_eq!(ds.schema().attr_value("title"), Some("sciio integration test"));
    assert_eq!(ds.schema().dims.len(), 3);
    let back = to_f32s(&ds.get_slab("temp", &Slab::whole(&[4, 2, 2])).unwrap());
    assert_eq!(back, vec![1.5f32; 16]);
}

#[test]
fn unwritten_regions_read_as_fill_zero() {
    let (cluster, caps) = boot(2);
    let client = cluster.client(0, 0);
    let ds = Dataset::create(&client, caps, "/data/fill", climate_schema(4, 2, 2)).unwrap();
    // Write only time step 2.
    ds.put_slab("temp", &Slab::rows(&[4, 2, 2], 2, 1), &f32s(&[7.0; 4])).unwrap();
    let all = to_f32s(&ds.get_slab("temp", &Slab::whole(&[4, 2, 2])).unwrap());
    assert_eq!(&all[..8], &[0.0; 8]);
    assert_eq!(&all[8..12], &[7.0; 4]);
    assert_eq!(&all[12..], &[0.0; 4]);
}

#[test]
fn server_side_stats_match_client_side() {
    let (cluster, caps) = boot(3);
    let client = cluster.client(0, 0);
    let ds = Dataset::create(&client, caps, "/data/stats", climate_schema(9, 4, 4)).unwrap();
    let values: Vec<f32> = (0..9 * 16).map(|i| (i as f32) - 70.0).collect();
    ds.put_slab("temp", &Slab::whole(&[9, 4, 4]), &f32s(&values)).unwrap();

    let slab = Slab::rows(&[9, 4, 4], 2, 5); // rows 2..7 span block borders
    let (min, max, sum, count) = ds.var_stats("temp", &slab).unwrap();
    let selected = &values[2 * 16..7 * 16];
    let emin = selected.iter().copied().fold(f32::INFINITY, f32::min);
    let emax = selected.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let esum: f64 = selected.iter().map(|v| f64::from(*v)).sum();
    assert_eq!(min, emin);
    assert_eq!(max, emax);
    assert_eq!(count, selected.len() as u64);
    assert!((sum - esum).abs() < 1.0, "{sum} vs {esum}");
}

#[test]
fn error_paths() {
    let (cluster, caps) = boot(2);
    let client = cluster.client(0, 0);
    let ds = Dataset::create(&client, caps.clone(), "/data/err", climate_schema(4, 2, 2)).unwrap();

    // Unknown variable.
    assert!(matches!(
        ds.get_slab("missing", &Slab::whole(&[4, 2, 2])),
        Err(SciError::NoSuchName(_))
    ));
    // Out-of-bounds slab.
    assert!(matches!(
        ds.get_slab("temp", &Slab::rows(&[4, 2, 2], 3, 2)),
        Err(SciError::OutOfBounds { .. })
    ));
    // Wrong buffer length.
    assert!(matches!(
        ds.put_slab("temp", &Slab::whole(&[4, 2, 2]), &[0u8; 3]),
        Err(SciError::LengthMismatch { .. })
    ));
    // Duplicate dataset name.
    assert!(matches!(
        Dataset::create(&client, caps.clone(), "/data/err", climate_schema(4, 2, 2)),
        Err(SciError::Lwfs(lwfs_proto::Error::NameExists))
    ));
    // Stats on a non-f32 variable.
    let mut s = Schema::new();
    let x = s.dim("x", 4);
    s.var("ints", VarType::I32, &[x]);
    let ds2 = Dataset::create(&client, caps, "/data/err2", s).unwrap();
    assert!(matches!(ds2.var_stats("ints", &Slab::whole(&[4])), Err(SciError::BadSchema(_))));
}

#[test]
fn two_phase_collective_coalesces_orthogonal_slabs() {
    // Each rank owns one *column* of a row-partitioned (rows, cols) field:
    // the worst case for the layout. Naive writes issue rows×1 element
    // writes per rank; the two-phase collective shuffles pieces to
    // aggregators that issue a handful of large writes.
    use lwfs_portals::Group;
    use lwfs_proto::ProcessId;

    const ROWS: u64 = 32;
    const COLS: u64 = 4;
    let ranks = COLS as usize;

    let (cluster, caps) = boot(4);
    let cluster = Arc::new(cluster);
    {
        let owner = cluster.client(99, 1);
        let mut s = Schema::new();
        let r = s.dim("row", ROWS);
        let c = s.dim("col", COLS);
        s.var("field", VarType::F32, &[r, c]);
        Dataset::create(&owner, caps.clone(), "/data/twophase", s).unwrap();
    }

    let group = Group::new((0..ranks as u32).map(|i| ProcessId::new(i, 0)).collect());
    let clients: Vec<_> = (0..ranks).map(|r| cluster.client(r as u32, 0)).collect();
    let wire = caps.to_wire();
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(rank, client)| {
            let group = group.clone();
            let wire = wire.clone();
            std::thread::spawn(move || {
                let caps = CapSet::from_wire(wire).unwrap();
                let ds = Dataset::open(&client, caps, "/data/twophase").unwrap();
                // Rank r owns column r: value = row * 100 + col.
                let column: Vec<f32> =
                    (0..ROWS).map(|row| (row * 100 + rank as u64) as f32).collect();
                let slab = Slab::new(vec![0, rank as u64], vec![ROWS, 1]);
                ds.collective_put_slab(&group, rank, 60, "field", &slab, &f32s(&column)).unwrap()
            })
        })
        .collect();
    let writes_per_rank: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Aggregation bound: each aggregator owns ≤ 1 block and issues ONE
    // coalesced write for it (the shuffled pieces tile the block densely).
    let total_writes: u64 = writes_per_rank.iter().sum();
    assert!(
        total_writes <= 4,
        "two-phase should issue ~1 write per block, got {total_writes} ({writes_per_rank:?})"
    );
    // Naive would have been ROWS runs per rank = 128 writes.

    // Correctness: read the whole field back.
    let reader = cluster.client(50, 0);
    let ds = Dataset::open(&reader, caps, "/data/twophase").unwrap();
    let all = to_f32s(&ds.get_slab("field", &Slab::whole(&[ROWS, COLS])).unwrap());
    for row in 0..ROWS {
        for col in 0..COLS {
            assert_eq!(all[(row * COLS + col) as usize], (row * 100 + col) as f32, "({row},{col})");
        }
    }
}

#[test]
fn naive_orthogonal_writes_are_many_small_ops() {
    // The baseline the collective improves on: count the storage-level
    // write ops a naive column write issues.
    const ROWS: u64 = 32;
    const COLS: u64 = 4;
    let (cluster, caps) = boot(4);
    let client = cluster.client(0, 0);
    let mut s = Schema::new();
    let r = s.dim("row", ROWS);
    let c = s.dim("col", COLS);
    s.var("field", VarType::F32, &[r, c]);
    let ds = Dataset::create(&client, caps, "/data/naive", s).unwrap();

    // Storage counters are fabric-level aggregates (shared by every server
    // on the network), so reading any one server's stats sees all writes.
    let writes = || cluster.storage_server(0).stats().writes.get();
    let before = writes();
    let column: Vec<f32> = (0..ROWS).map(|row| row as f32).collect();
    ds.put_slab("field", &Slab::new(vec![0, 1], vec![ROWS, 1]), &f32s(&column)).unwrap();
    let after = writes();
    assert_eq!(after - before, ROWS, "one write RPC per row — the problem two-phase fixes");
}
