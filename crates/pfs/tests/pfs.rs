//! End-to-end tests of the Lustre-like baseline: striping, MDS
//! centralization, shared-file locking, and the trusted-client model.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use lwfs_core::ClusterConfig;
use lwfs_pfs::{OpenMode, PfsCluster, PfsConfig};

fn boot(osts: usize) -> PfsCluster {
    PfsCluster::boot(PfsConfig {
        lwfs: ClusterConfig { storage_servers: osts, ..Default::default() },
        // Keep modeled service times tiny so tests are fast; benches use
        // realistic values.
        mds_create_service: Duration::from_micros(50),
        mds_open_service: Duration::from_micros(10),
    })
}

#[test]
fn create_write_read_roundtrip_striped() {
    let cluster = boot(4);
    let client = cluster.client(0, 0);

    let mut f = client.create("/ckpt/rank0", 4, 1024, OpenMode::Private).unwrap();
    assert_eq!(f.stripe_count(), 4);

    // Write something spanning several stripes.
    let data: Vec<u8> = (0..10_000).map(|i| (i % 241) as u8).collect();
    client.write(&mut f, 0, &data).unwrap();
    client.sync(&f).unwrap();
    let back = client.read(&f, 0, data.len()).unwrap();
    assert_eq!(back, data);

    // Unaligned read in the middle.
    let mid = client.read(&f, 1500, 2048).unwrap();
    assert_eq!(mid, &data[1500..1500 + 2048]);

    client.close(f).unwrap();
    // Reopen sees the size reported at close.
    let f2 = client.open("/ckpt/rank0", OpenMode::Private).unwrap();
    assert_eq!(f2.size(), 10_000);
}

#[test]
fn stripes_actually_distribute_across_osts() {
    let cluster = boot(4);
    let client = cluster.client(0, 0);
    let mut f = client.create("/wide", 4, 1000, OpenMode::Private).unwrap();
    client.write(&mut f, 0, &vec![7u8; 8000]).unwrap();
    // Every OST holds ~2000 bytes of the file.
    for i in 0..4 {
        let stored = cluster.lwfs().storage_server(i).store().bytes_stored();
        assert_eq!(stored, 2000, "OST {i} holds {stored}");
    }
}

#[test]
fn files_created_back_to_back_hold_disjoint_ost_objects() {
    // The MDS issues each file's OST creates from its one endpoint. The
    // OST reply-caches mutations by `(origin, opnum)`, so were the opnums
    // to restart per file, the second file's creates would be answered
    // with the first file's object ids.
    let cluster = boot(1);
    let client = cluster.client(0, 0);
    let mut a = client.create("/a", 2, 1024, OpenMode::Private).unwrap();
    let mut b = client.create("/b", 2, 1024, OpenMode::Private).unwrap();
    let objects = cluster.lwfs().storage_server(0).store().object_count();
    assert_eq!(objects, 4, "two 2-stripe files hold four OST objects");
    client.write(&mut a, 0, &[0xAA; 2048]).unwrap();
    client.write(&mut b, 0, &[0xBB; 2048]).unwrap();
    assert_eq!(client.read(&a, 0, 2048).unwrap(), [0xAA; 2048]);
    assert_eq!(client.read(&b, 0, 2048).unwrap(), [0xBB; 2048]);
}

#[test]
fn duplicate_create_and_missing_open() {
    let cluster = boot(2);
    let client = cluster.client(0, 0);
    client.create("/dup", 2, 1024, OpenMode::Private).unwrap();
    assert!(client.create("/dup", 2, 1024, OpenMode::Private).is_err());
    assert!(client.open("/missing", OpenMode::Private).is_err());
}

#[test]
fn unlink_removes_stripe_objects() {
    let cluster = boot(2);
    let client = cluster.client(0, 0);
    let mut f = client.create("/gone", 2, 1024, OpenMode::Private).unwrap();
    client.write(&mut f, 0, &[1u8; 4096]).unwrap();
    let before: u64 = (0..2).map(|i| cluster.lwfs().storage_server(i).store().bytes_stored()).sum();
    assert_eq!(before, 4096);
    client.close(f).unwrap();
    client.unlink("/gone").unwrap();
    let after: u64 = (0..2).map(|i| cluster.lwfs().storage_server(i).store().bytes_stored()).sum();
    assert_eq!(after, 0);
    assert!(client.open("/gone", OpenMode::Private).is_err());
}

#[test]
fn every_create_serializes_through_the_mds() {
    // The Figure 10 mechanism: n clients creating n files = n MDS creates
    // and stripe_count object allocations each, all through one service.
    let cluster = Arc::new(boot(2));
    let n = 6;
    let handles: Vec<_> = (0..n)
        .map(|r| {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let client = cluster.client(r as u32, 0);
                let mut f =
                    client.create(&format!("/fpp/{r}"), 2, 1024, OpenMode::Private).unwrap();
                client.write(&mut f, 0, &[r as u8; 2048]).unwrap();
                client.close(f).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cluster.mds_stats().creates.load(Ordering::Relaxed), n as u64);
    // 2 stripe objects per file, created by the MDS on the OSTs.
    let objects: usize =
        (0..2).map(|i| cluster.lwfs().storage_server(i).store().object_count()).sum();
    assert_eq!(objects, 2 * n);
}

#[test]
fn shared_file_writers_contend_on_expanded_locks() {
    let cluster = Arc::new(boot(1));
    let creator = cluster.client(99, 0);
    creator.create("/shared", 1, 1 << 20, OpenMode::Shared).unwrap();

    // Several writers to non-overlapping regions of the same (single-
    // stripe) file: correctness must hold, and the DLM must show
    // contention — the whole-object lock expansion serializes them.
    let n = 4;
    let region = 10_000u64;
    let handles: Vec<_> = (0..n)
        .map(|r| {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let client = cluster.client(r as u32, 0);
                let mut f = client.open("/shared", OpenMode::Shared).unwrap();
                client
                    .write(&mut f, r as u64 * region, &vec![r as u8 + 1; region as usize])
                    .unwrap();
                client.close(f).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let reader = cluster.client(98, 0);
    let f = reader.open("/shared", OpenMode::Private).unwrap();
    let data = reader.read(&f, 0, (n as u64 * region) as usize).unwrap();
    for r in 0..n {
        let start = r as usize * region as usize;
        assert!(data[start..start + region as usize].iter().all(|b| *b == r as u8 + 1));
    }
    let (granted, _refused) = cluster.dlm_table(0).contention();
    assert_eq!(granted, n as u64, "every writer took the expanded lock");
}

#[test]
fn private_mode_takes_no_locks() {
    let cluster = boot(2);
    let client = cluster.client(0, 0);
    let mut f = client.create("/nolocks", 2, 1024, OpenMode::Private).unwrap();
    client.write(&mut f, 0, &[1u8; 4096]).unwrap();
    for i in 0..2 {
        let (granted, refused) = cluster.dlm_table(i).contention();
        assert_eq!((granted, refused), (0, 0));
    }
}

#[test]
fn any_client_that_opens_gets_the_mds_caps() {
    // The trusted-client model (§5): no per-user authorization — opening a
    // file hands over capabilities that work directly against the OSTs.
    let cluster = boot(1);
    let creator = cluster.client(0, 0);
    let mut f = creator.create("/trusting", 1, 1024, OpenMode::Private).unwrap();
    creator.write(&mut f, 0, b"pfs trusts everyone").unwrap();
    creator.close(f).unwrap();

    let stranger = cluster.client(1, 0); // never authenticated
    let f2 = stranger.open("/trusting", OpenMode::Private).unwrap();
    let data = stranger.read(&f2, 0, 19).unwrap();
    assert_eq!(data, b"pfs trusts everyone");
}
