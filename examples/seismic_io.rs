//! Application-specific I/O: parallel seismic trace processing.
//!
//! The paper's introduction motivates lightweight I/O with data-intensive
//! applications — seismic imaging among them [Oldfield et al., ref 27] —
//! whose access patterns defeat general-purpose file-system policies.
//! This example shows what the "open architecture" buys such an
//! application: *it* chooses the data distribution (one shot-gather
//! object per storage server, writer-placed), *it* decides there is no
//! need for locking (writers own disjoint gathers), and readers assemble
//! strided trace sections directly from the distributed objects.
//!
//! ```text
//! cargo run --example seismic_io
//! ```

use std::sync::Arc;

use lwfs::prelude::*;

const WRITERS: usize = 4;
const TRACES_PER_GATHER: u64 = 64;
const TRACE_BYTES: u64 = 4096;

fn trace_bytes(gather: usize, trace: u64) -> Vec<u8> {
    (0..TRACE_BYTES).map(|i| ((gather as u64 * 131 + trace * 17 + i) % 251) as u8).collect()
}

fn main() {
    let cluster = Arc::new(LwfsCluster::boot(ClusterConfig {
        storage_servers: WRITERS,
        ..Default::default()
    }));

    // One principal owns the survey container.
    let mut owner = cluster.client(99, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    owner.get_cred(ticket).unwrap();
    let cid = owner.create_container().unwrap();
    let caps = owner.get_caps(cid, OpMask::ALL).unwrap();

    // ---- write phase -------------------------------------------------
    // Each writer owns one shot gather and places it on "its" storage
    // server — application-controlled distribution, no striping policy
    // imposed from below (paper §3, guideline 3).
    let wire = caps.to_wire();
    let write_handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let cluster = Arc::clone(&cluster);
            let wire = wire.clone();
            std::thread::spawn(move || {
                let client = cluster.client(w as u32, 0);
                let caps = CapSet::from_wire(wire).unwrap();
                let obj = client.create_obj(w, &caps, None, None).unwrap();

                // Traces are written in acquisition order: a strided
                // pattern within the gather object.
                for t in 0..TRACES_PER_GATHER {
                    client.write(w, &caps, None, obj, t * TRACE_BYTES, &trace_bytes(w, t)).unwrap();
                }
                client.sync(w, &caps, Some(obj)).unwrap();
                // Register the gather under a survey path.
                client
                    .name_create(
                        None,
                        &format!("/survey/gather{w:03}"),
                        caps.container().unwrap(),
                        obj,
                    )
                    .unwrap();
                println!(
                    "writer {w}: {} traces -> server {w} ({} KiB)",
                    TRACES_PER_GATHER,
                    TRACES_PER_GATHER * TRACE_BYTES / 1024
                );
            })
        })
        .collect();
    for h in write_handles {
        h.join().unwrap();
    }

    // ---- read phase ---------------------------------------------------
    // A migration kernel reads a *common-offset section*: trace #17 of
    // every gather — a strided read across all servers in parallel,
    // impossible to express efficiently through a POSIX stream.
    let reader = cluster.client(50, 0);
    let caps_r = CapSet::from_wire(wire).unwrap();
    let section_trace = 17u64;
    let mut section = Vec::new();
    for w in 0..WRITERS {
        let (gcid, obj) = reader.name_lookup(&format!("/survey/gather{w:03}")).unwrap();
        assert_eq!(gcid, cid);
        let data = reader
            .read(w, &caps_r, obj, section_trace * TRACE_BYTES, TRACE_BYTES as usize)
            .unwrap();
        assert_eq!(data, trace_bytes(w, section_trace), "gather {w} trace mismatch");
        section.push(data);
    }
    println!(
        "reader: assembled common-offset section of {} traces ({} KiB) across {} servers",
        section.len(),
        section.len() as u64 * TRACE_BYTES / 1024,
        WRITERS
    );

    // ---- bookkeeping ----------------------------------------------------
    let survey = reader.name_list("/survey").unwrap();
    println!("survey catalogue: {survey:?}");
    assert_eq!(survey.len(), WRITERS);
    println!("seismic_io complete");
}
