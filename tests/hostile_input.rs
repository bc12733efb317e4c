//! Error, never panic: every decoder that reads bytes off a socket or a
//! disk is fed garbage, and every single-bit flip and every truncation
//! point of a valid input (ROADMAP aim 3). The frame splitter, CRC and
//! enum codecs each exist once (`lwfs_proto::frame`, `impl_codec_enum!`),
//! so this one suite covers the WAL, the fabric and the token with them.
//! A request that decodes cleanly can still lie about sizes: the last test
//! sends a live storage server `Write`s whose `len` it must refuse before
//! it pulls or reserves a byte.

use std::sync::Arc;

use bytes::Bytes;
use lwfs::auth::ManualClock;
use lwfs::cap::{CapClaims, CapIssuer, CapToken};
use lwfs::obs::Registry;
use lwfs::portals::{MdOptions, MemDesc, Network, RpcClient, BULK_SPACE};
use lwfs::proto::frame::{self, Split};
use lwfs::proto::{
    Capability, CapabilityBody, ContainerId, Decode as _, Encode as _, Error, Lifetime, MdHandle,
    ObjId, OpMask, OpNum, PrincipalId, ProcessId, Reply, ReplyBody, Request, RequestBody,
    Signature, TraceContext, TxnId,
};
use lwfs::storage::{StorageConfig, StorageServer};
use lwfs::wal::{frame_record, read_log, unframe_record, Wal, WalConfig, WalRecord};
use lwfs_fabric::frame::{FabricMsg, FrameReader};
use rand::{Rng as _, RngCore as _, SeedableRng as _};
use rand_chacha::ChaCha8Rng;

/// Feed `bytes` to every untrusted-bytes decoder; reaching the end of
/// this function without a panic is the property.
fn feed_all(bytes: &[u8]) {
    let _ = frame::split(bytes);
    let _ = Request::from_bytes(Bytes::copy_from_slice(bytes));
    let _ = Reply::from_bytes(Bytes::copy_from_slice(bytes));
    let _ = unframe_record(&Bytes::copy_from_slice(bytes));
    let _ = CapToken::decode(bytes);
    let mut reader = FrameReader::new();
    reader.feed(bytes);
    // A poisoned stream is dropped at the first error; until then every
    // call must terminate with a message, "incomplete", or an error.
    while let Ok(Some(_)) = reader.next_msg() {}
}

/// `valid` with each single bit flipped, then cut short at each length.
fn mutations(valid: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let flips = (0..valid.len() * 8).map(|bit| {
        let mut bad = valid.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        bad
    });
    let cuts = (0..valid.len()).map(|keep| valid[..keep].to_vec());
    flips.chain(cuts)
}

fn write_record(i: u64) -> WalRecord {
    WalRecord::Write {
        txn: i.is_multiple_of(2).then_some(TxnId(i)),
        container: ContainerId(1),
        obj: ObjId(i),
        offset: i * 8,
        data: Bytes::from(vec![i as u8; 24]),
        now: i,
    }
}

fn put_msg() -> FabricMsg {
    FabricMsg::Put {
        token: 7,
        from: ProcessId::new(1100, 0),
        to: ProcessId::new(3, 0),
        match_bits: 2,
        offset: 64,
        data: Bytes::from_static(b"bulk bytes"),
    }
}

fn token_blob() -> Vec<u8> {
    let claims = CapClaims::container(ContainerId(42), OpMask::ALL, Lifetime::UNBOUNDED);
    CapIssuer::from_cluster_seed(7).mint(claims)
}

#[test]
fn every_bit_flip_and_truncation_is_survived_by_every_decoder() {
    let request = Request::new(OpNum(3), ProcessId::new(5, 0), RequestBody::GetGroupMap)
        .with_trace(TraceContext { trace_id: 9, parent_req_id: 1 })
        .with_token(Bytes::from(token_blob()));
    let reply = Reply::new(OpNum(3), ReplyBody::Names(vec!["/a".into(), "/b".into()]));
    let valid: [Vec<u8>; 5] = [
        request.to_bytes().to_vec(),
        reply.to_bytes().to_vec(),
        frame_record(&write_record(1)).to_vec(),
        put_msg().to_frame().to_vec(),
        token_blob(),
    ];
    for input in &valid {
        for bad in mutations(input) {
            feed_all(&bad);
        }
    }
}

#[test]
fn a_damaged_frame_never_decodes() {
    // Stronger than "no panic" for the CRC-framed formats: no single-bit
    // flip and no truncation of a frame yields a message or a record.
    let wal = frame_record(&write_record(2));
    let fabric = put_msg().to_frame();
    for bad in mutations(&wal).map(Bytes::from) {
        assert!(unframe_record(&bad).is_err());
        assert!(!matches!(frame::split(&bad), Split::Complete { .. }));
    }
    for bad in mutations(&fabric) {
        let mut reader = FrameReader::new();
        reader.feed(&bad);
        assert!(!matches!(reader.next_msg(), Ok(Some(_))));
    }
    let token = token_blob();
    for bad in mutations(&token) {
        // A flip inside the claims or signature fails the trailer CRC; a
        // flip inside the trailer fails it too; no cut has the right length.
        assert!(CapToken::decode(&bad).is_err());
    }
}

#[test]
fn a_damaged_bulk_frame_never_splits() {
    // The frames above are tens of bytes; the bulk path ships 64 KiB and
    // 256 KiB chunks, which the CRC takes 64 bytes at a time. A block or a
    // tail dropped there would leave bytes no checksum covers.
    for len in [64 * 1024, 256 * 1024] {
        let mut rng = ChaCha8Rng::seed_from_u64(len as u64);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let rec = WalRecord::Write {
            txn: None,
            container: ContainerId(1),
            obj: ObjId(2),
            offset: 0,
            data: data.into(),
            now: 3,
        };
        let mut wire = frame_record(&rec).to_vec();
        let whole = wire.len();
        assert!(
            matches!(frame::split(&wire), Split::Complete { consumed, .. } if consumed == whole)
        );

        // Every bit of the header and of the first and last 64 payload
        // bytes, and a seeded sample of the bits between.
        let header = frame::HEADER_LEN * 8;
        let (first, last) = (header..header + 512, whole * 8 - 512..whole * 8);
        let interior: Vec<usize> =
            (0..4096).map(|_| rng.gen_range(first.end..last.start)).collect();
        for bit in (0..header).chain(first).chain(last).chain(interior) {
            wire[bit / 8] ^= 1 << (bit % 8);
            match frame::split(&wire) {
                Split::Complete { .. } => panic!("{len}-byte frame split with bit {bit} flipped"),
                // Only a flipped length can leave the frame looking short.
                Split::Incomplete => assert!(bit < 32, "bit {bit}"),
                Split::Corrupt(_) => {}
            }
            wire[bit / 8] ^= 1 << (bit % 8);
        }

        let edges = [0, 1, frame::HEADER_LEN - 1, frame::HEADER_LEN, whole - 1];
        let sample = (0..256).map(|_| rng.gen_range(0..whole));
        for keep in edges.into_iter().chain(sample) {
            assert_eq!(frame::split(&wire[..keep]), Split::Incomplete, "cut to {keep} bytes");
        }
    }
}

#[test]
fn wal_torn_tail_at_every_byte_offset_lands_on_the_previous_boundary() {
    let root = std::env::temp_dir().join(format!("lwfs-hostile-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let obs = Registry::new();

    // A three-record segment, as the writer lays it out.
    let pristine = root.join("pristine");
    let wal = Wal::open(WalConfig::new(&pristine), &obs).unwrap();
    let records: Vec<WalRecord> = (0..3).map(write_record).collect();
    for rec in &records {
        wal.append(rec).unwrap();
    }
    drop(wal);
    let segment = std::fs::read_dir(&pristine).unwrap().next().unwrap().unwrap().file_name();
    let full = std::fs::read(pristine.join(&segment)).unwrap();
    let boundary = full.len() - frame_record(&records[2]).len();

    // Every way the last append can be torn or scribbled on.
    let cuts = (boundary..full.len()).map(|cut| full[..cut].to_vec());
    let flips = (boundary * 8..full.len() * 8).map(|bit| {
        let mut bad = full.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        bad
    });
    for (case, damaged) in cuts.chain(flips).enumerate() {
        let dir = root.join(format!("case-{case}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(&segment);
        std::fs::write(&path, &damaged).unwrap();

        let log = read_log(&dir).unwrap();
        assert_eq!(log.records, records[..2], "case {case}: scan kept a damaged record");
        assert_eq!(log.stats.torn_tail, damaged.len() > boundary, "case {case}");

        // Reopening repairs: the segment is cut back to exactly the last
        // whole frame, and history continues after it.
        let wal = Wal::open(WalConfig::new(&dir), &obs).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary as u64, "case {case}");
        wal.append(&records[2]).unwrap();
        drop(wal);
        assert_eq!(read_log(&dir).unwrap().records, records, "case {case}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Resident set size in bytes (Linux; `None` elsewhere).
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    Some(statm.split_whitespace().nth(1)?.parse::<u64>().ok()? * 4096)
}

#[test]
fn a_write_that_lies_about_its_length_fails_before_anything_moves() {
    const MIB: usize = 1 << 20;
    let net = Network::default();
    let srv = ProcessId::new(50, 0);
    let clock = Arc::new(ManualClock::new());
    // No verifier: the capability is trusted structurally, so the length
    // checks are what stands between the request and the store.
    let (_handle, server) = StorageServer::spawn(&net, srv, StorageConfig::default(), None, clock);
    let ep = net.register(ProcessId::new(1100, 0));
    let client = RpcClient::new(&ep);
    let container = ContainerId(9);
    let cap = Capability {
        body: CapabilityBody {
            container,
            ops: OpMask::ALL,
            principal: PrincipalId(1),
            issuer_epoch: 1,
            lifetime: Lifetime::UNBOUNDED,
            serial: 1,
        },
        sig: Signature([7; 16]),
    };
    let ReplyBody::ObjCreated(obj) =
        client.call(srv, RequestBody::CreateObj { txn: None, cap, obj: None }).unwrap()
    else {
        panic!("create refused");
    };
    let original = vec![0x5Au8; 4096];
    server.store().write(container, obj, 0, &original, 0).unwrap();

    // Each case posts a descriptor of `md_len` bytes (none for 0) and
    // claims `len` bytes at `offset`.
    let write = |md_len: usize, offset: u64, len: u64| {
        let mb = ep.match_bits().alloc(BULK_SPACE);
        if md_len > 0 {
            ep.post_md(mb, MemDesc::from_vec(vec![0xEE; md_len], MdOptions::for_remote_get()))
                .unwrap();
        }
        let body = RequestBody::Write {
            txn: None,
            cap,
            obj,
            offset,
            len,
            md: MdHandle { match_bits: mb },
        };
        let outcome = client.call(srv, body);
        ep.unlink_md(mb);
        outcome.expect_err("a lying write must be refused")
    };
    let rss_before = rss_bytes();
    let gets_before = net.stats().gets.load(std::sync::atomic::Ordering::Relaxed);
    // Past the object-size limit, with a real megabyte posted: refused
    // whole, not after the first four chunks have landed.
    assert_eq!(write(MIB, 0, u64::MAX), Error::ObjectTooLarge);
    // `offset + len` wraps.
    assert_eq!(write(MIB, u64::MAX - 10, 100), Error::ObjectTooLarge);
    assert_eq!(
        net.stats().gets.load(std::sync::atomic::Ordering::Relaxed),
        gets_before,
        "an oversized write must be refused before the first pull"
    );
    // Within the limit but far beyond what was posted (or nothing posted):
    // the first pull fails, and nothing was reserved ahead of it.
    for md_len in [1024, 0] {
        let err = write(md_len, original.len() as u64, 1 << 30);
        assert!(matches!(err, Error::Malformed(_)), "{err:?}");
    }

    assert_eq!(server.store().read(container, obj, 0, u64::MAX).unwrap(), original);
    assert_eq!(server.store().bytes_stored(), original.len() as u64);
    if let (Some(before), Some(after)) = (rss_before, rss_bytes()) {
        assert!(
            after.saturating_sub(before) < 64 * MIB as u64,
            "resident set jumped from {before} to {after} bytes"
        );
    }
    // Still serving, pool intact.
    assert_eq!(client.call(srv, RequestBody::Ping).unwrap(), ReplyBody::Pong);
    assert_eq!(server.pool().available(), server.pool().capacity());
}

proptest::proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_any_decoder(data: Vec<u8>) {
        feed_all(&data);
    }

    #[test]
    fn arbitrary_bytes_behind_a_valid_header_never_panic(data: Vec<u8>) {
        // Garbage that *passes* the frame check reaches the payload
        // decoders: give it a correct length and CRC.
        let mut wire = (data.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&frame::crc32(&data).to_le_bytes());
        wire.extend_from_slice(&data);
        proptest::prop_assert!(matches!(frame::split(&wire), Split::Complete { .. }));
        feed_all(&wire);
    }
}
