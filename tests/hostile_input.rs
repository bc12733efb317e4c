//! Error, never panic: every decoder that reads bytes off a socket or a
//! disk is fed garbage, and every single-bit flip and every truncation
//! point of a valid input (ROADMAP aim 3). The frame splitter, CRC and
//! enum codecs each exist once (`lwfs_proto::frame`, `impl_codec_enum!`),
//! so this one suite covers the WAL, the fabric and the token with them.

use bytes::Bytes;
use lwfs::cap::{CapClaims, CapIssuer, CapToken};
use lwfs::obs::Registry;
use lwfs::proto::frame::{self, Split};
use lwfs::proto::{
    ContainerId, Decode as _, Encode as _, Lifetime, ObjId, OpMask, OpNum, ProcessId, Reply,
    ReplyBody, Request, RequestBody, TraceContext, TxnId,
};
use lwfs::wal::{frame_record, read_log, unframe_record, Wal, WalConfig, WalRecord};
use lwfs_fabric::frame::{FabricMsg, FrameReader};

/// Feed `bytes` to every untrusted-bytes decoder; reaching the end of
/// this function without a panic is the property.
fn feed_all(bytes: &[u8]) {
    let _ = frame::split(bytes);
    let _ = Request::from_bytes(Bytes::copy_from_slice(bytes));
    let _ = Reply::from_bytes(Bytes::copy_from_slice(bytes));
    let _ = unframe_record(bytes);
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
    for bad in mutations(&wal) {
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
