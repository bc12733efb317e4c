//! `encoded_len` is exact, and encoding allocates once.
//!
//! Every codec type states its encoded length beside its encoding, so
//! `to_bytes` and `frame::encode` size their buffer once, up front. A
//! length that is one byte short makes the buffer grow by doubling on the
//! last write; one byte long leaves a frame batch or a ship buffer sized
//! wrong. These checks walk the values `tests/golden_bytes.rs` pins, every
//! variant of the log record, the fabric message and the checkpoint
//! metadata, and random ones. (`lwfs-proto`'s own tests walk every
//! request and reply variant.)

use bytes::Bytes;
use lwfs::checkpoint::{CkptEntry, CkptMetadata};
use lwfs::proto::frame;
use lwfs::proto::{
    Capability, CapabilityBody, ContainerId, Encode, Error, Lifetime, MdHandle, NodeId, ObjId,
    OpMask, OpNum, PrincipalId, ProcessId, Reply, ReplyBody, Request, RequestBody, Signature,
    TraceContext, TxnId,
};
use lwfs::wal::{frame_record, WalRecord};
use lwfs_fabric::frame::FabricMsg;

/// `x.encoded_len()` is the length of `x.to_bytes()`, whose buffer was
/// allocated once at exactly that size; the same holds for its frame.
fn assert_sized_once(x: &impl Encode) {
    let only = x.to_bytes().try_into_mut().expect("to_bytes keeps no second handle");
    assert_eq!(x.encoded_len(), only.len(), "encoded_len is not exact");
    assert_eq!(only.capacity(), only.len(), "to_bytes allocated more than once");
    let framed = frame::encode(x).try_into_mut().expect("encode keeps no second handle");
    assert_eq!(framed.len(), frame::HEADER_LEN + x.encoded_len());
    assert_eq!(framed.capacity(), framed.len(), "frame::encode allocated more than once");
}

fn cap() -> Capability {
    Capability {
        body: CapabilityBody {
            container: ContainerId(9),
            ops: OpMask::CHECKPOINT,
            principal: PrincipalId(42),
            issuer_epoch: 1,
            lifetime: Lifetime { not_before: 10, not_after: 5000 },
            serial: 8,
        },
        sig: Signature([4u8; 16]),
    }
}

fn write_record(txn: Option<TxnId>, data: Vec<u8>) -> WalRecord {
    let data = Bytes::from(data);
    WalRecord::Write { txn, container: ContainerId(3), obj: ObjId(9), offset: 4096, data, now: 12 }
}

#[test]
fn the_golden_values_know_their_length() {
    let request = Request::new(
        OpNum(7),
        ProcessId::new(3, 1),
        RequestBody::Write {
            txn: Some(TxnId(5)),
            cap: cap(),
            obj: ObjId(12),
            offset: 4096,
            len: 65536,
            md: MdHandle { match_bits: 0xFEED },
        },
    )
    .with_epoch(9)
    .with_trace(TraceContext { trace_id: 0xDEAD_BEEF, parent_req_id: 42 })
    .with_token(Bytes::from_static(b"golden-token"));
    assert_sized_once(&request);
    assert_sized_once(&Reply::new(
        OpNum(7),
        ReplyBody::Caps { caps: vec![cap()], tokens: vec![Bytes::from_static(b"tok")] },
    ));
    assert_sized_once(&Reply::err(OpNum(8), Error::NoSuchObject(ObjId(12))));
    let wal = write_record(None, b"checkpoint state".to_vec());
    assert_sized_once(&wal);
    assert_eq!(frame_record(&wal).len(), frame::HEADER_LEN + wal.encoded_len());
    assert_sized_once(&FabricMsg::Put {
        token: 7,
        from: ProcessId::new(1100, 0),
        to: ProcessId::new(3, 0),
        match_bits: 0x2000_0000_0000_0001,
        offset: 64,
        data: Bytes::from_static(b"bulk"),
    });
}

#[test]
fn every_record_message_and_metadata_knows_its_length() {
    let (container, obj) = (ContainerId(1), ObjId(2));
    let records = [
        WalRecord::Create { txn: Some(TxnId(7)), container, obj, now: 3 },
        WalRecord::Create { txn: None, container, obj, now: 3 },
        write_record(Some(TxnId(4)), vec![9; 300]),
        write_record(None, Vec::new()),
        WalRecord::Remove { txn: None, container, obj },
        WalRecord::TxnPrepare { txn: TxnId(1) },
        WalRecord::TxnCommit { txn: TxnId(1) },
        WalRecord::TxnAbort { txn: TxnId(1) },
    ];
    let mut tags: Vec<u8> = records.iter().map(|r| r.to_bytes()[0]).collect();
    tags.dedup();
    assert_eq!(tags, WalRecord::TAGS, "a WalRecord variant has no sample");
    records.iter().for_each(assert_sized_once);

    let (a, b) = (ProcessId::new(3, 0), ProcessId::new(1100, 0));
    let messages = [
        FabricMsg::Hello { nid: NodeId(1100) },
        FabricMsg::Send { from: a, to: b, match_bits: 1, data: Bytes::from_static(b"request") },
        FabricMsg::Put { token: 7, from: b, to: a, match_bits: 2, offset: 64, data: Bytes::new() },
        FabricMsg::Get { token: 8, from: b, to: a, match_bits: 3, offset: 0, len: 4096 },
        FabricMsg::PutAck { token: 7, err: None },
        FabricMsg::PutAck { token: 9, err: Some(Error::Internal("disk".into())) },
        FabricMsg::GetReply { token: 8, err: None, data: Bytes::from(vec![1; 70_000]) },
    ];
    let mut tags: Vec<u8> = messages.iter().map(|m| m.to_bytes()[0]).collect();
    tags.dedup();
    assert_eq!(tags, FabricMsg::TAGS, "a FabricMsg variant has no sample");
    messages.iter().for_each(assert_sized_once);

    assert_sized_once(&CkptMetadata { epoch: 0, entries: Vec::new() });
    assert_sized_once(&CkptMetadata {
        epoch: 3,
        entries: vec![
            CkptEntry { rank: 0, server: 0, obj: ObjId(10), len: 100 },
            CkptEntry { rank: 1, server: 1, obj: ObjId(11), len: 200 },
        ],
    });
}

proptest::proptest! {
    #[test]
    fn prop_write_records_know_their_length(
        txn: u64,
        data in proptest::collection::vec(proptest::num::u8::ANY, 0..4096),
    ) {
        assert_sized_once(&write_record(txn.is_multiple_of(2).then_some(TxnId(txn)), data));
    }

    #[test]
    fn prop_fabric_messages_know_their_length(
        token: u64,
        offset: u64,
        data in proptest::collection::vec(proptest::num::u8::ANY, 0..4096),
        err: bool,
    ) {
        let (a, b) = (ProcessId::new(3, 0), ProcessId::new(1100, 0));
        let data = Bytes::from(data);
        assert_sized_once(&FabricMsg::Put { token, from: a, to: b, match_bits: 5, offset, data: data.clone() });
        let err = err.then(|| Error::StorageIo(format!("{offset}")));
        assert_sized_once(&FabricMsg::GetReply { token, err, data });
    }

    #[test]
    fn prop_metadata_knows_its_length(epoch: u64, lens: Vec<u64>) {
        let entries = lens
            .iter()
            .enumerate()
            .map(|(rank, &len)| CkptEntry { rank: rank as u32, server: 1, obj: ObjId(len / 3), len })
            .collect();
        assert_sized_once(&CkptMetadata { epoch, entries });
    }

    #[test]
    fn prop_write_requests_know_their_length(
        opnum: u64,
        epoch: u64,
        txn: u64,
        token in proptest::collection::vec(proptest::num::u8::ANY, 0..200),
    ) {
        let body = RequestBody::Write {
            txn: txn.is_multiple_of(2).then_some(TxnId(txn)),
            cap: cap(),
            obj: ObjId(opnum),
            offset: epoch,
            len: txn,
            md: MdHandle { match_bits: opnum },
        };
        let req = Request::new(OpNum(opnum), ProcessId::new(1, 2), body)
            .with_epoch(epoch)
            .with_token(Bytes::from(token));
        assert_sized_once(&req);
    }
}
