//! Golden bytes: the wire and disk formats, pinned.
//!
//! The hex below was captured at the commit *before* the byte layer moved
//! behind `lwfs_proto::frame` and the enum codecs became macro-generated.
//! Tags, field order, the version stamp, the `[len][crc][payload]` frame
//! layout and the CRC must stay byte-identical, so a log written or a
//! message sent by the old code is read by the new code and vice versa.

use bytes::Bytes;
use lwfs::cap::{CapClaims, CapIssuer, CapToken};
use lwfs::proto::{
    Capability, CapabilityBody, ContainerId, Decode as _, Encode as _, Error, Lifetime, MdHandle,
    ObjId, OpMask, OpNum, PrincipalId, ProcessId, Reply, ReplyBody, Request, RequestBody,
    Signature, TraceContext, TxnId,
};
use lwfs::wal::{frame_record, unframe_record, WalRecord};
use lwfs_fabric::frame::{FabricMsg, FrameReader};

const REQUEST: &str = "050007000000000000000300000001000000d97b2d498a892ace0900000000000000efbeadde000000002a000000000000000c000000676f6c64656e2d746f6b656e160105000000000000000900000000000000960000002a0000000000000001000000000000000a0000000000000088130000000000000800000000000000040404040404040404040404040404040c0000000000000000100000000000000000010000000000edfe000000000000";
const REPLY_CAPS: &str = "050007000000000000000c010000000900000000000000960000002a0000000000000001000000000000000a0000000000000088130000000000000800000000000000040404040404040404040404040404040100000003000000746f6b";
const REPLY_ERR: &str = "0500080000000000000000080c00000000000000";
const WAL_WRITE: &str = "36000000b5dbe4df020003000000000000000900000000000000001000000000000010000000636865636b706f696e742073746174650c00000000000000";
const FABRIC_PUT: &str = "31000000139908150207000000000000004c040000000000000300000000000000010000000000002040000000000000000400000062756c6b";
const CAP_TOKEN: &str = "3143574c002a000000000000000000000000000000ffffffffffffffff030000000a00000000000000881300000000000003000000000000004d0000000900000000000000d20400000000000052f44bad0277b7516eaecb381b8d93a0117d146ba60a615db3ef473425f0c4ec12c2810012d61d23fa71fd2bfd29e52fc889919be13a3b2feecbaf4d22eced05053de517";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
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

#[test]
fn request_with_trace_and_token() {
    let req = Request::new(
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
    assert_eq!(hex(&req.to_bytes()), REQUEST);
    assert_eq!(Request::from_bytes(Bytes::from(unhex(REQUEST))).unwrap(), req);
}

#[test]
fn replies() {
    let caps = Reply::new(
        OpNum(7),
        ReplyBody::Caps { caps: vec![cap()], tokens: vec![Bytes::from_static(b"tok")] },
    );
    assert_eq!(hex(&caps.to_bytes()), REPLY_CAPS);
    assert_eq!(Reply::from_bytes(Bytes::from(unhex(REPLY_CAPS))).unwrap(), caps);

    let err = Reply::err(OpNum(8), Error::NoSuchObject(ObjId(12)));
    assert_eq!(hex(&err.to_bytes()), REPLY_ERR);
    assert_eq!(Reply::from_bytes(Bytes::from(unhex(REPLY_ERR))).unwrap(), err);
}

#[test]
fn wal_write_frame() {
    let rec = WalRecord::Write {
        txn: None,
        container: ContainerId(3),
        obj: ObjId(9),
        offset: 4096,
        data: Bytes::from_static(b"checkpoint state"),
        now: 12,
    };
    assert_eq!(hex(&frame_record(&rec)), WAL_WRITE);
    assert_eq!(unframe_record(&unhex(WAL_WRITE).into()).unwrap(), rec);
}

#[test]
fn fabric_put_frame() {
    let put = FabricMsg::Put {
        token: 7,
        from: ProcessId::new(1100, 0),
        to: ProcessId::new(3, 0),
        match_bits: 0x2000_0000_0000_0001,
        offset: 64,
        data: Bytes::from_static(b"bulk"),
    };
    assert_eq!(hex(&put.to_frame()), FABRIC_PUT);
    let mut reader = FrameReader::new();
    reader.feed(&unhex(FABRIC_PUT));
    assert_eq!(reader.next_msg().unwrap(), Some(put));
}

#[test]
fn cap_token() {
    let claims = CapClaims::container(
        ContainerId(42),
        OpMask::READ | OpMask::WRITE,
        Lifetime { not_before: 10, not_after: 5000 },
    )
    .with_epoch(3)
    .with_principal(PrincipalId(9))
    .with_serial(1234)
    .with_holder(77);
    let issuer = CapIssuer::from_cluster_seed(0xBEEF);
    assert_eq!(hex(&issuer.mint(claims)), CAP_TOKEN);
    let tok = CapToken::decode(&unhex(CAP_TOKEN)).unwrap();
    assert_eq!(tok.claims, claims);
    assert!(tok.signature_valid(&issuer.public()));
}
