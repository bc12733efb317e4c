//! Redo records — one per state-changing operation at a storage server.
//!
//! Records are encoded with the workspace's hand-rolled binary codec (one
//! discriminant byte, then the fields in order), so the log format shares
//! the wire format's compactness and its hostile-input hardening.

use bytes::{BufMut, Bytes, BytesMut};
use lwfs_proto::{impl_codec_enum, ContainerId, Encode, ObjId, TxnId};

/// One durable event in a storage server's history.
///
/// Object mutations carry the transaction that staged them (`txn: None`
/// for immediate, non-transactional operations). Replay applies the
/// mutations in log order and uses the transaction markers to decide
/// which staged effects survive: committed ones stay, aborted ones are
/// rolled back, and a transaction that reached [`TxnPrepare`] without a
/// phase-2 record is restored *in doubt* for the coordinator to resolve.
///
/// [`TxnPrepare`]: WalRecord::TxnPrepare
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Object creation (`now` is the protocol timestamp it was created at).
    Create { txn: Option<TxnId>, container: ContainerId, obj: ObjId, now: u64 },
    /// Bytes written at `offset` (one record per chunk-aligned piece the
    /// server pulled, so replay reproduces the exact write order).
    Write {
        txn: Option<TxnId>,
        container: ContainerId,
        obj: ObjId,
        offset: u64,
        data: Bytes,
        now: u64,
    },
    /// Object removal.
    Remove { txn: Option<TxnId>, container: ContainerId, obj: ObjId },
    /// Phase 1: the participant hardened `txn`'s journal and votes yes.
    /// Forces an fsync under every [`SyncPolicy`](crate::SyncPolicy).
    TxnPrepare { txn: TxnId },
    /// Phase 2: `txn`'s staged effects are permanent. Forces an fsync.
    TxnCommit { txn: TxnId },
    /// Phase 2: `txn`'s staged effects must be rolled back.
    TxnAbort { txn: TxnId },
}

impl_codec_enum!(WalRecord {
    1 => Create { txn, container, obj, now },
    2 => Write { txn, container, obj, offset, data, now },
    3 => Remove { txn, container, obj },
    4 => TxnPrepare { txn },
    5 => TxnCommit { txn },
    6 => TxnAbort { txn },
});

/// A [`WalRecord::Write`] whose payload is borrowed, not owned: it
/// encodes byte for byte as the `Write` record holding a copy of `data`,
/// so a storage server frames each piece straight from the chunk it was
/// pulled into, and replay decodes the frame as a `WalRecord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRef<'a> {
    pub txn: Option<TxnId>,
    pub container: ContainerId,
    pub obj: ObjId,
    pub offset: u64,
    pub data: &'a [u8],
    pub now: u64,
}

/// `WalRecord::Write`'s tag: the second row of the table above.
const WRITE_TAG: u8 = WalRecord::TAGS[1];

impl Encode for WriteRef<'_> {
    fn encode(&self, buf: &mut BytesMut) {
        // `WalRecord::Write`'s field order, from the table above.
        buf.put_u8(WRITE_TAG);
        self.txn.encode(buf);
        self.container.encode(buf);
        self.obj.encode(buf);
        self.offset.encode(buf);
        self.data.encode(buf);
        self.now.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        1 + self.txn.encoded_len()
            + self.container.encoded_len()
            + self.obj.encoded_len()
            + self.offset.encoded_len()
            + self.data.encoded_len()
            + self.now.encoded_len()
    }
}

impl WalRecord {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            WalRecord::Create { txn, .. }
            | WalRecord::Write { txn, .. }
            | WalRecord::Remove { txn, .. } => *txn,
            WalRecord::TxnPrepare { txn }
            | WalRecord::TxnCommit { txn }
            | WalRecord::TxnAbort { txn } => Some(*txn),
        }
    }

    /// Whether this record must reach stable storage immediately,
    /// regardless of the configured sync policy. A participant that voted
    /// yes (prepare) or learned an outcome (commit) must not forget it.
    pub fn forces_sync(&self) -> bool {
        matches!(self, WalRecord::TxnPrepare { .. } | WalRecord::TxnCommit { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_proto::{Decode, Encode, Error};

    fn roundtrip(rec: WalRecord) {
        let bytes = rec.to_bytes();
        let back = WalRecord::from_bytes(bytes).expect("decode");
        assert_eq!(back, rec);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(WalRecord::Create {
            txn: Some(TxnId(7)),
            container: ContainerId(1),
            obj: ObjId(42),
            now: 99,
        });
        roundtrip(WalRecord::Create {
            txn: None,
            container: ContainerId(0),
            obj: ObjId(0),
            now: 0,
        });
        roundtrip(WalRecord::Write {
            txn: None,
            container: ContainerId(3),
            obj: ObjId(9),
            offset: 4096,
            data: Bytes::from_static(b"checkpoint state"),
            now: 12,
        });
        roundtrip(WalRecord::Remove {
            txn: Some(TxnId(1)),
            container: ContainerId(2),
            obj: ObjId(5),
        });
        roundtrip(WalRecord::TxnPrepare { txn: TxnId(77) });
        roundtrip(WalRecord::TxnCommit { txn: TxnId(77) });
        roundtrip(WalRecord::TxnAbort { txn: TxnId(78) });
    }

    #[test]
    fn unknown_tag_rejected() {
        let bytes = Bytes::from_static(&[200, 0, 0]);
        assert!(matches!(WalRecord::from_bytes(bytes), Err(Error::Malformed(_))));
    }

    #[test]
    fn txn_annotation_and_sync_forcing() {
        let w = WalRecord::Write {
            txn: Some(TxnId(4)),
            container: ContainerId(1),
            obj: ObjId(1),
            offset: 0,
            data: Bytes::new(),
            now: 0,
        };
        assert_eq!(w.txn(), Some(TxnId(4)));
        assert!(!w.forces_sync());
        assert!(WalRecord::TxnPrepare { txn: TxnId(1) }.forces_sync());
        assert!(WalRecord::TxnCommit { txn: TxnId(1) }.forces_sync());
        assert!(!WalRecord::TxnAbort { txn: TxnId(1) }.forces_sync());
    }

    proptest::proptest! {
        #[test]
        fn prop_write_record_roundtrips(
            txn: u64,
            container: u64,
            obj: u64,
            offset: u64,
            data in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
            now: u64,
        ) {
            // Odd draws become `None` so both option arms are exercised.
            let rec = WalRecord::Write {
                txn: txn.is_multiple_of(2).then_some(TxnId(txn)),
                container: ContainerId(container),
                obj: ObjId(obj),
                offset,
                data: Bytes::from(data),
                now,
            };
            let back = WalRecord::from_bytes(rec.to_bytes()).unwrap();
            proptest::prop_assert_eq!(back, rec);
        }

        #[test]
        fn prop_write_ref_frames_as_the_write_record(
            txn: u64,
            container: u64,
            obj: u64,
            offset: u64,
            data in proptest::collection::vec(proptest::num::u8::ANY, 0..512),
            now: u64,
        ) {
            let txn = txn.is_multiple_of(2).then_some(TxnId(txn));
            let (container, obj) = (ContainerId(container), ObjId(obj));
            let borrowed = WriteRef { txn, container, obj, offset, data: &data, now };
            let owned =
                WalRecord::Write { txn, container, obj, offset, data: Bytes::from(data.clone()), now };
            let frame = crate::frame_record(&owned);
            proptest::prop_assert_eq!(&lwfs_proto::frame::encode(&borrowed)[..], &frame[..]);
            proptest::prop_assert_eq!(borrowed.encoded_len(), owned.encoded_len());
            proptest::prop_assert_eq!(crate::unframe_record(&frame).unwrap(), owned);
        }

        #[test]
        fn prop_decode_junk_never_panics(data in proptest::collection::vec(proptest::num::u8::ANY, 0..128)) {
            let _ = WalRecord::from_bytes(Bytes::from(data));
        }
    }
}
