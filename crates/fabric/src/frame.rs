//! Wire framing: one [`FabricMsg`] per `lwfs_proto::frame` frame
//! (`[len: u32 LE] [crc32: u32 LE] [payload]`).
//!
//! The payload is encoded with the same hand-rolled little-endian codec as
//! every `lwfs_proto` message. A frame whose checksum does not match is
//! *poison* — a torn write or corrupted stream — and the connection that
//! produced it must be dropped, because byte alignment can no longer be
//! trusted.
//!
//! [`FrameReader`] is the incremental decoder: feed it whatever chunks
//! `read(2)` produces (split frames, coalesced frames, single bytes) and
//! pull complete messages out as they materialize.

use bytes::{Buf, Bytes, BytesMut};
use lwfs_proto::frame::{self, Split};
use lwfs_proto::{impl_codec_enum, Decode, Error, NodeId, ProcessId, Result};

/// One message on a fabric connection.
///
/// `Send` is fire-and-forget; `Put`/`Get` carry a sender-allocated token
/// that the matching `PutAck`/`GetReply` echoes, so one connection
/// multiplexes any number of in-flight one-sided operations. `Hello`
/// opens every connection (it names the dialing node before any routed
/// traffic).
#[derive(Debug, Clone, PartialEq)]
pub enum FabricMsg {
    /// First frame on every connection: the dialing node's id.
    Hello { nid: NodeId },
    /// An eager message for `to`'s event queue.
    Send { from: ProcessId, to: ProcessId, match_bits: u64, data: Bytes },
    /// One-sided write into a descriptor posted on the receiving node.
    Put { token: u64, from: ProcessId, to: ProcessId, match_bits: u64, offset: u64, data: Bytes },
    /// One-sided read from a descriptor posted on the receiving node.
    Get { token: u64, from: ProcessId, to: ProcessId, match_bits: u64, offset: u64, len: u64 },
    /// Outcome of a `Put` with the same token.
    PutAck { token: u64, err: Option<Error> },
    /// Outcome of a `Get` with the same token (`data` is empty on error).
    GetReply { token: u64, err: Option<Error>, data: Bytes },
}

impl_codec_enum!(FabricMsg {
    0 => Hello { nid },
    1 => Send { from, to, match_bits, data },
    2 => Put { token, from, to, match_bits, offset, data },
    3 => Get { token, from, to, match_bits, offset, len },
    4 => PutAck { token, err },
    5 => GetReply { token, err, data },
});

impl FabricMsg {
    /// Encode into a complete wire frame (header + payload).
    pub fn to_frame(&self) -> Bytes {
        frame::encode(self)
    }
}

/// Incremental frame decoder for one connection's byte stream.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: BytesMut,
}

impl FrameReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes as they arrive off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames (diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pull the next complete message, if one has fully arrived.
    ///
    /// `Ok(None)` means "incomplete — feed more bytes". An error means the
    /// stream itself is poisoned (oversized length prefix, checksum
    /// mismatch, undecodable payload): the caller must drop the
    /// connection, since frame alignment is unrecoverable.
    pub fn next_msg(&mut self) -> Result<Option<FabricMsg>> {
        let (payload, consumed) = match frame::split(&self.buf) {
            Split::Complete { payload, consumed } => (Bytes::copy_from_slice(payload), consumed),
            Split::Incomplete => return Ok(None),
            Split::Corrupt(e) => return Err(e),
        };
        self.buf.advance(consumed);
        FabricMsg::from_bytes(payload).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_proto::frame::{HEADER_LEN, MAX_PAYLOAD};

    fn msgs() -> Vec<FabricMsg> {
        vec![
            FabricMsg::Hello { nid: NodeId(1100) },
            FabricMsg::Send {
                from: ProcessId::new(3, 0),
                to: ProcessId::new(1100, 0),
                match_bits: 0x1,
                data: Bytes::from_static(b"request bytes"),
            },
            FabricMsg::Put {
                token: 7,
                from: ProcessId::new(1100, 0),
                to: ProcessId::new(3, 0),
                match_bits: 0x2000_0000_0000_0001,
                offset: 64,
                data: Bytes::from_static(b"bulk"),
            },
            FabricMsg::Get {
                token: 8,
                from: ProcessId::new(1100, 0),
                to: ProcessId::new(3, 0),
                match_bits: 0x2000_0000_0000_0002,
                offset: 0,
                len: 4096,
            },
            FabricMsg::PutAck { token: 7, err: None },
            FabricMsg::PutAck { token: 9, err: Some(Error::AccessDenied) },
            FabricMsg::GetReply { token: 8, err: None, data: Bytes::from_static(b"payload") },
        ]
    }

    #[test]
    fn every_message_roundtrips_through_a_frame() {
        let mut r = FrameReader::new();
        for msg in msgs() {
            r.feed(&msg.to_frame());
            assert_eq!(r.next_msg().unwrap(), Some(msg));
            assert_eq!(r.buffered(), 0);
        }
        assert_eq!(r.next_msg().unwrap(), None);
    }

    #[test]
    fn coalesced_frames_all_decode() {
        let mut wire = Vec::new();
        for msg in msgs() {
            wire.extend_from_slice(&msg.to_frame());
        }
        let mut r = FrameReader::new();
        r.feed(&wire);
        let mut got = Vec::new();
        while let Some(m) = r.next_msg().unwrap() {
            got.push(m);
        }
        assert_eq!(got, msgs());
    }

    #[test]
    fn byte_at_a_time_delivery_decodes() {
        let msg = msgs().remove(1);
        let frame = msg.to_frame();
        let mut r = FrameReader::new();
        for (i, b) in frame.iter().enumerate() {
            r.feed(std::slice::from_ref(b));
            let out = r.next_msg().unwrap();
            if i + 1 == frame.len() {
                assert_eq!(out, Some(msg.clone()));
            } else {
                assert_eq!(out, None, "complete message after {} of {} bytes", i + 1, frame.len());
            }
        }
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let frame = msgs()[1].to_frame();
        for flip in HEADER_LEN..frame.len() {
            let mut bad = frame.to_vec();
            bad[flip] ^= 0x40;
            let mut r = FrameReader::new();
            r.feed(&bad);
            assert!(r.next_msg().is_err(), "flipped byte {flip} went unnoticed");
        }
    }

    #[test]
    fn corrupted_crc_field_is_detected() {
        let mut bad = msgs()[0].to_frame().to_vec();
        bad[5] ^= 0xFF;
        let mut r = FrameReader::new();
        r.feed(&bad);
        assert!(r.next_msg().is_err());
    }

    #[test]
    fn oversized_length_prefix_is_poison() {
        let mut r = FrameReader::new();
        r.feed(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        r.feed(&[0u8; 4]);
        assert!(r.next_msg().is_err());
    }

    #[test]
    fn reader_frees_what_it_has_consumed() {
        // A connection that lives for 1000 bulk frames must not retain
        // them: the buffer stays within a few frames' worth of memory
        // whether frames arrive whole or in socket-read-sized pieces.
        let msg = FabricMsg::Put {
            token: 1,
            from: ProcessId::new(1100, 0),
            to: ProcessId::new(3, 0),
            match_bits: 2,
            offset: 0,
            data: Bytes::from(vec![0xAB; 64 * 1024]),
        };
        let frame = msg.to_frame();
        let mut r = FrameReader::new();
        for round in 0..1000 {
            let piece = if round % 2 == 0 { frame.len() } else { 16 * 1024 };
            for chunk in frame.chunks(piece) {
                r.feed(chunk);
            }
            assert_eq!(r.next_msg().unwrap().as_ref(), Some(&msg));
            assert_eq!(r.next_msg().unwrap(), None);
            assert!(r.buf.capacity() <= 4 * frame.len(), "round {round}: {}", r.buf.capacity());
        }
        assert_eq!(r.buffered(), 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_send_roundtrips(
            from_nid: u32, from_pid: u32, to_nid: u32, to_pid: u32,
            match_bits: u64, data: Vec<u8>,
        ) {
            let msg = FabricMsg::Send {
                from: ProcessId::new(from_nid, from_pid),
                to: ProcessId::new(to_nid, to_pid),
                match_bits,
                data: Bytes::from(data),
            };
            let mut r = FrameReader::new();
            r.feed(&msg.to_frame());
            proptest::prop_assert_eq!(r.next_msg().unwrap(), Some(msg));
            proptest::prop_assert_eq!(r.buffered(), 0);
        }

        #[test]
        fn prop_random_split_points_reassemble(
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::num::u8::ANY, 0..256), 1..8),
            cut: u16,
        ) {
            // Several frames concatenated, then split at an arbitrary
            // point: both halves fed separately must yield exactly the
            // original messages.
            let msgs: Vec<FabricMsg> = payloads
                .into_iter()
                .enumerate()
                .map(|(i, p)| FabricMsg::Send {
                    from: ProcessId::new(i as u32, 0),
                    to: ProcessId::new(1100, 0),
                    match_bits: i as u64,
                    data: Bytes::from(p),
                })
                .collect();
            let mut wire = Vec::new();
            for m in &msgs {
                wire.extend_from_slice(&m.to_frame());
            }
            let cut = (cut as usize) % (wire.len() + 1);
            let mut r = FrameReader::new();
            let mut got = Vec::new();
            r.feed(&wire[..cut]);
            while let Some(m) = r.next_msg().unwrap() {
                got.push(m);
            }
            r.feed(&wire[cut..]);
            while let Some(m) = r.next_msg().unwrap() {
                got.push(m);
            }
            proptest::prop_assert_eq!(got, msgs);
            proptest::prop_assert_eq!(r.buffered(), 0);
        }

        #[test]
        fn prop_torn_tail_is_incomplete_not_error(data: Vec<u8>, keep in 0usize..64) {
            // A frame cut short (torn write) must read as "incomplete",
            // never as a decoded message; only a *corrupted* complete
            // frame is an error.
            let msg = FabricMsg::Send {
                from: ProcessId::new(1, 0),
                to: ProcessId::new(2, 0),
                match_bits: 9,
                data: Bytes::from(data),
            };
            let frame = msg.to_frame();
            let keep = keep.min(frame.len().saturating_sub(1));
            let mut r = FrameReader::new();
            r.feed(&frame[..keep]);
            proptest::prop_assert_eq!(r.next_msg().unwrap(), None);
        }

        #[test]
        fn prop_single_bitflip_never_decodes_silently(
            data in proptest::collection::vec(proptest::num::u8::ANY, 0..128),
            flip_byte: u16, flip_bit in 0u8..8,
        ) {
            let msg = FabricMsg::Send {
                from: ProcessId::new(1, 0),
                to: ProcessId::new(2, 0),
                match_bits: 1,
                data: Bytes::from(data),
            };
            let frame = msg.to_frame();
            let idx = HEADER_LEN + (flip_byte as usize) % (frame.len() - HEADER_LEN).max(1);
            if idx < frame.len() {
                let mut bad = frame.to_vec();
                bad[idx] ^= 1 << flip_bit;
                let mut r = FrameReader::new();
                r.feed(&bad);
                proptest::prop_assert!(r.next_msg().is_err());
            }
        }
    }
}
