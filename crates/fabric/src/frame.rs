//! Wire framing: one [`FabricMsg`] per `lwfs_proto::frame` frame
//! (`[len: u32 LE] [crc32: u32 LE] [payload]`).
//!
//! The payload is encoded with the same hand-rolled little-endian codec as
//! every `lwfs_proto` message. A frame whose checksum does not match is
//! *poison* — a torn write or corrupted stream — and the connection that
//! produced it must be dropped, because byte alignment can no longer be
//! trusted.
//!
//! [`FrameReader`] is the incremental decoder: [`read_from`] a stream (or
//! [`feed`] it whatever chunks arrive — split frames, coalesced frames,
//! single bytes) and pull complete messages out as they materialize. A
//! bulk frame read from a stream lands in a buffer of its own, which the
//! decoded message keeps: its payload is never copied out of the frame.
//!
//! [`read_from`]: FrameReader::read_from
//! [`feed`]: FrameReader::feed

use std::io::{self, Read};

use bytes::{BufMut, Bytes, BytesMut};
use lwfs_proto::frame::{self, Split, HEADER_LEN, MAX_PAYLOAD};
use lwfs_proto::{impl_codec_enum, Decode, Encode, Error, NodeId, ProcessId, Result};

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

/// A [`FabricMsg::Put`] whose data is borrowed: it encodes byte for byte
/// as the `Put` holding a copy, so a put is framed straight from the
/// caller's slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutRef<'a> {
    pub token: u64,
    pub from: ProcessId,
    pub to: ProcessId,
    pub match_bits: u64,
    pub offset: u64,
    pub data: &'a [u8],
}

impl Encode for PutRef<'_> {
    fn encode(&self, buf: &mut BytesMut) {
        // `FabricMsg::Put`'s tag and field order, from the table above.
        buf.put_u8(FabricMsg::TAGS[2]);
        self.token.encode(buf);
        self.from.encode(buf);
        self.to.encode(buf);
        self.match_bits.encode(buf);
        self.offset.encode(buf);
        self.data.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        1 + self.token.encoded_len()
            + self.from.encoded_len()
            + self.to.encoded_len()
            + self.match_bits.encoded_len()
            + self.offset.encoded_len()
            + self.data.encoded_len()
    }
}

/// A successful [`FabricMsg::GetReply`] whose data is borrowed: it encodes
/// byte for byte as the owned reply, so a get is answered straight from
/// the descriptor, under its lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetReplyRef<'a> {
    pub token: u64,
    pub data: &'a [u8],
}

impl Encode for GetReplyRef<'_> {
    fn encode(&self, buf: &mut BytesMut) {
        // `FabricMsg::GetReply`'s tag and field order, `err` being `None`.
        buf.put_u8(FabricMsg::TAGS[5]);
        self.token.encode(buf);
        None::<Error>.encode(buf);
        self.data.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        1 + self.token.encoded_len() + None::<Error>.encoded_len() + self.data.encoded_len()
    }
}

/// A frame whose payload is at least this long is bulk: read from a
/// stream, it lands in a buffer of its own instead of the shared one.
const BULK_PAYLOAD: usize = 64 * 1024;

/// Most a frame header, which nothing has checked yet, makes the reader
/// reserve beyond the bytes already received: a header that lies about
/// its length costs this much memory, not [`MAX_PAYLOAD`].
pub const RESERVE_STEP: usize = 1024 * 1024;

/// Bytes one small read asks for: what arrives is batched into the
/// shared buffer, several frames at a time.
const SMALL_READ: usize = 64 * 1024;

/// Incremental frame decoder for one connection's byte stream.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Received bytes; those before `pos` are consumed.
    buf: Vec<u8>,
    pos: usize,
    /// Landing area of small reads, allocated by the first one.
    scratch: Vec<u8>,
}

impl FrameReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes as they arrive off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Read once from `src` and buffer what arrives; `Ok(0)` is the end of
    /// the stream. While the buffered head of a bulk frame announces more
    /// bytes, they are read straight into the buffer's spare room (no
    /// staging copy, no zero pass), at most [`RESERVE_STEP`] per call and
    /// never past that frame, so the complete frame is the whole buffer
    /// and [`next_msg`](Self::next_msg) hands it over without a copy. An
    /// error after some bytes arrived is not returned: the bytes are kept
    /// and counted, and a lasting error shows on the next call.
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        let Some(missing) = self.bulk_missing() else {
            if self.scratch.is_empty() {
                self.scratch = vec![0; SMALL_READ];
            }
            let n = src.read(&mut self.scratch)?;
            self.buf.extend_from_slice(&self.scratch[..n]);
            return Ok(n);
        };
        // Only the bulk frame's head is unread: start the frame at 0.
        self.buf.drain(..std::mem::take(&mut self.pos));
        let step = missing.min(RESERVE_STEP);
        self.buf.reserve_exact(step);
        let before = self.buf.len();
        let read = src.take(step as u64).read_to_end(&mut self.buf);
        match (read, self.buf.len() - before) {
            (Err(e), 0) => Err(e),
            (_, n) => Ok(n),
        }
    }

    /// The bytes a buffered bulk frame head still lacks, if that is what
    /// the unread bytes hold.
    fn bulk_missing(&self) -> Option<usize> {
        let unread = &self.buf[self.pos..];
        let (len, _) = unread.split_first_chunk::<4>()?;
        let len = u32::from_le_bytes(*len) as usize;
        let missing = (HEADER_LEN + len).checked_sub(unread.len())?;
        ((BULK_PAYLOAD..=MAX_PAYLOAD).contains(&len) && missing > 0).then_some(missing)
    }

    /// Bytes buffered but not yet consumed as frames (diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes the buffer has room for, used or not (diagnostics).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Pull the next complete message, if one has fully arrived.
    ///
    /// `Ok(None)` means "incomplete — feed more bytes". An error means the
    /// stream itself is poisoned (oversized length prefix, checksum
    /// mismatch, undecodable payload): the caller must drop the
    /// connection, since frame alignment is unrecoverable.
    pub fn next_msg(&mut self) -> Result<Option<FabricMsg>> {
        let unread = &self.buf[self.pos..];
        let consumed = match frame::split(unread) {
            Split::Complete { consumed, .. } => consumed,
            Split::Incomplete => return Ok(None),
            Split::Corrupt(e) => return Err(e),
        };
        let payload = if consumed == unread.len() && consumed - HEADER_LEN >= BULK_PAYLOAD {
            // A bulk frame is all that is left: the message takes the
            // buffer, and the next bytes start a fresh one.
            let start = std::mem::take(&mut self.pos) + HEADER_LEN;
            Bytes::from(std::mem::take(&mut self.buf)).slice(start..)
        } else {
            let payload = Bytes::copy_from_slice(&unread[HEADER_LEN..consumed]);
            self.consume(consumed);
            payload
        };
        FabricMsg::from_bytes(payload).map(Some)
    }

    /// Move past `cnt` bytes, and give their room back once the consumed
    /// prefix is at least as long as the unread rest, so compacting moves
    /// no more bytes than were consumed since it last ran.
    fn consume(&mut self, cnt: usize) {
        self.pos += cnt;
        if self.pos >= self.buf.len() - self.pos {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert!(r.capacity() <= 4 * frame.len(), "round {round}: {}", r.capacity());
        }
        assert_eq!(r.buffered(), 0);
    }

    /// A stream that hands out `wire` in pieces of 1..=`max` bytes, then
    /// ends.
    struct Trickle<'a> {
        wire: &'a [u8],
        rng: lwfs_proto::rng::ChaCha8,
        max: u64,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = (1 + self.rng.below(self.max) as usize).min(out.len()).min(self.wire.len());
            out[..n].copy_from_slice(&self.wire[..n]);
            self.wire = &self.wire[n..];
            Ok(n)
        }
    }

    fn put_of(len: usize, token: u64) -> FabricMsg {
        FabricMsg::Put {
            token,
            from: ProcessId::new(3, 0),
            to: ProcessId::new(1100, 0),
            match_bits: 2,
            offset: 0,
            data: Bytes::from((0..len).map(|i| (i % 251) as u8 ^ token as u8).collect::<Vec<_>>()),
        }
    }

    #[test]
    fn a_stream_of_small_and_bulk_frames_reads_back_whole() {
        // Bulk frames between, behind and ahead of small ones, at every
        // size class the reader tells apart, read in pieces of random
        // size: batched small reads and direct bulk reads interleave.
        let sizes = [0, 10, BULK_PAYLOAD - 40, BULK_PAYLOAD, 3, 256 * 1024, 1, BULK_PAYLOAD + 1];
        let msgs: Vec<FabricMsg> =
            sizes.iter().enumerate().map(|(i, &len)| put_of(len, i as u64)).collect();
        let wire: Vec<u8> = msgs.iter().flat_map(|m| m.to_frame().to_vec()).collect();
        for (seed, max) in [(1, 1), (2, 7), (3, 5000), (4, 70_000), (5, 1 << 20)] {
            let rng = lwfs_proto::rng::ChaCha8::seed_from_u64(seed);
            let mut src = Trickle { wire: &wire, rng, max };
            let mut r = FrameReader::new();
            let mut got = Vec::new();
            while r.read_from(&mut src).unwrap() > 0 {
                while let Some(m) = r.next_msg().unwrap() {
                    got.push(m);
                }
            }
            assert!(got == msgs, "pieces of up to {max} bytes");
            assert_eq!(r.buffered(), 0);
        }
    }

    #[test]
    fn a_bulk_frame_read_from_a_stream_is_handed_over_in_its_own_buffer() {
        let msg = put_of(256 * 1024, 1);
        let frame = msg.to_frame();
        let mut src = &frame[..];
        let mut r = FrameReader::new();
        while r.next_msg().unwrap().is_none() {
            assert!(r.read_from(&mut src).unwrap() > 0);
            assert!(r.capacity() <= frame.len() + SMALL_READ, "{}", r.capacity());
        }
        // The message took the buffer the frame was read into.
        assert_eq!((r.buffered(), r.capacity()), (0, 0));
    }

    proptest::proptest! {
        #[test]
        fn prop_borrowed_messages_frame_as_the_owned_ones(
            token: u64, from_nid: u32, to_nid: u32, match_bits: u64, offset: u64,
            data in proptest::collection::vec(proptest::num::u8::ANY, 0..512),
        ) {
            let (from, to) = (ProcessId::new(from_nid, 1), ProcessId::new(to_nid, 2));
            let borrowed = PutRef { token, from, to, match_bits, offset, data: &data };
            let owned =
                FabricMsg::Put { token, from, to, match_bits, offset, data: Bytes::from(data.clone()) };
            proptest::prop_assert_eq!(frame::encode(&borrowed), owned.to_frame());
            proptest::prop_assert_eq!(borrowed.encoded_len(), owned.encoded_len());
            let borrowed = GetReplyRef { token, data: &data };
            let owned = FabricMsg::GetReply { token, err: None, data: Bytes::from(data.clone()) };
            proptest::prop_assert_eq!(frame::encode(&borrowed), owned.to_frame());
            proptest::prop_assert_eq!(borrowed.encoded_len(), owned.encoded_len());
        }

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
