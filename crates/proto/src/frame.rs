//! The one checksum and the one frame: `[u32 len][u32 crc32][payload]`.
//! ([`crc32`] is the workspace's single checksum entry point; its kernel
//! lives in the private `crc` module.)
//!
//! Everything that leaves a process as a byte stream — WAL segments on
//! disk, replication ships, fabric sockets — is cut into these frames, and
//! the capability token carries the same CRC as a trailer. Both integers
//! are little-endian and the CRC covers the payload only. A stream whose
//! next frame fails the checksum cannot be re-aligned: the socket reader
//! drops the connection, the log reader stops at the crash scar.

use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::Encode;
use crate::error::Error;

/// Bytes of framing overhead per payload (length + checksum).
pub const HEADER_LEN: usize = 8;

/// Payloads longer than this are corrupt by definition: no legitimate
/// message or log record approaches it (bulk transfers are chunked well
/// below), so a larger length prefix is refused before anything is
/// buffered or allocated for it.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

pub use crate::crc::crc32;

/// Encode `msg` into one complete frame, in a buffer allocated once at
/// the frame's final size.
pub fn encode(msg: &impl Encode) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + msg.encoded_len());
    encode_into(&mut buf, msg);
    buf.freeze()
}

/// Append one complete frame holding `msg` to `buf` and return the range
/// it occupies. The payload is encoded in place behind a blank header
/// that is patched once its length and checksum are known, so the payload
/// bytes are written exactly once. Room for the whole frame is reserved
/// before the first byte goes in, so `buf` grows at most once.
pub fn encode_into(buf: &mut BytesMut, msg: &impl Encode) -> Range<usize> {
    let start = buf.len();
    buf.reserve(HEADER_LEN + msg.encoded_len());
    buf.put_slice(&[0u8; HEADER_LEN]);
    msg.encode(buf);
    let (header, payload) = buf[start..].split_at_mut(HEADER_LEN);
    let len = u32::try_from(payload.len()).expect("frame payload fits a u32 length prefix");
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    start..buf.len()
}

/// What the front of a byte buffer holds.
#[derive(Debug, PartialEq)]
pub enum Split<'a> {
    /// One whole frame with a valid checksum occupies the first `consumed`
    /// bytes of the buffer (header included).
    Complete { payload: &'a [u8], consumed: usize },
    /// The buffer ends before the frame does: a stream reader feeds more
    /// bytes, a log reader has found a torn tail.
    Incomplete,
    /// The length prefix exceeds [`MAX_PAYLOAD`] or the checksum does not
    /// match: frame alignment is lost from here on.
    Corrupt(Error),
}

/// Split the first frame off the front of `buf`. Never panics and never
/// reads or allocates past `buf`, whatever the bytes are.
pub fn split(buf: &[u8]) -> Split<'_> {
    let Some((header, rest)) = buf.split_first_chunk::<HEADER_LEN>() else {
        return Split::Incomplete;
    };
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let stored = u32::from_le_bytes([c0, c1, c2, c3]);
    if len > MAX_PAYLOAD {
        return Split::Corrupt(Error::Malformed(format!("frame of {len} bytes exceeds limit")));
    }
    let Some(payload) = rest.get(..len) else {
        return Split::Incomplete;
    };
    let computed = crc32(payload);
    if computed != stored {
        return Split::Corrupt(Error::Malformed(format!(
            "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    Split::Complete { payload, consumed: HEADER_LEN + len }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_then_split_roundtrips() {
        let frame = encode(&String::from("payload"));
        assert_eq!(frame.len(), HEADER_LEN + 4 + 7);
        let whole = Split::Complete { payload: &frame[HEADER_LEN..], consumed: frame.len() };
        assert_eq!(split(&frame), whole);
        // Trailing bytes belong to the next frame and are left alone.
        let mut two = frame.to_vec();
        two.extend_from_slice(&frame[..5]);
        assert_eq!(split(&two), whole);
    }

    #[test]
    fn encode_into_appends_the_same_frame() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"prefix");
        let first = encode_into(&mut buf, &String::from("one"));
        let second = encode_into(&mut buf, &7u64);
        assert_eq!((first.start, second.start), (6, first.end));
        assert_eq!(&buf[first], &encode(&String::from("one"))[..]);
        assert_eq!(&buf[second.clone()], &encode(&7u64)[..]);
        assert_eq!(second.end, buf.len());
    }

    #[test]
    fn oversized_length_prefix_is_corrupt_before_buffering() {
        let mut header = (MAX_PAYLOAD as u32 + 1).to_le_bytes().to_vec();
        header.extend_from_slice(&[0u8; 4]);
        assert!(matches!(split(&header), Split::Corrupt(_)));
        // At the limit the frame is merely incomplete.
        let mut header = (MAX_PAYLOAD as u32).to_le_bytes().to_vec();
        header.extend_from_slice(&[0u8; 4]);
        assert_eq!(split(&header), Split::Incomplete);
    }
}
