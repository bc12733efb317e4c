//! Offline stand-in for the `bytes` crate.
//!
//! The build environment cannot reach crates.io, so the workspace patches
//! `bytes` to this shim. [`Bytes`] is a cheaply cloneable shared view over
//! an `Arc<Vec<u8>>`, so taking ownership of a `Vec` (and therefore
//! [`BytesMut::freeze`]) is O(1) and keeps the allocation; [`BytesMut`] is
//! a growable buffer that freezes into a [`Bytes`]. The [`Buf`]/[`BufMut`]
//! traits carry the little-endian accessor set the workspace codec uses. Semantics match the real crate
//! for this surface; zero-copy `split_off`-style operations that the
//! workspace does not use are omitted.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, contiguous, immutable slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` is the empty buffer, so `Bytes::new()` allocates nothing.
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Self::default()
    }

    /// Unlike the real crate this copies: the shim's backing store has
    /// no static variant. Call sites only pass small literals, and none
    /// require const evaluation.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::copy_from_slice(bytes)
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }

    /// A sub-view sharing the same backing allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice out of range: {lo}..{hi} of {len}");
        Self { data: self.data.clone(), start: self.start + lo, end: self.start + hi }
    }

    /// Split off and return the first `at` bytes, advancing `self`.
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_to out of range");
        let head = self.slice(0..at);
        self.start += at;
        head
    }

    /// Turn this view back into a [`BytesMut`] holding the same bytes,
    /// without copying, if it is the only handle on its allocation;
    /// otherwise hand it back unchanged. This is how an owner reuses a
    /// buffer it lent out as `Bytes` once every borrower is done with it.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Some(data) = self.data else {
            return Ok(BytesMut::new());
        };
        match Arc::try_unwrap(data) {
            Ok(mut data) => {
                data.truncate(self.end);
                Ok(BytesMut { data, pos: self.start })
            }
            Err(data) => Err(Bytes { data: Some(data), ..self }),
        }
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes over `v`'s allocation: no bytes move.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self { data: (end > 0).then(|| Arc::new(v)), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Self::from(v.into_bytes())
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Read cursor for the `Buf` impl (bytes before it are consumed).
    pos: usize,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        Self { data: Vec::with_capacity(capacity), pos: 0 }
    }

    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(self.pos + len);
    }

    /// Empty the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.data.clear();
        self.pos = 0;
    }

    pub fn extend_from_slice(&mut self, other: &[u8]) {
        self.data.extend_from_slice(other);
    }

    /// Convert the unread remainder into an immutable [`Bytes`].
    pub fn freeze(mut self) -> Bytes {
        if self.pos > 0 {
            self.data.drain(..self.pos);
        }
        Bytes::from(self.data)
    }

    /// Split off the first `len` unread bytes into their own buffer,
    /// leaving the remainder in `self`.
    pub fn split_to(&mut self, len: usize) -> BytesMut {
        assert!(len <= self.len(), "split_to out of range");
        let out = BytesMut { data: self.data[self.pos..self.pos + len].to_vec(), pos: 0 };
        self.consume(len);
        out
    }

    /// Move the read cursor past `cnt` bytes and give their memory back
    /// once the consumed prefix is at least as long as the unread rest.
    /// Compacting then moves no more bytes than were consumed since the
    /// last compaction, so a long-lived stream buffer (feed, consume,
    /// feed, …) stays the size of its unread data instead of retaining
    /// every byte it has ever held.
    fn consume(&mut self, cnt: usize) {
        self.pos += cnt;
        if self.pos >= self.data.len() - self.pos {
            self.data.drain(..self.pos);
            self.pos = 0;
        }
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(self.as_slice()), f)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let pos = self.pos;
        &mut self.data[pos..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        Self { data: v.to_vec(), pos: 0 }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> Self {
        Self { data, pos: 0 }
    }
}

impl From<BytesMut> for Vec<u8> {
    /// The unread bytes, in the buffer's own allocation.
    fn from(mut b: BytesMut) -> Self {
        if b.pos > 0 {
            b.data.drain(..b.pos);
        }
        b.data
    }
}

/// Read access to a sequence of bytes.
pub trait Buf {
    fn remaining(&self) -> usize;
    /// The current contiguous unread region.
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "copy_to_slice overrun");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "copy_to_bytes overrun");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(len <= self.len(), "copy_to_bytes overrun");
        self.split_to(len)
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.consume(cnt);
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        *self = &self[cnt..];
    }
}

impl<T: Buf + ?Sized> Buf for &mut T {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }

    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt);
    }
}

/// Write access to a growable byte sink.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put(&mut self, mut src: impl Buf)
    where
        Self: Sized,
    {
        while src.has_remaining() {
            let chunk = src.chunk();
            self.put_slice(chunk);
            let n = chunk.len();
            src.advance(n);
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_and_slice() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        let s = b.slice(1..4);
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        let c = b.clone();
        assert_eq!(b, c);
    }

    #[test]
    fn buf_reads_advance() {
        let mut b = Bytes::from(vec![1u8, 0, 0, 0, 0xAA]);
        assert_eq!(b.get_u32_le(), 1);
        assert_eq!(b.remaining(), 1);
        assert_eq!(b.get_u8(), 0xAA);
        assert!(!b.has_remaining());
    }

    #[test]
    fn bytesmut_write_then_freeze() {
        let mut m = BytesMut::new();
        m.put_u16_le(0xBEEF);
        m.put_slice(b"xy");
        assert_eq!(m.len(), 4);
        let b = m.freeze();
        assert_eq!(b.as_slice(), &[0xEF, 0xBE, b'x', b'y']);
    }

    #[test]
    fn bytesmut_is_also_a_buf() {
        let mut m = BytesMut::new();
        m.put_u32_le(7);
        m.put_u8(9);
        assert_eq!(m.get_u32_le(), 7);
        assert_eq!(m.len(), 1);
        m.truncate(0);
        assert!(m.is_empty());
    }

    #[test]
    fn consumed_prefix_is_reclaimed() {
        // A stream buffer: feed a chunk, consume most of it, repeat. The
        // backing store must track the unread bytes, not the history.
        let mut m = BytesMut::new();
        for round in 0..10_000u32 {
            m.extend_from_slice(&[round as u8; 1024]);
            if round % 2 == 0 {
                m.advance(1000);
            } else {
                assert_eq!(m.split_to(1000).len(), 1000);
            }
            assert_eq!(m.len(), 24 * (round as usize + 1));
            assert_eq!(m[m.len() - 1], round as u8);
        }
        assert!(m.capacity() < 4 * (m.len() + 1024), "capacity {} retained", m.capacity());
    }

    #[test]
    fn copy_to_bytes_shares_backing() {
        let mut b = Bytes::from(vec![9u8; 64]);
        let head = b.copy_to_bytes(16);
        assert_eq!(head.len(), 16);
        assert_eq!(b.remaining(), 48);
    }

    #[test]
    fn from_vec_and_freeze_keep_the_allocation() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "From<Vec<u8>> must not copy");

        let mut m = BytesMut::with_capacity(4096);
        m.put_slice(&[5u8; 4096]);
        let ptr = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), ptr, "freeze must not copy");
        assert_eq!(b.len(), 4096);

        // Views share it too: slicing, splitting and advancing only move
        // the window.
        let mut rest = b.clone();
        let head = rest.split_to(16);
        assert_eq!(head.as_ptr(), ptr);
        assert_eq!(rest.as_ptr(), ptr.wrapping_add(16));
        rest.advance(16);
        assert_eq!(rest.as_ptr(), ptr.wrapping_add(32));
        assert_eq!(b.slice(100..200).as_ptr(), ptr.wrapping_add(100));
        assert_eq!((head.len(), rest.len(), b.len()), (16, 4064, 4096));
    }

    #[test]
    fn try_into_mut_reclaims_only_an_unshared_buffer() {
        let mut m = BytesMut::with_capacity(4096);
        m.put_slice(&[3u8; 1000]);
        let ptr = m.as_ptr();
        let b = m.freeze();
        let view = b.slice(10..20);
        // A second handle keeps the allocation shared.
        let b = b.try_into_mut().unwrap_err();
        assert_eq!((b.len(), b.as_ptr()), (1000, ptr));
        drop(view);
        let mut back = b.try_into_mut().unwrap();
        assert_eq!((back.len(), back.as_ptr(), back.capacity()), (1000, ptr, 4096));
        back.clear();
        assert!(back.is_empty());
        assert_eq!(back.capacity(), 4096);
        // A sub-view that is the last handle comes back as exactly its bytes.
        let tail = Bytes::from(vec![1u8, 2, 3, 4]).slice(1..3);
        assert_eq!(tail.try_into_mut().unwrap().as_slice(), &[2, 3]);
        assert!(Bytes::new().try_into_mut().unwrap().is_empty());
    }

    #[test]
    fn a_vec_converts_to_and_from_bytes_mut_in_place() {
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(b"abcdef");
        let ptr = v.as_ptr();
        let mut m = BytesMut::from(v);
        assert_eq!((m.as_slice(), m.capacity(), m.as_ptr()), (&b"abcdef"[..], 64, ptr));
        m.advance(2);
        let v = Vec::from(m);
        assert_eq!((v.as_slice(), v.as_ptr()), (&b"cdef"[..], ptr));
    }

    #[test]
    fn freeze_after_partial_read_keeps_only_the_unread_rest() {
        let mut m = BytesMut::new();
        m.put_slice(b"abcdefgh");
        m.advance(3);
        assert_eq!(m.freeze().as_slice(), b"defgh");
    }

    #[test]
    fn empty_bytes_behave() {
        for b in [Bytes::new(), Bytes::from(Vec::new()), Bytes::from_static(b"")] {
            assert!(b.is_empty());
            assert_eq!(b.as_slice(), b"");
            assert!(b.slice(..).is_empty());
            assert_eq!(b, Bytes::default());
        }
    }

    #[test]
    fn copy_to_bytes_from_a_slice_copies_exactly_the_prefix() {
        let src = [1u8, 2, 3, 4, 5];
        let mut s: &[u8] = &src;
        let head = s.copy_to_bytes(2);
        assert_eq!(head, [1u8, 2]);
        assert_eq!(s, &[3, 4, 5]);
    }

    #[test]
    fn slice_buf_advance() {
        let mut s: &[u8] = &[1, 2, 3];
        s.advance(1);
        assert_eq!(s.chunk(), &[2, 3]);
    }
}
