//! What a storage worker reuses: its log and ship buffers.
//!
//! Figure 6 stages one-sided transfers through a *fixed* set of pinned
//! buffers, so a burst of tens of thousands of requests cannot grow the
//! server's memory. Our store is memory, so a pull lands straight in the
//! chunk the object keeps (see [`crate::store`]), and a request moves
//! bytes only on the worker that received it: the `workers` threads are
//! the bound.
//!
//! Each worker frames a request's WAL records into a `FrameBatch` and
//! encodes its ship into one request buffer, and keeps both across
//! requests (`WorkerBuffers`): a buffer freed after every ack goes back
//! to the kernel, and the next operation faults its pages in again.

use std::ops::Range;

use bytes::{Bytes, BytesMut};
use lwfs_proto::{frame, Encode, Error, Result};

use crate::store::CHUNK_SIZE;

/// The WAL frames one request produced, in append order: one buffer
/// holding them back to back, and the range of each frame in it.
#[derive(Debug, Default)]
pub(crate) struct FrameBatch {
    buf: BytesMut,
    ranges: Vec<Range<usize>>,
}

impl FrameBatch {
    /// Frame `rec` onto the end of the batch and return the frame.
    pub fn push(&mut self, rec: &impl Encode) -> Result<&[u8]> {
        self.reserve(frame::HEADER_LEN + rec.encoded_len())?;
        let range = frame::encode_into(&mut self.buf, rec);
        self.ranges.push(range.clone());
        Ok(&self.buf[range])
    }

    /// Drop the frame pushed last.
    pub fn pop(&mut self) {
        if let Some(last) = self.ranges.pop() {
            self.buf.truncate(last.start);
        }
    }

    /// Make room for `additional` more bytes, or fail with `StorageIo`
    /// when the allocator cannot provide them. An empty batch that is too
    /// small is replaced by one of exactly that size rather than grown by
    /// doubling, so a request that states its frames up front allocates
    /// once.
    pub fn reserve(&mut self, additional: usize) -> Result<()> {
        if self.buf.capacity() - self.buf.len() >= additional {
            return Ok(());
        }
        let mut buf =
            if self.buf.is_empty() { Vec::new() } else { std::mem::take(&mut self.buf).into() };
        let grown = if buf.is_empty() {
            buf.try_reserve_exact(additional)
        } else {
            buf.try_reserve(additional)
        };
        self.buf = buf.into();
        grown.map_err(|e| {
            Error::StorageIo(format!("cannot reserve {additional} bytes of log frames: {e}"))
        })
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.ranges.clear();
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Room, beyond a chunk's payload, for what wraps it on the way to a
/// backup: the frame header and the write record's fields, and around
/// the frame the ship request's envelope, capability token and reply. A
/// page covers them.
const CHUNK_ENVELOPE: usize = 4096;

/// A storage worker's reusable buffers: the frames of the request in
/// hand, and the encoded ship request that carries them to the backups.
///
/// Both are lent out as [`Bytes`] for the ship and taken back after the
/// ack when no other handle remains (a re-sent ship still queued at the
/// backup keeps its buffer, and a fresh one is allocated).
///
/// Between requests a worker keeps one full chunk's frame and ship
/// ([`KEEP`]); larger buffers are freed.
#[derive(Debug, Default)]
pub(crate) struct WorkerBuffers {
    pub frames: FrameBatch,
    ship: BytesMut,
}

/// Bytes a worker's frame and ship buffers may hold between requests:
/// 520 KiB.
const KEEP: usize = 2 * (CHUNK_SIZE + CHUNK_ENVELOPE);

impl WorkerBuffers {
    /// Lend the batch out for shipping: the whole buffer, which goes back
    /// through [`return_frames`](Self::return_frames), and a view of each
    /// frame.
    pub fn lend_frames(&mut self) -> (Bytes, Vec<Bytes>) {
        let whole = std::mem::take(&mut self.frames.buf).freeze();
        let frames = self.frames.ranges.drain(..).map(|r| whole.slice(r)).collect();
        (whole, frames)
    }

    /// Take the batch back once every view of it is dropped.
    pub fn return_frames(&mut self, whole: Bytes) {
        self.frames.buf = reclaim(whole);
    }

    /// Encode `msg` into the ship buffer, at its exact size, and lend the
    /// bytes out; they come back through [`return_ship`](Self::return_ship).
    pub fn encode_ship(&mut self, msg: &impl Encode) -> Bytes {
        let len = msg.encoded_len();
        if self.ship.capacity() < len {
            self.ship = BytesMut::with_capacity(len);
        }
        msg.encode(&mut self.ship);
        std::mem::take(&mut self.ship).freeze()
    }

    /// Take the ship buffer back after the ack, if nobody else holds it.
    pub fn return_ship(&mut self, wire: Bytes) {
        self.ship = reclaim(wire);
    }

    /// Close a request: empty the batch, and free both buffers if
    /// together they hold more than [`KEEP`].
    pub fn end_request(&mut self) {
        self.frames.clear();
        if self.frames.buf.capacity() + self.ship.capacity() > KEEP {
            self.frames = FrameBatch::default();
            self.ship = BytesMut::new();
        }
    }
}

/// `lent`'s buffer, emptied, if `lent` was its last handle; else a new
/// empty buffer, leaving the old one to whoever still holds it.
fn reclaim(lent: Bytes) -> BytesMut {
    match lent.try_into_mut() {
        Ok(mut buf) => {
            buf.clear();
            buf
        }
        Err(_) => BytesMut::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_buffers_are_reused_only_when_unshared_and_within_budget() {
        let mut bufs = WorkerBuffers::default();
        let payload = vec![5u8; 1000];
        bufs.frames.reserve(2 * (frame::HEADER_LEN + 4 + 1000)).unwrap();
        let first = bufs.frames.push(&payload).unwrap().to_vec();
        bufs.frames.push(&payload).unwrap();
        let (whole, frames) = bufs.lend_frames();
        assert_eq!(frames.len(), 2);
        assert_eq!(&frames[0][..], &first[..]);
        let frames_at = whole.as_ptr();
        let wire = bufs.encode_ship(&frames);
        assert_eq!(wire.len(), frames.encoded_len());
        let ship_at = wire.as_ptr();
        drop(frames);
        bufs.return_frames(whole);
        bufs.return_ship(wire);
        bufs.end_request();
        // Unshared and within budget: the next request reuses both.
        assert!(bufs.frames.is_empty());
        assert_eq!(bufs.frames.push(&payload).unwrap().as_ptr(), frames_at);
        let (whole, frames) = bufs.lend_frames();
        let wire = bufs.encode_ship(&frames);
        assert_eq!(wire.as_ptr(), ship_at);
        // A ship still held elsewhere is left to its holder.
        let held = wire.clone();
        bufs.return_ship(wire);
        assert_eq!(bufs.ship.capacity(), 0);
        drop((held, frames));
        bufs.return_frames(whole);
        // Over budget: both are freed at the end of the request.
        bufs.frames.push(&vec![0u8; KEEP]).unwrap();
        bufs.end_request();
        assert_eq!(bufs.frames.buf.capacity() + bufs.ship.capacity(), 0);
    }

    #[test]
    fn a_frame_popped_off_the_batch_leaves_the_rest_as_it_was() {
        let mut batch = FrameBatch::default();
        let kept = batch.push(&vec![1u8; 100]).unwrap().to_vec();
        batch.push(&vec![2u8; 200]).unwrap();
        batch.pop();
        assert_eq!((batch.ranges.len(), &batch.buf[..]), (1, &kept[..]));
        batch.pop();
        assert!(batch.is_empty() && batch.buf.is_empty());
        batch.pop();
        assert!(batch.is_empty());
    }

    #[test]
    fn a_reservation_the_allocator_cannot_meet_is_an_error_not_an_abort() {
        let mut batch = FrameBatch::default();
        let frame = batch.push(&vec![3u8; 100]).unwrap().to_vec();
        for additional in [usize::MAX, isize::MAX as usize, 1 << 62] {
            assert!(matches!(batch.reserve(additional), Err(Error::StorageIo(_))));
            assert_eq!(&batch.buf[..], &frame[..]);
        }
        batch.clear();
        assert!(matches!(batch.reserve(1 << 62), Err(Error::StorageIo(_))));
        assert!(batch.is_empty());
        batch.reserve(4096).unwrap();
        assert_eq!(batch.buf.capacity(), 4096);
    }
}
