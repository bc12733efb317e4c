//! Memory descriptors: the unit of one-sided access.
//!
//! A [`MemDesc`] is the in-process analogue of a pinned, registered buffer.
//! Once posted under match bits, remote processes can `put` into it or
//! `get` from it **without the owning thread scheduling** — exactly the
//! property server-directed I/O relies on (the server pulls from thousands
//! of client buffers at its own pace, Figure 6).

use std::sync::Arc;

use parking_lot::Mutex;

use lwfs_proto::{Error, Result};

/// Access options for a posted memory descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdOptions {
    /// Remote processes may `put` (write) into this buffer.
    pub allow_put: bool,
    /// Remote processes may `get` (read) from this buffer.
    pub allow_get: bool,
    /// Deliver an event to the owner when a remote operation completes.
    /// Bulk-data descriptors usually disable this: the RPC reply already
    /// tells the client the transfer finished.
    pub deliver_events: bool,
    /// Automatically unlink after this many remote operations
    /// (`None` = persistent). A one-shot reply buffer uses `Some(1)`.
    pub unlink_after: Option<u32>,
}

impl MdOptions {
    /// A buffer a server will *pull* from (client write path).
    pub const fn for_remote_get() -> Self {
        Self { allow_put: false, allow_get: true, deliver_events: false, unlink_after: None }
    }

    /// A buffer a server will *push* into (client read path).
    pub const fn for_remote_put() -> Self {
        Self { allow_put: true, allow_get: false, deliver_events: false, unlink_after: None }
    }

    /// Both directions, with events — used by tests and by journal mirrors.
    pub const fn read_write_events() -> Self {
        Self { allow_put: true, allow_get: true, deliver_events: true, unlink_after: None }
    }
}

impl Default for MdOptions {
    fn default() -> Self {
        Self::read_write_events()
    }
}

/// Shared state of a posted buffer.
#[derive(Debug)]
pub(crate) struct MdInner {
    /// The filled prefix: what the owner supplied and puts wrote (see
    /// [`put_at`]). Never longer than `extent`; the rest reads as zero.
    pub data: Mutex<Vec<u8>>,
    /// The descriptor's length as posted.
    extent: usize,
    pub options: MdOptions,
    /// Remaining remote operations before auto-unlink (`u32::MAX` if
    /// persistent). Guarded by the owning table's lock during decrement.
    pub remaining_ops: Mutex<u32>,
}

/// A memory descriptor handle. Cloning shares the same underlying buffer.
#[derive(Debug, Clone)]
pub struct MemDesc {
    pub(crate) inner: Arc<MdInner>,
}

impl MemDesc {
    /// Create a descriptor of `len` bytes that read as zero until written.
    /// Nothing is zeroed up front: puts fill the reserved room by appending,
    /// and only a read of an unfilled tail zero-fills it.
    pub fn zeroed(len: usize, options: MdOptions) -> Self {
        Self::with_extent(len, Vec::with_capacity(len), options)
    }

    /// Create a descriptor taking ownership of `data`.
    pub fn from_vec(data: Vec<u8>, options: MdOptions) -> Self {
        Self::with_extent(data.len(), data, options)
    }

    fn with_extent(extent: usize, data: Vec<u8>, options: MdOptions) -> Self {
        Self {
            inner: Arc::new(MdInner {
                data: Mutex::new(data),
                extent,
                options,
                remaining_ops: Mutex::new(options.unlink_after.unwrap_or(u32::MAX)),
            }),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.extent
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn options(&self) -> MdOptions {
        self.inner.options
    }

    /// Copy the buffer contents out (owner-side read): `len()` bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut copy = self.inner.data.lock().clone();
        put_at(&mut copy, self.len(), &[]);
        copy
    }

    /// Take the buffer out of a descriptor nothing else refers to any more
    /// (unlinked, every remote operation returned): no bytes move, and only
    /// an unfilled tail is zero-filled. If a clone is still alive — a put
    /// that looked the descriptor up before the unlink — it is copied.
    pub fn into_vec(self) -> Vec<u8> {
        let extent = self.len();
        let mut data = match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.data.into_inner(),
            Err(shared) => shared.data.lock().clone(),
        };
        put_at(&mut data, extent, &[]);
        data
    }

    /// The exclusive end of `[offset, offset + len)`, or `Malformed` when
    /// it overflows or passes the descriptor's extent.
    fn range_end(&self, op: &str, offset: u64, len: usize) -> Result<usize> {
        let start =
            usize::try_from(offset).map_err(|_| Error::Malformed("md offset overflow".into()))?;
        let end =
            start.checked_add(len).ok_or_else(|| Error::Malformed("md length overflow".into()))?;
        if end > self.len() {
            return Err(Error::Malformed(format!(
                "remote {op} [{start}, {end}) exceeds md of {} bytes",
                self.len()
            )));
        }
        Ok(end)
    }

    /// Remote read of `[offset, offset+len)`: `read` sees the range in
    /// place, after the bounds check, so the caller decides where the one
    /// copy lands and a bad range costs no allocation. A range reaching
    /// past the filled prefix zero-fills it up to its end first. Enforced
    /// against [`MdOptions::allow_get`] by the endpoint, bounds-checked
    /// here.
    pub(crate) fn remote_read<R>(
        &self,
        offset: u64,
        len: usize,
        read: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let end = self.range_end("get", offset, len)?;
        let mut guard = self.inner.data.lock();
        put_at(&mut guard, end, &[]);
        Ok(read(&guard[end - len..end]))
    }

    /// Remote write of `data` at `offset`: see [`put_at`].
    pub(crate) fn remote_write(&self, offset: u64, data: &[u8]) -> Result<()> {
        let end = self.range_end("put", offset, data.len())?;
        put_at(&mut self.inner.data.lock(), end - data.len(), data);
        Ok(())
    }

    /// Record one remote operation; returns `true` if the descriptor should
    /// now be unlinked.
    pub(crate) fn consume_op(&self) -> bool {
        let mut rem = self.inner.remaining_ops.lock();
        if *rem == u32::MAX {
            return false;
        }
        *rem = rem.saturating_sub(1);
        *rem == 0
    }
}

/// Write `bytes` at `at` in `buf`, over the bytes there and past them by
/// appending; only a real gap before `at` is zero-filled, so a buffer filled
/// front to back is written once. With empty `bytes` it pads `buf` to `at`.
pub fn put_at(buf: &mut Vec<u8>, at: usize, bytes: &[u8]) {
    if buf.len() < at {
        buf.resize(at, 0);
    }
    let (over, past) = bytes.split_at((buf.len() - at).min(bytes.len()));
    buf[at..at + over.len()].copy_from_slice(over);
    buf.extend_from_slice(past);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The filled prefix of `md`'s buffer.
    fn filled(md: &MemDesc) -> usize {
        md.inner.data.lock().len()
    }

    #[test]
    fn zeroed_has_requested_len_and_fills_nothing() {
        let md = MemDesc::zeroed(128, MdOptions::default());
        assert_eq!((md.len(), filled(&md)), (128, 0));
        assert!(md.inner.data.lock().capacity() >= 128, "room for every byte up front");
        assert_eq!(md.snapshot(), [0u8; 128]);
    }

    #[test]
    fn remote_write_then_read_roundtrips() {
        let md = MemDesc::zeroed(16, MdOptions::default());
        md.remote_write(4, b"abcd").unwrap();
        let got = md.remote_read(4, 4, <[u8]>::to_vec).unwrap();
        assert_eq!(&got, b"abcd");
    }

    #[test]
    fn puts_in_order_append_and_fill_nothing_else() {
        let md = MemDesc::zeroed(12, MdOptions::default());
        for (at, piece) in [(0, b"abcd"), (4, b"efgh"), (8, b"ijkl")] {
            md.remote_write(at, piece).unwrap();
            assert_eq!(filled(&md), at as usize + 4, "a put in order only appends");
        }
        assert_eq!(md.into_vec(), b"abcdefghijkl");
    }

    #[test]
    fn puts_out_of_order_with_a_gap_and_overlapping_land_where_addressed() {
        let md = MemDesc::zeroed(16, MdOptions::default());
        // A gap first: the bytes before it read as zero.
        md.remote_write(8, b"IJKL").unwrap();
        assert_eq!(filled(&md), 12);
        // Out of order, into the zero-filled gap.
        md.remote_write(2, b"cd").unwrap();
        // Overlapping the filled end and running past it.
        md.remote_write(10, b"xyz!").unwrap();
        // Overlapping earlier puts entirely.
        md.remote_write(3, b"DE").unwrap();
        assert_eq!(filled(&md), 14);
        assert_eq!(md.snapshot(), b"\0\0cDE\0\0\0IJxyz!\0\0");
    }

    #[test]
    fn a_get_straddling_the_filled_end_reads_zeros_past_it() {
        let md = MemDesc::zeroed(16, MdOptions::default());
        md.remote_write(0, b"abcdef").unwrap();
        let got = md.remote_read(4, 6, <[u8]>::to_vec).unwrap();
        assert_eq!(got, b"ef\0\0\0\0");
        // Past the filled end entirely, then a put over what the get read.
        assert_eq!(md.remote_read(12, 4, <[u8]>::to_vec).unwrap(), [0u8; 4]);
        md.remote_write(7, b"GH").unwrap();
        assert_eq!(md.snapshot(), b"abcdef\0GH\0\0\0\0\0\0\0");
    }

    #[test]
    fn a_partly_filled_descriptor_is_taken_out_with_a_zero_tail() {
        let md = MemDesc::zeroed(10, MdOptions::default());
        md.remote_write(0, b"abc").unwrap();
        assert_eq!(md.snapshot(), b"abc\0\0\0\0\0\0\0");
        let held = md.clone();
        assert_eq!(md.into_vec(), b"abc\0\0\0\0\0\0\0", "shared: copied");
        assert_eq!(held.into_vec(), b"abc\0\0\0\0\0\0\0", "unshared: moved");
        assert_eq!(MemDesc::zeroed(5, MdOptions::default()).into_vec(), [0u8; 5]);
    }

    #[test]
    fn remote_read_out_of_bounds_rejected() {
        let md = MemDesc::zeroed(8, MdOptions::default());
        let mut ran = false;
        assert!(md.remote_read(4, 8, |_| ran = true).is_err());
        assert!(md.remote_read(u64::MAX, 1, |_| ran = true).is_err());
        assert!(!ran, "a rejected range must never reach the reader");
        assert_eq!(filled(&md), 0, "a rejected get fills nothing");
    }

    #[test]
    fn into_vec_moves_when_unshared_and_copies_when_shared() {
        let data = vec![7u8; 64];
        let ptr = data.as_ptr();
        let md = MemDesc::from_vec(data, MdOptions::default());
        let held = md.clone();
        let copied = md.into_vec();
        assert_eq!(copied, [7u8; 64]);
        assert_ne!(copied.as_ptr(), ptr, "a still-shared buffer is copied, not stolen");
        let moved = held.into_vec();
        assert_eq!(moved.as_ptr(), ptr, "the last handle takes the allocation");
    }

    #[test]
    fn remote_write_out_of_bounds_rejected() {
        let md = MemDesc::zeroed(8, MdOptions::default());
        md.remote_write(0, b"ab").unwrap();
        assert!(md.remote_write(7, b"ab").is_err());
        assert!(md.remote_write(u64::MAX, b"a").is_err());
        assert!(md.remote_write(6, &[]).is_ok());
        assert_eq!(md.snapshot(), b"ab\0\0\0\0\0\0", "a refused put writes nothing");
        // Boundary write is fine.
        assert!(md.remote_write(6, b"ab").is_ok());
        assert_eq!(md.len(), 8);
    }

    #[test]
    fn one_shot_consumes() {
        let md = MemDesc::zeroed(8, MdOptions { unlink_after: Some(2), ..MdOptions::default() });
        assert!(!md.consume_op());
        assert!(md.consume_op());
    }

    #[test]
    fn persistent_never_unlinks() {
        let md = MemDesc::zeroed(8, MdOptions::default());
        for _ in 0..100 {
            assert!(!md.consume_op());
        }
    }

    #[test]
    fn clone_shares_storage() {
        let a = MemDesc::zeroed(4, MdOptions::default());
        let b = a.clone();
        a.remote_write(0, b"wxyz").unwrap();
        assert_eq!(b.snapshot(), b"wxyz");
    }
}
