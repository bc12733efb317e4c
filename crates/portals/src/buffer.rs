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
    pub data: Mutex<Vec<u8>>,
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
    /// Create a descriptor over a fresh zeroed buffer of `len` bytes.
    pub fn zeroed(len: usize, options: MdOptions) -> Self {
        Self::from_vec(vec![0u8; len], options)
    }

    /// Create a descriptor taking ownership of `data`.
    pub fn from_vec(data: Vec<u8>, options: MdOptions) -> Self {
        let remaining = options.unlink_after.unwrap_or(u32::MAX);
        Self {
            inner: Arc::new(MdInner {
                data: Mutex::new(data),
                options,
                remaining_ops: Mutex::new(remaining),
            }),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.data.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn options(&self) -> MdOptions {
        self.inner.options
    }

    /// Copy the buffer contents out (owner-side read).
    pub fn snapshot(&self) -> Vec<u8> {
        self.inner.data.lock().clone()
    }

    /// Take the buffer out of a descriptor nothing else refers to any more
    /// (the owner has unlinked it and every remote operation has returned):
    /// no bytes move. If a clone of the handle is still alive — a put that
    /// looked the descriptor up before the unlink and has not finished —
    /// the contents are copied instead, as [`snapshot`](Self::snapshot) does.
    pub fn into_vec(self) -> Vec<u8> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.data.into_inner(),
            Err(shared) => shared.data.lock().clone(),
        }
    }

    /// Remote read of `[offset, offset+len)`: `read` sees the range in
    /// place, after the bounds check, so the caller decides where the one
    /// copy lands and a bad range costs no allocation. Enforced against
    /// [`MdOptions::allow_get`] by the endpoint, bounds-checked here.
    pub(crate) fn remote_read<R>(
        &self,
        offset: u64,
        len: usize,
        read: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let guard = self.inner.data.lock();
        let start =
            usize::try_from(offset).map_err(|_| Error::Malformed("md offset overflow".into()))?;
        let end =
            start.checked_add(len).ok_or_else(|| Error::Malformed("md length overflow".into()))?;
        if end > guard.len() {
            return Err(Error::Malformed(format!(
                "remote get [{start}, {end}) exceeds md of {} bytes",
                guard.len()
            )));
        }
        Ok(read(&guard[start..end]))
    }

    /// Remote write of `data` at `offset`.
    pub(crate) fn remote_write(&self, offset: u64, data: &[u8]) -> Result<()> {
        let mut guard = self.inner.data.lock();
        let start =
            usize::try_from(offset).map_err(|_| Error::Malformed("md offset overflow".into()))?;
        let end = start
            .checked_add(data.len())
            .ok_or_else(|| Error::Malformed("md length overflow".into()))?;
        if end > guard.len() {
            return Err(Error::Malformed(format!(
                "remote put [{start}, {end}) exceeds md of {} bytes",
                guard.len()
            )));
        }
        guard[start..end].copy_from_slice(data);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_has_requested_len() {
        let md = MemDesc::zeroed(128, MdOptions::default());
        assert_eq!(md.len(), 128);
        assert!(md.snapshot().iter().all(|b| *b == 0));
    }

    #[test]
    fn remote_write_then_read_roundtrips() {
        let md = MemDesc::zeroed(16, MdOptions::default());
        md.remote_write(4, b"abcd").unwrap();
        let got = md.remote_read(4, 4, <[u8]>::to_vec).unwrap();
        assert_eq!(&got, b"abcd");
    }

    #[test]
    fn remote_read_out_of_bounds_rejected() {
        let md = MemDesc::zeroed(8, MdOptions::default());
        let mut ran = false;
        assert!(md.remote_read(4, 8, |_| ran = true).is_err());
        assert!(md.remote_read(u64::MAX, 1, |_| ran = true).is_err());
        assert!(!ran, "a rejected range must never reach the reader");
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
        assert!(md.remote_write(7, b"ab").is_err());
        // Boundary write is fine.
        assert!(md.remote_write(6, b"ab").is_ok());
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
