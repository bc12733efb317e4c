//! The pinned transfer-buffer pool of Figure 6.
//!
//! A storage server stages one-sided transfers through a *fixed* set of
//! pinned buffers: that bound is what lets the server absorb a burst of
//! tens of thousands of requests without unbounded memory growth — requests
//! that cannot get a buffer wait in the queue or are rejected, and the
//! *server* decides when each transfer proceeds (server-directed I/O).

use std::sync::Arc;

use lwfs_obs::Gauge;
use parking_lot::Mutex;

/// A bounded pool of fixed-size transfer buffers.
pub struct PinnedBufferPool {
    buffer_size: usize,
    free: Mutex<Vec<Vec<u8>>>,
    total: usize,
    /// Optional occupancy gauge (buffers checked out), updated on every
    /// acquire and release. Updates are additive (inc/dec, never set) so
    /// several pools sharing one fabric-level gauge aggregate correctly.
    gauge: Option<Arc<Gauge>>,
}

impl PinnedBufferPool {
    /// Create a pool of `count` buffers of `buffer_size` bytes each.
    pub fn new(count: usize, buffer_size: usize) -> Self {
        Self::with_gauge(count, buffer_size, None)
    }

    /// Like [`new`](Self::new), but mirrors the in-use buffer count into
    /// `gauge` (typically `storage.pool_in_use` from the fabric registry).
    pub fn with_gauge(count: usize, buffer_size: usize, gauge: Option<Arc<Gauge>>) -> Self {
        assert!(count > 0 && buffer_size > 0, "pool must have real buffers");
        Self {
            buffer_size,
            free: Mutex::new((0..count).map(|_| vec![0u8; buffer_size]).collect()),
            total: count,
            gauge,
        }
    }

    pub fn buffer_size(&self) -> usize {
        self.buffer_size
    }

    pub fn capacity(&self) -> usize {
        self.total
    }

    pub fn available(&self) -> usize {
        self.free.lock().len()
    }

    /// Try to take a buffer; `None` when the pool is exhausted (the
    /// server counts that as `storage.busy_rejects`).
    pub fn try_acquire(&self) -> Option<PooledBuffer<'_>> {
        let data = self.free.lock().pop()?;
        if let Some(g) = &self.gauge {
            g.inc();
        }
        Some(PooledBuffer { pool: self, data: Some(data) })
    }
}

/// A buffer checked out of the pool; returned on drop.
pub struct PooledBuffer<'a> {
    pool: &'a PinnedBufferPool,
    data: Option<Vec<u8>>,
}

impl PooledBuffer<'_> {
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.data.as_mut().expect("buffer present until drop")
    }

    pub fn as_slice(&self) -> &[u8] {
        self.data.as_ref().expect("buffer present until drop")
    }
}

impl Drop for PooledBuffer<'_> {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            self.pool.free.lock().push(data);
            if let Some(g) = &self.pool.gauge {
                g.dec();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle() {
        let pool = PinnedBufferPool::new(2, 1024);
        assert_eq!(pool.available(), 2);
        let b1 = pool.try_acquire().unwrap();
        let b2 = pool.try_acquire().unwrap();
        assert_eq!(pool.available(), 0);
        assert!(pool.try_acquire().is_none());
        drop(b1);
        assert_eq!(pool.available(), 1);
        let b3 = pool.try_acquire().unwrap();
        drop(b2);
        drop(b3);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn buffers_have_requested_size() {
        let pool = PinnedBufferPool::new(1, 4096);
        let mut b = pool.try_acquire().unwrap();
        assert_eq!(b.as_slice().len(), 4096);
        b.as_mut_slice()[0] = 0xAB;
        assert_eq!(b.as_slice()[0], 0xAB);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = PinnedBufferPool::new(0, 1024);
    }

    #[test]
    fn gauge_tracks_occupancy() {
        let g = Arc::new(Gauge::new());
        let pool = PinnedBufferPool::with_gauge(2, 64, Some(Arc::clone(&g)));
        let b1 = pool.try_acquire().unwrap();
        assert_eq!(g.get(), 1);
        let b2 = pool.try_acquire().unwrap();
        assert_eq!(g.get(), 2);
        drop(b1);
        assert_eq!(g.get(), 1);
        drop(b2);
        assert_eq!(g.get(), 0);
    }
}
