//! **lwfs-iolib** — the "Low-Level I/O Libs" box of the paper's Figure 2:
//! client-side *caching* and *prefetching* layered on the LWFS-core.
//!
//! The paper's introduction lists exactly these techniques among what
//! data-intensive applications gain from application-specific I/O stacks:
//! "tailoring prefetching and caching policies to match an application's
//! access patterns, reducing latency and avoiding unnecessary data
//! requests" (citing Kotz & Ellis and Patterson et al.), and "intelligent
//! application-control of data consistency and synchronization virtually
//! eliminating the need for file locking" (citing Coloma et al.).
//!
//! Because the LWFS-core imposes **no** consistency machinery, this layer
//! can make the classic single-writer assumptions cheaply:
//!
//! * [`CachedObject`] — a per-object block cache (read-through, LRU) with
//!   a write-back buffer the *application* flushes at its consistency
//!   points, plus sequential readahead.
//! * [`Lru`] — the dependency-free LRU index underneath.
//!
//! Consistency contract: a `CachedObject` assumes it is the object's only
//! writer between [`CachedObject::flush`] calls (the checkpoint/producer
//! pattern). Readers elsewhere see flushed data only — which is precisely
//! the application-controlled consistency the paper advocates instead of
//! server-side locking.

#![forbid(unsafe_code)]

pub mod cached;
pub mod lru;

pub use cached::{CacheConfig, CacheStats, CachedObject};
pub use lru::Lru;
