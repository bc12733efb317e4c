//! A cached, prefetching view of one LWFS object.
//!
//! Block-granular read cache (read-through, LRU) + write-back buffer +
//! sequential readahead. The application owns consistency: dirty blocks
//! reach the storage server only at [`CachedObject::flush`] (and evictions
//! of dirty blocks), matching the paper's "intelligent application-control
//! of data consistency" instead of server-side locking.

use std::collections::HashMap;

use lwfs_core::{CapSet, LwfsClient};
use lwfs_proto::{ObjId, Result};

use crate::lru::Lru;

/// Cache configuration.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Block size in bytes.
    pub block_size: usize,
    /// Maximum cached blocks.
    pub max_blocks: usize,
    /// Blocks to read ahead once a sequential scan is detected (0 = off).
    pub readahead_blocks: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { block_size: 64 * 1024, max_blocks: 64, readahead_blocks: 4 }
    }
}

/// Observable cache behaviour.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served entirely from cached blocks.
    pub hits: u64,
    /// Block fetches issued on demand.
    pub demand_fetches: u64,
    /// Block fetches issued by the readahead engine.
    pub prefetches: u64,
    /// Demand reads that found their block already prefetched.
    pub prefetch_hits: u64,
    /// Write RPCs issued (flushes + dirty evictions).
    pub writebacks: u64,
}

struct Block {
    data: Vec<u8>,
    dirty: bool,
    /// Came in via readahead and not yet demanded.
    prefetched: bool,
}

/// A cached view of `(server, object)`.
pub struct CachedObject<'a> {
    client: &'a LwfsClient,
    caps: CapSet,
    server: usize,
    obj: ObjId,
    config: CacheConfig,
    blocks: HashMap<u64, Block>,
    lru: Lru,
    stats: CacheStats,
    /// Last demanded block, for sequential-scan detection.
    last_block: Option<u64>,
}

impl<'a> CachedObject<'a> {
    pub fn new(
        client: &'a LwfsClient,
        caps: CapSet,
        server: usize,
        obj: ObjId,
        config: CacheConfig,
    ) -> Self {
        assert!(config.block_size > 0 && config.max_blocks > 0);
        let lru = Lru::new(config.max_blocks);
        Self {
            client,
            caps,
            server,
            obj,
            config,
            blocks: HashMap::new(),
            lru,
            stats: CacheStats::default(),
            last_block: None,
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn obj(&self) -> ObjId {
        self.obj
    }

    fn bs(&self) -> u64 {
        self.config.block_size as u64
    }

    /// Fetch a block from the server (full block; short at end of object).
    fn fetch(&mut self, blk: u64, prefetched: bool) -> Result<()> {
        if self.blocks.contains_key(&blk) {
            return Ok(());
        }
        let mut data = self.client.read(
            self.server,
            &self.caps,
            self.obj,
            blk * self.bs(),
            self.config.block_size,
        )?;
        data.resize(self.config.block_size, 0);
        if prefetched {
            self.stats.prefetches += 1;
        } else {
            self.stats.demand_fetches += 1;
        }
        self.insert_block(blk, Block { data, dirty: false, prefetched })?;
        Ok(())
    }

    fn insert_block(&mut self, blk: u64, block: Block) -> Result<()> {
        if let Some(victim) = self.lru.touch(blk) {
            if let Some(old) = self.blocks.remove(&victim) {
                if old.dirty {
                    self.writeback(victim, &old.data)?;
                }
            }
        }
        self.blocks.insert(blk, block);
        Ok(())
    }

    fn writeback(&mut self, blk: u64, data: &[u8]) -> Result<()> {
        self.client.write(self.server, &self.caps, None, self.obj, blk * self.bs(), data)?;
        self.stats.writebacks += 1;
        Ok(())
    }

    /// Ensure `blk` is resident, running the readahead policy.
    fn demand(&mut self, blk: u64) -> Result<()> {
        let resident = self.blocks.contains_key(&blk);
        if resident {
            let b = self.blocks.get_mut(&blk).expect("resident");
            if b.prefetched {
                b.prefetched = false;
                self.stats.prefetch_hits += 1;
            }
            self.lru.touch(blk);
        } else {
            self.fetch(blk, false)?;
        }
        // Sequential-scan detection: this block follows the previous
        // demand → read ahead.
        if self.config.readahead_blocks > 0 && self.last_block == Some(blk.wrapping_sub(1)) {
            for ahead in 1..=self.config.readahead_blocks as u64 {
                let target = blk + ahead;
                if !self.blocks.contains_key(&target) {
                    self.fetch(target, true)?;
                }
            }
        }
        self.last_block = Some(blk);
        Ok(())
    }

    /// Read `len` bytes at `offset` through the cache.
    pub fn read(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        let mut all_hit = true;
        while done < len {
            let pos = offset + done as u64;
            let blk = pos / self.bs();
            let within = (pos % self.bs()) as usize;
            let take = (self.config.block_size - within).min(len - done);
            if !self.blocks.contains_key(&blk) {
                all_hit = false;
            }
            self.demand(blk)?;
            let block = self.blocks.get(&blk).expect("demanded");
            out[done..done + take].copy_from_slice(&block.data[within..within + take]);
            done += take;
        }
        if all_hit {
            self.stats.hits += 1;
        }
        Ok(out)
    }

    /// Write `data` at `offset` into the cache (write-back: nothing
    /// reaches the server until flush or eviction).
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let blk = pos / self.bs();
            let within = (pos % self.bs()) as usize;
            let take = (self.config.block_size - within).min(data.len() - done);
            if !self.blocks.contains_key(&blk) {
                if within == 0 && take == self.config.block_size {
                    // Full-block overwrite: no need to fetch first.
                    self.insert_block(
                        blk,
                        Block {
                            data: vec![0u8; self.config.block_size],
                            dirty: false,
                            prefetched: false,
                        },
                    )?;
                } else {
                    self.fetch(blk, false)?;
                }
            }
            self.lru.touch(blk);
            let block = self.blocks.get_mut(&blk).expect("resident");
            block.data[within..within + take].copy_from_slice(&data[done..done + take]);
            block.dirty = true;
            block.prefetched = false;
            done += take;
        }
        Ok(())
    }

    /// Write every dirty block back and sync the object — the
    /// application's consistency point.
    pub fn flush(&mut self) -> Result<()> {
        let mut dirty: Vec<u64> =
            self.blocks.iter().filter(|(_, b)| b.dirty).map(|(k, _)| *k).collect();
        dirty.sort_unstable();
        for blk in dirty {
            let data = {
                let b = self.blocks.get_mut(&blk).expect("listed");
                b.dirty = false;
                b.data.clone()
            };
            self.writeback(blk, &data)?;
        }
        self.client.sync(self.server, &self.caps, Some(self.obj))
    }

    /// Drop every clean cached block (e.g. after an external writer is
    /// known to have changed the object). Dirty blocks are retained —
    /// discarding unflushed writes needs an explicit decision.
    pub fn invalidate_clean(&mut self) {
        let clean: Vec<u64> =
            self.blocks.iter().filter(|(_, b)| !b.dirty).map(|(k, _)| *k).collect();
        for blk in clean {
            self.blocks.remove(&blk);
            self.lru.remove(blk);
        }
        self.last_block = None;
    }

    /// Number of dirty blocks awaiting flush.
    pub fn dirty_blocks(&self) -> usize {
        self.blocks.values().filter(|b| b.dirty).count()
    }
}

impl Drop for CachedObject<'_> {
    fn drop(&mut self) {
        // Best-effort flush: losing buffered writes silently would violate
        // least surprise; applications that want failure handling call
        // `flush` themselves.
        let _ = self.flush();
    }
}
