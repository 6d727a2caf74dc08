//! Sharded LRU buffer pool between the access methods and the pager.
//!
//! The pool caches page images, absorbs repeated reads during tree descents,
//! and defers writes until eviction or an explicit flush. The slot map is
//! split across [`DEFAULT_SHARDS`] shards keyed by page id, each behind its
//! own ranked `OrderedRwLock`, with a reader/writer page-access protocol:
//!
//! * **reads** ([`BufferPool::get`]) probe their shard under a *read* latch
//!   — concurrent scans over distinct pages (and even the same page) never
//!   serialize on a cache hit; LRU bookkeeping rides on per-slot atomics so
//!   the read latch really is shared;
//! * **writes** ([`BufferPool::put`], misses, [`BufferPool::free`]) take
//!   only their shard's write latch — traffic on other shards proceeds;
//! * the underlying [`Pager`] (file I/O, allocation) stays behind one mutex.
//!
//! **Latch ordering**: shard latch before pager mutex, always — in
//! [`LockRank`] terms, `BufferShard` < `Pager`, the single source of truth
//! checked at runtime under `debug_assertions`. A dirty eviction write-back
//! acquires the pager while holding its shard; nothing ever acquires a shard
//! latch while holding the pager, and no operation holds two `BufferShard`
//! latches at once (the checker rejects a second same-rank acquisition) — so
//! the pool is deadlock-free.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use deeplens_analyze::sync::{LockRank, OrderedMutex, OrderedRwLock};

use super::page::{Page, PageId};
use super::pager::Pager;
use super::Result;

/// Default number of cached pages (1 MiB of 4 KiB pages plus metadata).
pub const DEFAULT_CAPACITY: usize = 256;

/// Default number of latch shards the slot map is split across.
pub const DEFAULT_SHARDS: usize = 8;

#[derive(Debug)]
struct Slot {
    page: Page,
    dirty: bool,
    /// Atomic so cache hits can bump recency under the shared read latch.
    last_used: AtomicU64,
}

#[derive(Debug, Default)]
struct Shard {
    slots: HashMap<PageId, Slot>,
}

/// A sharded buffer pool over a [`Pager`].
#[derive(Debug)]
pub struct BufferPool {
    shards: Vec<OrderedRwLock<Shard>>,
    /// Per-shard slot capacity (total capacity divided across shards).
    shard_capacity: usize,
    pager: OrderedMutex<Pager>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    /// Wrap a pager with the default capacity.
    pub fn new(pager: Pager) -> Self {
        Self::with_capacity(pager, DEFAULT_CAPACITY)
    }

    /// Wrap a pager with an explicit total page capacity (minimum 8),
    /// split across [`DEFAULT_SHARDS`] shards.
    pub fn with_capacity(pager: Pager, capacity: usize) -> Self {
        Self::with_capacity_and_shards(pager, capacity, DEFAULT_SHARDS)
    }

    /// Wrap a pager with explicit capacity and shard count (minimum 1
    /// shard, at least one slot per shard). The per-shard budget is
    /// `⌈capacity / shards⌉`, so the effective total rounds up by at most
    /// `shards − 1` slots, and a shard never caches more than its own
    /// share even when page ids skew toward it.
    pub fn with_capacity_and_shards(pager: Pager, capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_capacity = (capacity.max(8)).div_ceil(shards).max(1);
        BufferPool {
            shards: (0..shards)
                .map(|_| {
                    OrderedRwLock::new(
                        LockRank::BufferShard,
                        "BufferPool::shards",
                        Shard::default(),
                    )
                })
                .collect(),
            shard_capacity,
            pager: OrderedMutex::new(LockRank::Pager, "BufferPool::pager", pager),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of latch shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, id: PageId) -> &OrderedRwLock<Shard> {
        &self.shards[id as usize % self.shards.len()]
    }

    #[inline]
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Fetch a page image (from cache or disk).
    ///
    /// The hit path holds only a shard *read* latch: concurrent scans on
    /// cached pages never block each other.
    pub fn get(&self, id: PageId) -> Result<Page> {
        let tick = self.next_tick();
        let shard = self.shard_of(id);
        {
            let s = shard.read();
            if let Some(slot) = s.slots.get(&id) {
                slot.last_used.store(tick, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(slot.page.clone());
            }
        }
        // Miss path: upgrade to the shard's write latch and hold it across
        // the disk read + install. Reading off-latch would be faster for
        // the faulting thread but unsound: a concurrent put + eviction (or
        // a free) could land between the read and the install, and the
        // stale pre-put image would then be cached clean, shadowing the
        // newer bytes already written back to disk. Faults therefore
        // serialize per shard; hits on this and every other shard stay
        // shared.
        let mut s = shard.write();
        // Another miss may have installed the page while we waited — that
        // is a cache hit, not a second disk read, so count it as one.
        if let Some(slot) = s.slots.get(&id) {
            slot.last_used.store(tick, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(slot.page.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let page = self.pager.lock().read_page(id)?;
        self.insert_slot(&mut s, id, page.clone(), false, tick)?;
        Ok(page)
    }

    /// Install a (possibly new) page image and mark it dirty.
    pub fn put(&self, id: PageId, page: Page) -> Result<()> {
        let tick = self.next_tick();
        let mut s = self.shard_of(id).write();
        if let Some(slot) = s.slots.get_mut(&id) {
            slot.page = page;
            slot.dirty = true;
            slot.last_used.store(tick, Ordering::Relaxed);
            return Ok(());
        }
        self.insert_slot(&mut s, id, page, true, tick)
    }

    /// Allocate a fresh page id from the pager.
    pub fn allocate(&self) -> Result<PageId> {
        self.pager.lock().allocate()
    }

    /// Free a page, dropping any cached copy. The shard latch is held
    /// across the pager free; together with [`BufferPool::get`]'s
    /// read-under-write-latch fault protocol, no in-flight miss can
    /// re-cache a freed page's stale image afterwards.
    pub fn free(&self, id: PageId) -> Result<()> {
        let mut s = self.shard_of(id).write();
        s.slots.remove(&id);
        self.pager.lock().free(id)
    }

    /// Run a closure against the underlying pager (root pointers, stats).
    pub fn with_pager<T>(&self, f: impl FnOnce(&mut Pager) -> T) -> T {
        f(&mut self.pager.lock())
    }

    /// Write all dirty pages back and sync the file. Shards are drained one
    /// at a time (one latch held at once); pages dirtied behind the sweep
    /// by concurrent writers simply stay dirty for the next flush.
    pub fn flush(&self) -> Result<()> {
        for shard in &self.shards {
            let mut s = shard.write();
            let dirty: Vec<PageId> = s
                .slots
                .iter()
                .filter(|(_, slot)| slot.dirty)
                .map(|(id, _)| *id)
                .collect();
            if dirty.is_empty() {
                continue;
            }
            let mut pager = self.pager.lock();
            for id in dirty {
                let slot = s.slots.get_mut(&id).expect("slot present");
                pager.write_page(id, &slot.page)?;
                slot.dirty = false;
            }
        }
        self.pager.lock().sync()
    }

    /// `(hits, misses)` counters since creation.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Insert into a write-latched shard, evicting LRU victims past the
    /// per-shard capacity (dirty victims are written back through the
    /// pager; shard latch → pager mutex is the global lock order).
    fn insert_slot(
        &self,
        shard: &mut Shard,
        id: PageId,
        page: Page,
        dirty: bool,
        tick: u64,
    ) -> Result<()> {
        while shard.slots.len() >= self.shard_capacity {
            let victim = shard
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(id, _)| *id)
                .expect("non-empty map");
            let slot = shard.slots.remove(&victim).expect("victim present");
            if slot.dirty {
                self.pager.lock().write_page(victim, &slot.page)?;
            }
        }
        shard.slots.insert(
            id,
            Slot {
                page,
                dirty,
                last_used: AtomicU64::new(tick),
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("deeplens-buffer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.dlp", std::process::id()))
    }

    #[test]
    fn cached_reads_hit() {
        let path = tmpfile("hits");
        let mut pager = Pager::create(&path).unwrap();
        let id = pager.allocate().unwrap();
        let pool = BufferPool::new(pager);
        pool.get(id).unwrap();
        pool.get(id).unwrap();
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (1, 1));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn dirty_pages_survive_eviction() {
        let path = tmpfile("evict");
        let pager = Pager::create(&path).unwrap();
        let pool = BufferPool::with_capacity(pager, 8);
        // Write 32 distinct pages through a pool of total capacity 8.
        let ids: Vec<PageId> = (0..32).map(|_| pool.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let mut page = Page::zeroed();
            page.put_u32(0, i as u32 * 31 + 7);
            pool.put(id, page).unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.get(id).unwrap().get_u32(0), i as u32 * 31 + 7);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flush_persists_to_reopened_file() {
        let path = tmpfile("flush");
        {
            let pager = Pager::create(&path).unwrap();
            let pool = BufferPool::new(pager);
            let id = pool.allocate().unwrap();
            let mut page = Page::zeroed();
            page.put_slice(0, b"durable");
            pool.put(id, page).unwrap();
            pool.with_pager(|p| p.set_root_a(id));
            pool.flush().unwrap();
        }
        let mut pager = Pager::open(&path).unwrap();
        let root = pager.root_a();
        assert_eq!(pager.read_page(root).unwrap().get_slice(0, 7), b"durable");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn free_drops_cache_entry() {
        let path = tmpfile("free");
        let pager = Pager::create(&path).unwrap();
        let pool = BufferPool::new(pager);
        let id = pool.allocate().unwrap();
        let mut page = Page::zeroed();
        page.put_u32(0, 1);
        pool.put(id, page).unwrap();
        pool.free(id).unwrap();
        let id2 = pool.allocate().unwrap();
        assert_eq!(id2, id, "freed page reused through the pool");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pages_spread_across_shards() {
        let path = tmpfile("shards");
        let pager = Pager::create(&path).unwrap();
        let pool = BufferPool::with_capacity_and_shards(pager, 64, 4);
        assert_eq!(pool.shard_count(), 4);
        // Sequential page ids hash round-robin across shards, so a window
        // of adjacent pages never piles onto one latch.
        let ids: Vec<PageId> = (0..16).map(|_| pool.allocate().unwrap()).collect();
        let mut seen = std::collections::HashSet::new();
        for &id in &ids {
            seen.insert(id as usize % pool.shard_count());
        }
        assert_eq!(seen.len(), 4, "all shards populated");
        for &id in &ids {
            let mut p = Page::zeroed();
            p.put_u32(0, id * 3 + 1);
            pool.put(id, p).unwrap();
        }
        for &id in &ids {
            assert_eq!(pool.get(id).unwrap().get_u32(0), id * 3 + 1);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn concurrent_hits_share_the_read_latch() {
        // Smoke for the reader protocol: many threads hammering cache hits
        // on the same pages must all see the right bytes (the stress
        // version lives in tests/buffer_concurrency.rs).
        let path = tmpfile("shared-reads");
        let pager = Pager::create(&path).unwrap();
        let pool = BufferPool::with_capacity(pager, 64);
        let ids: Vec<PageId> = (0..8)
            .map(|i| {
                let id = pool.allocate().unwrap();
                let mut p = Page::zeroed();
                p.put_u32(0, i * 7 + 5);
                pool.put(id, p).unwrap();
                id
            })
            .collect();
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    for round in 0..50u32 {
                        for (i, &id) in ids.iter().enumerate() {
                            assert_eq!(
                                pool.get(id).unwrap().get_u32(0),
                                i as u32 * 7 + 5,
                                "round {round}"
                            );
                        }
                    }
                });
            }
        });
        let (hits, _) = pool.stats();
        assert!(hits >= 6 * 50 * 8, "every read after warmup is a hit");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn single_shard_pool_still_works() {
        let path = tmpfile("oneshard");
        let pager = Pager::create(&path).unwrap();
        let pool = BufferPool::with_capacity_and_shards(pager, 8, 1);
        assert_eq!(pool.shard_count(), 1);
        let id = pool.allocate().unwrap();
        let mut p = Page::zeroed();
        p.put_u32(0, 99);
        pool.put(id, p).unwrap();
        assert_eq!(pool.get(id).unwrap().get_u32(0), 99);
        std::fs::remove_file(path).ok();
    }
}
