//! LRU page cache between the access methods and the pager.
//!
//! The pool caches page images, absorbs repeated reads during tree descents,
//! and defers writes until eviction or an explicit flush. It has one owner:
//! the slot map, the tick counter and the [`Pager`] sit behind one
//! `RefCell`, so the B+Tree's `&self` reads and writes borrow it for the
//! length of a single call and nothing is locked. When the map is full the
//! least recently used page is evicted, and written back first if dirty.

use std::cell::RefCell;
use std::collections::HashMap;

use super::page::{Page, PageId};
use super::pager::Pager;
use super::Result;

/// Default number of cached pages (1 MiB of 4 KiB pages plus metadata).
pub const DEFAULT_CAPACITY: usize = 256;

#[derive(Debug)]
struct Slot {
    page: Page,
    dirty: bool,
    last_used: u64,
}

#[derive(Debug)]
struct Inner {
    pager: Pager,
    slots: HashMap<PageId, Slot>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A single-owner LRU page cache over a [`Pager`].
#[derive(Debug)]
pub struct BufferPool {
    inner: RefCell<Inner>,
}

impl BufferPool {
    /// Wrap a pager with the default capacity.
    pub fn new(pager: Pager) -> Self {
        Self::with_capacity(pager, DEFAULT_CAPACITY)
    }

    /// Wrap a pager with an explicit page capacity (minimum 8).
    pub fn with_capacity(pager: Pager, capacity: usize) -> Self {
        BufferPool {
            inner: RefCell::new(Inner {
                pager,
                slots: HashMap::new(),
                capacity: capacity.max(8),
                tick: 0,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Fetch a page image (from cache or disk).
    pub fn get(&self, id: PageId) -> Result<Page> {
        let inner = &mut *self.inner.borrow_mut();
        inner.tick += 1;
        if let Some(slot) = inner.slots.get_mut(&id) {
            slot.last_used = inner.tick;
            inner.hits += 1;
            return Ok(slot.page.clone());
        }
        inner.misses += 1;
        let page = inner.pager.read_page(id)?;
        inner.insert_slot(id, page.clone(), false)?;
        Ok(page)
    }

    /// Install a (possibly new) page image and mark it dirty.
    pub fn put(&self, id: PageId, page: Page) -> Result<()> {
        let inner = &mut *self.inner.borrow_mut();
        inner.tick += 1;
        if let Some(slot) = inner.slots.get_mut(&id) {
            slot.page = page;
            slot.dirty = true;
            slot.last_used = inner.tick;
            return Ok(());
        }
        inner.insert_slot(id, page, true)
    }

    /// Allocate a fresh page id from the pager.
    pub fn allocate(&self) -> Result<PageId> {
        self.inner.borrow_mut().pager.allocate()
    }

    /// Free a page, dropping any cached copy.
    pub fn free(&self, id: PageId) -> Result<()> {
        let inner = &mut *self.inner.borrow_mut();
        inner.slots.remove(&id);
        inner.pager.free(id)
    }

    /// Run a closure against the underlying pager (root pointers, stats).
    pub fn with_pager<T>(&self, f: impl FnOnce(&mut Pager) -> T) -> T {
        f(&mut self.inner.borrow_mut().pager)
    }

    /// Write all dirty pages back and sync the file.
    pub fn flush(&self) -> Result<()> {
        let Inner { pager, slots, .. } = &mut *self.inner.borrow_mut();
        for (&id, slot) in slots.iter_mut().filter(|(_, slot)| slot.dirty) {
            pager.write_page(id, &slot.page)?;
            slot.dirty = false;
        }
        pager.sync()
    }

    /// `(hits, misses)` counters since creation.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.hits, inner.misses)
    }
}

impl Inner {
    /// Insert a slot stamped with the current tick, first evicting LRU
    /// victims past capacity (dirty victims are written back).
    fn insert_slot(&mut self, id: PageId, page: Page, dirty: bool) -> Result<()> {
        while self.slots.len() >= self.capacity {
            let victim = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(id, _)| *id)
                .expect("non-empty map");
            let slot = self.slots.remove(&victim).expect("victim present");
            if slot.dirty {
                self.pager.write_page(victim, &slot.page)?;
            }
        }
        let last_used = self.tick;
        self.slots.insert(
            id,
            Slot {
                page,
                dirty,
                last_used,
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
        // Write 32 distinct pages through a pool of capacity 8.
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
}
