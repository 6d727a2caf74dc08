//! Concurrency + durability battery for the sharded buffer pool: N threads
//! hammer one pool with mixed get/put/allocate/free/flush traffic, then the
//! pager file is reopened cold and audited — no lost pages, no double-frees
//! (extends the WAL/B+Tree coverage in `tests/durability.rs` to the pool).

use std::collections::HashSet;

use deeplens_bench::repro::storage::buffer::BufferPool;
use deeplens_bench::repro::storage::page::{Page, PageId};
use deeplens_bench::repro::storage::pager::Pager;

fn tmpfile(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("deeplens-buffer-concurrency");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.dlp", std::process::id()))
}

/// The content stamp a page is expected to carry.
fn stamp(thread: usize, i: usize) -> u32 {
    (thread as u32) << 16 | (i as u32) ^ 0xA5A5
}

/// One thread's outcome: pages it kept (with their stamps) and pages it freed.
type ThreadOutcome = (Vec<(PageId, u32)>, Vec<PageId>);

#[test]
fn hammered_pool_loses_no_pages_and_double_frees_nothing() {
    const THREADS: usize = 8;
    const PAGES_PER_THREAD: usize = 48;

    let path = tmpfile("hammer");
    let pager = Pager::create(&path).unwrap();
    // Small capacity: evictions (and their dirty write-backs) happen
    // constantly under concurrency.
    let pool = BufferPool::with_capacity(pager, 32);
    // All threads finish allocating before any thread frees — otherwise a
    // freed page legitimately recycles into a later allocation and the
    // global uniqueness audit below has nothing to audit.
    let barrier = std::sync::Barrier::new(THREADS);

    // Phase 1: each thread allocates its own pages, stamps them, reads its
    // own pages back mid-stream, frees a third, and flushes occasionally.
    let per_thread: Vec<ThreadOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let pool = &pool;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut mine: Vec<(PageId, u32)> = Vec::new();
                    for i in 0..PAGES_PER_THREAD {
                        let id = pool.allocate().unwrap();
                        let mut page = Page::zeroed();
                        page.put_u32(0, stamp(t, i));
                        page.put_u32(4, id);
                        pool.put(id, page).unwrap();
                        mine.push((id, stamp(t, i)));
                        if i % 5 == 0 {
                            // Read back an earlier page through the cache
                            // (or disk, if it was evicted).
                            let (rid, rstamp) = mine[i / 2];
                            let got = pool.get(rid).unwrap();
                            assert_eq!(got.get_u32(0), rstamp, "thread {t} read torn page");
                            assert_eq!(got.get_u32(4), rid);
                        }
                        if i % 11 == 0 {
                            pool.flush().unwrap();
                        }
                    }
                    barrier.wait();
                    // Free every third page.
                    let mut freed = Vec::new();
                    let mut kept = Vec::new();
                    for (j, entry) in mine.into_iter().enumerate() {
                        if j % 3 == 0 {
                            pool.free(entry.0).unwrap();
                            freed.push(entry.0);
                        } else {
                            kept.push(entry);
                        }
                    }
                    // Survivors still read back correctly post-free.
                    for &(id, s) in &kept {
                        assert_eq!(pool.get(id).unwrap().get_u32(0), s);
                    }
                    (kept, freed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let survivors: Vec<(PageId, u32)> = per_thread
        .iter()
        .flat_map(|(kept, _)| kept.clone())
        .collect();
    let freed: HashSet<PageId> = per_thread
        .iter()
        .flat_map(|(_, freed)| freed.clone())
        .collect();
    assert_eq!(
        survivors.len() + freed.len(),
        THREADS * PAGES_PER_THREAD,
        "every allocated page is accounted for"
    );
    // Allocation handed out globally unique ids across all threads.
    let unique: HashSet<PageId> = survivors
        .iter()
        .map(|(id, _)| *id)
        .chain(freed.iter().copied())
        .collect();
    assert_eq!(
        unique.len(),
        THREADS * PAGES_PER_THREAD,
        "no id handed out twice"
    );

    // Phase 2: durability. Flush, drop the pool, reopen the file cold.
    pool.flush().unwrap();
    drop(pool);
    let mut pager = Pager::open(&path).unwrap();
    for &(id, s) in &survivors {
        let page = pager.read_page(id).unwrap();
        assert_eq!(page.get_u32(0), s, "page {id} lost after reopen");
        assert_eq!(page.get_u32(4), id);
    }

    // Phase 3: free-list integrity (no double-frees, no lost pages). Every
    // freed page is recyclable exactly once: draining the free list yields
    // distinct ids, none of them colliding with a surviving page.
    let surviving_ids: HashSet<PageId> = survivors.iter().map(|(id, _)| *id).collect();
    let mut recycled = HashSet::new();
    for _ in 0..freed.len() {
        let id = pager.allocate().unwrap();
        assert!(recycled.insert(id), "double-free: {id} allocated twice");
        assert!(
            !surviving_ids.contains(&id),
            "free-list corruption: live page {id} handed out"
        );
    }
    assert_eq!(recycled, freed, "free list returns exactly the freed pages");
    // The list is now empty: further allocation extends the file.
    let fresh = pager.allocate().unwrap();
    assert!(!recycled.contains(&fresh) && !surviving_ids.contains(&fresh));

    std::fs::remove_file(path).ok();
}

/// Pure shared-read scaling path: after warmup every thread hits the cache,
/// and all of them see identical bytes for identical pages.
#[test]
fn concurrent_scans_on_distinct_shards_stay_consistent() {
    let path = tmpfile("scans");
    let pager = Pager::create(&path).unwrap();
    let pool = BufferPool::with_capacity(pager, 128);

    let ids: Vec<PageId> = (0..64)
        .map(|i| {
            let id = pool.allocate().unwrap();
            let mut p = Page::zeroed();
            p.put_u32(0, i * 13 + 1);
            pool.put(id, p).unwrap();
            id
        })
        .collect();
    let (_, misses_before) = pool.stats();

    std::thread::scope(|scope| {
        for t in 0..8usize {
            let pool = &pool;
            let ids = &ids;
            scope.spawn(move || {
                // Each thread walks the pages at its own stride so the
                // shard access pattern differs per thread.
                for round in 0..30 {
                    for (i, &id) in ids.iter().enumerate().skip(t % 4) {
                        let got = pool.get(id).unwrap().get_u32(0);
                        assert_eq!(got, i as u32 * 13 + 1, "round {round}");
                    }
                }
            });
        }
    });

    let (hits, misses) = pool.stats();
    assert_eq!(
        misses, misses_before,
        "warm cache: zero misses under scan load"
    );
    assert!(hits > 8 * 30 * 32, "hit traffic recorded");

    // Mixed readers + one flusher don't corrupt anything either.
    std::thread::scope(|scope| {
        let pool = &pool;
        let ids = &ids;
        scope.spawn(move || {
            for _ in 0..10 {
                pool.flush().unwrap();
            }
        });
        for _ in 0..4 {
            scope.spawn(move || {
                for (i, &id) in ids.iter().enumerate() {
                    assert_eq!(pool.get(id).unwrap().get_u32(0), i as u32 * 13 + 1);
                }
            });
        }
    });
    std::fs::remove_file(path).ok();
}
