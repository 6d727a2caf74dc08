//! Durability integration for the reproduction's page stack: encoded video
//! payloads survive B+Tree flush + reopen, the tree holds thousands of
//! mixed-size entries, and pages written through a small LRU page cache
//! survive eviction, flush and a cold reopen with the free list intact.

use std::collections::HashSet;

use deeplens::codec::video::{decode_video, encode_video, VideoConfig};
use deeplens::codec::{Image, Quality};
use deeplens_bench::repro::storage::btree::{keys, BTree};
use deeplens_bench::repro::storage::buffer::BufferPool;
use deeplens_bench::repro::storage::page::{Page, PageId};
use deeplens_bench::repro::storage::pager::Pager;

fn workdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("deeplens-durability")
        .join(format!("{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_clip(n: usize, seed: u8) -> Vec<Image> {
    (0..n)
        .map(|t| {
            let mut img = Image::solid(48, 32, [seed, 90, 60]);
            img.fill_rect(t as i64 * 3, 8, 8, 8, [250, 240, 40]);
            img
        })
        .collect()
}

/// Encoded clips stored as B+Tree values (with overflow pages) decode
/// byte-identically after flush + reopen.
#[test]
fn encoded_clips_survive_reopen() {
    let dir = workdir("reopen");
    let path = dir.join("clips.dlb");
    let mut originals = Vec::new();
    {
        let mut tree = BTree::create(&path).unwrap();
        for c in 0..8u64 {
            let clip = tiny_clip(12, c as u8 * 30);
            let bytes = encode_video(&clip, VideoConfig::sequential(Quality::High)).unwrap();
            tree.insert(&keys::encode_u64(c), &bytes).unwrap();
            originals.push((c, bytes));
        }
        tree.flush().unwrap();
    }
    let tree = BTree::open(&path).unwrap();
    assert_eq!(tree.len(), 8);
    for (c, bytes) in &originals {
        let stored = tree.get(&keys::encode_u64(*c)).unwrap().unwrap();
        assert_eq!(&stored, bytes, "clip {c} must be byte-identical");
        // And it still decodes.
        assert_eq!(decode_video(&stored).unwrap().len(), 12);
    }
}

/// Frame files tolerate thousands of mixed-size entries with overflow.
#[test]
fn btree_stress_mixed_sizes() {
    let dir = workdir("stress");
    let mut tree = BTree::create(dir.join("stress.dlb")).unwrap();
    // Interleave small metadata records and large frame-like blobs.
    for i in 0..2_000u64 {
        if i % 10 == 0 {
            let blob: Vec<u8> = (0..8_000).map(|j| ((i + j) % 251) as u8).collect();
            tree.insert(&keys::encode_u64(i), &blob).unwrap();
        } else {
            tree.insert(&keys::encode_u64(i), format!("meta-{i}").as_bytes())
                .unwrap();
        }
    }
    assert_eq!(tree.len(), 2_000);
    for i in (0..2_000u64).step_by(100) {
        let v = tree.get(&keys::encode_u64(i)).unwrap().unwrap();
        if i % 10 == 0 {
            assert_eq!(v.len(), 8_000);
        } else {
            assert_eq!(v, format!("meta-{i}").into_bytes());
        }
    }
    // Ordered full scan sees every key exactly once.
    let all: Vec<_> = tree
        .scan_all()
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert_eq!(all.len(), 2_000);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}

/// Pages stamped through a pool far smaller than the working set (so dirty
/// pages are evicted and written back constantly) read back intact, survive
/// a flush and a cold reopen, and the free list returns exactly the freed
/// ids: no page lost, none freed twice, no live page handed out.
#[test]
fn pool_loses_no_pages_and_double_frees_nothing() {
    const PAGES: u32 = 384;
    let stamp = |i: u32| i.wrapping_mul(0x9E37_79B9) ^ 0xA5A5;

    let path = workdir("audit").join("pages.dlp");
    let pool = BufferPool::with_capacity(Pager::create(&path).unwrap(), 8);

    // Allocate and stamp every page, reading earlier ones back mid-stream
    // (through the cache or, once evicted, from disk) and flushing now and
    // then. Nothing is freed yet, so every id must be distinct.
    let mut pages: Vec<(PageId, u32)> = Vec::new();
    for i in 0..PAGES {
        let id = pool.allocate().unwrap();
        let mut page = Page::zeroed();
        page.put_u32(0, stamp(i));
        page.put_u32(4, id);
        pool.put(id, page).unwrap();
        pages.push((id, stamp(i)));
        if i % 5 == 0 {
            let (rid, rstamp) = pages[i as usize / 2];
            let got = pool.get(rid).unwrap();
            assert_eq!((got.get_u32(0), got.get_u32(4)), (rstamp, rid));
        }
        if i % 11 == 0 {
            pool.flush().unwrap();
        }
    }
    let unique: HashSet<PageId> = pages.iter().map(|&(id, _)| id).collect();
    assert_eq!(unique.len(), pages.len(), "no id handed out twice");

    // Free every third page; the survivors still read back.
    let mut freed = HashSet::new();
    let mut survivors = Vec::new();
    for (j, entry) in pages.into_iter().enumerate() {
        if j % 3 == 0 {
            pool.free(entry.0).unwrap();
            freed.insert(entry.0);
        } else {
            survivors.push(entry);
        }
    }
    for &(id, s) in &survivors {
        assert_eq!(pool.get(id).unwrap().get_u32(0), s);
    }

    // Flush, drop the pool, reopen the file cold.
    pool.flush().unwrap();
    drop(pool);
    let mut pager = Pager::open(&path).unwrap();
    for &(id, s) in &survivors {
        let page = pager.read_page(id).unwrap();
        assert_eq!(page.get_u32(0), s, "page {id} lost after reopen");
        assert_eq!(page.get_u32(4), id);
    }

    // Draining the free list yields each freed id exactly once and never a
    // surviving page; then allocation extends the file.
    let live: HashSet<PageId> = survivors.iter().map(|&(id, _)| id).collect();
    let mut recycled = HashSet::new();
    for _ in 0..freed.len() {
        let id = pager.allocate().unwrap();
        assert!(recycled.insert(id), "double-free: {id} allocated twice");
        assert!(!live.contains(&id), "live page {id} handed out");
    }
    assert_eq!(recycled, freed, "free list returns exactly the freed pages");
    let fresh = pager.allocate().unwrap();
    assert!(!recycled.contains(&fresh) && !live.contains(&fresh));
}
