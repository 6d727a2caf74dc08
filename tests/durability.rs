//! Durability integration: encoded video payloads survive B+Tree persistence
//! and WAL-based crash recovery.

use deeplens::codec::video::{decode_video, encode_video, VideoConfig};
use deeplens::codec::{Image, Quality};
use deeplens_bench::repro::storage::btree::{keys, BTree};
use deeplens_bench::repro::storage::pager::Pager;
use deeplens_bench::repro::storage::wal::Wal;

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

/// A committed WAL transaction survives a simulated crash (main file never
/// updated) and recovery reproduces the page contents.
#[test]
fn wal_crash_recovery_restores_pages() {
    let dir = workdir("crash");
    let db = dir.join("main.dlp");
    let wal_path = dir.join("main.wal");

    // Set up a database with one allocated page, then "crash" after logging
    // new content to the WAL but before writing the main file.
    let pid;
    {
        let mut pager = Pager::create(&db).unwrap();
        pid = pager.allocate().unwrap();
        pager.sync().unwrap();

        let mut wal = Wal::open(&wal_path).unwrap();
        let mut page = deeplens_bench::repro::storage::page::Page::zeroed();
        page.put_slice(0, b"post-crash content");
        wal.log_page(pid, &page.to_bytes()).unwrap();
        wal.commit().unwrap();
        // Crash: pager dropped without writing the page.
    }

    // Recovery path.
    let mut pager = Pager::open(&db).unwrap();
    let applied = Wal::recover_into(&wal_path, &mut pager).unwrap();
    assert_eq!(applied, 1);
    let page = pager.read_page(pid).unwrap();
    assert_eq!(page.get_slice(0, 18), b"post-crash content");
}

/// An uncommitted transaction is discarded by recovery — the page keeps its
/// pre-crash contents.
#[test]
fn wal_uncommitted_transaction_discarded() {
    let dir = workdir("uncommitted");
    let db = dir.join("main.dlp");
    let wal_path = dir.join("main.wal");

    let pid;
    {
        let mut pager = Pager::create(&db).unwrap();
        pid = pager.allocate().unwrap();
        let mut committed = deeplens_bench::repro::storage::page::Page::zeroed();
        committed.put_slice(0, b"committed state");
        pager.write_page(pid, &committed).unwrap();
        pager.sync().unwrap();

        let mut wal = Wal::open(&wal_path).unwrap();
        let mut uncommitted = deeplens_bench::repro::storage::page::Page::zeroed();
        uncommitted.put_slice(0, b"torn transaction");
        wal.log_page(pid, &uncommitted.to_bytes()).unwrap();
        // No commit record: crash.
    }

    let mut pager = Pager::open(&db).unwrap();
    let applied = Wal::recover_into(&wal_path, &mut pager).unwrap();
    assert_eq!(applied, 0, "uncommitted work must not replay");
    assert_eq!(
        pager.read_page(pid).unwrap().get_slice(0, 15),
        b"committed state"
    );
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
