//! Integration: incremental index maintenance + the snapshot-keyed result
//! cache. Queries over a delta-maintained index and replayed from the cache
//! answer as the oracle of the shared harness (`harness/mod.rs`), whose
//! whole sweep `tests/oracle.rs` runs.
//!
//! Re-materializing an indexed collection carries every index and
//! delta-maintains its Ball index (side structure + tombstones) until the
//! cost model merges it into a rebuild. The result cache stores an answer
//! once its query repeats and hands a cached scan's rows out without a
//! copy, until a write publishes a new version.

mod harness;

use std::sync::Arc;

use deeplens::core::scan::row_scan;
use deeplens::prelude::*;
use harness::{cases, sweep, sweep_scans, Kind};

fn feature_patches(ids: std::ops::Range<u64>, dim: usize, seed: u64) -> Vec<Patch> {
    let mut s = seed | 1;
    ids.map(|i| {
        let f: Vec<f32> = (0..dim)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
            })
            .collect();
        Patch::features(PatchId(i), ImgRef::frame("cam", i / 4), f)
            .with_meta("frameno", (i / 4) as i64)
            .with_meta("label", if i % 3 == 0 { "car" } else { "person" })
    })
    .collect()
}

/// Apply one generated write to the logical row set: append a tail,
/// replace a run of features in place, or shrink the collection.
fn apply_write(rows: &mut Vec<Patch>, dim: usize, op: (u8, u64)) {
    let (kind, seed) = op;
    match kind % 3 {
        0 => {
            let next_id = rows.iter().map(|p| p.id.0 + 1).max().unwrap_or(0);
            let grow = 8 + (seed % 24);
            rows.extend(feature_patches(next_id..next_id + grow, dim, seed));
        }
        1 if !rows.is_empty() => {
            let start = (seed as usize) % rows.len();
            let run = 1 + (seed as usize % 16).min(rows.len() - start - 1);
            let fresh = feature_patches(0..run as u64, dim, seed ^ 0xdead);
            for (slot, f) in rows[start..start + run].iter_mut().zip(fresh) {
                *slot = Patch::features(slot.id, slot.img_ref.clone(), {
                    f.data.features().unwrap().to_vec()
                });
            }
        }
        _ => {
            let keep = rows.len() * 3 / 4;
            rows.truncate(keep);
        }
    }
}

/// A repeated scan of an unchanged collection is handed the rows the scan
/// that stored them materialized — the same allocation, not a copy — with
/// the populating run's stats. A write publishes a new version, and the
/// same filter then materializes the new rows into a fresh allocation.
#[test]
fn cached_scan_rows_are_shared_until_a_write() {
    let catalog = Arc::new(SharedCatalog::new());
    let session = Session::ephemeral_attached(Arc::clone(&catalog)).unwrap();
    catalog.materialize("col", feature_patches(0..400, 5, 31));
    session.build_columnar("col").unwrap();
    let window = ScanFilter::FrameRange { lo: 10, hi: 60 };

    let first = session.scan("col", &window, Projection::Full).unwrap();
    // The repeat is stored: it is the populating run.
    let miss = session.scan("col", &window, Projection::Full).unwrap();
    assert!(miss.stats.used_columnar);
    assert_eq!(miss.patches.len(), 200);
    assert_eq!(miss.patches, first.patches);
    let hits0 = catalog.result_cache().hits();
    let hit = session.scan("col", &window, Projection::Full).unwrap();
    assert!(catalog.result_cache().hits() > hits0, "repeat must hit");
    assert_eq!(
        hit.patches.as_ptr(),
        miss.patches.as_ptr(),
        "a hit must share the cached rows, not copy them"
    );
    assert_eq!(hit.stats, miss.stats, "a hit replays the populating stats");

    let after = feature_patches(0..400, 5, 32);
    catalog.materialize("col", after.clone());
    let fresh = session.scan("col", &window, Projection::Full).unwrap();
    assert_ne!(
        fresh.patches.as_ptr(),
        miss.patches.as_ptr(),
        "a post-write scan must not replay the pre-write rows"
    );
    let expected =
        PatchCollection::from_patches(after).scan(&window, Projection::Full, &WorkerPool::new(1));
    assert_eq!(fresh.patches, expected.patches);
    assert_ne!(fresh.patches, miss.patches);
}

#[test]
fn carry_forward_preserves_indexes_and_scans_the_new_rows() {
    let catalog = Arc::new(SharedCatalog::with_shards_and_cache(4, 0));
    let mut rows = feature_patches(0..400, 5, 42);
    catalog.materialize("col", rows.clone());
    catalog
        .build_hash_index("col", "by_label", "label")
        .unwrap();
    catalog.build_columnar("col").unwrap();
    catalog.build_ball_index("col", "feat", 1).unwrap();

    // A small in-place change (~2% of rows) plus a re-materialize: every
    // index must survive the publish, and a scan must read the new rows.
    apply_write(&mut rows, 5, (1, 7));
    catalog.materialize("col", rows.clone());

    let snap = catalog.snapshot("col").unwrap();
    let mut names = snap.index_names();
    names.sort_unstable();
    assert_eq!(names, ["by_label", "feat"]);
    let window = ScanFilter::FrameRange { lo: 10, hi: 60 };
    let scanned = snap.scan(&window, Projection::Full, &WorkerPool::new(1));
    assert_eq!(
        scanned.patches,
        row_scan(&rows, &window, Projection::Full).patches
    );
    // A 2% change is delta-maintained, not merged.
    assert_eq!(catalog.counters().index_deltas_maintained, 1);
    assert_eq!(catalog.counters().index_delta_merges, 0);

    // The carried indexes answer over the *new* rows.
    let fresh = {
        let mut c = PatchCollection::from_patches(rows);
        c.build_hash_index("by_label", "label").unwrap();
        c.build_ball_index("feat", 1).unwrap();
        c
    };
    let car = Value::from("car");
    assert_eq!(
        snap.lookup_eq("by_label", &car).unwrap(),
        fresh.lookup_eq("by_label", &car).unwrap()
    );
    assert_eq!(
        snap.lookup_similar("feat", &[5.0; 5], 4.0).unwrap(),
        fresh.lookup_similar("feat", &[5.0; 5], 4.0).unwrap()
    );
}

#[test]
fn large_delta_crosses_merge_threshold_small_delta_does_not() {
    let catalog = Arc::new(SharedCatalog::with_shards_and_cache(4, 0));
    let rows = feature_patches(0..512, 5, 3);
    catalog.materialize("col", rows.clone());
    catalog.build_ball_index("col", "feat", 1).unwrap();

    // One changed row: far under the cost model's break-even fraction.
    let mut small = rows.clone();
    apply_write(&mut small, 5, (1, 0));
    catalog.materialize("col", small);
    assert_eq!(catalog.counters().index_deltas_maintained, 1);
    assert_eq!(catalog.counters().index_delta_merges, 0);

    // Replace ~all rows: the priced merge must trigger a full rebuild.
    let replaced = feature_patches(0..512, 5, 777);
    catalog.materialize("col", replaced.clone());
    assert_eq!(
        catalog.counters().index_delta_merges,
        1,
        "a ~100% delta must be merged into a rebuild"
    );

    // Either way the published index answers like a fresh build.
    let mut fresh = PatchCollection::from_patches(replaced);
    fresh.build_ball_index("feat", 1).unwrap();
    let snap = catalog.snapshot("col").unwrap();
    assert_eq!(
        snap.lookup_similar("feat", &[5.0; 5], 5.0).unwrap(),
        fresh.lookup_similar("feat", &[5.0; 5], 5.0).unwrap()
    );
}

/// A seeded run of writes of every size — a few rows to all of them,
/// appends and shrinks, and a write that drops the index now and then —
/// carries the Ball index as the carry that built every delta before
/// pricing it did: the catalog's `index_deltas_maintained` and
/// `index_delta_merges` counts after each write are that carry's, pinned as
/// one checksum, and the carried index answers like a fresh build.
#[test]
fn carry_counts_over_seeded_writes_are_pinned() {
    let catalog = Arc::new(SharedCatalog::with_shards_and_cache(4, 0));
    let dim = 5;
    let mut rows = feature_patches(0..400, dim, 9);
    let mut checksum = 0u64;
    let mut steps = Vec::new();
    let mut s = 0x5EED_u64;
    for step in 0..80 {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let seed = s >> 20;
        if step == 0 {
            catalog.materialize("col", rows.clone());
            catalog.build_ball_index("col", "feat", 1).unwrap();
        }
        match seed % 8 {
            0..=2 => apply_write(&mut rows, dim, ((seed >> 8) as u8, seed >> 16)),
            3..=6 => {
                // Rewrite a run of any length up to every row.
                let start = (seed >> 8) as usize % rows.len();
                let run = 1 + (seed >> 24) as usize % (rows.len() - start);
                let fresh = feature_patches(0..run as u64, dim, seed);
                for (slot, f) in rows[start..start + run].iter_mut().zip(fresh) {
                    slot.data = f.data;
                }
            }
            _ => {
                // One row loses its features: the carry drops the index.
                let at = (seed >> 8) as usize % rows.len();
                let mut dropped = rows.clone();
                dropped[at].data = PatchData::Empty;
                catalog.materialize("col", dropped);
                assert!(catalog.snapshot("col").unwrap().index_names().is_empty());
                catalog.materialize("col", rows.clone());
                catalog.build_ball_index("col", "feat", 1).unwrap();
            }
        }
        if rows.is_empty() {
            rows = feature_patches(0..400, dim, seed);
        }
        catalog.materialize("col", rows.clone());
        let counts = catalog.counters();
        let counts = (counts.index_deltas_maintained, counts.index_delta_merges);
        checksum = (checksum ^ counts.0 ^ (counts.1 << 32)).wrapping_mul(0x100_0000_01b3);
        steps.push(counts);
        let snap = catalog.snapshot("col").unwrap();
        let mut fresh = PatchCollection::from_patches(rows.clone());
        fresh.build_ball_index("feat", 1).unwrap();
        let q = rows[step % rows.len()].data.features().unwrap().to_vec();
        assert_eq!(
            snap.lookup_similar("feat", &q, 6.0).unwrap(),
            fresh.lookup_similar("feat", &q, 6.0).unwrap(),
            "step {step}"
        );
    }
    assert_eq!(
        (steps.last().copied(), checksum),
        (Some((36, 44)), 0x35FD_CF01_23EF_5189),
        "per-write counts: {steps:?}"
    );
}

/// The cache stores an answer only once its query repeats: a scan and a
/// batch member issued once are answered and not stored, the second issue
/// stores them, and the third is a hit that shares the stored rows. A query
/// is known across versions, so after a write the same query is stored on
/// its first miss at the new version.
#[test]
fn answers_are_stored_once_their_query_repeats() {
    let catalog = Arc::new(SharedCatalog::new());
    let session = Session::ephemeral_attached(Arc::clone(&catalog)).unwrap();
    catalog.materialize("col", feature_patches(0..400, 5, 51));
    catalog.build_ball_index("col", "feat", 1).unwrap();
    let cache = catalog.result_cache();
    let window = ScanFilter::FrameRange { lo: 10, hi: 60 };
    let scan = || session.scan("col", &window, Projection::Full).unwrap();
    let probe = || {
        let mut b = session.batch();
        b.index_probe("col", "feat", vec![4.0; 5], 3.0);
        b.run().unwrap()
    };

    let len0 = cache.len();
    let once = scan();
    let once_probe = probe();
    assert_eq!(cache.len(), len0, "a query issued once is not stored");

    let twice = scan();
    assert_eq!(probe(), once_probe);
    assert_eq!(cache.len(), len0 + 2, "the second issue stores both");
    assert_eq!(twice.patches, once.patches);
    assert_ne!(twice.patches.as_ptr(), once.patches.as_ptr());

    let hits0 = cache.hits();
    assert_eq!(scan().patches.as_ptr(), twice.patches.as_ptr());
    assert_eq!(probe(), once_probe);
    assert_eq!(cache.hits(), hits0 + 2, "the third issue hits");

    // A write: both queries were stored at the old version, so their
    // first miss at the new version is stored.
    let after = feature_patches(0..400, 5, 52);
    catalog.materialize("col", after.clone());
    let len1 = cache.len();
    let misses1 = cache.misses();
    let fresh = scan();
    let fresh_probe = probe();
    assert_eq!(cache.misses(), misses1 + 2, "a write makes both miss");
    assert_eq!(cache.len(), len1 + 2, "stored on the first miss");
    let hits1 = cache.hits();
    assert_eq!(scan().patches.as_ptr(), fresh.patches.as_ptr());
    assert_eq!(probe(), fresh_probe);
    assert_eq!(cache.hits(), hits1 + 2);
    let expected =
        PatchCollection::from_patches(after).scan(&window, Projection::Full, &WorkerPool::new(1));
    assert_eq!(fresh.patches, expected.patches);
}

/// Probes, joins and dedups over `big`, its index delta-maintained across
/// random writes, in a batch and under every plan.
#[test]
fn delta_maintained_queries_match_full_rebuild() {
    cases("delta_maintained_queries_match_full_rebuild", 1, |g| {
        sweep(g.next_u64(), |q| q.l == "big" || q.r == "big");
    });
}

/// Every answer is stored (by a batch, the wire and batches of one) before
/// the writes; after them, each query that reads a written collection
/// misses the cache on its first issue and answers as the oracle, and so
/// does each scan of the rewritten log.
#[test]
fn post_write_queries_never_serve_stale_results() {
    cases("post_write_queries_never_serve_stale_results", 1, |g| {
        let seed = g.next_u64();
        sweep(seed, |_| true);
        sweep_scans(seed);
    });
}

/// Every member of a batch is stored on its repeat and replayed from the
/// cache, and the replay answers as the oracle.
#[test]
fn cached_batch_members_replay_identically() {
    cases("cached_batch_members_replay_identically", 1, |g| {
        sweep(g.next_u64(), |q| q.kind != Kind::Filtered);
    });
}
