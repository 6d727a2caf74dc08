//! Integration: incremental index maintenance + the snapshot-keyed result
//! cache.
//!
//! The contract under test is twofold. First, re-materializing an indexed
//! collection delta-maintains its Ball index (side structure + tombstones)
//! instead of discarding the tree, and every query shape that can touch
//! the index — probes, joins, dedups — answers byte-identically to a
//! collection whose index was rebuilt from scratch, across random write
//! interleavings and 1/2/4 worker threads. Second, the result cache can
//! never serve a stale answer: every publish path stamps a fresh snapshot
//! version, so post-write queries miss and recompute.

use std::sync::Arc;

use deeplens::core::scan::row_scan;
use deeplens::prelude::*;
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random write interleavings over an indexed collection: after every
    /// publish the delta-maintained index must answer probes, joins, and
    /// dedups byte-identically to a collection freshly materialized and
    /// freshly indexed over the same rows — at 1, 2, and 4 worker threads,
    /// with all configurations agreeing on the bytes.
    #[test]
    fn delta_maintained_queries_match_full_rebuild(
        n in 40u64..160,
        writes in prop::collection::vec((0u8..3, any::<u64>()), 2..6),
        tau in 1.0f32..6.0,
        seed in any::<u64>(),
    ) {
        let dim = 6usize;
        let mut reference_bytes: Option<Vec<BatchResult>> = None;
        for threads in [1usize, 2, 4] {
            // The evolving side: one catalog, the index built once and then
            // carried (delta-maintained or cost-model-merged) across every
            // subsequent materialize. Cache off so every run recomputes.
            let evolving = Arc::new(SharedCatalog::with_shards_and_cache(4, 0));
            let mut rows = feature_patches(0..n, dim, seed);
            evolving.materialize("col", rows.clone());
            evolving.build_ball_index("col", "feat", threads).unwrap();
            evolving.materialize("probes", feature_patches(0..24, dim, seed ^ 0xbeef));
            for &op in &writes {
                apply_write(&mut rows, dim, op);
                evolving.materialize("col", rows.clone());
            }

            // The reference: the final rows materialized once, the index
            // built from scratch — the pre-incremental semantics.
            let rebuilt = Arc::new(SharedCatalog::with_shards_and_cache(4, 0));
            rebuilt.materialize("col", rows.clone());
            rebuilt.build_ball_index("col", "feat", threads).unwrap();
            rebuilt.materialize("probes", feature_patches(0..24, dim, seed ^ 0xbeef));

            // Direct index probes.
            let e = evolving.snapshot("col").unwrap();
            let r = rebuilt.snapshot("col").unwrap();
            for q in 0..4u64 {
                let probe: Vec<f32> = (0..dim).map(|d| ((q + d as u64) % 9) as f32).collect();
                prop_assert_eq!(
                    e.lookup_similar("feat", &probe, tau).unwrap(),
                    r.lookup_similar("feat", &probe, tau).unwrap(),
                    "probe diverged at {} threads", threads
                );
            }

            // Batched join / dedup / probe through the session layer.
            let run_batch = |catalog: &Arc<SharedCatalog>| {
                let mut s = Session::ephemeral_attached(Arc::clone(catalog)).unwrap();
                s.set_threads(threads);
                let mut b = s.batch();
                b.similarity_join("probes", "col", tau);
                b.dedup("col", tau);
                b.index_probe("col", "feat", vec![5.0; dim], tau);
                b.run().unwrap()
            };
            let got = run_batch(&evolving);
            prop_assert_eq!(&got, &run_batch(&rebuilt), "{} threads", threads);
            match &reference_bytes {
                None => reference_bytes = Some(got),
                Some(want) => prop_assert_eq!(
                    want, &got,
                    "{} threads diverged from the 1-thread bytes", threads
                ),
            }
        }
    }
}

#[test]
fn post_write_queries_never_serve_stale_results() {
    let catalog = Arc::new(SharedCatalog::new());
    let session = Session::ephemeral_attached(Arc::clone(&catalog)).unwrap();
    let reference =
        Session::ephemeral_attached(Arc::new(SharedCatalog::with_shards_and_cache(16, 0))).unwrap();

    let before = feature_patches(0..120, 5, 1);
    catalog.materialize("col", before.clone());
    reference.catalog.materialize("col", before);

    // Populate then replay: the cache stores an answer when its query
    // repeats, so the third issue must be a cache hit.
    let first = session.dedup_collection("col", 2.0).unwrap();
    assert_eq!(session.dedup_collection("col", 2.0).unwrap(), first);
    let hits0 = catalog.result_cache().hits();
    let replay = session.dedup_collection("col", 2.0).unwrap();
    assert_eq!(first, replay);
    assert!(catalog.result_cache().hits() > hits0, "replay must hit");

    // Overwrite through every publish path in turn; after each, the same
    // query must recompute against the new version, never replay `first`.
    let after = feature_patches(0..120, 5, 999);
    catalog.materialize("col", after.clone());
    reference.catalog.materialize("col", after);
    let misses0 = catalog.result_cache().misses();
    let post_write = session.dedup_collection("col", 2.0).unwrap();
    assert!(
        catalog.result_cache().misses() > misses0,
        "post-write query must miss the cache"
    );
    assert_eq!(
        post_write,
        reference.dedup_collection("col", 2.0).unwrap(),
        "post-write answer must match an uncached catalog"
    );
    assert_ne!(post_write, first, "stale pre-write clusters were replayed");

    // Copy-on-write index/columnar builds bump the version too: a scan
    // cached before `build_columnar` cannot be replayed after it. The scan
    // is issued twice, so that it is resident before the build.
    let window = ScanFilter::FrameRange { lo: 5, hi: 20 };
    let v_before = catalog.snapshot("col").unwrap().version();
    session.scan("col", &window, Projection::Full).unwrap();
    let pre_build = session.scan("col", &window, Projection::Full).unwrap();
    assert_eq!(
        session
            .scan("col", &window, Projection::Full)
            .unwrap()
            .patches
            .as_ptr(),
        pre_build.patches.as_ptr(),
        "the pre-build scan must be resident"
    );
    session.build_columnar("col").unwrap();
    assert!(
        catalog.snapshot("col").unwrap().version() > v_before,
        "build_columnar must publish a fresh version"
    );
    let post_build = session.scan("col", &window, Projection::Full).unwrap();
    assert_eq!(pre_build.patches, post_build.patches);
    assert_ne!(
        pre_build.patches.as_ptr(),
        post_build.patches.as_ptr(),
        "post-build scan must re-execute, not replay the cached rows"
    );
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
    assert_eq!(catalog.index_deltas_maintained(), 1);
    assert_eq!(catalog.index_delta_merges(), 0);

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
    assert_eq!(catalog.index_deltas_maintained(), 1);
    assert_eq!(catalog.index_delta_merges(), 0);

    // Replace ~all rows: the priced merge must trigger a full rebuild.
    let replaced = feature_patches(0..512, 5, 777);
    catalog.materialize("col", replaced.clone());
    assert_eq!(
        catalog.index_delta_merges(),
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

#[test]
fn cached_batch_members_replay_identically() {
    let catalog = Arc::new(SharedCatalog::new());
    let session = Session::ephemeral_attached(Arc::clone(&catalog)).unwrap();
    catalog.materialize("a", feature_patches(0..150, 5, 21));
    catalog.materialize("b", feature_patches(0..90, 5, 22));
    catalog.build_ball_index("b", "feat", 1).unwrap();

    let issue = || {
        let mut b = session.batch();
        b.similarity_join("a", "b", 2.5);
        b.dedup("a", 1.5);
        b.index_probe("b", "feat", vec![4.0; 5], 3.0);
        b.run().unwrap()
    };
    // The second issue stores the answers; the third replays them.
    let first = issue();
    assert_eq!(issue(), first);
    let hits0 = catalog.result_cache().hits();
    let replay = issue();
    assert_eq!(first, replay, "cached batch replay changed bytes");
    assert!(
        catalog.result_cache().hits() >= hits0 + 3,
        "all three members should replay from the cache"
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
