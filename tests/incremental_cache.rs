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

use deeplens::core::catalog;
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
                s.set_device(Device::ParallelCpu(threads));
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

    // Populate then replay: the second issue must be a cache hit.
    let first = session.dedup_collection("col", 2.0).unwrap();
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
    // cached before `build_columnar` cannot be replayed after it.
    let window = ScanFilter::FrameRange { lo: 5, hi: 20 };
    let v_before = catalog.snapshot("col").unwrap().version();
    let row_scan = session.scan("col", &window, Projection::Full).unwrap();
    session.build_columnar("col").unwrap();
    assert!(
        catalog.snapshot("col").unwrap().version() > v_before,
        "build_columnar must publish a fresh version"
    );
    let columnar_scan = session.scan("col", &window, Projection::Full).unwrap();
    assert_eq!(row_scan.patches, columnar_scan.patches);
    assert!(
        columnar_scan.stats.used_columnar,
        "post-build scan must re-execute against the columnar backing"
    );
}

#[test]
fn carry_forward_preserves_indexes_and_columnar_backing() {
    let catalog = Arc::new(SharedCatalog::with_shards_and_cache(4, 0));
    let mut rows = feature_patches(0..400, 5, 42);
    catalog.materialize("col", rows.clone());
    catalog
        .build_hash_index("col", "by_label", "label")
        .unwrap();
    catalog.build_columnar_chunked("col", 64).unwrap();
    catalog.build_ball_index("col", "feat", 1).unwrap();

    let rebuilt0 = catalog::columnar_backings_rebuilt();
    let maintained0 = catalog::index_deltas_maintained();

    // A small in-place change (~2% of rows) plus a re-materialize: every
    // index and the columnar backing must survive the publish.
    apply_write(&mut rows, 5, (1, 7));
    catalog.materialize("col", rows.clone());

    let snap = catalog.snapshot("col").unwrap();
    let mut names = snap.index_names();
    names.sort_unstable();
    assert_eq!(names, ["by_label", "feat"]);
    assert!(
        snap.columnar().is_some(),
        "columnar backing must be rebuilt in the carry pass"
    );
    assert_eq!(
        snap.columnar().unwrap().chunk_rows(),
        64,
        "carry must preserve the chosen chunk granularity"
    );
    assert!(catalog::columnar_backings_rebuilt() > rebuilt0);
    assert!(
        catalog::index_deltas_maintained() > maintained0,
        "a 2% change must be delta-maintained, not merged"
    );

    // The carried indexes answer over the *new* rows.
    let fresh = {
        let mut c = PatchCollection::from_patches(rows);
        c.build_hash_index("by_label", "label");
        c.build_ball_index("feat").unwrap();
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
    let maintained0 = catalog::index_deltas_maintained();
    let merges0 = catalog::index_delta_merges();
    let mut small = rows.clone();
    apply_write(&mut small, 5, (1, 0));
    catalog.materialize("col", small);
    assert!(catalog::index_deltas_maintained() > maintained0);

    // Replace ~all rows: the priced merge must trigger a full rebuild.
    let replaced = feature_patches(0..512, 5, 777);
    catalog.materialize("col", replaced.clone());
    assert!(
        catalog::index_delta_merges() > merges0,
        "a ~100% delta must be merged into a rebuild"
    );

    // Either way the published index answers like a fresh build.
    let mut fresh = PatchCollection::from_patches(replaced);
    fresh.build_ball_index("feat").unwrap();
    let snap = catalog.snapshot("col").unwrap();
    assert_eq!(
        snap.lookup_similar("feat", &[5.0; 5], 5.0).unwrap(),
        fresh.lookup_similar("feat", &[5.0; 5], 5.0).unwrap()
    );
}

#[test]
fn columnar_backing_autobuilds_when_the_cost_model_predicts_a_win() {
    let catalog = Arc::new(SharedCatalog::with_shards_and_cache(4, 0));
    let autobuilt0 = catalog::columnar_backings_autobuilt();

    // Big enough to clear the autobuild floor (4 chunks at the default
    // granularity) and amortize the build over repeated scans.
    catalog.materialize("big", feature_patches(0..6000, 5, 9));
    assert!(
        catalog.snapshot("big").unwrap().columnar().is_some(),
        "a large fresh materialize must autobuild the columnar backing"
    );
    assert!(catalog::columnar_backings_autobuilt() > autobuilt0);

    // A small collection stays on the row path (the backing would cost
    // more to build than its scans save).
    catalog.materialize("small", feature_patches(0..200, 5, 9));
    assert!(catalog.snapshot("small").unwrap().columnar().is_none());
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
    let first = issue();
    let hits0 = catalog.result_cache().hits();
    let replay = issue();
    assert_eq!(first, replay, "cached batch replay changed bytes");
    assert!(
        catalog.result_cache().hits() >= hits0 + 3,
        "all three members should replay from the cache"
    );
}
