//! Packed-vs-row kernel equivalence: the packed-form threshold join, dedup,
//! and predicate-filtered join over columnar chunks must be byte-identical
//! to the row-path operators over the materialized scan output — for random
//! filters, chunk sizes 1/7/1024, and 1/2/4 threads — and the routing
//! entries must be output-invisible.

use proptest::prelude::*;

use deeplens::core::ops;
use deeplens::prelude::{
    ColumnarPatches, CostModel, Device, ImgRef, JoinPlan, Patch, PatchCollection, PatchId,
    ScanFilter, Session, Value, WorkerPool,
};

/// Deterministic LCG so proptest shrinks over the seed, not the rows.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Feature patches of one uniform dimension (the join kernels' contract),
/// with ~1 in 7 rows featureless (skipped pair-wise on every path), sorted
/// frame numbers, and label/score metadata for the scan filters.
fn random_feature_patches(seed: u64, n: usize, dim: usize) -> Vec<Patch> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            let r = lcg(&mut s);
            let img = ImgRef::frame("cam", (i / 3) as u64);
            let mut p = if r.is_multiple_of(7) {
                Patch::empty(PatchId(i as u64), img)
            } else {
                Patch::features(
                    PatchId(i as u64),
                    img,
                    (0..dim).map(|d| ((r >> d) % 13) as f32 * 0.5).collect(),
                )
            };
            p = p.with_meta(
                "label",
                match r % 3 {
                    0 => "car",
                    1 => "person",
                    _ => "bike",
                },
            );
            if !r.is_multiple_of(5) {
                p = p.with_meta("score", (r % 1000) as f64 / 1000.0);
            }
            p
        })
        .collect()
}

fn filters_under_test() -> Vec<ScanFilter> {
    vec![
        ScanFilter::All,
        ScanFilter::FrameRange { lo: 3, hi: 27 },
        ScanFilter::MetaEq {
            key: "label".into(),
            value: Value::Str("car".into()),
        },
        ScanFilter::MetaRange {
            key: "score".into(),
            lo: 0.2,
            hi: 0.8,
        },
    ]
}

/// The row-path reference: filter with the row semantics, join with the
/// nested kernel (whose left-major order is sorted, and which skips
/// featureless patches pair-wise — the packed kernels' exact contract).
fn reference_rows(patches: &[Patch], filter: &ScanFilter) -> Vec<Patch> {
    patches
        .iter()
        .filter(|p| filter.matches(p))
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Tentpole equivalence: packed join/dedup over zone-pruned chunks is
    /// byte-identical to the row path over the materialized filtered rows,
    /// across chunk sizes and thread counts.
    #[test]
    fn packed_join_and_dedup_equal_row_path(
        seed in any::<u64>(),
        n_left in 0usize..120,
        n_right in 0usize..120,
        dim in 1usize..4,
    ) {
        let tau = 1.5f32;
        let left = random_feature_patches(seed, n_left, dim);
        let right = random_feature_patches(seed ^ 0x9e37_79b9, n_right, dim);
        for filter in filters_under_test() {
            let l_rows = reference_rows(&left, &filter);
            let r_rows = reference_rows(&right, &filter);
            let want_join = ops::similarity_join_nested(&l_rows, &r_rows, tau);
            let want_dedup = ops::dedup_bruteforce(&l_rows, tau);
            for chunk_rows in [1usize, 7, 1024] {
                let lc = ColumnarPatches::from_patches(&left, chunk_rows);
                let rc = ColumnarPatches::from_patches(&right, chunk_rows);
                for threads in [1usize, 2, 4] {
                    let pool = WorkerPool::new(threads);
                    let got = ops::similarity_join_packed(&lc, &filter, &rc, &filter, tau, None, &pool);
                    prop_assert_eq!(
                        &got, &want_join,
                        "join: chunk_rows={} threads={} filter={:?}",
                        chunk_rows, threads, filter
                    );
                    let clusters = ops::dedup_similarity_packed(&lc, &filter, tau, &pool);
                    prop_assert_eq!(
                        &clusters, &want_dedup,
                        "dedup: chunk_rows={} threads={} filter={:?}",
                        chunk_rows, threads, filter
                    );
                }
            }
        }
    }

    /// The predicate-filtered packed join (late materialization) keeps the
    /// row path's filter-after-join semantics exactly.
    #[test]
    fn packed_filtered_join_equals_row_path(
        seed in any::<u64>(),
        n in 0usize..100,
        dim in 1usize..4,
    ) {
        let tau = 2.0f32;
        let left = random_feature_patches(seed, n, dim);
        let right = random_feature_patches(seed.wrapping_add(1), n, dim);
        let pred = |a: &Patch, b: &Patch| a.get_str("label") == b.get_str("label");
        for filter in [ScanFilter::All, ScanFilter::FrameRange { lo: 0, hi: 20 }] {
            let l_rows = reference_rows(&left, &filter);
            let r_rows = reference_rows(&right, &filter);
            let mut want = ops::similarity_join_nested(&l_rows, &r_rows, tau);
            want.retain(|(i, j)| pred(&l_rows[*i as usize], &r_rows[*j as usize]));
            for chunk_rows in [1usize, 7, 1024] {
                let lc = ColumnarPatches::from_patches(&left, chunk_rows);
                let rc = ColumnarPatches::from_patches(&right, chunk_rows);
                for threads in [1usize, 2, 4] {
                    let pool = WorkerPool::new(threads);
                    let got = ops::similarity_join_packed(
                        &lc, &filter, &rc, &filter, tau, Some(&pred), &pool,
                    );
                    prop_assert_eq!(
                        &got, &want,
                        "chunk_rows={} threads={} filter={:?}",
                        chunk_rows, threads, filter
                    );
                }
            }
        }
    }
}

/// The planner's routing is output-invisible: with or without a live
/// columnar backing (packed or Ball-Tree plan, the latter over ragged rows
/// falling back to the nested loop), the session front door returns the
/// pairs and clusters of the brute-force reference.
#[test]
fn routing_is_output_invisible() {
    let tau = 1.5f32;
    let left = random_feature_patches(5, 20, 2);
    let right = random_feature_patches(6, 14, 2);
    let row_pairs = ops::similarity_join_nested(&left, &right, tau);
    let row_clusters = ops::dedup_bruteforce(&left, tau);
    let model = CostModel::default();

    let session = Session::ephemeral().unwrap();
    session.catalog.materialize("l", left.clone());
    session.catalog.materialize("r", right.clone());
    let (l, r) = (snapshot(&session, "l"), snapshot(&session, "r"));
    assert_ne!(
        JoinPlan::choose(&l, &r, Device::Avx, &model),
        JoinPlan::Packed,
        "nothing to go packed over yet"
    );
    assert_eq!(session.join_collections("l", "r", tau).unwrap(), row_pairs);
    assert_eq!(session.dedup_collection("l", tau).unwrap(), row_clusters);

    // Backing both sides republishes them (new versions, so nothing above
    // replays from the result cache) and flips the plan to packed.
    session.catalog.build_columnar_chunked("l", 16).unwrap();
    session.catalog.build_columnar_chunked("r", 16).unwrap();
    let (l, r) = (snapshot(&session, "l"), snapshot(&session, "r"));
    assert_eq!(
        JoinPlan::choose(&l, &r, Device::Avx, &model),
        JoinPlan::Packed
    );
    assert_eq!(
        JoinPlan::choose_dedup(&l, Device::Avx, &model),
        JoinPlan::Packed
    );
    assert_eq!(
        session.join_collections("l", "r", tau).unwrap(),
        row_pairs,
        "packed routing changed the pair set"
    );
    assert_eq!(
        session.dedup_collection("l", tau).unwrap(),
        row_clusters,
        "packed routing changed the clusters"
    );
}

fn snapshot(session: &Session, name: &str) -> std::sync::Arc<PatchCollection> {
    session.catalog.snapshot(name).unwrap()
}
