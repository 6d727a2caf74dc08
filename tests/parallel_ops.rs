//! Integration: the parallel operator layer — joins, dedup, ETL pipelines,
//! and Ball-Tree index builds — produces byte-identical results across
//! thread counts, and the `Session` device routes its thread budget into
//! every one of them.

use deeplens::codec::Image;
use deeplens::core::etl::{FeaturizeTransformer, TileGenerator, WholeImageGenerator};
use deeplens::core::ops;
use deeplens::index::BallTree;
use deeplens::prelude::*;

fn feature_patches(n: usize, dim: usize, seed: u64) -> Vec<Patch> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            let f: Vec<f32> = (0..dim)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
                })
                .collect();
            Patch::features(PatchId(i as u64), ImgRef::frame("t", i as u64), f)
        })
        .collect()
}

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// `left × right` within `tau` under the plan the planner picks for a CPU
/// device, on a `threads`-worker pool.
fn planned_join(left: &[Patch], right: &[Patch], tau: f32, threads: usize) -> Vec<(u32, u32)> {
    let plan = JoinPlan::choose(left, right).unwrap();
    let pool = WorkerPool::new(threads);
    plan.run(left, right, &[(tau, None)], &pool)
        .unwrap()
        .remove(0)
}

/// A session on `threads` morsel workers.
fn session_on(threads: usize) -> Session {
    let mut s = Session::ephemeral().unwrap();
    s.set_threads(threads);
    s
}

/// Property: for every input shape and thread count, the Ball-Tree join
/// returns the identical pair sequence — and it always equals the serial
/// nested-loop reference.
#[test]
fn balltree_join_identical_across_thread_counts_and_shapes() {
    let shapes = [(0usize, 7usize), (1, 1), (5, 200), (200, 5), (61, 89)];
    for &(nl, nr) in &shapes {
        let left = feature_patches(nl, 6, nl as u64 + 1);
        let right = feature_patches(nr, 6, nr as u64 + 77);
        let mut reference = ops::similarity_join_nested(&left, &right, 2.5).unwrap();
        reference.sort_unstable();
        for threads in THREADS {
            let got = planned_join(&left, &right, 2.5, threads);
            assert_eq!(got, reference, "shape {nl}x{nr}, {threads} threads");
        }
    }
}

/// Property: the parallel nested-loop θ-join emits the exact serial pair
/// order (left-major) for every thread count.
#[test]
fn nested_loop_join_order_stable_across_threads() {
    let left = feature_patches(83, 4, 5);
    let right = feature_patches(59, 4, 6);
    let theta = |a: &Patch, b: &Patch| {
        let (fa, fb) = (a.data.features().unwrap(), b.data.features().unwrap());
        deeplens::index::dist::sq_euclidean(fa, fb) <= 9.0
    };
    let reference = ops::nested_loop_join(&left, &right, theta, &WorkerPool::new(1)).unwrap();
    assert!(!reference.is_empty());
    for threads in THREADS {
        assert_eq!(
            ops::nested_loop_join(&left, &right, theta, &WorkerPool::new(threads)).unwrap(),
            reference,
            "{threads} threads"
        );
    }
    // Pair order is the serial iteration order, not merely the same set.
    let mut sorted = reference.clone();
    sorted.sort_unstable();
    assert_eq!(reference, sorted);
}

/// Property: dedup clusters are identical across thread counts and match
/// the brute-force baseline.
#[test]
fn dedup_identical_across_thread_counts() {
    let patches = feature_patches(400, 5, 11);
    let reference = ops::dedup_bruteforce(&patches, 3.0).unwrap();
    for threads in THREADS {
        assert_eq!(
            session_on(threads).dedup(&patches, 3.0).unwrap(),
            reference,
            "{threads} threads"
        );
    }
}

/// Property: a tiling + featurization pipeline materializes byte-identical
/// collections (ids, payloads, metadata, lineage) for every thread count.
#[test]
fn pipeline_outputs_identical_across_thread_counts() {
    let frames: Vec<Image> = (0..13)
        .map(|t| Image::solid(48, 48, [(t * 19) as u8, (t * 7) as u8, 200]))
        .collect();
    let run = |threads: usize| {
        let pipe = Pipeline::new(Box::new(TileGenerator { tile: 16 })).then(Box::new(
            FeaturizeTransformer {
                label: "mean".into(),
                dim: 3,
                f: Box::new(|img| img.mean_color().to_vec()),
            },
        ));
        let catalog = SharedCatalog::new();
        pipe.run(
            frames.iter().enumerate().map(|(i, f)| (i as u64, f)),
            "cam",
            &catalog,
            "tiles",
            &WorkerPool::new(threads),
        )
        .unwrap();
        catalog
    };
    let serial = run(1);
    let serial_patches = &serial.snapshot("tiles").unwrap().patches;
    assert_eq!(serial_patches.len(), 13 * 9);
    for threads in [2usize, 5, 8] {
        let par = run(threads);
        let par_patches = &par.snapshot("tiles").unwrap().patches;
        assert_eq!(serial_patches, par_patches, "{threads} threads");
        for p in par_patches {
            assert_eq!(
                serial.backtrace(p.id),
                par.backtrace(p.id),
                "lineage of {:?} diverged at {threads} threads",
                p.id
            );
        }
    }
}

/// Property: parallel Ball-Tree construction yields a structurally
/// identical index — every range query returns the same id sequence.
#[test]
fn parallel_index_build_identical_across_thread_counts() {
    let patches = feature_patches(5000, 8, 21);
    let vectors: Vec<Vec<f32>> = patches
        .iter()
        .map(|p| p.data.features().unwrap().to_vec())
        .collect();
    let serial = BallTree::from_vectors(&vectors);
    for threads in [2usize, 4, 8] {
        let par = BallTree::from_vectors_parallel(&vectors, threads);
        for qi in (0..5000).step_by(431) {
            assert_eq!(
                serial.range_query(&vectors[qi], 1.5),
                par.range_query(&vectors[qi], 1.5),
                "{threads} threads, query {qi}"
            );
        }
    }
}

/// The session's thread budget routes every join/dedup/pipeline/index
/// request, and a many-worker session answers each identically to a serial
/// one.
#[test]
fn session_device_routes_thread_budget_end_to_end() {
    let frames: Vec<Image> = (0..8)
        .map(|t| Image::solid(32, 32, [(t * 31) as u8, 90, (t * 13) as u8]))
        .collect();
    let run = |threads: usize| {
        let mut s = Session::ephemeral().unwrap();
        s.set_threads(threads);
        let pipe =
            Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FeaturizeTransformer {
                label: "mean".into(),
                dim: 3,
                f: Box::new(|img| img.mean_color().to_vec()),
            }));
        let n = s
            .run_pipeline(
                &pipe,
                frames.iter().enumerate().map(|(i, f)| (i as u64, f)),
                "cam",
                "feats",
            )
            .unwrap();
        assert_eq!(n, 8);
        s.build_ball_index("feats", "by_feat").unwrap();
        let snap = s.catalog.snapshot("feats").unwrap();
        let patches = snap.patches.clone();
        let joined = s.similarity_join(&patches, &patches, 40.0).unwrap();
        let clusters = s.dedup(&patches, 40.0).unwrap();
        let probe = patches[0].data.features().unwrap().to_vec();
        let hits = snap.lookup_similar("by_feat", &probe, 35.0).unwrap();
        (patches, joined, clusters, hits)
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), serial, "{threads} threads");
    }
}

/// The degenerate-feature path: zero-length vectors flow through the
/// Ball-Tree variant exactly like the nested one, on every thread count.
#[test]
fn zero_dim_features_equivalent_across_variants() {
    let patches: Vec<Patch> = (0..30)
        .map(|i| Patch::features(PatchId(i), ImgRef::frame("z", i), vec![]))
        .collect();
    let mut reference = ops::similarity_join_nested(&patches, &patches, 1.0).unwrap();
    reference.sort_unstable();
    assert_eq!(reference.len(), 30 * 30);
    for threads in THREADS {
        assert_eq!(planned_join(&patches, &patches, 1.0, threads), reference);
    }
}
