//! Integration: the parallel operator layer — joins, dedup and ETL
//! pipelines — produces byte-identical results across thread counts, and
//! the `Session` routes its thread budget into every one of them. Joins and
//! dedups answer as the oracle of the shared harness (`harness/mod.rs`),
//! whose whole sweep `tests/oracle.rs` runs; parallel Ball-Tree builds are
//! pinned in `tests/balltree_pin.rs`.

mod harness;

use deeplens::codec::Image;
use deeplens::core::etl::{FeaturizeTransformer, TileGenerator};
use deeplens::core::ops;
use deeplens::prelude::*;
use harness::{cases, feature_rows, sweep, Kind};

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Property: the parallel nested-loop θ-join emits the exact serial pair
/// order (left-major) for every thread count.
#[test]
fn nested_loop_join_order_stable_across_threads() {
    let left = feature_rows(83, 4, 5);
    let right = feature_rows(59, 4, 6);
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
    }
}

/// Plain and filtered joins of every drawn shape (16 to 400 rows a side,
/// empty and featureless sides among them) under the chosen plan and the
/// tree over either side, at 1, 2 and 4 threads.
#[test]
fn balltree_join_identical_across_thread_counts_and_shapes() {
    cases(
        "balltree_join_identical_across_thread_counts_and_shapes",
        1,
        |g| {
            sweep(g.next_u64(), |q| {
                matches!(q.kind, Kind::Join | Kind::Filtered)
            });
        },
    );
}

/// Dedups through every plan and `Session::dedup`.
#[test]
fn dedup_identical_across_thread_counts() {
    cases("dedup_identical_across_thread_counts", 1, |g| {
        sweep(g.next_u64(), |q| q.kind == Kind::Dedup);
    });
}

/// A session's thread budget routes its batches, joins, dedups and index
/// lookups.
#[test]
fn session_device_routes_thread_budget_end_to_end() {
    cases("session_device_routes_thread_budget_end_to_end", 1, |g| {
        sweep(g.next_u64(), |_| true);
    });
}

/// Zero-length feature vectors join, dedup and probe under every plan.
#[test]
fn zero_dim_features_equivalent_across_variants() {
    cases("zero_dim_features_equivalent_across_variants", 1, |g| {
        sweep(g.next_u64(), |q| {
            q.l == "flat" || q.r == "flat" || q.l == "gappy" || q.r == "gappy"
        });
    });
}
