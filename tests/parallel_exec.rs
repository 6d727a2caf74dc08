//! Integration: the sharded vectorized kernels of `deeplens::exec::kernels`
//! answer as their scalar oracles do at every worker count and on
//! degenerate shapes, and Fig. 8's placement planner knows when more
//! workers win.

use std::time::{Duration, Instant};

use deeplens::core::optimizer::DevicePlanner;
use deeplens::exec::{kernels, Matrix, WorkerPool};
use deeplens_bench::repro::devices::{Backend, GpuProfile, PlacementPlanner};

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed;
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
            })
            .collect(),
    )
}

/// The sharded join must produce byte-identical pairs to the scalar kernel
/// for every worker count and awkward input shape.
#[test]
fn parallel_join_equals_scalar_across_threads_and_shapes() {
    // (rows_a, rows_b) covering empty, singleton, odd, and uneven splits.
    let shapes = [
        (0, 0),
        (0, 5),
        (5, 0),
        (1, 1),
        (1, 37),
        (37, 1),
        (7, 13),
        (61, 89),
    ];
    for &(ra, rb) in &shapes {
        let a = mat(ra, 12, ra as u64 + 1);
        let b = mat(rb, 12, rb as u64 + 101);
        let taus = [7.0, 3.0];
        let scalar = kernels::threshold_join_scalar(&a, &b, &taus);
        for threads in [1usize, 2, 8] {
            let par = kernels::threshold_join_sharded(&a, &b, &taus, threads);
            assert_eq!(
                scalar, par,
                "shape ({ra}x{rb}), {threads} threads: join results must match"
            );
        }
    }
}

/// Same equivalence for the batch distance kernel.
#[test]
fn parallel_distances_equal_scalar_across_threads() {
    for rows in [0usize, 1, 3, 100] {
        let m = mat(rows, 16, rows as u64 + 7);
        let q: Vec<f32> = mat(1, 16, 999).row(0).to_vec();
        let scalar = kernels::distances_scalar(&m, &q);
        for threads in [1usize, 2, 8] {
            let par = kernels::distances_sharded(&m, &q, threads);
            assert_eq!(scalar.len(), par.len());
            for (i, (s, p)) in scalar.iter().zip(&par).enumerate() {
                assert!(
                    (s - p).abs() < 1e-3,
                    "rows {rows}, {threads} threads, row {i}: {s} vs {p}"
                );
            }
        }
    }
}

/// Same equivalence for the batched convolution stack: each plane of a
/// batch equals the scalar stack of that plane, whatever the worker count.
#[test]
fn parallel_conv_equals_scalar() {
    let shapes = [(61usize, 47usize), (1, 1), (2, 9), (33, 3)];
    let planes: Vec<(Vec<f32>, usize, usize)> = shapes
        .iter()
        .map(|&(w, h)| ((0..w * h).map(|i| ((i * 17) % 83) as f32).collect(), w, h))
        .collect();
    let scalar: Vec<Vec<f32>> = planes
        .iter()
        .map(|(p, w, h)| kernels::conv_stack_scalar(p, *w, *h, 3))
        .collect();
    for threads in [1usize, 2, 8] {
        let par = kernels::conv_stack_sharded(&planes, 3, threads);
        assert_eq!(par.len(), scalar.len());
        for (k, (s, p)) in scalar.iter().zip(&par).enumerate() {
            assert_eq!(s.len(), p.len());
            for i in 0..s.len() {
                assert!(
                    (s[i] - p[i]).abs() < 1e-3,
                    "{threads} threads, plane {k}, px {i}"
                );
            }
        }
    }
    // An empty batch stays well-defined.
    assert!(kernels::conv_stack_sharded(&[], 3, 8).is_empty());
}

/// The worker pool's morsel scheduling is deterministic: repeated runs of
/// the same join produce the identical pair sequence (not just the same
/// set), regardless of thread interleaving.
#[test]
fn parallel_join_is_deterministic() {
    let a = mat(97, 24, 3);
    let b = mat(103, 24, 4);
    let first = kernels::threshold_join_sharded(&a, &b, &[9.0], 8);
    for _ in 0..5 {
        let again = kernels::threshold_join_sharded(&a, &b, &[9.0], 8);
        assert_eq!(first, again);
    }
}

/// Acceptance: on a large threshold-join (≥100k distance pairs) the
/// sharded kernel on every hardware thread must beat the scalar kernel on
/// wall clock. This holds even on a single hardware thread because the
/// sharded kernel runs the vectorized (norm + dot-product) inner loop.
#[test]
fn parallel_beats_scalar_on_large_join() {
    let a = mat(400, 64, 21); // 400 x 400 = 160k distance pairs
    let b = mat(400, 64, 22);

    // Warm up once so page faults and lazy init don't skew either side.
    let _ = kernels::threshold_join_scalar(&a, &b, &[0.1]);

    let t0 = Instant::now();
    let scalar = kernels::threshold_join_scalar(&a, &b, &[8.0]);
    let scalar_t = t0.elapsed();

    let t1 = Instant::now();
    let par = kernels::threshold_join_sharded(&a, &b, &[8.0], 0);
    let par_t = t1.elapsed();

    assert_eq!(scalar, par, "kernels must agree before comparing speed");
    assert!(
        par_t < scalar_t,
        "the sharded kernel must beat the scalar one on 160k pairs: {par_t:?} vs {scalar_t:?}"
    );
}

/// Acceptance: Fig. 8's placement planner routes a mid-size kernel to the
/// host's workers when its cost model predicts a win, and the backend it
/// names is runnable.
#[test]
fn optimizer_routes_midsize_kernels_to_parallel_cpu() {
    // Pin the topology so the test is host-independent.
    let planner = PlacementPlanner {
        host: DevicePlanner {
            parallel_efficiency: 0.85,
            spawn_overhead_us: 30.0,
            units_per_us: 100.0,
        },
        gpu: GpuProfile {
            launch_overhead: Duration::from_micros(500),
            bandwidth_gib_s: 8.0,
            workers: 8,
        },
        speedup: 8.0,
        vector_speedup: 4.0,
        cpu_threads: 8,
    };

    // ~5 ms of vectorized work moving 128 MiB: the GPU's transfer alone
    // (~15.6 ms) disqualifies offload, while eight workers cut compute 6.8x.
    let placed = planner.place(5_000.0, 128 << 20);
    assert_eq!(
        placed,
        Backend::Host(8),
        "cost model must pick eight host workers"
    );

    // Tiny kernels still stay on the single vectorized core...
    assert_eq!(planner.place(20.0, 4 << 10), Backend::Host(1));
    // ...and compute-dominated giants still offload.
    assert_eq!(
        planner.place(10_000_000.0, 1 << 20),
        Backend::Gpu(planner.gpu)
    );

    // The planner's pick executes and agrees with the scalar reference.
    let a = mat(60, 16, 31);
    let b = mat(60, 16, 32);
    let from_pick = placed.threshold_join(&a, &b, &[6.0]);
    let reference = kernels::threshold_join_scalar(&a, &b, &[6.0]);
    assert_eq!(from_pick, reference);
}

/// The pool itself: every index is covered exactly once for pathological
/// morsel/thread combinations.
#[test]
fn worker_pool_covers_iteration_space() {
    for threads in [1usize, 2, 8] {
        let pool = WorkerPool::new(threads);
        for items in [0usize, 1, 2, 7, 97] {
            let ranges = pool.run_morsels(items, 3, |r| r);
            let flat: Vec<usize> = ranges.into_iter().flatten().collect();
            assert_eq!(flat, (0..items).collect::<Vec<_>>());
        }
    }
}
