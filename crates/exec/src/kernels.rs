//! Compute kernels, each as a scalar reference and a vectorized form that
//! takes a worker count:
//!
//! * `*_scalar` — straightforward per-element loops: the oracle every other
//!   form is held to (and Fig. 8's "CPU").
//! * `*_sharded` — the vectorized kernel sharded over a morsel-driven
//!   [`WorkerPool`]. The threshold join and distance batch are restructured
//!   for SIMD (squared-norm + dot-product decomposition, fixed-width lane
//!   accumulators the compiler turns into vector instructions) and shard
//!   rows; the convolution stack shards whole planes. Morsels reassemble in
//!   order, so the output is identical for every worker count, and one
//!   worker runs inline on the caller's thread. The threshold join uses the
//!   decomposition only to discard pairs: a pair within its rounding slack
//!   of the outer radius is decided by the scalar kernel's arithmetic, so
//!   both joins return the same pairs.
//! * [`conv_stack_vectorized`] — one plane's convolution stack as
//!   shifted-row FMA chains, the per-plane body of [`conv_stack_sharded`].

use crate::matrix::Matrix;
use crate::pool::WorkerPool;

// --------------------------------------------------------------------------
// Threshold join (image matching): pairs within Euclidean distance tau
// --------------------------------------------------------------------------
//
// Both kernels take a batch of thresholds: one distance pass over `a × b`
// serves every entry of `taus` (the shared-scan form of multi-query
// optimization) and returns one `(row_in_a, row_in_b)` vector per entry,
// row-major. A single query is the batch of one.

/// Squared thresholds of `taus` and their maximum: a pair is compared
/// against each member only once it clears the outermost radius.
fn squared_thresholds(taus: &[f32]) -> (Vec<f32>, f32) {
    let tau_sqs: Vec<f32> = taus.iter().map(|t| t * t).collect();
    let max = tau_sqs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    (tau_sqs, max)
}

/// Push `pair` onto every member whose squared threshold admits `d2` — for
/// a lone member the caller's outer-radius test already did.
#[inline]
fn demux(out: &mut [Vec<(u32, u32)>], tau_sqs: &[f32], d2: f32, pair: (u32, u32)) {
    match out {
        [pairs] => pairs.push(pair),
        _ => demux_many(out, tau_sqs, d2, pair),
    }
}

/// [`demux`] across several members, kept out of line: inlined, the member
/// loop slows the kernels' inner loops even when no pair matches.
#[inline(never)]
fn demux_many(out: &mut [Vec<(u32, u32)>], tau_sqs: &[f32], d2: f32, pair: (u32, u32)) {
    for (pairs, &tau_sq) in out.iter_mut().zip(tau_sqs) {
        if d2 <= tau_sq {
            pairs.push(pair);
        }
    }
}

/// Join pairs carry `u32` row ids: a side whose last row id does not fit
/// must fail loudly before any per-row work, not wrap its ids.
fn assert_row_ids_fit(a: &Matrix, b: &Matrix) {
    for side in [a, b] {
        assert!(
            u32::try_from(side.rows().saturating_sub(1)).is_ok(),
            "a join side of {} rows does not fit u32 row ids",
            side.rows()
        );
    }
}

/// Naive scalar all-pairs threshold join: the per-element reference the
/// sharded kernel is held to.
pub fn threshold_join_scalar(a: &Matrix, b: &Matrix, taus: &[f32]) -> Vec<Vec<(u32, u32)>> {
    assert_eq!(a.cols(), b.cols(), "feature dimensions must match");
    assert_row_ids_fit(a, b);
    let (tau_sqs, tau_max_sq) = squared_thresholds(taus);
    let mut out = vec![Vec::new(); taus.len()];
    for i in 0..a.rows() {
        let ra = a.row(i);
        for j in 0..b.rows() {
            let acc = squared_distance(ra, b.row(j));
            if acc <= tau_max_sq {
                demux(&mut out, &tau_sqs, acc, (i as u32, j as u32));
            }
        }
    }
    out
}

/// Squared Euclidean distance, accumulated element by element: the
/// arithmetic of the scalar join, which the sharded join reuses to decide
/// every pair near the threshold.
#[inline]
fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0f32;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Squared L2 norms of every row.
fn row_norms(m: &Matrix) -> Vec<f32> {
    (0..m.rows())
        .map(|i| m.row(i).iter().map(|v| v * v).sum())
        .collect()
}

/// 8-lane dot product the compiler autovectorizes. `chunks_exact` hands
/// LLVM fixed-length slices, so the inner loop compiles to bounds-check-free
/// SIMD lanes.
#[inline]
fn dot8(a: &[f32], b: &[f32]) -> f32 {
    let ca = a.chunks_exact(8);
    let cb = b.chunks_exact(8);
    let tail: f32 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| x * y)
        .sum();
    let mut acc = [0f32; 8];
    for (ka, kb) in ca.zip(cb) {
        for l in 0..8 {
            acc[l] += ka[l] * kb[l];
        }
    }
    acc.iter().sum::<f32>() + tail
}

/// Morsel size for a sharded kernel over `items` rows: one worker takes the
/// whole range as a single inline morsel (nothing to balance, nothing to
/// reassemble), more split it as the pool does.
fn kernel_morsel(pool: &WorkerPool, items: usize) -> usize {
    if pool.threads() == 1 {
        items.max(1)
    } else {
        pool.morsel_size(items)
    }
}

/// One morsel of [`threshold_join_sharded`]: rows `rows` of `a` against all
/// of `b`, per member. A plain function rather than the morsel closure's
/// body: the closure form compiled to a measurably slower inner loop.
///
/// The decomposed `d2` is off the scalar kernel's sum by less than
/// `slack · (‖a‖² + ‖b‖² + τ²)`, a bound of the rounding of norms, dot
/// product and sum over `cols` terms, twice over for margin. A pair whose
/// `d2` clears the outer radius by more is dropped; any other is decided
/// by [`squared_distance`].
fn join_rows(
    a: &Matrix,
    b: &Matrix,
    na: &[f32],
    nb: &[f32],
    rows: std::ops::Range<usize>,
    tau_sqs: &[f32],
    tau_max_sq: f32,
) -> Vec<Vec<(u32, u32)>> {
    let slack = 4.0 * (a.cols() + 4) as f32 * f32::EPSILON;
    let mut local = vec![Vec::new(); tau_sqs.len()];
    for i in rows {
        let ra = a.row(i);
        let nai = na[i];
        let reach = tau_max_sq + slack * (nai + tau_max_sq);
        for (j, &nbj) in nb.iter().enumerate() {
            let d2 = nai + nbj - 2.0 * dot8(ra, b.row(j));
            if d2 <= reach + slack * nbj {
                let d2 = squared_distance(ra, b.row(j));
                if d2 <= tau_max_sq {
                    demux(&mut local, tau_sqs, d2, (i as u32, j as u32));
                }
            }
        }
    }
    local
}

/// Sharded vectorized threshold join: morsels of `a`'s rows claimed by
/// `workers` threads, each evaluating `||a-b||² = ||a||² + ||b||² − 2·a·b`
/// with the lane-accumulated dot product to discard far pairs and the
/// scalar arithmetic on the rest. Morsels reassemble in row order, so the
/// output is [`threshold_join_scalar`]'s for every `workers`; one worker
/// runs inline on the caller's thread.
pub fn threshold_join_sharded(
    a: &Matrix,
    b: &Matrix,
    taus: &[f32],
    workers: usize,
) -> Vec<Vec<(u32, u32)>> {
    assert_eq!(a.cols(), b.cols(), "feature dimensions must match");
    assert_row_ids_fit(a, b);
    let (tau_sqs, tau_max_sq) = squared_thresholds(taus);
    let na = row_norms(a);
    let nb = row_norms(b);
    let pool = WorkerPool::new(workers);
    let morsels = pool.run_morsels(a.rows(), kernel_morsel(&pool, a.rows()), |rows| {
        join_rows(a, b, &na, &nb, rows, &tau_sqs, tau_max_sq)
    });
    let mut morsels = morsels.into_iter();
    let mut out = morsels
        .next()
        .unwrap_or_else(|| vec![Vec::new(); taus.len()]);
    for morsel in morsels {
        for (pairs, part) in out.iter_mut().zip(morsel) {
            pairs.extend(part);
        }
    }
    out
}

// --------------------------------------------------------------------------
// Convolution stack (neural-network-inference stand-in)
// --------------------------------------------------------------------------

/// 3×3 kernel weights used by the inference stand-in (an edge-ish filter
/// that keeps values bounded under repeated application with ReLU).
pub const CONV_KERNEL: [f32; 9] = [
    0.05, 0.10, 0.05, //
    0.10, 0.40, 0.10, //
    0.05, 0.10, 0.05,
];

#[inline]
fn conv3x3_at(src: &[f32], w: usize, h: usize, x: usize, y: usize) -> f32 {
    let mut acc = 0f32;
    for ky in 0..3usize {
        let sy = (y + ky).saturating_sub(1).min(h - 1);
        for kx in 0..3usize {
            let sx = (x + kx).saturating_sub(1).min(w - 1);
            acc += CONV_KERNEL[ky * 3 + kx] * src[sy * w + sx];
        }
    }
    acc
}

/// Scalar convolution stack: `layers` rounds of 3×3 conv + ReLU.
pub fn conv_stack_scalar(plane: &[f32], w: usize, h: usize, layers: usize) -> Vec<f32> {
    assert_eq!(plane.len(), w * h, "plane does not match shape");
    let mut cur = plane.to_vec();
    let mut next = vec![0f32; w * h];
    for _ in 0..layers {
        for y in 0..h {
            for x in 0..w {
                next[y * w + x] = conv3x3_at(&cur, w, h, x, y).max(0.0);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Vectorized convolution stack: interior rows processed as three shifted
/// row-slices so the inner loop is a pure element-wise FMA chain.
pub fn conv_stack_vectorized(plane: &[f32], w: usize, h: usize, layers: usize) -> Vec<f32> {
    assert_eq!(plane.len(), w * h, "plane does not match shape");
    let mut cur = plane.to_vec();
    let mut next = vec![0f32; w * h];
    for _ in 0..layers {
        conv_layer(&cur, &mut next, w, h);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Batched convolution stacks: one [`conv_stack_vectorized`] per
/// `(plane, width, height)`, whole planes sharded over `workers` as
/// morsels and returned in input order. Each plane runs the same kernel
/// whatever the worker count, so the output is bit-identical for every
/// `workers`.
pub fn conv_stack_sharded(
    planes: &[(Vec<f32>, usize, usize)],
    layers: usize,
    workers: usize,
) -> Vec<Vec<f32>> {
    let pool = WorkerPool::new(workers);
    pool.run_morsels(planes.len(), kernel_morsel(&pool, planes.len()), |r| {
        planes[r]
            .iter()
            .map(|(p, w, h)| conv_stack_vectorized(p, *w, *h, layers))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One conv+ReLU layer of `cur` into `next`.
fn conv_layer(cur: &[f32], next: &mut [f32], w: usize, h: usize) {
    for y in 0..h {
        let dst = &mut next[y * w..(y + 1) * w];
        if y == 0 || y == h - 1 || w < 3 {
            for (x, d) in dst.iter_mut().enumerate() {
                *d = conv3x3_at(cur, w, h, x, y).max(0.0);
            }
            continue;
        }
        let above = &cur[(y - 1) * w..y * w];
        let mid = &cur[y * w..(y + 1) * w];
        let below = &cur[(y + 1) * w..(y + 2) * w];
        dst[0] = conv3x3_at(cur, w, h, 0, y).max(0.0);
        for x in 1..w - 1 {
            let acc = CONV_KERNEL[0] * above[x - 1]
                + CONV_KERNEL[1] * above[x]
                + CONV_KERNEL[2] * above[x + 1]
                + CONV_KERNEL[3] * mid[x - 1]
                + CONV_KERNEL[4] * mid[x]
                + CONV_KERNEL[5] * mid[x + 1]
                + CONV_KERNEL[6] * below[x - 1]
                + CONV_KERNEL[7] * below[x]
                + CONV_KERNEL[8] * below[x + 1];
            dst[x] = acc.max(0.0);
        }
        dst[w - 1] = conv3x3_at(cur, w, h, w - 1, y).max(0.0);
    }
}

// --------------------------------------------------------------------------
// Distance batch (kNN probes, feature scoring)
// --------------------------------------------------------------------------

/// Scalar batch distance kernel: Euclidean distance from `query` to every
/// row of `m`.
pub fn distances_scalar(m: &Matrix, query: &[f32]) -> Vec<f32> {
    assert_eq!(m.cols(), query.len(), "feature dimensions must match");
    (0..m.rows())
        .map(|i| {
            let r = m.row(i);
            let mut acc = 0f32;
            for k in 0..r.len() {
                let d = r[k] - query[k];
                acc += d * d;
            }
            acc.sqrt()
        })
        .collect()
}

/// Vectorized row distance: norm + dot decomposition, clamped so float
/// rounding can't produce a negative squared distance.
#[inline]
fn row_distance(r: &[f32], nq: f32, query: &[f32]) -> f32 {
    let nr: f32 = r.iter().map(|v| v * v).sum();
    (nr + nq - 2.0 * dot8(r, query)).max(0.0).sqrt()
}

/// Sharded batch distance kernel: row morsels claimed by `workers` threads,
/// each using the vectorized norm + dot decomposition. Output is in row order
/// for every `workers`; one worker runs inline.
pub fn distances_sharded(m: &Matrix, query: &[f32], workers: usize) -> Vec<f32> {
    assert_eq!(m.cols(), query.len(), "feature dimensions must match");
    let nq: f32 = query.iter().map(|v| v * v).sum();
    let pool = WorkerPool::new(workers);
    let morsels = pool.run_morsels(m.rows(), kernel_morsel(&pool, m.rows()), |rows| {
        rows.map(|i| row_distance(m.row(i), nq, query))
            .collect::<Vec<f32>>()
    });
    let mut morsels = morsels.into_iter();
    let mut out = morsels.next().unwrap_or_default();
    for morsel in morsels {
        out.extend(morsel);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32 * 10.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn join_variants_agree() {
        let a = mat(60, 16, 1);
        let b = mat(80, 16, 2);
        let taus = [9.0, 8.0, 9.0];
        let s = threshold_join_scalar(&a, &b, &taus);
        assert_eq!(s.len(), 3);
        assert!(!s[1].is_empty() && s[1].len() < s[0].len());
        assert_eq!(s[0], s[2], "duplicate thresholds answer alike");
        assert_eq!(s, threshold_join_sharded(&a, &b, &taus, 1));
        assert_eq!(s, threshold_join_sharded(&a, &b, &taus, 4));
    }

    #[test]
    fn multi_join_matches_single_join_per_tau() {
        let a = mat(35, 12, 11);
        let b = mat(45, 12, 12);
        let taus = [2.0f32, 8.0, 5.0, 8.0]; // duplicates and out-of-order on purpose
                                            // `None` is the scalar kernel, `Some(w)` the sharded one on w workers.
        for workers in [None, Some(1), Some(4)] {
            let join = |t: &[f32]| match workers {
                None => threshold_join_scalar(&a, &b, t),
                Some(w) => threshold_join_sharded(&a, &b, t, w),
            };
            let multi = join(&taus);
            assert_eq!(multi.len(), taus.len());
            for (q, &tau) in taus.iter().enumerate() {
                assert_eq!(
                    multi[q],
                    join(&[tau])[0],
                    "{workers:?}: member {q} (tau {tau}) diverged from single issuance"
                );
            }
        }
    }

    #[test]
    fn join_self_contains_diagonal() {
        let a = mat(30, 8, 3);
        let pairs = threshold_join_sharded(&a, &a, &[1e-3], 1).remove(0);
        for i in 0..30u32 {
            assert!(pairs.contains(&(i, i)), "self-pair {i} missing");
        }
    }

    #[test]
    fn join_empty_inputs() {
        let a = mat(0, 8, 1);
        let b = mat(5, 8, 2);
        let none = vec![Vec::<(u32, u32)>::new(); 2];
        assert_eq!(threshold_join_scalar(&a, &b, &[1.0, 2.0]), none);
        for workers in [1, 4] {
            assert_eq!(threshold_join_sharded(&a, &b, &[1.0, 2.0], workers), none);
            assert_eq!(threshold_join_sharded(&b, &a, &[1.0, 2.0], workers), none);
            assert!(threshold_join_sharded(&b, &b, &[], workers).is_empty());
        }
    }

    #[test]
    fn tiny_join_at_many_workers_equals_scalar() {
        let a = mat(2, 4, 1);
        let b = mat(2, 4, 2);
        for tau in [1.0, 20.0] {
            assert_eq!(
                threshold_join_sharded(&a, &b, &[tau], 8),
                threshold_join_scalar(&a, &b, &[tau]),
                "tau {tau}"
            );
        }
    }

    #[test]
    fn join_row_ids_past_u32_fail_before_any_row_work() {
        // A zero-column matrix allocates nothing, so 2^32 + 1 rows is cheap
        // to build; the check must fire before the kernels touch a row.
        let huge = Matrix::zeros(u32::MAX as usize + 2, 0);
        let small = Matrix::zeros(3, 0);
        let joins: [(&str, &dyn Fn()); 4] = [
            ("scalar, left", &|| {
                drop(threshold_join_scalar(&huge, &small, &[1.0]))
            }),
            ("scalar, right", &|| {
                drop(threshold_join_scalar(&small, &huge, &[1.0]))
            }),
            ("sharded, left", &|| {
                drop(threshold_join_sharded(&huge, &small, &[1.0], 2))
            }),
            ("sharded, right", &|| {
                drop(threshold_join_sharded(&small, &huge, &[1.0], 2))
            }),
        ];
        for (name, join) in joins {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(join)).expect_err(name);
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or("");
            assert!(msg.contains("does not fit u32 row ids"), "{name}: {msg}");
        }
        // The largest side that fits still runs (its last id is u32::MAX).
        let fits = Matrix::zeros(u32::MAX as usize + 1, 0);
        assert_row_ids_fit(&fits, &small);
    }

    #[test]
    fn conv_variants_agree() {
        let (w, h) = (37, 23);
        let plane: Vec<f32> = (0..w * h).map(|i| ((i * 31) % 97) as f32).collect();
        let s = conv_stack_scalar(&plane, w, h, 3);
        let v = conv_stack_vectorized(&plane, w, h, 3);
        let p = conv_stack_sharded(&[(plane, w, h)], 3, 4).remove(0);
        for i in 0..s.len() {
            assert!((s[i] - v[i]).abs() < 1e-3, "scalar vs vectorized at {i}");
        }
        assert_eq!(
            bits(&v),
            bits(&p),
            "one plane sharded is the vectorized kernel"
        );
    }

    #[test]
    fn conv_batch_matches_sequential() {
        let planes: Vec<(Vec<f32>, usize, usize)> = (0..5)
            .map(|s| {
                (
                    (0..20 * 16).map(|i| ((i * (s + 3)) % 50) as f32).collect(),
                    20,
                    16,
                )
            })
            .collect();
        let scalar: Vec<Vec<f32>> = planes
            .iter()
            .map(|(p, w, h)| conv_stack_scalar(p, *w, *h, 2))
            .collect();
        for workers in [1, 2, 8] {
            let batch = conv_stack_sharded(&planes, 2, workers);
            assert_eq!(batch.len(), scalar.len(), "{workers} workers");
            for (c, g) in scalar.iter().zip(&batch) {
                assert_eq!(c.len(), g.len());
                for (x, y) in c.iter().zip(g) {
                    assert!((x - y).abs() < 1e-3, "{workers} workers");
                }
            }
        }
        assert!(conv_stack_sharded(&[], 2, 4).is_empty());
    }

    #[test]
    fn sharded_kernels_are_bit_identical_across_workers_on_odd_shapes() {
        // Odd shapes: a single pixel, an unaligned plane, and planes shorter
        // than a 16-row band.
        for (w, h) in [(1, 1), (17, 33), (9, 7), (40, 15)] {
            let plane: Vec<f32> = (0..w * h).map(|i| ((i * 29) % 97) as f32 * 0.37).collect();
            let planes = vec![
                (plane.clone(), w, h),
                (plane.iter().map(|x| x * 2.0).collect(), w, h),
            ];
            let conv_one: Vec<Vec<u32>> = conv_stack_sharded(&planes, 3, 1)
                .iter()
                .map(|p| bits(p))
                .collect();
            let (m, q, n) = (mat(h, w, 3), mat(1, w, 4), mat(w, w, 5));
            let dist_one = bits(&distances_sharded(&m, q.row(0), 1));
            let join_one = threshold_join_sharded(&m, &n, &[4.0, 9.0], 1);
            for workers in [2, 3, 8, 16] {
                let conv: Vec<Vec<u32>> = conv_stack_sharded(&planes, 3, workers)
                    .iter()
                    .map(|p| bits(p))
                    .collect();
                assert_eq!(
                    conv, conv_one,
                    "conv_stack_sharded {w}x{h}, {workers} workers"
                );
                assert_eq!(
                    bits(&distances_sharded(&m, q.row(0), workers)),
                    dist_one,
                    "distances_sharded {h}x{w}, {workers} workers"
                );
                assert_eq!(
                    threshold_join_sharded(&m, &n, &[4.0, 9.0], workers),
                    join_one,
                    "threshold_join_sharded {h}x{w} by {w}x{w}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn conv_relu_clamps_negative() {
        let plane = vec![-5.0f32; 64];
        let out = conv_stack_scalar(&plane, 8, 8, 1);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn conv_preserves_flat_field_scale() {
        // Kernel sums to 1.0, so a flat positive field is (nearly) preserved.
        let plane = vec![100.0f32; 16 * 16];
        let out = conv_stack_scalar(&plane, 16, 16, 5);
        for &v in &out {
            assert!((v - 100.0).abs() < 1.0);
        }
    }

    #[test]
    fn join_sharded_equals_scalar_at_every_worker_count() {
        let a = mat(45, 12, 7);
        let b = mat(33, 12, 8);
        let scalar = threshold_join_scalar(&a, &b, &[6.0, 3.0]);
        assert!(!scalar[0].is_empty());
        for workers in [0, 1, 2, 3, 8, 16] {
            assert_eq!(
                threshold_join_sharded(&a, &b, &[6.0, 3.0], workers),
                scalar,
                "workers = {workers}: pairs and their order must match the scalar kernel"
            );
        }
    }

    #[test]
    fn distance_variants_agree() {
        let m = mat(70, 24, 11);
        let q: Vec<f32> = mat(1, 24, 12).row(0).to_vec();
        let s = distances_scalar(&m, &q);
        let inline = distances_sharded(&m, &q, 1);
        for i in 0..s.len() {
            assert!((s[i] - inline[i]).abs() < 1e-3, "scalar vs sharded at {i}");
        }
        for workers in [2, 3, 8] {
            assert_eq!(
                bits(&distances_sharded(&m, &q, workers)),
                bits(&inline),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn distance_to_self_is_zero() {
        let m = mat(5, 8, 13);
        let q = m.row(2).to_vec();
        let d = distances_sharded(&m, &q, 1);
        assert!(d[2].abs() < 1e-3, "self distance {}", d[2]);
        assert!(distances_sharded(&Matrix::zeros(0, 8), &[0.0; 8], 4).is_empty());
    }
}
