//! Compute kernels behind the three execution devices (the paper's CPU and
//! AVX, plus the multi-core CPU backend):
//!
//! * `*_scalar` — straightforward per-element loops (the "CPU" baseline,
//!   and the reference every other form is held to).
//! * `*_sharded` — the threshold join and distance batch, restructured for
//!   SIMD (squared-norm + dot-product decomposition, fixed-width lane
//!   accumulators the compiler turns into vector instructions) and sharded
//!   over a morsel-driven [`WorkerPool`]. One worker is the "AVX" device;
//!   more are the multi-core CPU backend. Output is identical for every
//!   worker count.
//! * `conv_stack_{vectorized,parallel}` — the convolution stack as
//!   shifted-row FMA chains, on one core or one row band per worker.
//! * `histogram_parallel` — per-worker local histograms, merged.

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

/// Naive scalar all-pairs threshold join: the per-element reference the
/// sharded kernel is held to (the "CPU" device).
pub fn threshold_join_scalar(a: &Matrix, b: &Matrix, taus: &[f32]) -> Vec<Vec<(u32, u32)>> {
    assert_eq!(a.cols(), b.cols(), "feature dimensions must match");
    let (tau_sqs, tau_max_sq) = squared_thresholds(taus);
    let mut out = vec![Vec::new(); taus.len()];
    for i in 0..a.rows() {
        let ra = a.row(i);
        for j in 0..b.rows() {
            let rb = b.row(j);
            let mut acc = 0f32;
            for k in 0..ra.len() {
                let d = ra[k] - rb[k];
                acc += d * d;
            }
            if acc <= tau_max_sq {
                demux(&mut out, &tau_sqs, acc, (i as u32, j as u32));
            }
        }
    }
    out
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
fn join_rows(
    a: &Matrix,
    b: &Matrix,
    na: &[f32],
    nb: &[f32],
    rows: std::ops::Range<usize>,
    tau_sqs: &[f32],
    tau_max_sq: f32,
) -> Vec<Vec<(u32, u32)>> {
    let mut local = vec![Vec::new(); tau_sqs.len()];
    for i in rows {
        let ra = a.row(i);
        let nai = na[i];
        for (j, &nbj) in nb.iter().enumerate() {
            let d2 = nai + nbj - 2.0 * dot8(ra, b.row(j));
            if d2 <= tau_max_sq {
                demux(&mut local, tau_sqs, d2, (i as u32, j as u32));
            }
        }
    }
    local
}

/// Sharded vectorized threshold join: morsels of `a`'s rows claimed by
/// `workers` threads, each evaluating `||a-b||² = ||a||² + ||b||² − 2·a·b`
/// with the lane-accumulated dot product. Morsels reassemble in row order,
/// so the output is identical for every `workers`; one worker runs inline
/// on the caller's thread (the "AVX" device).
pub fn threshold_join_sharded(
    a: &Matrix,
    b: &Matrix,
    taus: &[f32],
    workers: usize,
) -> Vec<Vec<(u32, u32)>> {
    assert_eq!(a.cols(), b.cols(), "feature dimensions must match");
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
        conv_band(&cur, &mut next, w, h, 0, h);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Parallel convolution stack: one scoped worker per contiguous row band
/// per layer (layers synchronize, as real GPU kernels do).
///
/// Stencil rows are uniform-cost, so static banding beats morsel claiming
/// here: workers write their band of a reused double buffer in place
/// (`split_at_mut`), with no per-layer allocation and no serial
/// reassembly on the caller thread.
pub fn conv_stack_parallel(
    plane: &[f32],
    w: usize,
    h: usize,
    layers: usize,
    workers: usize,
) -> Vec<f32> {
    assert_eq!(plane.len(), w * h, "plane does not match shape");
    let threads = WorkerPool::new(workers).threads().min(h.max(1));
    if threads <= 1 {
        // Thread spawn costs dwarf the work for a single band; run the
        // vectorized kernel inline.
        return conv_stack_vectorized(plane, w, h, layers);
    }
    let mut cur = plane.to_vec();
    let mut next = vec![0f32; w * h];
    let rows_per = h.div_ceil(threads);
    for _ in 0..layers {
        std::thread::scope(|s| {
            let cur_ref = &cur;
            let mut rest: &mut [f32] = &mut next;
            let mut y0 = 0usize;
            while y0 < h {
                let band_rows = rows_per.min(h - y0);
                let (band, tail) = rest.split_at_mut(band_rows * w);
                rest = tail;
                s.spawn(move || conv_band(cur_ref, band, w, h, y0, y0 + band_rows));
                y0 += band_rows;
            }
        });
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// One conv+ReLU layer over rows `[y0, y1)` of `cur`, written into `band`
/// (those rows of the next layer): the whole plane for the vectorized
/// kernel, one band per worker for the parallel one.
fn conv_band(cur: &[f32], band: &mut [f32], w: usize, h: usize, y0: usize, y1: usize) {
    for y in y0..y1 {
        let dst = &mut band[(y - y0) * w..(y - y0 + 1) * w];
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
// Histogram
// --------------------------------------------------------------------------

/// Scalar histogram of `values` into `bins` equal cells over `[lo, hi)`.
pub fn histogram_scalar(values: &[f32], bins: usize, lo: f32, hi: f32) -> Vec<u32> {
    assert!(bins > 0 && hi > lo, "invalid histogram shape");
    let mut out = vec![0u32; bins];
    let scale = bins as f32 / (hi - lo);
    for &v in values {
        let b = (((v - lo) * scale) as isize).clamp(0, bins as isize - 1) as usize;
        out[b] += 1;
    }
    out
}

/// Parallel histogram: per-worker local histograms merged at the end.
pub fn histogram_parallel(
    values: &[f32],
    bins: usize,
    lo: f32,
    hi: f32,
    workers: usize,
) -> Vec<u32> {
    assert!(bins > 0 && hi > lo, "invalid histogram shape");
    let workers = workers.max(1);
    if values.is_empty() {
        return vec![0u32; bins];
    }
    let pool = WorkerPool::new(workers);
    let locals = pool.run_morsels(values.len(), pool.morsel_size(values.len()), |r| {
        histogram_scalar(&values[r], bins, lo, hi)
    });
    let mut out = vec![0u32; bins];
    for local in locals {
        for (o, l) in out.iter_mut().zip(local) {
            *o += l;
        }
    }
    out
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
/// for every `workers`; one worker runs inline (the "AVX" device).
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

    #[test]
    fn join_variants_agree() {
        let a = mat(60, 16, 1);
        let b = mat(80, 16, 2);
        let taus = [9.0, 8.0, 9.0];
        let s = threshold_join_scalar(&a, &b, &taus);
        assert_eq!(s.len(), 3);
        assert!(!s[1].is_empty() && s[1].len() < s[0].len());
        assert_eq!(s[0], s[2], "duplicate thresholds answer alike");
        // Norm-decomposition rounding could only flip a pair sitting exactly
        // on a threshold; none does on this corpus.
        assert_eq!(s, threshold_join_sharded(&a, &b, &taus, 1));
        assert_eq!(s, threshold_join_sharded(&a, &b, &taus, 4));
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
        assert_eq!(threshold_join_sharded(&a, &b, &[1.0, 2.0], 4), none);
        assert_eq!(threshold_join_sharded(&b, &a, &[1.0, 2.0], 4), none);
        assert!(threshold_join_sharded(&b, &b, &[], 4).is_empty());
    }

    #[test]
    fn conv_variants_agree() {
        let (w, h) = (37, 23);
        let plane: Vec<f32> = (0..w * h).map(|i| ((i * 31) % 97) as f32).collect();
        let s = conv_stack_scalar(&plane, w, h, 3);
        let v = conv_stack_vectorized(&plane, w, h, 3);
        let p = conv_stack_parallel(&plane, w, h, 3, 4);
        for i in 0..s.len() {
            assert!((s[i] - v[i]).abs() < 1e-3, "scalar vs vectorized at {i}");
            assert!((s[i] - p[i]).abs() < 1e-3, "scalar vs parallel at {i}");
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
    fn histogram_variants_agree() {
        let values: Vec<f32> = (0..10_000).map(|i| (i % 256) as f32).collect();
        let s = histogram_scalar(&values, 16, 0.0, 256.0);
        let p = histogram_parallel(&values, 16, 0.0, 256.0, 8);
        assert_eq!(s, p);
        assert_eq!(s.iter().sum::<u32>(), 10_000);
    }

    #[test]
    fn join_sharded_order_is_thread_invariant() {
        let a = mat(45, 12, 7);
        let b = mat(33, 12, 8);
        let inline = threshold_join_sharded(&a, &b, &[6.0, 3.0], 1);
        for workers in [2, 3, 8, 16] {
            let p = threshold_join_sharded(&a, &b, &[6.0, 3.0], workers);
            assert_eq!(
                inline, p,
                "workers = {workers}: order must match one worker"
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
        for workers in [2, 4] {
            assert_eq!(
                distances_sharded(&m, &q, workers),
                inline,
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

    #[test]
    fn histogram_clamps_out_of_range() {
        let values = vec![-100.0f32, 500.0];
        let hist = histogram_scalar(&values, 4, 0.0, 256.0);
        assert_eq!(hist[0], 1);
        assert_eq!(hist[3], 1);
    }
}
