//! Block motion estimation and compensation for inter (P) frames.
//!
//! The inter coder divides the luma plane into 16×16 macroblocks, finds a
//! motion vector against the reference frame with a three-step search, and
//! codes the motion-compensated residual. Chroma reuses the luma vectors at
//! half resolution (4:2:0).

use crate::image::Plane;

/// Macroblock edge length on the luma plane.
pub const MB: usize = 16;

/// Maximum search displacement in each axis (three-step search start radius).
pub const SEARCH_RADIUS: i32 = 8;

/// A per-macroblock motion vector in luma pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotionVector {
    /// Horizontal displacement (positive = reference block lies right).
    pub dx: i32,
    /// Vertical displacement.
    pub dy: i32,
}

/// Sum of absolute differences between the macroblock at `(bx, by)` in
/// `cur` and the displaced block in `reference`.
fn sad(cur: &Plane, reference: &Plane, bx: usize, by: usize, dx: i32, dy: i32) -> f32 {
    let mut acc = 0f32;
    let x0 = (bx * MB) as i64;
    let y0 = (by * MB) as i64;
    for y in 0..MB as i64 {
        for x in 0..MB as i64 {
            let c = cur.get_clamped(x0 + x, y0 + y);
            let r = reference.get_clamped(x0 + x + dx as i64, y0 + y + dy as i64);
            acc += (c - r).abs();
        }
    }
    acc
}

/// Three-step search for the best motion vector of macroblock `(bx, by)`.
///
/// Starts with step [`SEARCH_RADIUS`], probing the 8 neighbours plus the
/// center, halving the step until 1. Complexity is logarithmic in the search
/// radius versus quadratic for full search, with near-identical quality on
/// smooth motion — matching how production encoders trade off here.
pub fn estimate(cur: &Plane, reference: &Plane, bx: usize, by: usize) -> MotionVector {
    let mut best = MotionVector::default();
    let mut best_sad = sad(cur, reference, bx, by, 0, 0);
    let mut step = SEARCH_RADIUS;
    while step >= 1 {
        let mut improved = true;
        while improved {
            improved = false;
            for (ox, oy) in [
                (-1, -1),
                (0, -1),
                (1, -1),
                (-1, 0),
                (1, 0),
                (-1, 1),
                (0, 1),
                (1, 1),
            ] {
                let dx = best.dx + ox * step;
                let dy = best.dy + oy * step;
                if dx.abs() > 2 * SEARCH_RADIUS || dy.abs() > 2 * SEARCH_RADIUS {
                    continue;
                }
                let s = sad(cur, reference, bx, by, dx, dy);
                if s < best_sad {
                    best_sad = s;
                    best = MotionVector { dx, dy };
                    improved = true;
                }
            }
        }
        step /= 2;
    }
    best
}

/// Build the motion-compensated prediction of `cur`'s geometry from
/// `reference`, given one vector per macroblock (row-major).
///
/// `scale` divides the vectors (2 for half-resolution chroma planes).
/// Sample `(x, y)` is taken from `reference` at `(x + dx/scale, y +
/// dy/scale)`, clamped to its borders, with `(dx, dy)` the vector of
/// macroblock `(x/mb, y/mb)` (`mb = MB/scale`). The last macroblock column
/// absorbs any remainder of the width, a row-major index past the end of
/// `vectors` takes its last vector, and an empty `vectors` means no motion.
///
/// Each output row is filled one macroblock run at a time: the vector is
/// looked up and the source row clamped once per run, and the run itself is
/// a copy with `x` clamped at both ends.
pub fn compensate(
    reference: &Plane,
    width: u32,
    height: u32,
    vectors: &[MotionVector],
    mb_cols: usize,
    scale: i32,
) -> Plane {
    let mut out = Plane::new(width, height);
    let (w, mb) = (width as usize, MB / scale as usize);
    let ref_w = reference.width as usize;
    let max_sy = i64::from(reference.height) - 1;
    // `max(1)`: a zero-width plane has no rows to fill.
    for (y, row) in out.data.chunks_exact_mut(w.max(1)).enumerate() {
        let first = (y / mb) * mb_cols;
        for mb_x in 0..mb_cols {
            let x0 = mb_x * mb;
            let x1 = if mb_x + 1 == mb_cols {
                w
            } else {
                w.min(x0 + mb)
            };
            if x0 >= x1 {
                break;
            }
            let idx = (first + mb_x).min(vectors.len().saturating_sub(1));
            let v = vectors.get(idx).copied().unwrap_or_default();
            let sy = (y as i64 + (v.dy / scale) as i64).clamp(0, max_sy) as usize;
            copy_clamped(
                &mut row[x0..x1],
                &reference.data[sy * ref_w..(sy + 1) * ref_w],
                x0 as i64 + (v.dx / scale) as i64,
            );
        }
    }
    out
}

/// `dst[i] = src[clamp(x0 + i, 0, src.len() - 1)]`: a run of border
/// samples, one slice copy, and a second run of border samples.
fn copy_clamped(dst: &mut [f32], src: &[f32], x0: i64) {
    let (n, last) = (dst.len() as i64, src.len() as i64 - 1);
    // dst[..left] reads below column 0; dst[right..] reads past `last`.
    let left = (-x0).clamp(0, n);
    let right = (last - x0 + 1).clamp(left, n);
    let (left, right) = (left as usize, right as usize);
    dst[..left].fill(src[0]);
    if left < right {
        // left < n, so left = max(0, -x0) and the copy starts in bounds.
        let from = (x0 + left as i64) as usize;
        dst[left..right].copy_from_slice(&src[from..from + (right - left)]);
    }
    dst[right..].fill(src[last as usize]);
}

/// Subtract prediction from current plane, producing the residual.
pub fn residual(cur: &Plane, pred: &Plane) -> Plane {
    debug_assert_eq!((cur.width, cur.height), (pred.width, pred.height));
    let mut out = Plane::new(cur.width, cur.height);
    for i in 0..cur.data.len() {
        out.data[i] = cur.data[i] - pred.data[i];
    }
    out
}

/// Add a decoded residual onto the prediction, in place.
pub fn reconstruct(pred: &mut Plane, res: &Plane) {
    debug_assert_eq!((pred.width, pred.height), (res.width, res.height));
    for (p, &r) in pred.data.iter_mut().zip(&res.data) {
        *p = (*p + r).clamp(0.0, 255.0);
    }
}

#[cfg(test)]
pub(crate) mod reference {
    use super::{MotionVector, MB};
    use crate::image::Plane;

    /// The per-pixel motion compensation [`super::compensate`] must match.
    pub(crate) fn compensate(
        reference: &Plane,
        width: u32,
        height: u32,
        vectors: &[MotionVector],
        mb_cols: usize,
        scale: i32,
    ) -> Plane {
        let mut out = Plane::new(width, height);
        let mb = MB / scale as usize;
        for y in 0..height as usize {
            for x in 0..width as usize {
                let mb_x = (x / mb).min(mb_cols - 1);
                let mb_y = y / mb;
                let idx = (mb_y * mb_cols + mb_x).min(vectors.len().saturating_sub(1));
                let v = vectors.get(idx).copied().unwrap_or_default();
                let sx = x as i64 + (v.dx / scale) as i64;
                let sy = y as i64 + (v.dy / scale) as i64;
                out.set(x as u32, y as u32, reference.get_clamped(sx, sy));
            }
        }
        out
    }

    /// The allocating reconstruction [`super::reconstruct`] replaced.
    pub(crate) fn reconstruct(pred: &Plane, res: &Plane) -> Plane {
        let mut out = Plane::new(pred.width, pred.height);
        for i in 0..pred.data.len() {
            out.data[i] = (pred.data[i] + res.data[i]).clamp(0.0, 255.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_wise_compensation_matches_the_per_pixel_loop() {
        let mut rng = crate::test_rng::Rng::new(0x30);
        for case in 0..12_000 {
            let (w, h) = (1 + rng.below(40) as u32, 1 + rng.below(40) as u32);
            // The reference plane may differ in size from the output.
            let (rw, rh) = if case % 5 == 0 {
                (1 + rng.below(40) as u32, 1 + rng.below(40) as u32)
            } else {
                (w, h)
            };
            let reference = Plane {
                width: rw,
                height: rh,
                data: (0..rw * rh).map(|_| rng.f32_in(0.0, 255.0)).collect(),
            };
            let scale = 1 + rng.below(2) as i32;
            let mb = (MB / scale as usize) as u32;
            let mb_cols = match case % 4 {
                // Too few, too many, and the decoder's count.
                0 => 1 + rng.below(4) as usize,
                1 => w.div_ceil(mb) as usize + rng.below(3) as usize,
                _ => w.div_ceil(mb) as usize,
            };
            let wanted = mb_cols * h.div_ceil(mb) as usize;
            // Short (even empty) vector lists fall back to the last vector.
            let count = match case % 3 {
                0 => rng.below(wanted as u64 + 1) as usize,
                _ => wanted,
            };
            let reach = [4, 24, 80, 1 << 20][rng.below(4) as usize];
            let vectors: Vec<MotionVector> = (0..count)
                .map(|_| MotionVector {
                    dx: rng.below(2 * reach + 1) as i32 - reach as i32,
                    dy: rng.below(2 * reach + 1) as i32 - reach as i32,
                })
                .collect();
            assert_eq!(
                compensate(&reference, w, h, &vectors, mb_cols, scale),
                reference::compensate(&reference, w, h, &vectors, mb_cols, scale),
                "{w}x{h} from {rw}x{rh}, {mb_cols} columns, scale {scale}, {vectors:?}"
            );
        }
    }

    /// A plane with a bright square at (x0, y0).
    fn square_plane(w: u32, h: u32, x0: u32, y0: u32) -> Plane {
        let mut p = Plane::new(w, h);
        for y in 0..8 {
            for x in 0..8 {
                p.set(x0 + x, y0 + y, 250.0);
            }
        }
        p
    }

    #[test]
    fn zero_motion_for_identical_frames() {
        let p = square_plane(32, 32, 8, 8);
        let v = estimate(&p, &p, 0, 0);
        assert_eq!(v, MotionVector { dx: 0, dy: 0 });
    }

    #[test]
    fn detects_translation() {
        // Object moved +4,+2 between reference and current frame: the block in
        // the current frame is found 4 left / 2 up in the reference.
        let reference = square_plane(48, 48, 8, 8);
        let cur = square_plane(48, 48, 12, 10);
        let v = estimate(&cur, &reference, 0, 0);
        assert_eq!((v.dx, v.dy), (-4, -2));
    }

    #[test]
    fn compensation_reconstructs_translation() {
        let reference = square_plane(32, 32, 8, 8);
        let cur = square_plane(32, 32, 10, 8);
        let mb_cols = 2;
        let mut vectors = vec![MotionVector::default(); 4];
        for by in 0..2 {
            for bx in 0..2 {
                vectors[by * mb_cols + bx] = estimate(&cur, &reference, bx, by);
            }
        }
        let pred = compensate(&reference, 32, 32, &vectors, mb_cols, 1);
        let res = residual(&cur, &pred);
        let energy: f32 = res.data.iter().map(|v| v * v).sum();
        assert!(
            energy < 1.0,
            "residual energy after perfect compensation: {energy}"
        );
    }

    #[test]
    fn residual_reconstruct_inverse() {
        let a = square_plane(16, 16, 2, 2);
        let b = square_plane(16, 16, 6, 6);
        let r = residual(&a, &b);
        let mut back = b.clone();
        reconstruct(&mut back, &r);
        for (x, y) in a.data.iter().zip(back.data.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn compensate_clamps_at_borders() {
        let reference = square_plane(16, 16, 0, 0);
        let vectors = vec![MotionVector { dx: -20, dy: -20 }];
        // Should not panic; samples clamp to the border.
        let pred = compensate(&reference, 16, 16, &vectors, 1, 1);
        assert_eq!(pred.data.len(), 256);
    }
}
