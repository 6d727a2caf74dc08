//! 8×8 discrete cosine transform used by the intra and inter coders.
//!
//! Implemented as a separable transform with a precomputed cosine basis,
//! exactly invertible to within floating-point error.
//!
//! The decoder's [`inverse`] runs lane-wise: each pass keeps an 8-wide
//! accumulator per output row, so one basis product updates eight outputs
//! at once. Each lane still adds its terms in the order of the dense
//! triple loop, with `α` applied to the coefficient before the basis
//! (`(α·c)·b`, never a pre-multiplied basis), so the output is bit for bit
//! what the dense loop computes. The encoder's reconstruction loop runs the
//! same transform, which is what keeps encoded streams byte-identical.

/// Transform block edge length in samples.
pub const BLOCK: usize = 8;

/// Precomputed `cos((2x+1) u pi / 16)` basis, indexed `[u][x]`.
fn basis() -> &'static [[f32; BLOCK]; BLOCK] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; BLOCK]; BLOCK]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0f32; BLOCK]; BLOCK];
        for (u, row) in t.iter_mut().enumerate() {
            for (x, v) in row.iter_mut().enumerate() {
                *v = ((2 * x + 1) as f32 * u as f32 * std::f32::consts::PI / 16.0).cos();
            }
        }
        t
    })
}

#[inline]
fn alpha(u: usize) -> f32 {
    if u == 0 {
        1.0 / std::f32::consts::SQRT_2
    } else {
        1.0
    }
}

/// Forward 8×8 DCT-II of a row-major block (in place into `out`).
pub fn forward(block: &[f32; BLOCK * BLOCK], out: &mut [f32; BLOCK * BLOCK]) {
    let b = basis();
    // Row pass.
    let mut tmp = [0f32; BLOCK * BLOCK];
    for y in 0..BLOCK {
        for u in 0..BLOCK {
            let mut acc = 0.0;
            for x in 0..BLOCK {
                acc += block[y * BLOCK + x] * b[u][x];
            }
            tmp[y * BLOCK + u] = acc;
        }
    }
    // Column pass.
    for v in 0..BLOCK {
        for u in 0..BLOCK {
            let mut acc = 0.0;
            for y in 0..BLOCK {
                acc += tmp[y * BLOCK + u] * b[v][y];
            }
            out[v * BLOCK + u] = 0.25 * alpha(u) * alpha(v) * acc;
        }
    }
}

/// Inverse 8×8 DCT-III of a row-major coefficient block (into `out`).
///
/// Every output is `0.25 · Σ_u (α(u)·t[y][u])·b[u][x]` over the column
/// pass `t[y][u] = Σ_v (α(v)·c[v][u])·b[v][y]`, each sum accumulated from
/// `0.0` in ascending order. The loops keep one 8-lane accumulator per
/// output row (across `u` in the column pass, across `x` in the row pass),
/// so the compiler vectorizes them without changing any lane's sequence of
/// operations.
pub fn inverse(coef: &[f32; BLOCK * BLOCK], out: &mut [f32; BLOCK * BLOCK]) {
    let b = basis();
    // α(v)·c[v][u] does not depend on y: form it once, not once per row.
    let mut scaled = [[0f32; BLOCK]; BLOCK];
    for (v, (row, c)) in scaled.iter_mut().zip(coef.chunks_exact(BLOCK)).enumerate() {
        for (s, &c) in row.iter_mut().zip(c) {
            *s = alpha(v) * c;
        }
    }
    for (y, out_row) in out.chunks_exact_mut(BLOCK).enumerate() {
        // Column pass: lanes are u.
        let mut t = [0f32; BLOCK];
        for (row, basis_v) in scaled.iter().zip(b) {
            for (acc, &s) in t.iter_mut().zip(row) {
                *acc += s * basis_v[y];
            }
        }
        // Row pass: lanes are x.
        let mut acc = [0f32; BLOCK];
        for (u, (&t, basis_u)) in t.iter().zip(b).enumerate() {
            let s = alpha(u) * t;
            for (a, &bx) in acc.iter_mut().zip(basis_u) {
                *a += s * bx;
            }
        }
        for (o, a) in out_row.iter_mut().zip(acc) {
            *o = 0.25 * a;
        }
    }
}

#[cfg(test)]
pub(crate) mod reference {
    use super::{alpha, basis, BLOCK};

    /// The dense triple-loop inverse DCT [`super::inverse`] must match bit
    /// for bit.
    pub(crate) fn inverse(coef: &[f32; BLOCK * BLOCK], out: &mut [f32; BLOCK * BLOCK]) {
        let b = basis();
        // Column pass.
        let mut tmp = [0f32; BLOCK * BLOCK];
        for y in 0..BLOCK {
            for u in 0..BLOCK {
                let mut acc = 0.0;
                for v in 0..BLOCK {
                    acc += alpha(v) * coef[v * BLOCK + u] * b[v][y];
                }
                tmp[y * BLOCK + u] = acc;
            }
        }
        // Row pass.
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                let mut acc = 0.0;
                for u in 0..BLOCK {
                    acc += alpha(u) * tmp[y * BLOCK + u] * b[u][x];
                }
                out[y * BLOCK + x] = 0.25 * acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_wise_inverse_is_bit_identical_to_the_dense_loop() {
        let mut rng = crate::test_rng::Rng::new(0xDC7);
        let tables = crate::quant::QuantTables::for_quality(crate::Quality::High);
        for case in 0..12_000 {
            let mut coef = [0f32; 64];
            for (i, c) in coef.iter_mut().enumerate() {
                *c = match case % 3 {
                    // Dequantized levels, mostly zero as in real streams.
                    0 if rng.below(4) == 0 => {
                        (rng.below(61) as i32 - 30) as f32 * tables.luma[i] as f32
                    }
                    0 => 0.0,
                    1 => rng.f32_in(-2048.0, 2048.0),
                    // Signed zeros and huge magnitudes.
                    _ => [0.0, -0.0, 1e30, -3e29, rng.f32_in(-1.0, 1.0)][rng.below(5) as usize],
                };
            }
            let (mut lanes, mut dense) = ([0f32; 64], [0f32; 64]);
            inverse(&coef, &mut lanes);
            reference::inverse(&coef, &mut dense);
            for (a, b) in lanes.iter().zip(&dense) {
                assert_eq!((a + 0.0).to_bits(), (b + 0.0).to_bits(), "{coef:?}");
            }
        }
    }

    fn roundtrip(block: [f32; 64]) -> [f32; 64] {
        let mut coef = [0f32; 64];
        let mut back = [0f32; 64];
        forward(&block, &mut coef);
        inverse(&coef, &mut back);
        back
    }

    #[test]
    fn dc_only_for_flat_block() {
        let block = [100.0f32; 64];
        let mut coef = [0f32; 64];
        forward(&block, &mut coef);
        assert!(
            (coef[0] - 800.0).abs() < 1e-2,
            "DC of flat block should be 8*value"
        );
        for (i, c) in coef.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-3, "AC coefficient {i} should vanish, got {c}");
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let mut block = [0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 37) % 256) as f32 - 128.0;
        }
        let back = roundtrip(block);
        for (a, b) in block.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-2, "roundtrip drift {a} vs {b}");
        }
    }

    #[test]
    fn linearity() {
        let mut b1 = [0f32; 64];
        let mut b2 = [0f32; 64];
        for i in 0..64 {
            b1[i] = (i as f32).sin() * 50.0;
            b2[i] = (i as f32 * 0.7).cos() * 30.0;
        }
        let mut c1 = [0f32; 64];
        let mut c2 = [0f32; 64];
        let mut csum = [0f32; 64];
        forward(&b1, &mut c1);
        forward(&b2, &mut c2);
        let mut sum = [0f32; 64];
        for i in 0..64 {
            sum[i] = b1[i] + b2[i];
        }
        forward(&sum, &mut csum);
        for i in 0..64 {
            assert!((csum[i] - (c1[i] + c2[i])).abs() < 1e-2);
        }
    }

    #[test]
    fn energy_preservation_parseval() {
        let mut block = [0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i as f32 * 1.3).sin()) * 100.0;
        }
        let mut coef = [0f32; 64];
        forward(&block, &mut coef);
        let es: f32 = block.iter().map(|v| v * v).sum();
        let ec: f32 = coef.iter().map(|v| v * v).sum();
        assert!(
            (es - ec).abs() / es < 1e-4,
            "Parseval violated: {es} vs {ec}"
        );
    }
}
