//! Distance kernels shared by the index structures.

/// Squared Euclidean distance between two equal-length vectors (panics
/// otherwise): four lanes over `chunks_exact(4)`, summed `acc[0] + acc[1] +
/// acc[2] + acc[3]`, then the scalar tail. The loop autovectorizes with no
/// bounds check; every caller relies on this operation order for
/// bit-identical distances. The hot inner loop of every similarity query.
#[inline]
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vectors of unequal length");
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let (a_tail, b_tail) = (a4.remainder(), b4.remainder());
    let mut acc = [0f32; 4];
    for (x, y) in a4.zip(b4) {
        for lane in 0..4 {
            let d = x[lane] - y[lane];
            acc[lane] += d * d;
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for (x, y) in a_tail.iter().zip(b_tail) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Euclidean distance.
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    sq_euclidean(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_distances() {
        assert_eq!(sq_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(sq_euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn remainder_lanes_handled() {
        // Length 7 exercises both the chunked and scalar tails.
        let a = [1.0f32; 7];
        let b = [2.0f32; 7];
        assert!((sq_euclidean(&a, &b) - 7.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn unequal_lengths_rejected() {
        let _ = sq_euclidean(&[1.0, 2.0, 3.0], &[1.0]);
    }

    #[test]
    fn symmetric() {
        let a = [0.5f32, -1.0, 2.0, 8.0, 0.25];
        let b = [1.5f32, 0.0, -2.0, 4.0, 0.75];
        assert_eq!(sq_euclidean(&a, &b), sq_euclidean(&b, &a));
    }
}
