//! Linear-scan reference implementations.
//!
//! These double as the *unindexed baseline* in the paper's Fig. 4/5
//! comparisons and as ground truth for the index structures' tests.

use crate::dist::sq_euclidean;

/// Ids of all points within Euclidean distance `tau` of `query`. Panics on
/// a `tau` that is negative or NaN, as the indexes do: `d² <= τ²` would
/// admit points a negative `τ` excludes.
pub fn range_query(points: &[Vec<f32>], query: &[f32], tau: f32) -> Vec<u32> {
    assert!(tau >= 0.0, "range threshold {tau} is negative or NaN");
    let tau_sq = tau * tau;
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| sq_euclidean(p, query) <= tau_sq)
        .map(|(i, _)| i as u32)
        .collect()
}

/// The `k` nearest neighbours of `query` as `(id, distance)`, closest first.
pub fn knn(points: &[Vec<f32>], query: &[f32], k: usize) -> Vec<(u32, f32)> {
    let mut all: Vec<(u32, f32)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, sq_euclidean(p, query).sqrt()))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Vec<f32>> {
        vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
        ]
    }

    #[test]
    fn range_query_basic() {
        let r = range_query(&pts(), &[0.0, 0.0], 1.1);
        assert_eq!(r, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn negative_tau_rejected() {
        let _ = range_query(&pts(), &[0.0, 0.0], -1.0);
    }

    #[test]
    fn knn_basic() {
        let r = knn(&pts(), &[0.0, 0.0], 2);
        assert_eq!(r[0].0, 0);
        assert_eq!(r[0].1, 0.0);
        assert_eq!(r.len(), 2);
    }
}
