//! Delta-side Ball-Tree: incremental maintenance for threshold queries.
//!
//! A [`DeltaBallTree`] wraps an immutable base [`BallTree`] (shared by
//! `Arc`, so carrying it across collection versions is a pointer copy) and
//! absorbs writes into two small side structures instead of rebuilding the
//! O(n log n) tree:
//!
//! * **tombstones** — base positions whose row changed or disappeared; hits
//!   from the base tree at these ids are suppressed;
//! * **delta rows** — appended or changed rows, kept in a map from position
//!   to feature vector (one allocation per row) and scanned exactly, in
//!   ascending position.
//!
//! [`DeltaBallTree::range_query`] therefore answers with *identical
//! leaf-distance semantics* to a fresh tree over the current rows: the base
//! tree's leaves and the delta scan both admit a point iff
//! `sq_euclidean(query, point) <= tau * tau`, over bitwise-identical
//! feature vectors. Because a Ball-Tree reports hits in traversal order —
//! which depends on the tree's shape and would differ between a maintained
//! and a fresh build — the combined result is returned **sorted by
//! position**, which is shape-independent and therefore byte-identical
//! across the two paths. [`DeltaBallTree::range_query_sq`] is the unsorted
//! form with each hit's squared distance: the probe a similarity join runs,
//! whether over a persisted index or a fresh tree wrapped by
//! [`DeltaBallTree::from_tree`].
//!
//! The structure is deliberately merge-biased: it never rebalances. The
//! owner is expected to price `delta_rows()` against a full rebuild (see
//! `CostModel::incremental_index_cost` in `deeplens-core`) and collapse the
//! delta into a fresh base tree when scanning it stops being cheap.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::balltree::BallTree;
use crate::dist::sq_euclidean;

/// A base [`BallTree`] plus a tombstone set and a position-ordered map of
/// delta rows, answering range queries byte-identically to a fresh build over
/// the current rows (sorted by position).
#[derive(Debug, Clone)]
pub struct DeltaBallTree {
    /// The immutable tree over the rows as of the last full (re)build.
    /// Point ids are row positions `0..base.len()`.
    base: Arc<BallTree>,
    /// Base positions whose row changed or no longer exists. A tombstoned
    /// position may be re-covered by a delta row (changed row) or not
    /// (collection shrank past it).
    tombstones: BTreeSet<u32>,
    /// Side buffer of rows not answered by the base tree, keyed by
    /// position. Keys below `base.len()` shadow a tombstoned base point;
    /// keys at or above it are appended rows. Ordered so the exact scan
    /// emits positions in ascending order deterministically.
    delta: BTreeMap<u32, Vec<f32>>,
}

impl DeltaBallTree {
    /// Wrap a freshly built tree with an empty delta. Queries are exactly
    /// the tree's (sorted by position).
    pub fn from_tree(tree: BallTree) -> Self {
        DeltaBallTree {
            base: Arc::new(tree),
            tombstones: BTreeSet::new(),
            delta: BTreeMap::new(),
        }
    }

    /// The base tree (shared across versions until the next full rebuild).
    pub fn base(&self) -> &BallTree {
        &self.base
    }

    /// Dimensionality of the indexed vectors, when any row is covered.
    /// `None` only for an index over zero rows.
    pub fn dim(&self) -> Option<usize> {
        if !self.base.is_empty() {
            Some(self.base.dim())
        } else {
            self.delta.values().next().map(Vec::len)
        }
    }

    /// Number of live rows the index covers.
    pub fn len(&self) -> usize {
        // Every delta key below base.len() shadows a tombstoned position
        // (the upsert invariant), so the three terms never double count.
        self.base.len() - self.tombstones.len() + self.delta.len()
    }

    /// Whether the index covers no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows of side-structure work a query pays on top of the base tree:
    /// tombstone suppressions plus delta rows scanned exactly. This is the
    /// quantity the owner prices against a full rebuild.
    pub fn delta_rows(&self) -> usize {
        self.tombstones.len() + self.delta.len()
    }

    /// Record that the row at `position` now holds `features` (a changed
    /// base row, a re-grown position, or an append past the base).
    ///
    /// Returns `false` — leaving the index untouched — if the vector's
    /// dimensionality disagrees with the indexed rows; the caller must then
    /// fall back to a full rebuild (a fresh build over mixed dimensions
    /// would fail identically).
    pub fn upsert(&mut self, position: u32, features: Vec<f32>) -> bool {
        if self.dim().is_some_and(|d| d != features.len()) {
            return false;
        }
        if (position as usize) < self.base.len() {
            self.tombstones.insert(position);
        }
        self.delta.insert(position, features);
        true
    }

    /// Shrink coverage to rows `0..len`: base positions at or past `len`
    /// are tombstoned and delta rows there are dropped.
    pub fn truncate(&mut self, len: usize) {
        for pos in len..self.base.len() {
            self.tombstones.insert(pos as u32);
        }
        self.delta.retain(|&pos, _| (pos as usize) < len);
    }

    /// All live positions within Euclidean distance `tau` of `query`, each
    /// with its squared distance: the base tree's hits
    /// ([`BallTree::range_query_sq`], traversal order) minus tombstones, then
    /// the delta rows in ascending position. Every `d²` is the exact
    /// `sq_euclidean(query, row)` that admitted the row, so a caller probing
    /// at an outer radius can demultiplex tighter thresholds against
    /// bit-identical values. The order depends on the tree's shape; sort
    /// for a shape-independent answer, as [`DeltaBallTree::range_query`]
    /// does.
    ///
    /// Panics as [`BallTree::range_query`] does, even when only delta rows
    /// answer.
    pub fn range_query_sq(&self, query: &[f32], tau: f32) -> Vec<(u32, f32)> {
        let dim = self.dim().unwrap_or(query.len());
        assert_eq!(query.len(), dim, "query dimension mismatch");
        assert!(tau >= 0.0, "range threshold {tau} is negative or NaN");
        let mut hits = if self.base.is_empty() {
            Vec::new()
        } else {
            self.base.range_query_sq(query, tau)
        };
        if !self.tombstones.is_empty() {
            hits.retain(|(id, _)| !self.tombstones.contains(id));
        }
        let tau_sq = tau * tau;
        for (&pos, feats) in &self.delta {
            let d2 = sq_euclidean(query, feats);
            if d2 <= tau_sq {
                hits.push((pos, d2));
            }
        }
        hits
    }

    /// All live positions within Euclidean distance `tau` of `query`,
    /// **sorted ascending** — byte-identical to sorting a fresh
    /// [`BallTree::range_query`] over the current rows.
    pub fn range_query(&self, query: &[f32], tau: f32) -> Vec<u32> {
        let mut hits: Vec<u32> = self
            .range_query_sq(query, tau)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        hits.sort_unstable();
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random vectors (xorshift — no RNG dependency).
    fn vectors(seed: u64, n: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f32 / 100.0
        };
        (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
    }

    /// Reference: fresh tree over `rows`, result sorted.
    fn fresh_query(rows: &[Vec<f32>], q: &[f32], tau: f32) -> Vec<u32> {
        if rows.is_empty() {
            return Vec::new();
        }
        let mut hits = BallTree::from_vectors(rows).range_query(q, tau);
        hits.sort_unstable();
        hits
    }

    #[test]
    fn empty_delta_matches_sorted_tree() {
        let rows = vectors(7, 200, 6);
        let delta = DeltaBallTree::from_tree(BallTree::from_vectors(&rows));
        assert_eq!(delta.len(), 200);
        assert_eq!(delta.delta_rows(), 0);
        for q in rows.iter().step_by(17) {
            assert_eq!(delta.range_query(q, 2.5), fresh_query(&rows, q, 2.5));
        }
    }

    #[test]
    fn appends_changes_and_shrinks_match_fresh_builds() {
        let mut rows = vectors(11, 150, 5);
        let mut delta = DeltaBallTree::from_tree(BallTree::from_vectors(&rows));
        let extra = vectors(13, 60, 5);

        // Appends.
        for v in &extra[..20] {
            rows.push(v.clone());
            assert!(delta.upsert((rows.len() - 1) as u32, v.clone()));
        }
        // In-place changes of base rows.
        for (i, v) in extra[20..40].iter().enumerate() {
            let pos = i * 7 % 150;
            rows[pos] = v.clone();
            assert!(delta.upsert(pos as u32, v.clone()));
        }
        // Shrink, then re-grow over the truncated tail.
        rows.truncate(120);
        delta.truncate(120);
        for v in &extra[40..] {
            rows.push(v.clone());
            assert!(delta.upsert((rows.len() - 1) as u32, v.clone()));
        }

        assert_eq!(delta.len(), rows.len());
        let probes = vectors(17, 12, 5);
        for (tau, q) in probes.iter().enumerate() {
            let tau = 0.5 + tau as f32 * 0.4;
            assert_eq!(
                delta.range_query(q, tau),
                fresh_query(&rows, q, tau),
                "tau {tau}"
            );
        }
    }

    #[test]
    fn range_query_sq_distances_are_exact_after_appends_changes_and_shrinks() {
        let mut rows = vectors(19, 180, 6);
        let mut delta = DeltaBallTree::from_tree(BallTree::from_vectors(&rows));
        let extra = vectors(23, 40, 6);
        for v in &extra[..15] {
            rows.push(v.clone());
            assert!(delta.upsert((rows.len() - 1) as u32, v.clone()));
        }
        for (i, v) in extra[15..30].iter().enumerate() {
            let pos = i * 11 % 180;
            rows[pos] = v.clone();
            assert!(delta.upsert(pos as u32, v.clone()));
        }
        rows.truncate(170);
        delta.truncate(170);
        for v in &extra[30..] {
            rows.push(v.clone());
            assert!(delta.upsert((rows.len() - 1) as u32, v.clone()));
        }
        assert!(delta.delta_rows() > 0);
        for (i, q) in vectors(29, 10, 6).iter().enumerate() {
            let tau = 1.0 + i as f32 * 0.5;
            let with_d = delta.range_query_sq(q, tau);
            for &(pos, d2) in &with_d {
                assert_eq!(d2, sq_euclidean(q, &rows[pos as usize]), "pos {pos}");
                assert!(d2 <= tau * tau);
            }
            let mut ids: Vec<u32> = with_d.iter().map(|&(pos, _)| pos).collect();
            ids.sort_unstable();
            assert_eq!(ids, delta.range_query(q, tau));
            assert_eq!(ids, fresh_query(&rows, q, tau), "tau {tau}");
        }
    }

    #[test]
    fn shrink_to_empty_then_regrow() {
        let rows = vectors(3, 40, 3);
        let mut delta = DeltaBallTree::from_tree(BallTree::from_vectors(&rows));
        delta.truncate(0);
        assert!(delta.is_empty());
        assert!(delta.range_query(&rows[0], 10.0).is_empty());
        let grown = vectors(5, 8, 3);
        for (i, v) in grown.iter().enumerate() {
            assert!(delta.upsert(i as u32, v.clone()));
        }
        assert_eq!(delta.len(), 8);
        for q in &grown {
            assert_eq!(delta.range_query(q, 1.0), fresh_query(&grown, q, 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn delta_only_index_rejects_a_wrong_length_query() {
        // No base tree checks the query here: only delta rows answer.
        let mut delta = DeltaBallTree::from_tree(BallTree::from_vectors(&[]));
        assert!(delta.upsert(0, vec![0.0, 0.0, 0.0]));
        assert!(delta.upsert(1, vec![5.0, 5.0, 5.0]));
        let _ = delta.range_query(&[5.0], 0.5);
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn negative_tau_rejected() {
        let mut delta = DeltaBallTree::from_tree(BallTree::from_vectors(&[]));
        assert!(delta.upsert(0, vec![1.0]));
        let _ = delta.range_query(&[1.0], -1.0);
    }

    #[test]
    fn empty_index_answers_any_query() {
        let delta = DeltaBallTree::from_tree(BallTree::from_vectors(&[]));
        assert!(delta.range_query(&[1.0, 2.0], 1.0).is_empty());
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let rows = vectors(9, 10, 4);
        let mut delta = DeltaBallTree::from_tree(BallTree::from_vectors(&rows));
        assert!(!delta.upsert(10, vec![1.0; 3]));
        assert_eq!(delta.delta_rows(), 0, "rejected upsert left state intact");
    }
}
