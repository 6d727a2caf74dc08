//! Ball-Tree for Euclidean threshold queries.
//!
//! Kumar et al. [17 in the paper] found Ball-Trees the most effective
//! structure for "find patches within distance τ" queries on image features.
//! DeepLens uses it for image-matching similarity joins (q1, q4): it probes
//! the tree a collection's catalog index already keeps, or builds one
//! *on-the-fly* over the smaller join relation (§5, "On-The-Fly Index
//! Similarity Join").
//!
//! Construction recursively splits points along the dimension of maximum
//! spread at its median; every node stores the centroid and covering radius
//! of its subtree so queries can prune whole subtrees via the triangle
//! inequality. Subtrees above [`PARALLEL_BUILD_CUTOFF`] points can build as
//! scoped-thread morsels ([`BallTree::build_parallel`]): the split is
//! computed before the spawn, so the parallel tree is structurally identical
//! to the serial one.
//!
//! # Layout
//!
//! The tree is flat arrays, with no per-node allocation. The nodes sit in
//! DFS pre-order as parallel arrays: `centroids` (node-major, `dim` values
//! per node), `radii`, `skip` (one past the node's subtree, so a leaf has
//! `skip[i] == i + 1`, a branch's children are `i + 1` and `skip[i + 1]`)
//! and `span` (the node's `[lo, hi)` rows of the point buffer). The points
//! are in *leaf order*: the build permutes an id array so that every leaf's
//! points are one contiguous run of it, then permutes the point buffer
//! once, in place, to match; `ids` maps each row back to the insertion-order
//! id that queries report. A range probe is one forward loop: a pruned node
//! jumps to its `skip`, and a leaf scans its contiguous rows.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::dist::{euclidean, sq_euclidean};

/// Points per leaf before splitting stops.
pub const LEAF_SIZE: usize = 16;

/// Minimum subtree size worth spawning a scoped build thread for.
pub const PARALLEL_BUILD_CUTOFF: usize = 2048;

/// The nodes in DFS pre-order (see the module docs).
#[derive(Debug, Clone, Default)]
struct Nodes {
    /// Node-major, `dim` values per node.
    centroids: Vec<f32>,
    radii: Vec<f32>,
    /// One past the node's subtree: `i + 1` for a leaf.
    skip: Vec<u32>,
    /// The node's `[lo, hi)` rows of the leaf-ordered point buffer.
    span: Vec<[u32; 2]>,
}

impl Nodes {
    /// Append a subtree built into arrays of its own after the last node.
    fn append(&mut self, other: Nodes) {
        let offset = self.radii.len() as u32;
        self.centroids.extend_from_slice(&other.centroids);
        self.radii.extend_from_slice(&other.radii);
        self.skip.extend(other.skip.iter().map(|s| s + offset));
        self.span.extend_from_slice(&other.span);
    }
}

/// A Ball-Tree over a dense set of `f32` vectors.
///
/// The tree owns a copy of its points; ids returned by queries index the
/// original insertion order.
#[derive(Debug)]
pub struct BallTree {
    dim: usize,
    /// The points in leaf order, row-major, `dim` components each.
    points: Vec<f32>,
    /// The insertion-order id of each row of `points`.
    ids: Vec<u32>,
    nodes: Nodes,
    /// Distance computations performed by queries — the cost metric behind
    /// the paper's Fig. 7 non-linearity study. Each query tallies its
    /// evaluations in a local count and publishes it here with one relaxed
    /// add when it finishes, so concurrent probes of one shared tree (probe
    /// morsels, or several sessions probing a persisted index) do not contend
    /// on this cache line node by node.
    distance_evals: AtomicU64,
}

impl Clone for BallTree {
    /// Clones share no state: the copy starts with the original's current
    /// distance-evaluation count (the counter is a metric, not an identity).
    fn clone(&self) -> Self {
        BallTree {
            dim: self.dim,
            points: self.points.clone(),
            ids: self.ids.clone(),
            nodes: self.nodes.clone(),
            distance_evals: AtomicU64::new(self.distance_evals.load(Ordering::Relaxed)),
        }
    }
}

impl BallTree {
    /// Build a tree over `points` (row-major, `dim` components each).
    ///
    /// `dim == 0` is accepted only for an empty point buffer (a tree over
    /// zero-dimensional points must come through [`BallTree::from_vectors`],
    /// which knows the point count). Panics if `points.len()` is not a
    /// multiple of a positive `dim`.
    pub fn build(dim: usize, points: Vec<f32>) -> Self {
        Self::build_parallel(dim, points, 1)
    }

    /// [`BallTree::build`] with subtree construction fanned out over up to
    /// `threads` scoped worker threads. The resulting tree is structurally
    /// identical to the serial build.
    pub fn build_parallel(dim: usize, points: Vec<f32>, threads: usize) -> Self {
        if dim == 0 {
            assert!(
                points.is_empty(),
                "dim == 0 point buffers carry no point count; use from_vectors"
            );
            return Self::build_inner(0, 0, points, 1);
        }
        assert_eq!(
            points.len() % dim,
            0,
            "point buffer must be a multiple of dim"
        );
        let n = points.len() / dim;
        Self::build_inner(dim, n, points, threads)
    }

    /// Build from a slice of equal-length vectors.
    ///
    /// Zero-length vectors are legal: all points coincide at the (only)
    /// zero-dimensional origin, so every point is within any `tau >= 0` of
    /// any query — matching what a brute-force scan computes.
    pub fn from_vectors(vectors: &[Vec<f32>]) -> Self {
        Self::from_vectors_parallel(vectors, 1)
    }

    /// [`BallTree::from_vectors`] with a parallel construction budget of
    /// `threads` scoped workers.
    pub fn from_vectors_parallel(vectors: &[Vec<f32>], threads: usize) -> Self {
        let dim = vectors.first().map(|v| v.len()).unwrap_or(1);
        for v in vectors {
            assert_eq!(v.len(), dim, "all vectors must share a dimension");
        }
        if dim == 0 {
            return Self::build_inner(0, vectors.len(), Vec::new(), 1);
        }
        let mut flat = Vec::with_capacity(vectors.len() * dim);
        for v in vectors {
            flat.extend_from_slice(v);
        }
        Self::build_inner(dim, vectors.len(), flat, threads)
    }

    fn build_inner(dim: usize, n: usize, mut points: Vec<f32>, threads: usize) -> Self {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Nodes::default();
        if n > 0 {
            let build = Build {
                dim,
                points: &points,
            };
            build.subtree(&mut ids, 0, threads.max(1), &mut nodes);
        }
        gather_rows(&mut points, dim, &ids);
        BallTree {
            dim,
            points,
            ids,
            nodes,
            distance_evals: AtomicU64::new(0),
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality of indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// All point ids within Euclidean distance `tau` of `query`. Panics if
    /// `query` has another dimension than the points, or `tau` is negative
    /// or NaN.
    pub fn range_query(&self, query: &[f32], tau: f32) -> Vec<u32> {
        let mut out = Vec::new();
        self.range_walk(query, tau, |id, _| out.push(id));
        out
    }

    /// [`BallTree::range_query`] returning `(id, squared_distance)` pairs.
    ///
    /// The distances are the very leaf-level `sq_euclidean` evaluations the
    /// traversal performs — exposed so batched callers probing at a shared
    /// outer radius can demultiplex members by their own tighter thresholds
    /// against bit-identical values instead of re-evaluating distances.
    pub fn range_query_sq(&self, query: &[f32], tau: f32) -> Vec<(u32, f32)> {
        let mut out = Vec::new();
        self.range_walk(query, tau, |id, d2| out.push((id, d2)));
        out
    }

    /// One range traversal in DFS pre-order, counting its distance
    /// evaluations locally and publishing the total once.
    fn range_walk(&self, query: &[f32], tau: f32, mut emit: impl FnMut(u32, f32)) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        assert!(tau >= 0.0, "range threshold {tau} is negative or NaN");
        let (nodes, dim, tau_sq) = (&self.nodes, self.dim, tau * tau);
        let mut evals = 0;
        let mut i = 0;
        while i < nodes.radii.len() {
            evals += 1;
            if euclidean(query, &nodes.centroids[i * dim..][..dim]) > nodes.radii[i] + tau {
                // Ball entirely outside the query radius.
                i = nodes.skip[i] as usize;
                continue;
            }
            if nodes.skip[i] as usize == i + 1 {
                let [lo, hi] = nodes.span[i].map(|r| r as usize);
                evals += (hi - lo) as u64;
                for (row, &id) in (lo..hi).zip(&self.ids[lo..hi]) {
                    let d2 = sq_euclidean(query, &self.points[row * dim..][..dim]);
                    if d2 <= tau_sq {
                        emit(id, d2);
                    }
                }
            }
            i += 1;
        }
        self.distance_evals.fetch_add(evals, Ordering::Relaxed);
    }

    /// Reset the distance-evaluation counter and return its previous value.
    pub fn take_distance_evals(&self) -> u64 {
        self.distance_evals.swap(0, Ordering::Relaxed)
    }
}

/// Rewrite `points` (row-major, `dim` values a row) in place so that row
/// `j` holds what row `ids[j]` held, moving each row once along the cycles
/// of the permutation: the tree never holds two copies of its points.
fn gather_rows(points: &mut [f32], dim: usize, ids: &[u32]) {
    let mut placed = vec![false; ids.len()];
    let mut held = vec![0f32; dim];
    for start in 0..ids.len() {
        if placed[start] {
            continue;
        }
        held.copy_from_slice(&points[start * dim..][..dim]);
        let mut row = start;
        loop {
            placed[row] = true;
            let src = ids[row] as usize;
            if src == start {
                points[row * dim..][..dim].copy_from_slice(&held);
                break;
            }
            points.copy_within(src * dim..(src + 1) * dim, row * dim);
            row = src;
        }
    }
}

/// The build's view of the insertion-order point buffer.
struct Build<'a> {
    dim: usize,
    points: &'a [f32],
}

impl Build<'_> {
    fn point(&self, id: u32) -> &[f32] {
        &self.points[id as usize * self.dim..][..self.dim]
    }

    /// Append the subtree over `ids` — rows `lo..lo + ids.len()` of the
    /// leaf order — to `out` in DFS pre-order, with a budget of `budget`
    /// worker threads. The split point is chosen *before* any thread spawns,
    /// so the result is identical to the serial build for every budget.
    fn subtree(&self, ids: &mut [u32], lo: usize, budget: usize, out: &mut Nodes) {
        let node = out.radii.len();
        let start = out.centroids.len();
        out.centroids.resize(start + self.dim, 0.0);
        let centroid = &mut out.centroids[start..];
        for &id in ids.iter() {
            for (c, v) in centroid.iter_mut().zip(self.point(id)) {
                *c += v;
            }
        }
        let n = ids.len();
        for c in centroid.iter_mut() {
            *c /= n as f32;
        }
        let radius = ids
            .iter()
            .map(|&id| euclidean(centroid, self.point(id)))
            .fold(0f32, f32::max);
        out.radii.push(radius);
        out.skip.push(0);
        out.span.push([lo as u32, (lo + n) as u32]);
        if let Some(split_dim) = self.split_dim(ids) {
            let mid = n / 2;
            ids.select_nth_unstable_by(mid, |&a, &b| {
                self.point(a)[split_dim].total_cmp(&self.point(b)[split_dim])
            });
            let (left_ids, right_ids) = ids.split_at_mut(mid);
            if budget > 1 && n >= PARALLEL_BUILD_CUTOFF {
                let right_budget = budget / 2;
                let right = std::thread::scope(|s| {
                    let right = s.spawn(move || {
                        let mut right = Nodes::default();
                        self.subtree(right_ids, lo + mid, right_budget, &mut right);
                        right
                    });
                    self.subtree(left_ids, lo, budget - right_budget, out);
                    right.join().expect("subtree build panicked")
                });
                out.append(right);
            } else {
                self.subtree(left_ids, lo, 1, out);
                self.subtree(right_ids, lo + mid, 1, out);
            }
        }
        out.skip[node] = out.radii.len() as u32;
    }

    /// The dimension of maximum spread to split `ids` on at its median, or
    /// `None` for a leaf: at most [`LEAF_SIZE`] points, zero dimensions
    /// (all points coincide at the origin), or no spread to split.
    fn split_dim(&self, ids: &[u32]) -> Option<usize> {
        if ids.len() <= LEAF_SIZE {
            return None;
        }
        let spread = |d: usize| {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &id in ids {
                let v = self.point(id)[d];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            hi - lo
        };
        let (split_dim, widest) = (0..self.dim)
            .map(|d| (d, spread(d)))
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        if widest <= f32::EPSILON {
            None
        } else {
            Some(split_dim)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;

    fn grid_points(n: usize, dim: usize) -> Vec<Vec<f32>> {
        // Deterministic pseudo-random points in [0, 10).
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f32 / (1u64 << 31) as f32 * 10.0
        };
        (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
    }

    #[test]
    fn empty_tree_queries() {
        let t = BallTree::build(3, vec![]);
        assert!(t.is_empty());
        assert!(t.range_query(&[0.0, 0.0, 0.0], 1.0).is_empty());
    }

    #[test]
    fn range_query_matches_bruteforce_low_dim() {
        let pts = grid_points(500, 3);
        let tree = BallTree::from_vectors(&pts);
        for q in pts.iter().step_by(83) {
            for tau in [0.5f32, 1.5, 4.0] {
                let mut got = tree.range_query(q, tau);
                let mut expect = bruteforce::range_query(&pts, q, tau);
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect, "tau={tau}");
            }
        }
    }

    #[test]
    fn range_query_matches_bruteforce_high_dim() {
        let pts = grid_points(300, 32);
        let tree = BallTree::from_vectors(&pts);
        let q = &pts[7];
        for tau in [1.0f32, 8.0, 20.0] {
            let mut got = tree.range_query(q, tau);
            let mut expect = bruteforce::range_query(&pts, q, tau);
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn range_query_sq_carries_exact_leaf_distances() {
        let pts = grid_points(800, 6);
        let tree = BallTree::from_vectors(&pts);
        for qi in [0usize, 99, 421] {
            for tau in [0.8f32, 2.5] {
                let with_d = tree.range_query_sq(&pts[qi], tau);
                let ids: Vec<u32> = with_d.iter().map(|&(id, _)| id).collect();
                assert_eq!(
                    ids,
                    tree.range_query(&pts[qi], tau),
                    "id sequence must match"
                );
                for &(id, d2) in &with_d {
                    // Bit-identical to an independent evaluation of the same
                    // expression (this is the demux guarantee).
                    assert_eq!(d2, sq_euclidean(&pts[qi], &pts[id as usize]));
                    assert!(d2 <= tau * tau);
                }
            }
        }
    }

    #[test]
    fn duplicate_points_handled() {
        let pts: Vec<Vec<f32>> = (0..100).map(|_| vec![1.0, 2.0, 3.0]).collect();
        let tree = BallTree::from_vectors(&pts);
        assert_eq!(tree.range_query(&[1.0, 2.0, 3.0], 0.001).len(), 100);
    }

    #[test]
    fn pruning_reduces_distance_evals() {
        let pts = grid_points(4000, 4);
        let tree = BallTree::from_vectors(&pts);
        tree.take_distance_evals();
        let _ = tree.range_query(&pts[0], 0.5);
        let evals = tree.take_distance_evals();
        assert!(
            evals < 4000,
            "tight query should prune most points: {evals} evals vs 4000 points"
        );
    }

    #[test]
    fn high_dim_prunes_worse_than_low_dim() {
        // The curse of dimensionality: same point count, more distance evals
        // in higher dimension — the mechanism behind the paper's Fig. 7.
        let lo = grid_points(2000, 3);
        let hi = grid_points(2000, 48);
        let t_lo = BallTree::from_vectors(&lo);
        let t_hi = BallTree::from_vectors(&hi);
        t_lo.take_distance_evals();
        t_hi.take_distance_evals();
        for i in (0..2000).step_by(100) {
            let _ = t_lo.range_query(&lo[i], 0.5);
            let _ = t_hi.range_query(&hi[i], 0.5);
        }
        let e_lo = t_lo.take_distance_evals();
        let e_hi = t_hi.take_distance_evals();
        assert!(
            e_hi > e_lo,
            "high-dim should evaluate more distances ({e_hi} vs {e_lo})"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn query_dimension_checked() {
        let tree = BallTree::build(3, vec![0.0; 9]);
        let _ = tree.range_query(&[0.0, 0.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn negative_tau_rejected() {
        // Brute force would admit the point itself at d² = 0 <= (-1)²; a
        // tree pruning at d > r + τ would not. Neither answers.
        let tree = BallTree::from_vectors(&[vec![1.0, 2.0]]);
        let _ = tree.range_query(&[1.0, 2.0], -1.0);
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn nan_tau_rejected() {
        let tree = BallTree::from_vectors(&[vec![1.0, 2.0]]);
        let _ = tree.range_query(&[1.0, 2.0], f32::NAN);
    }

    #[test]
    fn zero_dimensional_vectors_match_bruteforce() {
        // Degenerate features (empty vectors) must not panic: every point
        // sits at the zero-dimensional origin, so a tau >= 0 range query
        // returns all of them — exactly what a brute-force scan computes.
        let pts: Vec<Vec<f32>> = (0..40).map(|_| vec![]).collect();
        let tree = BallTree::from_vectors(&pts);
        assert_eq!(tree.len(), 40);
        assert_eq!(tree.dim(), 0);
        let mut got = tree.range_query(&[], 0.5);
        got.sort_unstable();
        let mut expect = bruteforce::range_query(&pts, &[], 0.5);
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert_eq!(got.len(), 40);
    }

    #[test]
    fn empty_zero_dim_build_is_fine() {
        let tree = BallTree::build(0, vec![]);
        assert!(tree.is_empty());
        assert!(tree.range_query(&[], 1.0).is_empty());
    }

    #[test]
    fn parallel_build_is_structurally_identical() {
        // Same points, different thread budgets: every query must return the
        // identical id sequence (not just the same set), because the tree
        // shape fixes the traversal order.
        let pts = grid_points(6000, 8);
        let serial = BallTree::from_vectors(&pts);
        for threads in [2usize, 3, 8] {
            let par = BallTree::from_vectors_parallel(&pts, threads);
            assert_eq!(par.len(), serial.len());
            for qi in (0..6000).step_by(577) {
                for tau in [0.4f32, 2.0] {
                    assert_eq!(
                        serial.range_query(&pts[qi], tau),
                        par.range_query(&pts[qi], tau),
                        "threads={threads} qi={qi} tau={tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_probes_share_the_tree() {
        // The tree is Sync: parallel probe morsels borrow it concurrently.
        let pts = grid_points(3000, 6);
        let tree = BallTree::from_vectors(&pts);
        let results: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let tree = &tree;
                    let pts = &pts;
                    s.spawn(move || tree.range_query(&pts[w * 100], 1.0))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (w, got) in results.into_iter().enumerate() {
            assert_eq!(got, tree.range_query(&pts[w * 100], 1.0));
        }
        assert!(tree.take_distance_evals() > 0);
    }

    #[test]
    fn concurrent_probes_count_the_same_evaluations_as_serial_ones() {
        let pts = grid_points(3000, 6);
        let tree = BallTree::from_vectors(&pts);
        let queries: Vec<(usize, f32)> = (0..40).map(|i| (i * 71, 0.5 + i as f32 * 0.05)).collect();
        tree.take_distance_evals();
        for &(qi, tau) in &queries {
            let _ = tree.range_query_sq(&pts[qi], tau);
        }
        let serial = tree.take_distance_evals();
        assert!(serial > 0);
        // Both threads start probing together, so their queries overlap.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for half in queries.chunks(queries.len() / 2) {
                let (tree, pts, start) = (&tree, &pts, &start);
                s.spawn(move || {
                    start.wait();
                    for &(qi, tau) in half {
                        let _ = tree.range_query_sq(&pts[qi], tau);
                    }
                });
            }
        });
        assert_eq!(tree.take_distance_evals(), serial);
    }
}
