//! Ball-Tree for Euclidean threshold and k-nearest-neighbour queries.
//!
//! Kumar et al. [17 in the paper] found Ball-Trees the most effective
//! structure for "find patches within distance τ" queries on image features.
//! DeepLens uses it for image-matching similarity joins (q1, q4): it probes
//! the tree a collection's catalog index already keeps, or builds one
//! *on-the-fly* over the smaller join relation (§5, "On-The-Fly Index
//! Similarity Join").
//!
//! Construction recursively splits points along the dimension of maximum
//! spread; every node stores the centroid and covering radius of its subtree
//! so queries can prune whole subtrees via the triangle inequality.
//! Subtrees above [`PARALLEL_BUILD_CUTOFF`] points can build as scoped-thread
//! morsels ([`BallTree::build_parallel`]): the split is computed before the
//! spawn, so the parallel tree is structurally identical to the serial one.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::dist::{euclidean, sq_euclidean};

/// Points per leaf before splitting stops.
pub const LEAF_SIZE: usize = 16;

/// Minimum subtree size worth spawning a scoped build thread for.
pub const PARALLEL_BUILD_CUTOFF: usize = 2048;

#[derive(Debug, Clone)]
struct TreeNode {
    centroid: Vec<f32>,
    radius: f32,
    kind: NodeKind,
}

#[derive(Debug, Clone)]
enum NodeKind {
    /// Indices into the point set.
    Leaf(Vec<u32>),
    Branch(Box<TreeNode>, Box<TreeNode>),
}

/// A Ball-Tree over a dense set of `f32` vectors.
///
/// The tree owns a copy of its points; ids returned by queries index the
/// original insertion order.
#[derive(Debug)]
pub struct BallTree {
    dim: usize,
    n: usize,
    points: Vec<f32>,
    root: Option<TreeNode>,
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
            n: self.n,
            points: self.points.clone(),
            root: self.root.clone(),
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

    fn build_inner(dim: usize, n: usize, points: Vec<f32>, threads: usize) -> Self {
        let mut tree = BallTree {
            dim,
            n,
            points,
            root: None,
            distance_evals: AtomicU64::new(0),
        };
        if n > 0 {
            let mut ids: Vec<u32> = (0..n as u32).collect();
            tree.root = Some(tree.build_node_budget(&mut ids, threads.max(1)));
        }
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality of indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow the point stored under `id`.
    #[inline]
    pub fn point(&self, id: u32) -> &[f32] {
        let s = id as usize * self.dim;
        &self.points[s..s + self.dim]
    }

    fn make_meta(&self, ids: &[u32]) -> (Vec<f32>, f32) {
        let mut centroid = vec![0f32; self.dim];
        for &id in ids {
            for (c, v) in centroid.iter_mut().zip(self.point(id)) {
                *c += v;
            }
        }
        let n = ids.len().max(1) as f32;
        for c in centroid.iter_mut() {
            *c /= n;
        }
        let radius = ids
            .iter()
            .map(|&id| euclidean(&centroid, self.point(id)))
            .fold(0f32, f32::max);
        (centroid, radius)
    }

    /// Build the subtree over `ids` with a budget of `budget` worker
    /// threads. The split point is chosen *before* any thread spawns, so the
    /// result is byte-identical to the serial build for every budget.
    fn build_node_budget(&self, ids: &mut [u32], budget: usize) -> TreeNode {
        let (centroid, radius) = self.make_meta(ids);
        let leaf = |ids: &[u32], centroid: Vec<f32>, radius: f32| TreeNode {
            centroid,
            radius,
            kind: NodeKind::Leaf(ids.to_vec()),
        };
        if ids.len() <= LEAF_SIZE {
            return leaf(ids, centroid, radius);
        }
        // Split on the dimension of maximum spread at its median.
        let spread = |d: usize| {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &id in ids.iter() {
                let v = self.point(id)[d];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            hi - lo
        };
        // `None` only for dim == 0, where all points coincide at the origin.
        let Some(split_dim) = (0..self.dim).max_by(|&a, &b| spread(a).total_cmp(&spread(b))) else {
            return leaf(ids, centroid, radius);
        };
        if spread(split_dim) <= f32::EPSILON {
            // All points identical: no split is possible.
            return leaf(ids, centroid, radius);
        }
        let n = ids.len();
        let mid = n / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            self.point(a)[split_dim].total_cmp(&self.point(b)[split_dim])
        });
        let (left_ids, right_ids) = ids.split_at_mut(mid);
        let (left, right) = if budget > 1 && n >= PARALLEL_BUILD_CUTOFF {
            let right_budget = budget / 2;
            let left_budget = budget - right_budget;
            std::thread::scope(|s| {
                let right = s.spawn(move || self.build_node_budget(right_ids, right_budget));
                let left = self.build_node_budget(left_ids, left_budget);
                (left, right.join().expect("subtree build panicked"))
            })
        } else {
            (
                self.build_node_budget(left_ids, 1),
                self.build_node_budget(right_ids, 1),
            )
        };
        TreeNode {
            centroid,
            radius,
            kind: NodeKind::Branch(Box::new(left), Box::new(right)),
        }
    }

    /// Publish one query's distance evaluations.
    #[inline]
    fn count_dist(&self, n: u64) {
        self.distance_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// All point ids within Euclidean distance `tau` of `query`.
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

    /// One range traversal, counting its distance evaluations locally and
    /// publishing the total once.
    fn range_walk(&self, query: &[f32], tau: f32, mut emit: impl FnMut(u32, f32)) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if let Some(root) = &self.root {
            let mut evals = 0;
            self.range_rec(root, query, tau, &mut evals, &mut emit);
            self.count_dist(evals);
        }
    }

    fn range_rec(
        &self,
        node: &TreeNode,
        query: &[f32],
        tau: f32,
        evals: &mut u64,
        emit: &mut impl FnMut(u32, f32),
    ) {
        *evals += 1;
        let d_centroid = euclidean(query, &node.centroid);
        if d_centroid > node.radius + tau {
            return; // ball entirely outside the query radius
        }
        match &node.kind {
            NodeKind::Leaf(ids) => {
                let tau_sq = tau * tau;
                *evals += ids.len() as u64;
                for &id in ids {
                    let d2 = sq_euclidean(query, self.point(id));
                    if d2 <= tau_sq {
                        emit(id, d2);
                    }
                }
            }
            NodeKind::Branch(left, right) => {
                self.range_rec(left, query, tau, evals, emit);
                self.range_rec(right, query, tau, evals, emit);
            }
        }
    }

    /// The `k` nearest neighbours of `query` as `(id, distance)` pairs,
    /// closest first.
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 || self.is_empty() {
            return vec![];
        }
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
        if let Some(root) = &self.root {
            let mut evals = 0;
            self.knn_rec(root, query, k, &mut evals, &mut heap);
            self.count_dist(evals);
        }
        let mut out: Vec<(u32, f32)> = heap.into_iter().map(|h| (h.id, h.dist)).collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }

    fn knn_rec(
        &self,
        node: &TreeNode,
        query: &[f32],
        k: usize,
        evals: &mut u64,
        heap: &mut BinaryHeap<HeapItem>,
    ) {
        *evals += 1;
        let d_centroid = euclidean(query, &node.centroid);
        if heap.len() == k {
            let worst = heap.peek().expect("heap non-empty").dist;
            if d_centroid - node.radius > worst {
                return;
            }
        }
        match &node.kind {
            NodeKind::Leaf(ids) => {
                *evals += ids.len() as u64;
                for &id in ids {
                    let d = euclidean(query, self.point(id));
                    if heap.len() < k {
                        heap.push(HeapItem { dist: d, id });
                    } else if d < heap.peek().expect("heap non-empty").dist {
                        heap.pop();
                        heap.push(HeapItem { dist: d, id });
                    }
                }
            }
            NodeKind::Branch(left, right) => {
                // Visit the closer child first for tighter pruning bounds.
                let dl = euclidean(query, &left.centroid);
                let dr = euclidean(query, &right.centroid);
                *evals += 2;
                let (first, second) = if dl <= dr {
                    (left, right)
                } else {
                    (right, left)
                };
                self.knn_rec(first, query, k, evals, heap);
                self.knn_rec(second, query, k, evals, heap);
            }
        }
    }

    /// Reset the distance-evaluation counter and return its previous value.
    pub fn take_distance_evals(&self) -> u64 {
        self.distance_evals.swap(0, Ordering::Relaxed)
    }
}

#[derive(Debug, PartialEq)]
struct HeapItem {
    dist: f32,
    id: u32,
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist.total_cmp(&other.dist)
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
        assert!(t.knn(&[0.0, 0.0, 0.0], 5).is_empty());
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
    fn knn_matches_bruteforce() {
        let pts = grid_points(400, 8);
        let tree = BallTree::from_vectors(&pts);
        for qi in [0usize, 101, 399] {
            let got = tree.knn(&pts[qi], 7);
            let expect = bruteforce::knn(&pts, &pts[qi], 7);
            assert_eq!(got.len(), 7);
            // The nearest neighbour of a member point is itself.
            assert_eq!(got[0].0 as usize, qi);
            for (g, e) in got.iter().zip(&expect) {
                assert!((g.1 - e.1).abs() < 1e-4, "distance order must agree");
            }
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
                    assert_eq!(d2, sq_euclidean(&pts[qi], tree.point(id)));
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
        assert_eq!(tree.knn(&[1.0, 2.0, 3.0], 5).len(), 5);
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
        assert_eq!(tree.knn(&[], 5).len(), 5);
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
                assert_eq!(serial.knn(&pts[qi], 9), par.knn(&pts[qi], 9));
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
            let _ = tree.knn(&pts[qi], 5);
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
                        let _ = tree.knn(&pts[qi], 5);
                    }
                });
            }
        });
        assert_eq!(tree.take_distance_evals(), serial);
    }

    #[test]
    fn knn_k_larger_than_n() {
        let pts = grid_points(5, 2);
        let tree = BallTree::from_vectors(&pts);
        assert_eq!(tree.knn(&pts[0], 100).len(), 5);
    }

    #[test]
    fn knn_results_sorted_ascending() {
        let pts = grid_points(200, 6);
        let tree = BallTree::from_vectors(&pts);
        let res = tree.knn(&pts[50], 10);
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }
}
