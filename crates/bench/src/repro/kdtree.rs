//! KD-Tree for low-dimensional point data.
//!
//! The paper's Example 2 suggests "a KD-Tree over a set of color histograms"
//! as one way to index patches for matching. KD-Trees partition by
//! alternating coordinate hyperplanes; they excel in low dimension and decay
//! toward linear scans as dimensionality grows — which is exactly why
//! DeepLens also carries a Ball-Tree. Benchmarks compare the two directly.

use deeplens_index::dist::sq_euclidean;

/// Points per leaf bucket.
const LEAF_SIZE: usize = 8;

#[derive(Debug)]
enum Node {
    Leaf(Vec<u32>),
    Split {
        dim: usize,
        value: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A KD-Tree over dense `f32` vectors.
#[derive(Debug)]
pub struct KdTree {
    dim: usize,
    points: Vec<f32>,
    root: Option<Node>,
}

impl KdTree {
    /// Build over row-major `points` with `dim` components each.
    pub fn build(dim: usize, points: Vec<f32>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            points.len() % dim,
            0,
            "point buffer must be a multiple of dim"
        );
        let n = points.len() / dim;
        let mut tree = KdTree {
            dim,
            points,
            root: None,
        };
        if n > 0 {
            let mut ids: Vec<u32> = (0..n as u32).collect();
            tree.root = Some(tree.build_node(&mut ids, 0));
        }
        tree
    }

    /// Build from a slice of equal-length vectors.
    pub fn from_vectors(vectors: &[Vec<f32>]) -> Self {
        let dim = vectors.first().map(|v| v.len()).unwrap_or(1);
        let mut flat = Vec::with_capacity(vectors.len() * dim);
        for v in vectors {
            assert_eq!(v.len(), dim, "all vectors must share a dimension");
            flat.extend_from_slice(v);
        }
        Self::build(dim, flat)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len() / self.dim
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    #[inline]
    fn point(&self, id: u32) -> &[f32] {
        let s = id as usize * self.dim;
        &self.points[s..s + self.dim]
    }

    fn build_node(&self, ids: &mut [u32], depth: usize) -> Node {
        if ids.len() <= LEAF_SIZE {
            return Node::Leaf(ids.to_vec());
        }
        let dim = depth % self.dim;
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            self.point(a)[dim].total_cmp(&self.point(b)[dim])
        });
        let value = self.point(ids[mid])[dim];
        let (l, r) = ids.split_at_mut(mid);
        // Degenerate case: all values equal on this axis → leaf out.
        if l.is_empty() || r.is_empty() {
            let mut all = l.to_vec();
            all.extend_from_slice(r);
            return Node::Leaf(all);
        }
        Node::Split {
            dim,
            value,
            left: Box::new(self.build_node(l, depth + 1)),
            right: Box::new(self.build_node(r, depth + 1)),
        }
    }

    /// Ids of all points within Euclidean distance `tau` of `query`.
    pub fn range_query(&self, query: &[f32], tau: f32) -> Vec<u32> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            self.range_rec(root, query, tau, &mut out);
        }
        out
    }

    fn range_rec(&self, node: &Node, query: &[f32], tau: f32, out: &mut Vec<u32>) {
        match node {
            Node::Leaf(ids) => {
                let tau_sq = tau * tau;
                for &id in ids {
                    if sq_euclidean(query, self.point(id)) <= tau_sq {
                        out.push(id);
                    }
                }
            }
            Node::Split {
                dim,
                value,
                left,
                right,
            } => {
                let delta = query[*dim] - value;
                // Always search the side the query lies in; cross the plane
                // only when the ball reaches it.
                if delta <= 0.0 {
                    self.range_rec(left, query, tau, out);
                    if delta.abs() <= tau {
                        self.range_rec(right, query, tau, out);
                    }
                } else {
                    self.range_rec(right, query, tau, out);
                    if delta.abs() <= tau {
                        self.range_rec(left, query, tau, out);
                    }
                }
            }
        }
    }

    /// The single nearest neighbour of `query`, if the tree is non-empty.
    pub fn nearest(&self, query: &[f32]) -> Option<(u32, f32)> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let root = self.root.as_ref()?;
        let mut best: Option<(u32, f32)> = None;
        self.nearest_rec(root, query, &mut best);
        best.map(|(id, d2)| (id, d2.sqrt()))
    }

    fn nearest_rec(&self, node: &Node, query: &[f32], best: &mut Option<(u32, f32)>) {
        match node {
            Node::Leaf(ids) => {
                for &id in ids {
                    let d2 = sq_euclidean(query, self.point(id));
                    if best.map(|(_, b)| d2 < b).unwrap_or(true) {
                        *best = Some((id, d2));
                    }
                }
            }
            Node::Split {
                dim,
                value,
                left,
                right,
            } => {
                let delta = query[*dim] - value;
                let (near, far) = if delta <= 0.0 {
                    (left, right)
                } else {
                    (right, left)
                };
                self.nearest_rec(near, query, best);
                let crossing = best.map(|(_, b)| delta * delta <= b).unwrap_or(true);
                if crossing {
                    self.nearest_rec(far, query, best);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplens_index::bruteforce;

    fn pseudo_points(n: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32 * 10.0
        };
        (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
    }

    #[test]
    fn empty_tree() {
        let t = KdTree::build(2, vec![]);
        assert!(t.is_empty());
        assert!(t.range_query(&[0.0, 0.0], 5.0).is_empty());
        assert!(t.nearest(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn range_matches_bruteforce() {
        let pts = pseudo_points(600, 3);
        let tree = KdTree::from_vectors(&pts);
        for qi in (0..600).step_by(97) {
            for tau in [0.4f32, 1.2, 3.0] {
                let mut got = tree.range_query(&pts[qi], tau);
                let mut expect = bruteforce::range_query(&pts, &pts[qi], tau);
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect);
            }
        }
    }

    #[test]
    fn nearest_matches_bruteforce() {
        let pts = pseudo_points(300, 4);
        let tree = KdTree::from_vectors(&pts);
        let q = vec![5.0f32, 5.0, 5.0, 5.0];
        let got = tree.nearest(&q).unwrap();
        let expect = bruteforce::knn(&pts, &q, 1)[0];
        assert_eq!(got.0, expect.0);
        assert!((got.1 - expect.1).abs() < 1e-4);
    }

    #[test]
    fn nearest_of_member_is_itself() {
        let pts = pseudo_points(100, 2);
        let tree = KdTree::from_vectors(&pts);
        let (id, d) = tree.nearest(&pts[42]).unwrap();
        assert_eq!(id, 42);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn identical_points_degenerate() {
        let pts: Vec<Vec<f32>> = (0..50).map(|_| vec![3.0, 3.0]).collect();
        let tree = KdTree::from_vectors(&pts);
        assert_eq!(tree.range_query(&[3.0, 3.0], 0.01).len(), 50);
    }
}
