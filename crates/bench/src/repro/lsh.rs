//! Locality-sensitive hashing for approximate Euclidean threshold queries.
//!
//! The paper's §7.3 suggests that, since visual analytics is approximate by
//! nature, "locality sensitive hashing or similar approximations may
//! suffice" in place of exact multidimensional indexes. This is that
//! mitigation: p-stable LSH (Datar et al.) — each of `L` tables hashes a
//! point with `k` random projections quantized to width-`w` cells; near
//! points collide in at least one table with high probability. Candidates
//! are verified with an exact distance check, so precision is always 1.0
//! and only recall is approximate.

use std::collections::HashMap;

use deeplens_index::dist::sq_euclidean;
use deeplens_vision::rng::SplitMix64;

/// Configuration for an [`LshIndex`].
#[derive(Debug, Clone, Copy)]
pub struct LshParams {
    /// Number of hash tables (more tables → higher recall, more memory).
    pub tables: usize,
    /// Projections per table (more → fewer false candidates, lower recall).
    pub projections: usize,
    /// Quantization cell width; should be on the order of the query radius.
    pub width: f32,
    /// RNG seed for reproducible index builds.
    pub seed: u64,
}

impl Default for LshParams {
    fn default() -> Self {
        LshParams {
            tables: 8,
            projections: 4,
            width: 4.0,
            seed: 0xD1CE,
        }
    }
}

/// One hash table: projection matrix + offsets + buckets.
#[derive(Debug)]
struct Table {
    /// `projections × dim` row-major Gaussian matrix.
    planes: Vec<f32>,
    offsets: Vec<f32>,
    buckets: HashMap<Vec<i32>, Vec<u32>>,
}

/// An LSH index over dense `f32` vectors.
#[derive(Debug)]
pub struct LshIndex {
    dim: usize,
    width: f32,
    projections: usize,
    points: Vec<f32>,
    tables: Vec<Table>,
}

/// Sample a standard normal via Box–Muller from a uniform RNG.
fn gaussian(rng: &mut SplitMix64) -> f32 {
    let u1 = rng.range_f32(f32::EPSILON, 1.0);
    let u2 = rng.range_f32(0.0, 1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

impl LshIndex {
    /// Build an index over row-major `points` with `dim` components each.
    pub fn build(dim: usize, points: Vec<f32>, params: LshParams) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            points.len() % dim,
            0,
            "point buffer must be a multiple of dim"
        );
        assert!(params.width > 0.0, "cell width must be positive");
        let mut rng = SplitMix64::seeded(params.seed);
        let n = points.len() / dim;
        let mut tables = Vec::with_capacity(params.tables);
        for _ in 0..params.tables {
            let planes: Vec<f32> = (0..params.projections * dim)
                .map(|_| gaussian(&mut rng))
                .collect();
            let offsets: Vec<f32> = (0..params.projections)
                .map(|_| rng.range_f32(0.0, params.width))
                .collect();
            tables.push(Table {
                planes,
                offsets,
                buckets: HashMap::new(),
            });
        }
        let mut index = LshIndex {
            dim,
            width: params.width,
            projections: params.projections,
            points,
            tables,
        };
        for id in 0..n as u32 {
            let key_sets: Vec<Vec<i32>> = index
                .tables
                .iter()
                .map(|t| index.hash_point(t, index.point(id)))
                .collect();
            for (t, key) in index.tables.iter_mut().zip(key_sets) {
                t.buckets.entry(key).or_default().push(id);
            }
        }
        index
    }

    /// Build from a slice of equal-length vectors.
    pub fn from_vectors(vectors: &[Vec<f32>], params: LshParams) -> Self {
        let dim = vectors.first().map(|v| v.len()).unwrap_or(1);
        let mut flat = Vec::with_capacity(vectors.len() * dim);
        for v in vectors {
            assert_eq!(v.len(), dim, "all vectors must share a dimension");
            flat.extend_from_slice(v);
        }
        Self::build(dim, flat, params)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len() / self.dim
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    #[inline]
    fn point(&self, id: u32) -> &[f32] {
        let s = id as usize * self.dim;
        &self.points[s..s + self.dim]
    }

    fn hash_point(&self, table: &Table, p: &[f32]) -> Vec<i32> {
        (0..self.projections)
            .map(|j| {
                let row = &table.planes[j * self.dim..(j + 1) * self.dim];
                let dot: f32 = row.iter().zip(p).map(|(a, b)| a * b).sum();
                ((dot + table.offsets[j]) / self.width).floor() as i32
            })
            .collect()
    }

    /// Approximate: ids of points within `tau` of `query`.
    ///
    /// Every returned id is a true positive (candidates are verified), but
    /// some true neighbours may be missed — the recall/speed trade-off the
    /// paper proposes accepting.
    pub fn range_query(&self, query: &[f32], tau: f32) -> Vec<u32> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let tau_sq = tau * tau;
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for table in &self.tables {
            let key = self.hash_point(table, query);
            if let Some(bucket) = table.buckets.get(&key) {
                for &id in bucket {
                    if seen.insert(id) && sq_euclidean(query, self.point(id)) <= tau_sq {
                        out.push(id);
                    }
                }
            }
        }
        out
    }

    /// Number of candidates examined for a query (cost diagnostics).
    pub fn candidate_count(&self, query: &[f32]) -> usize {
        let mut seen = std::collections::HashSet::new();
        for table in &self.tables {
            let key = self.hash_point(table, query);
            if let Some(bucket) = table.buckets.get(&key) {
                seen.extend(bucket.iter().copied());
            }
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplens_index::bruteforce;

    fn clustered_points(clusters: usize, per_cluster: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut state = 0xABCDu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f32 / (1u64 << 31) as f32
        };
        let mut out = Vec::new();
        for c in 0..clusters {
            let center: Vec<f32> = (0..dim).map(|_| next() * 100.0 + c as f32 * 50.0).collect();
            for _ in 0..per_cluster {
                out.push(center.iter().map(|&v| v + next() * 2.0 - 1.0).collect());
            }
        }
        out
    }

    #[test]
    fn no_false_positives() {
        let pts = clustered_points(5, 40, 16);
        let idx = LshIndex::from_vectors(&pts, LshParams::default());
        let tau = 3.0;
        for qi in (0..pts.len()).step_by(31) {
            let got = idx.range_query(&pts[qi], tau);
            let truth = bruteforce::range_query(&pts, &pts[qi], tau);
            for id in &got {
                assert!(truth.contains(id), "LSH returned a non-neighbour {id}");
            }
        }
    }

    #[test]
    fn recall_is_high_for_tight_clusters() {
        let pts = clustered_points(8, 25, 16);
        let idx = LshIndex::from_vectors(
            &pts,
            LshParams {
                tables: 12,
                projections: 4,
                width: 8.0,
                seed: 7,
            },
        );
        let tau = 3.0;
        let mut found = 0usize;
        let mut total = 0usize;
        for qi in 0..pts.len() {
            let got = idx.range_query(&pts[qi], tau);
            let truth = bruteforce::range_query(&pts, &pts[qi], tau);
            total += truth.len();
            found += truth.iter().filter(|t| got.contains(t)).count();
        }
        let recall = found as f64 / total as f64;
        assert!(recall > 0.9, "recall {recall} too low");
    }

    #[test]
    fn candidates_fewer_than_scan() {
        let pts = clustered_points(10, 50, 16);
        let idx = LshIndex::from_vectors(&pts, LshParams::default());
        let cands = idx.candidate_count(&pts[0]);
        assert!(
            cands < pts.len() / 2,
            "LSH should prune most candidates: {cands} of {}",
            pts.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = clustered_points(3, 20, 8);
        let a = LshIndex::from_vectors(&pts, LshParams::default());
        let b = LshIndex::from_vectors(&pts, LshParams::default());
        assert_eq!(a.range_query(&pts[5], 2.0), b.range_query(&pts[5], 2.0));
    }

    #[test]
    fn empty_index() {
        let idx = LshIndex::build(4, vec![], LshParams::default());
        assert!(idx.is_empty());
        assert!(idx.range_query(&[0.0; 4], 1.0).is_empty());
    }
}
