//! Integration: the Ball-Tree's answers are pinned bit for bit.
//!
//! For seeded clustered points at several dimensions and sizes, every
//! `range_query_sq` hit sequence — ids in traversal order and each `d²`'s
//! bits — is folded into one FNV-1a checksum, and the distance evaluations
//! the probes performed are summed. Both must equal constants recorded
//! against the pointer-linked tree this crate shipped before its nodes
//! became flat arrays, for every parallel build budget: a layout or kernel
//! change that moves one hit, reorders two, flips one distance bit or
//! evaluates one distance more or less fails here. Fig. 7's evaluation
//! column is the same tally.
//!
//! The points are drawn from the shared generator seeded by raw state, whose
//! draws the constants pin as well.

use deeplens::index::BallTree;
use deeplens::vision::rng::SplitMix64;

/// Build budgets (scoped worker threads) every tree is built under.
const BUDGETS: [usize; 5] = [1, 2, 3, 4, 8];

/// Point counts per dimension: a single point, one leaf plus one, a few
/// levels, and enough for several parallel build levels.
const SIZES: [usize; 4] = [1, 17, 700, 6000];

/// `(dim, FNV-1a over every hit sequence, summed distance evaluations)`.
const PINNED: [(usize, u64, u64); 4] = [
    (0, 0x3398_6354_10dd_7d25, 1_290_624),
    (3, 0x8bd0_b879_b626_38d8, 63_043),
    (8, 0x7d85_2498_ee7e_f5e8, 64_166),
    (64, 0x2025_5787_bbc9_e109, 80_893),
];

/// `n` points in 24 clusters of `[0, 10)^dim`, each within ±0.5 of its
/// centre per component; the first 40 points (or all, when fewer) coincide,
/// so a subtree with no spread to split on forms.
fn clustered(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut g = SplitMix64::from_state(seed);
    let centres: Vec<Vec<f32>> = (0..24)
        .map(|_| (0..dim).map(|_| g.unit_f32() * 10.0).collect())
        .collect();
    let mut pts: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            let c = &centres[(i * 7 + i / 3) % centres.len()];
            c.iter().map(|&x| x + g.unit_f32() - 0.5).collect()
        })
        .collect();
    let dup = pts[0].clone();
    for p in pts.iter_mut().take(40) {
        p.clone_from(&dup);
    }
    pts
}

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The checksum and evaluation tally of every probe at `dim` over trees
/// built with `budget` workers.
fn probe_all(dim: usize, budget: usize) -> (u64, u64) {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut evals = 0;
    let scale = (dim.max(1) as f32).sqrt() * 0.5;
    for (s, &n) in SIZES.iter().enumerate() {
        let pts = clustered(n, dim, 0xD1CE + (dim * 31 + s) as u64);
        let tree = BallTree::from_vectors_parallel(&pts, budget);
        let mut g = SplitMix64::from_state(0xBEEF + dim as u64);
        let queries: Vec<Vec<f32>> = (0..48)
            .map(|q| {
                if q % 2 == 0 {
                    pts[q * 131 % n].clone()
                } else {
                    (0..dim).map(|_| g.unit_f32() * 10.0).collect()
                }
            })
            .collect();
        for q in &queries {
            for tau in [0.0f32, 0.5 * scale, scale, 2.0 * scale] {
                let hits = tree.range_query_sq(q, tau);
                fnv(&mut h, hits.len() as u64);
                for (id, d2) in hits {
                    fnv(&mut h, id as u64);
                    fnv(&mut h, d2.to_bits() as u64);
                }
            }
        }
        evals += tree.take_distance_evals();
    }
    (h, evals)
}

/// Every dimension and build budget answers with the pinned hit sequences
/// and evaluation tally — so parallel builds are structurally identical to
/// the serial one, and the tree to its former self.
#[test]
fn range_answers_and_evaluations_match_the_pinned_constants() {
    for (dim, want_hash, want_evals) in PINNED {
        for budget in BUDGETS {
            let (hash, evals) = probe_all(dim, budget);
            assert_eq!(
                (hash, evals),
                (want_hash, want_evals),
                "dim {dim}, budget {budget}: hash {hash:#018x}, evals {evals}"
            );
        }
    }
}
