//! Dataflow query operators (§5).
//!
//! Operators implement the paper's closed algebra: collections of patches
//! in, collections of patches (or index pairs into them) out. A selection
//! over patches in hand is [`select`] (projection, limits and maps are plain
//! `Iterator` adapters); a selection over a materialized collection is
//! [`PatchCollection::scan`](crate::catalog::PatchCollection::scan) with a
//! [`ScanFilter`](crate::scan::ScanFilter), which the collection's
//! column-chunk zone maps prune. The generic θ-join is [`nested_loop_join`].
//!
//! A *similarity* join or dedup does not run from here: which Ball-Tree it
//! probes — the persisted Ball index a side's snapshot carries, or an
//! on-the-fly tree over the featured rows of the smaller relation — is
//! chosen by [`crate::plan::JoinPlan::choose`] and executed by
//! [`crate::plan::JoinPlan::run`]. This module keeps the pieces those plans
//! are built from: the crate-private tree kernel (a fresh build, and the one
//! probe pass both plans share over a `DeltaBallTree`),
//! [`cluster_from_pairs`] for dedup, and the brute-force oracles
//! [`similarity_join_nested`] / [`dedup_bruteforce`] every plan is held to.
//!
//! Operators that take a [`WorkerPool`] shard their probe phases over
//! morsels (after Leis et al., see `deeplens_exec::pool`) and reassemble
//! results in morsel order, so every output is byte-identical across thread
//! counts. Pass `WorkerPool::new(1)` for strictly serial execution;
//! [`crate::session::Session`] supplies the pool of its thread budget.

use std::collections::HashMap;

use deeplens_exec::WorkerPool;
use deeplens_index::{BallTree, DeltaBallTree};

use crate::patch::Patch;
use crate::plan;
use crate::{DlError, Result};

// --------------------------------------------------------------------------
// Single-pass operators
// --------------------------------------------------------------------------

/// Filter: keep patches satisfying `pred` (lazy).
pub fn select<'a, I: Iterator<Item = Patch> + 'a>(
    input: I,
    pred: impl Fn(&Patch) -> bool + 'a,
) -> impl Iterator<Item = Patch> + 'a {
    input.filter(move |p| pred(p))
}

// --------------------------------------------------------------------------
// Aggregates
// --------------------------------------------------------------------------

/// Count of patches per integer metadata key value (e.g. cars per frame).
pub fn count_group_by_int(patches: &[Patch], key: &str) -> HashMap<i64, usize> {
    let mut out = HashMap::new();
    for p in patches {
        if let Some(v) = p.get_int(key) {
            *out.entry(v).or_insert(0) += 1;
        }
    }
    out
}

// --------------------------------------------------------------------------
// Joins
// --------------------------------------------------------------------------

/// Generic nested-loop θ-join: all index pairs satisfying `theta`.
///
/// The outer relation shards over `pool` morsels; results are reassembled
/// in morsel order, so the pair sequence is identical for every thread
/// count (left-major, right-minor — the serial iteration order). A position
/// past `u32::MAX` is a [`DlError::SchemaMismatch`].
pub fn nested_loop_join(
    left: &[Patch],
    right: &[Patch],
    theta: impl Fn(&Patch, &Patch) -> bool + Sync,
    pool: &WorkerPool,
) -> Result<Vec<(u32, u32)>> {
    if left.is_empty() || right.is_empty() {
        return Ok(vec![]);
    }
    let right_ids: Vec<u32> = (0..right.len()).map(plan::row_id).collect::<Result<_>>()?;
    let parts = pool.run_morsels(
        left.len(),
        pool.morsel_size(left.len()),
        |range| -> Result<_> {
            let mut out = Vec::new();
            for i in range {
                let (l, li) = (&left[i], plan::row_id(i)?);
                for (r, &rj) in right.iter().zip(&right_ids) {
                    if theta(l, r) {
                        out.push((li, rj));
                    }
                }
            }
            Ok(out)
        },
    );
    let mut pairs = Vec::new();
    for part in parts {
        pairs.extend(part?);
    }
    Ok(pairs)
}

/// Similarity join by brute force over feature vectors: pairs within `tau`.
/// A position past `u32::MAX` is a [`DlError::SchemaMismatch`].
pub fn similarity_join_nested(
    left: &[Patch],
    right: &[Patch],
    tau: f32,
) -> Result<Vec<(u32, u32)>> {
    let tau_sq = tau * tau;
    let mut out = Vec::new();
    for (i, l) in left.iter().enumerate() {
        let Some(lf) = l.data.features() else {
            continue;
        };
        for (j, r) in right.iter().enumerate() {
            let Some(rf) = r.data.features() else {
                continue;
            };
            if deeplens_index::dist::sq_euclidean(lf, rf) <= tau_sq {
                out.push((plan::row_id(i)?, plan::row_id(j)?));
            }
        }
    }
    Ok(out)
}

// --------------------------------------------------------------------------
// Batched joins (multi-query optimization: one shared scan/probe pass)
// --------------------------------------------------------------------------

/// A shareable θ-predicate over a candidate pair, called as
/// `pred(left_patch, right_patch)` (`Sync` so morsel workers may consult it).
pub type PairPredicate<'a> = &'a (dyn Fn(&Patch, &Patch) -> bool + Sync);

/// One member of a batched Ball-Tree join pass
/// ([`similarity_join_balltree_multi`]).
///
/// Every member shares the *indexed* relation (the side the tree covers);
/// each carries its own probe relation, threshold, pair orientation, and
/// optional θ-predicate. `probe_is_left` records which side of the original
/// query the probe relation was: `true` emits `(probe_idx, hit)` pairs,
/// `false` emits `(hit, probe_idx)`.
pub(crate) struct BatchJoinMember<'a> {
    /// The probe relation (scanned side) of this member.
    pub probes: &'a [Patch],
    /// Similarity threshold.
    pub tau: f32,
    /// Pair orientation: `true` → `(probe_idx, hit)`, `false` →
    /// `(hit, probe_idx)`.
    pub probe_is_left: bool,
    /// Optional θ-predicate applied per candidate pair, in the original
    /// query's orientation.
    pub predicate: Option<PairPredicate<'a>>,
}

/// The error for a relation the tree kernel cannot take: the planner
/// ([`crate::plan::JoinPlan::choose`]) never hands it one.
fn unplanned(what: &str, row: usize) -> DlError {
    DlError::SchemaMismatch(format!("{what} row {row} does not fit the Ball-Tree plan"))
}

/// The on-the-fly Ball-Tree of §5 over the featured rows of `indexed`, in
/// row order (construction fanned out over `pool`), wrapped as a
/// [`DeltaBallTree`] with an empty delta so the fresh tree and a persisted
/// index share one probe pass ([`similarity_join_balltree_multi`], which
/// maps the tree's ids back to row positions). Featureless rows match
/// nothing under any plan, so leaving them out changes no answer.
///
/// Every featured row must share one dimension, and every position must
/// fit a `u32` row id; anything else is a [`DlError::SchemaMismatch`].
pub(crate) fn fresh_tree(indexed: &[Patch], pool: &WorkerPool) -> Result<DeltaBallTree> {
    plan::row_id(indexed.len().saturating_sub(1))?;
    let dim = plan::feature_dim(indexed);
    let vectors = indexed
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let f = p.data.features()?;
            Some(if f.len() == dim {
                Ok(f.to_vec())
            } else {
                Err(unplanned("indexed", i))
            })
        })
        .collect::<Result<Vec<Vec<f32>>>>()?;
    Ok(DeltaBallTree::from_tree(BallTree::from_vectors_parallel(
        &vectors,
        pool.threads(),
    )))
}

/// Batched Ball-Tree similarity join (§5): **one** morsel-sharded probe pass
/// per distinct probe relation over `tree` — the relation `indexed`, either
/// freshly built ([`fresh_tree`]) or the persisted, delta-maintained index
/// its snapshot carries — serves every member, instead of each member
/// getting a tree and scanning on its own (the paper's multi-query
/// amortization).
///
/// The shared pass probes at the members' maximum threshold and
/// demultiplexes every candidate against each member's own `tau` (and
/// predicate) using the exact distances that admitted it
/// ([`DeltaBallTree::range_query_sq`]), so member `k`'s output is the sorted
/// pair vector that member alone would produce, with predicate members
/// matching join-then-filter. Output is byte-identical across thread counts
/// and across the two tree sources.
///
/// `tree` must cover exactly `indexed`'s rows (a persisted index: its ids
/// are positions) or exactly its featured rows in row order (a
/// [`fresh_tree`]: its ids are ranks among them, mapped back to positions
/// here). Featured probe rows must share its dimension, and probe positions
/// must fit a `u32` row id; featureless probe rows match nothing. Anything
/// else is a [`DlError::SchemaMismatch`].
pub(crate) fn similarity_join_balltree_multi(
    tree: &DeltaBallTree,
    indexed: &[Patch],
    members: &[BatchJoinMember],
    pool: &WorkerPool,
) -> Result<Vec<Vec<(u32, u32)>>> {
    let orient = |m: &BatchJoinMember, probe_idx: u32, hit: u32| {
        if m.probe_is_left {
            (probe_idx, hit)
        } else {
            (hit, probe_idx)
        }
    };
    let passes_pred = |m: &BatchJoinMember, probe: &Patch, hit: &Patch| {
        m.predicate.is_none_or(|pred| {
            if m.probe_is_left {
                pred(probe, hit)
            } else {
                pred(hit, probe)
            }
        })
    };

    let mut out: Vec<Vec<(u32, u32)>> = (0..members.len()).map(|_| Vec::new()).collect();
    // A tree over every row answers positions; a fresh tree over the
    // featured rows answers ranks among them, mapped through `positions`.
    let positions: Option<Vec<u32>> = if tree.len() == indexed.len() {
        None
    } else {
        let featured = (0..indexed.len())
            .filter(|&i| indexed[i].data.features().is_some())
            .map(plan::row_id)
            .collect::<Result<Vec<u32>>>()?;
        if featured.len() != tree.len() {
            return Err(DlError::SchemaMismatch(format!(
                "the Ball-Tree covers {} rows but the indexed relation has {} ({} featured)",
                tree.len(),
                indexed.len(),
                featured.len()
            )));
        }
        Some(featured)
    };
    let position = |hit: u32| positions.as_ref().map_or(hit, |p| p[hit as usize]);
    let Some(dim) = tree.dim() else {
        return Ok(out); // the tree covers no rows
    };

    // Members sharing a probe relation share one morsel pass: group by the
    // probe slice's identity (data pointer + length).
    let mut passes: Vec<((*const Patch, usize), Vec<usize>)> = Vec::new();
    for (k, m) in members.iter().enumerate() {
        let key = (m.probes.as_ptr(), m.probes.len());
        match passes.iter_mut().find(|(pk, _)| *pk == key) {
            Some((_, ks)) => ks.push(k),
            None => passes.push((key, vec![k])),
        }
    }

    for (_, member_ids) in passes {
        let probes = members[member_ids[0]].probes;
        let tau_max = member_ids
            .iter()
            .map(|&k| members[k].tau)
            .fold(f32::NEG_INFINITY, f32::max);
        let tau_sqs: Vec<f32> = member_ids.iter().map(|&k| members[k].tau.powi(2)).collect();
        // One shared probe pass: per probe, one range query at the outer
        // radius; candidates demux against each member's threshold and
        // predicate inside the morsel.
        let parts = pool.run_morsels(probes.len(), pool.morsel_size(probes.len()), |range| {
            let mut local: Vec<Vec<(u32, u32)>> =
                (0..member_ids.len()).map(|_| Vec::new()).collect();
            for j in range {
                let Some(f) = probes[j].data.features() else {
                    continue;
                };
                if f.len() != dim {
                    return Err(unplanned("probe", j));
                }
                let probe_id = plan::row_id(j)?;
                for (hit, d2) in tree.range_query_sq(f, tau_max) {
                    let hit = position(hit);
                    for (slot, &k) in member_ids.iter().enumerate() {
                        let m = &members[k];
                        if d2 <= tau_sqs[slot] && passes_pred(m, &probes[j], &indexed[hit as usize])
                        {
                            local[slot].push(orient(m, probe_id, hit));
                        }
                    }
                }
            }
            Ok(local)
        });
        for part in parts {
            for (slot, pairs) in part?.into_iter().enumerate() {
                out[member_ids[slot]].extend(pairs);
            }
        }
    }
    for pairs in out.iter_mut() {
        pairs.sort_unstable();
    }
    Ok(out)
}

// --------------------------------------------------------------------------
// Similarity deduplication (distinct-entity counting, q4)
// --------------------------------------------------------------------------

/// Union-find over patch indices, with union-by-size and path compression.
///
/// Union-by-size bounds tree depth at `log2(n)` no matter how adversarial
/// the union order is; without it, a chain of unions in root order degrades
/// `find` to O(n) pointer chases.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Singleton sets over the row ids `0..n`; `n` is at most
    /// `u32::MAX + 1` (the caller checks it with [`plan::row_id`]).
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..=u32::MAX).take(n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Attach the smaller tree under the larger root.
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
    }
}

/// Group patches into similarity clusters from precomputed match pairs.
/// Returns one sorted index list per cluster (singletons included),
/// clusters ordered by their smallest member. More than `u32::MAX + 1`
/// patches is a [`DlError::SchemaMismatch`].
pub fn cluster_from_pairs(n: usize, pairs: &[(u32, u32)]) -> Result<Vec<Vec<u32>>> {
    plan::row_id(n.saturating_sub(1))?;
    let mut uf = UnionFind::new(n);
    for &(a, b) in pairs {
        uf.union(a, b);
    }
    let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
    for i in (0..=u32::MAX).take(n) {
        groups.entry(uf.find(i)).or_default().push(i);
    }
    let mut out: Vec<Vec<u32>> = groups.into_values().collect();
    for g in out.iter_mut() {
        g.sort_unstable();
    }
    out.sort_by_key(|g| g[0]);
    Ok(out)
}

/// Deduplicate by brute force (the unindexed baseline).
pub fn dedup_bruteforce(patches: &[Patch], tau: f32) -> Result<Vec<Vec<u32>>> {
    let pairs = similarity_join_nested(patches, patches, tau)?;
    cluster_from_pairs(patches.len(), &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::{ImgRef, PatchId};
    use crate::plan::JoinPlan;

    fn feat_patch(id: u64, f: Vec<f32>) -> Patch {
        Patch::features(PatchId(id), ImgRef::frame("t", id), f)
    }

    fn labeled(id: u64, label: &str, frame: i64) -> Patch {
        Patch::empty(PatchId(id), ImgRef::frame("t", id))
            .with_meta("label", label)
            .with_meta("frameno", frame)
    }

    #[test]
    fn select_and_label_filter() {
        let patches = vec![
            labeled(1, "car", 0),
            labeled(2, "person", 0),
            labeled(3, "car", 1),
        ];
        let cars: Vec<Patch> = select(patches.clone().into_iter(), |p| {
            p.get_str("label") == Some("car")
        })
        .collect();
        assert_eq!(cars.len(), 2);
        let hi: Vec<Patch> =
            select(patches.into_iter(), |p| p.get_int("frameno") == Some(1)).collect();
        assert_eq!(hi.len(), 1);
    }

    #[test]
    fn aggregates() {
        let patches = vec![
            labeled(1, "car", 0),
            labeled(2, "car", 0),
            labeled(3, "car", 1),
            labeled(4, "person", 2),
        ];
        let per_frame = count_group_by_int(&patches, "frameno");
        assert_eq!(per_frame[&0], 2);
        assert_eq!(per_frame[&1], 1);
    }

    /// The brute-force reference every plan and multi-join member is held
    /// to.
    fn oracle(left: &[Patch], right: &[Patch], tau: f32) -> Vec<(u32, u32)> {
        let mut pairs = similarity_join_nested(left, right, tau).unwrap();
        pairs.sort_unstable();
        pairs
    }

    /// `plan` over `left × right` at one threshold.
    fn run(
        plan: JoinPlan,
        left: &[Patch],
        right: &[Patch],
        tau: f32,
        pool: &WorkerPool,
    ) -> Vec<(u32, u32)> {
        plan.run(left, right, &[(tau, None)], pool)
            .unwrap()
            .remove(0)
    }

    /// Dedup clusters under the plan `JoinPlan::choose` picks for the
    /// self-join.
    fn dedup(patches: &[Patch], tau: f32, pool: &WorkerPool) -> Vec<Vec<u32>> {
        let plan = JoinPlan::choose(patches, patches).unwrap();
        cluster_from_pairs(patches.len(), &run(plan, patches, patches, tau, pool)).unwrap()
    }

    /// The on-the-fly tree plan's pass: a fresh tree over `indexed`, probed
    /// once per probe relation.
    fn multi(
        indexed: &[Patch],
        members: &[BatchJoinMember],
        pool: &WorkerPool,
    ) -> Result<Vec<Vec<(u32, u32)>>> {
        similarity_join_balltree_multi(&fresh_tree(indexed, pool)?, indexed, members, pool)
    }

    /// An unfiltered tree-pass member.
    fn member(probes: &[Patch], tau: f32, probe_is_left: bool) -> BatchJoinMember<'_> {
        BatchJoinMember {
            probes,
            tau,
            probe_is_left,
            predicate: None,
        }
    }

    const PLANS: [JoinPlan; 2] = [
        JoinPlan::BallTree { index_left: true },
        JoinPlan::BallTree { index_left: false },
    ];

    #[test]
    fn join_variants_agree() {
        let left: Vec<Patch> = (0..30)
            .map(|i| feat_patch(i, vec![i as f32, (i % 5) as f32, 0.0]))
            .collect();
        let right: Vec<Patch> = (0..40)
            .map(|i| feat_patch(100 + i, vec![i as f32 * 0.8, 1.0, 0.5]))
            .collect();
        let want = oracle(&left, &right, 2.0);
        assert!(!want.is_empty());
        for plan in PLANS {
            let got = run(plan, &left, &right, 2.0, &WorkerPool::new(1));
            assert_eq!(got, want, "{plan:?}");
        }
    }

    #[test]
    fn balltree_join_indexes_smaller_side_transparently() {
        let small: Vec<Patch> = (0..5).map(|i| feat_patch(i, vec![i as f32, 0.0])).collect();
        let large: Vec<Patch> = (0..200)
            .map(|i| feat_patch(10 + i, vec![(i % 10) as f32, 0.0]))
            .collect();
        let pool = WorkerPool::new(2);
        // And flipped: the orientation of the pairs follows the query.
        for (l, r) in [(&small, &large), (&large, &small)] {
            let plan = JoinPlan::choose(l, r).unwrap();
            let index_left = l.len() < r.len();
            assert_eq!(plan, JoinPlan::BallTree { index_left });
            assert_eq!(run(plan, l, r, 0.5, &pool), oracle(l, r, 0.5));
        }
    }

    #[test]
    fn multi_join_members_match_serial_issuance() {
        let indexed: Vec<Patch> = (0..40)
            .map(|i| feat_patch(i, vec![i as f32 * 0.3, (i % 7) as f32, 1.0]))
            .collect();
        let probes_a: Vec<Patch> = (0..90)
            .map(|i| feat_patch(100 + i, vec![i as f32 * 0.15, 2.0, 1.0]))
            .collect();
        let probes_b: Vec<Patch> = (0..55)
            .map(|i| feat_patch(300 + i, vec![i as f32 * 0.2, (i % 3) as f32, 0.5]))
            .collect();
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let members = vec![
                member(&probes_a, 1.5, false),
                member(&probes_a, 3.0, false),
                member(&probes_b, 2.0, true),
                member(&probes_a, 0.4, true),
            ];
            let got = multi(&indexed, &members, &pool).unwrap();
            assert_eq!(got.len(), 4);
            // Members 0/1: indexed is the left relation (pairs (hit, probe)).
            assert_eq!(got[0], oracle(&indexed, &probes_a, 1.5));
            assert_eq!(got[1], oracle(&indexed, &probes_a, 3.0));
            // Members 2/3: probe relation is the left side.
            assert_eq!(got[2], oracle(&probes_b, &indexed, 2.0));
            assert_eq!(got[3], oracle(&probes_a, &indexed, 0.4));
        }
    }

    #[test]
    fn multi_join_over_a_delta_maintained_tree_matches_the_oracle() {
        // The persisted-index plan's pass: the tree was built over older rows
        // and carries tombstones and delta rows for the changed and appended
        // ones.
        let old: Vec<Patch> = (0..120)
            .map(|i| feat_patch(i, vec![i as f32 * 0.25, (i % 6) as f32]))
            .collect();
        let pool = WorkerPool::new(2);
        let mut tree = fresh_tree(&old, &pool).unwrap();
        let mut rows = old.clone();
        for pos in (0..120).step_by(9) {
            rows[pos] = feat_patch(500 + pos as u64, vec![pos as f32 * 0.1, 2.5]);
            let f = rows[pos].data.features().unwrap().to_vec();
            assert!(tree.upsert(pos as u32, f));
        }
        for i in 0..7u64 {
            rows.push(feat_patch(900 + i, vec![i as f32 * 3.0, 1.0]));
            let f = rows.last().unwrap().data.features().unwrap().to_vec();
            assert!(tree.upsert((rows.len() - 1) as u32, f));
        }
        assert!(tree.delta_rows() > 0);
        let probes: Vec<Patch> = (0..50)
            .map(|i| feat_patch(200 + i, vec![i as f32 * 0.6, (i % 4) as f32]))
            .collect();
        let mut ragged = probes.clone();
        ragged.push(Patch::empty(PatchId(999), ImgRef::frame("t", 999)));
        for threads in [1usize, 3] {
            let pool = WorkerPool::new(threads);
            let members = vec![
                member(&ragged, 1.2, true),
                member(&ragged, 2.5, true),
                member(&probes, 0.7, false),
            ];
            let got = similarity_join_balltree_multi(&tree, &rows, &members, &pool).unwrap();
            assert_eq!(got[0], oracle(&ragged, &rows, 1.2));
            assert_eq!(got[1], oracle(&ragged, &rows, 2.5));
            assert_eq!(got[2], oracle(&rows, &probes, 0.7));
            assert!(!got[1].is_empty());
        }
        // A tree that does not cover the relation is refused, not probed.
        assert!(matches!(
            similarity_join_balltree_multi(&tree, &old, &[member(&probes, 1.0, true)], &pool),
            Err(DlError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn multi_join_predicate_matches_join_then_filter() {
        let indexed: Vec<Patch> = (0..30)
            .map(|i| feat_patch(i, vec![i as f32 * 0.4, 0.0]))
            .collect();
        let probes: Vec<Patch> = (0..60)
            .map(|i| feat_patch(100 + i, vec![i as f32 * 0.2, 0.0]))
            .collect();
        let pool = WorkerPool::new(2);
        let pred = |l: &Patch, r: &Patch| l.id.0.is_multiple_of(2) && r.id.0.is_multiple_of(3);
        let members = vec![BatchJoinMember {
            probes: &probes,
            tau: 1.0,
            probe_is_left: false,
            predicate: Some(&pred),
        }];
        let got = multi(&indexed, &members, &pool).unwrap();
        let expect: Vec<(u32, u32)> = oracle(&indexed, &probes, 1.0)
            .into_iter()
            .filter(|&(l, r)| pred(&indexed[l as usize], &probes[r as usize]))
            .collect();
        assert!(!expect.is_empty(), "predicate must keep some pairs");
        assert_eq!(got[0], expect);
    }

    #[test]
    fn multi_join_empty_shapes() {
        let pool = WorkerPool::new(2);
        let probes: Vec<Patch> = (0..5).map(|i| feat_patch(i, vec![i as f32])).collect();
        // Empty indexed relation.
        let got = multi(&[], &[member(&probes, 1.0, false)], &pool);
        assert_eq!(got.unwrap(), vec![Vec::new()]);
        // Empty probe relation and empty member list.
        let indexed: Vec<Patch> = (0..5).map(|i| feat_patch(i, vec![i as f32])).collect();
        let got = multi(&indexed, &[member(&[], 1.0, false)], &pool);
        assert_eq!(got.unwrap(), vec![Vec::new()]);
        assert!(multi(&indexed, &[], &pool).unwrap().is_empty());
    }

    #[test]
    fn theta_join_on_metadata() {
        let left = vec![labeled(1, "car", 3), labeled(2, "car", 9)];
        let right = vec![labeled(3, "person", 3), labeled(4, "person", 5)];
        let pairs = nested_loop_join(
            &left,
            &right,
            |a, b| a.get_int("frameno") == b.get_int("frameno"),
            &WorkerPool::new(1),
        );
        assert_eq!(pairs.unwrap(), vec![(0, 0)]);
    }

    #[test]
    fn dedup_clusters_transitively() {
        // 0-1 close, 1-2 close (0-2 not directly) => one cluster of 3.
        let patches = vec![
            feat_patch(0, vec![0.0, 0.0]),
            feat_patch(1, vec![0.9, 0.0]),
            feat_patch(2, vec![1.8, 0.0]),
            feat_patch(3, vec![50.0, 0.0]),
        ];
        let clusters = dedup(&patches, 1.0, &WorkerPool::new(1));
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0], vec![0, 1, 2]);
        assert_eq!(clusters[1], vec![3]);
        assert_eq!(dedup_bruteforce(&patches, 1.0).unwrap(), clusters);
    }

    /// Depth of `x`'s parent chain without compressing it.
    fn depth(uf: &UnionFind, x: u32) -> usize {
        let mut d = 0;
        let mut cur = x;
        while uf.parent[cur as usize] != cur {
            cur = uf.parent[cur as usize];
            d += 1;
        }
        d
    }

    #[test]
    fn union_by_size_bounds_depth_on_adversarial_chains() {
        // Adversarial order for a rank-less union-find: repeatedly union a
        // fresh singleton as the FIRST argument against the growing chain's
        // head. Naive "attach b under a" would build an n-deep chain; with
        // union-by-size the big cluster keeps absorbing the singleton, so
        // every parent chain stays O(log n).
        let n = 100_000u32;
        let mut uf = UnionFind::new(n as usize);
        for i in (1..n).rev() {
            uf.union(i, i - 1);
        }
        let max_depth = (0..n).map(|x| depth(&uf, x)).max().unwrap();
        let bound = (n as f64).log2() as usize + 1;
        assert!(
            max_depth <= bound,
            "depth {max_depth} exceeds union-by-size bound {bound}"
        );
        // And it is still one connected cluster.
        let root = uf.find(0);
        assert!((0..n).all(|x| uf.find(x) == root));
    }

    #[test]
    fn worst_case_chain_cluster_dedups_fast_and_correctly() {
        // A single long chain cluster (each point within tau of its
        // neighbours only): the pair order from the self-join is exactly the
        // adversarial pattern above.
        let n = 20_000;
        let patches: Vec<Patch> = (0..n)
            .map(|i| feat_patch(i as u64, vec![i as f32 * 0.5, 0.0]))
            .collect();
        let clusters = dedup(&patches, 0.6, &WorkerPool::new(1));
        assert_eq!(clusters.len(), 1, "chain must collapse to one cluster");
        assert_eq!(clusters[0].len(), n);
    }

    #[test]
    fn empty_join_inputs() {
        let pool = WorkerPool::new(1);
        let one = [feat_patch(1, vec![0.0])];
        let none: &[Patch] = &[];
        for plan in PLANS {
            for (l, r) in [(none, none), (&one[..], none), (none, &one[..])] {
                assert!(run(plan, l, r, 1.0, &pool).is_empty(), "{plan:?}");
            }
        }
    }

    #[test]
    fn zero_dimensional_features_match_nested_variant() {
        // Degenerate (empty) feature vectors: the Ball-Tree variant must
        // return what the nested variant computes — every pair matches at
        // distance zero — instead of aborting on `dim == 0`.
        let left: Vec<Patch> = (0..4).map(|i| feat_patch(i, vec![])).collect();
        let right: Vec<Patch> = (0..3).map(|i| feat_patch(10 + i, vec![])).collect();
        let plan = JoinPlan::choose(&left, &right).unwrap();
        assert_eq!(plan, JoinPlan::BallTree { index_left: false });
        for threads in [1usize, 4] {
            let ball = run(plan, &left, &right, 0.5, &WorkerPool::new(threads));
            assert_eq!(ball, oracle(&left, &right, 0.5));
            assert_eq!(ball.len(), 12, "all pairs coincide at the 0-d origin");
        }
    }
}
