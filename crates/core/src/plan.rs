//! The physical plan of a similarity join: chosen once, priced and run as
//! chosen.
//!
//! [`JoinPlan::choose`] is the only place the engine decides *how* a
//! similarity join executes — probe the persisted Ball index one side's
//! snapshot already carries, or build an on-the-fly Ball-Tree over the
//! featured rows of the smaller side — and where a join whose featured rows
//! disagree on dimension is rejected. Either way the join is one Ball-Tree
//! probe pass; featureless rows match nothing under any plan. A dedup is
//! the self-join `choose(rows, rows)`. The choice depends on the two sides
//! only, never on the session's thread budget: the budget sets the worker
//! count the pass runs with. It sees each side as a [`JoinSide`]: the rows,
//! plus the live Ball index when the side is a materialized collection that
//! has one. Bare slices carry no index, so for them the only question is
//! which side the on-the-fly tree indexes.
//! [`crate::batch::QueryBatch::plan`] calls it once per join member,
//! [`crate::batch::PlannedBatch::estimate_us`] prices the plan it returned,
//! and [`crate::batch::PlannedBatch::run`] executes that same plan, so the
//! cost a server admits is the cost of the work it then does. Every plan
//! emits the identical sorted pair set; the choice moves wall-clock only.

use std::borrow::Cow;

use deeplens_exec::WorkerPool;
use deeplens_index::DeltaBallTree;

use crate::catalog::PatchCollection;
use crate::ops::{self, BatchJoinMember, PairPredicate};
use crate::optimizer::CostModel;
use crate::patch::Patch;
use crate::{DlError, Result};

/// How one similarity join `left × right` executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPlan {
    /// On-the-fly Ball-Tree over the featured rows of the smaller relation
    /// (ties index the left), probed with the other in one morsel-sharded
    /// pass.
    BallTree {
        /// Whether the tree is built over the left relation.
        index_left: bool,
    },
    /// The persisted, delta-maintained Ball index one side's snapshot
    /// carries, probed with the other side's rows in one morsel-sharded
    /// pass: no build, one range query per probe row.
    Indexed {
        /// Whether the probed index is the left relation's.
        index_left: bool,
    },
}

/// One side of a join as the planner sees it: its rows and, when the side
/// is a materialized [`PatchCollection`], the live Ball index over them — a
/// Ball index whose `len()` equals the row count; among several, the one
/// with the fewest `delta_rows()`, ties broken by name. Slices convert with
/// no index.
#[derive(Debug, Clone, Copy)]
pub struct JoinSide<'a> {
    rows: &'a [Patch],
    index: Option<&'a DeltaBallTree>,
}

impl<'a> From<&'a [Patch]> for JoinSide<'a> {
    fn from(rows: &'a [Patch]) -> Self {
        JoinSide { rows, index: None }
    }
}

impl<'a> From<&'a Vec<Patch>> for JoinSide<'a> {
    fn from(rows: &'a Vec<Patch>) -> Self {
        JoinSide::from(rows.as_slice())
    }
}

impl<'a> From<&'a PatchCollection> for JoinSide<'a> {
    fn from(collection: &'a PatchCollection) -> Self {
        JoinSide {
            rows: &collection.patches,
            index: collection.live_ball_index(),
        }
    }
}

impl<'a> JoinSide<'a> {
    /// The one dimension featured rows share ([`feature_shape`], seeded
    /// with `dim`). A side with a live index reads it off the index without
    /// walking its rows: every indexed row has features of the index's
    /// dimension by construction.
    fn dim(&self, dim: Option<usize>) -> Result<Option<usize>> {
        match (self.index.and_then(DeltaBallTree::dim), dim) {
            (Some(d), Some(e)) if d != e => Err(DlError::SchemaMismatch(format!(
                "indexed rows have dimension {d} but expected {e}"
            ))),
            (Some(d), _) => Ok(Some(d)),
            (None, _) => feature_shape(self.rows, dim),
        }
    }

    /// The tree a tree pass over this side probes: the side's live index
    /// when `persisted` (a borrow, nothing built), else a fresh on-the-fly
    /// tree over its featured rows.
    pub(crate) fn tree(
        &self,
        persisted: bool,
        pool: &WorkerPool,
    ) -> Result<Cow<'a, DeltaBallTree>> {
        if persisted {
            self.index.map(Cow::Borrowed).ok_or_else(|| {
                DlError::SchemaMismatch("the indexed side carries no live Ball index".into())
            })
        } else {
            ops::fresh_tree(self.rows, pool).map(Cow::Owned)
        }
    }
}

/// `pos` as a `u32` row id, or [`DlError::SchemaMismatch`] when the
/// position does not fit — join pairs, index ids and dedup clusters are
/// `u32`, and a relation past `u32::MAX` rows must fail loudly instead of
/// wrapping. Checking a relation's last position checks all of them.
pub(crate) fn row_id(pos: usize) -> Result<u32> {
    u32::try_from(pos)
        .map_err(|_| DlError::SchemaMismatch(format!("row {pos} does not fit a u32 row id")))
}

/// `tau` as a similarity threshold, or [`DlError::SchemaMismatch`] when it
/// is negative or NaN. Such a τ has no answer every plan agrees on: the
/// Ball-Tree prunes on `d > r + τ` while leaves, delta rows and the
/// brute-force oracle test `d² ≤ τ²`, and a batch probes at its members'
/// largest τ. Every entry point that probes a tree checks it first.
pub(crate) fn check_tau(tau: f32) -> Result<()> {
    if tau >= 0.0 {
        Ok(())
    } else {
        Err(DlError::SchemaMismatch(format!(
            "similarity threshold {tau} is negative or NaN"
        )))
    }
}

/// Dimensionality of the first feature payload in `patches` (0 if none):
/// the cost model's `dim` input.
pub(crate) fn feature_dim(patches: &[Patch]) -> usize {
    patches
        .iter()
        .find_map(|p| p.data.features().map(<[f32]>::len))
        .unwrap_or(0)
}

/// One walk over `patches`: the one dimension every featured row shares
/// (`None` when no row has features). `dim` seeds the walk with another
/// relation's dimension, so both sides of a join are held to the same one.
///
/// Errors with [`DlError::SchemaMismatch`] when two featured rows disagree:
/// the tree kernels assume one dimension.
pub(crate) fn feature_shape(patches: &[Patch], mut dim: Option<usize>) -> Result<Option<usize>> {
    for (i, p) in patches.iter().enumerate() {
        let Some(f) = p.data.features() else {
            continue;
        };
        match dim {
            None => dim = Some(f.len()),
            Some(d) if d != f.len() => {
                return Err(DlError::SchemaMismatch(format!(
                    "patch {i} has dimension {} but expected {d}",
                    f.len()
                )))
            }
            Some(_) => {}
        }
    }
    Ok(dim)
}

impl JoinPlan {
    /// The plan for joining `left × right` (a dedup passes one side twice):
    /// the cheapest, by [`CostModel::batched_index_join_cost`], of the
    /// on-the-fly Ball-Tree over the smaller side and [`JoinPlan::Indexed`]
    /// over each side that carries a live index — priced without a build,
    /// plus the index's delta scan per probe. Ties keep the on-the-fly
    /// plan, then the left index.
    ///
    /// Errors with [`DlError::SchemaMismatch`] when two featured rows across
    /// the two sides disagree on dimension (an indexed side answers with its
    /// index's dimension, without a walk over its rows).
    pub fn choose<'a>(
        left: impl Into<JoinSide<'a>>,
        right: impl Into<JoinSide<'a>>,
    ) -> Result<JoinPlan> {
        let (left, right) = (left.into(), right.into());
        let dim = right.dim(left.dim(None)?)?.unwrap_or(0).max(1);
        let (n_left, n_right) = (left.rows.len(), right.rows.len());
        let model = CostModel::default();
        let index_left = n_left <= n_right;
        let (n_idx, n_probe) = if index_left {
            (n_left, n_right)
        } else {
            (n_right, n_left)
        };
        let mut best = JoinPlan::BallTree { index_left };
        let mut best_cost = model.batched_index_join_cost(n_idx, n_probe, dim, 1, None);
        for (index_left, indexed, probed) in [(true, left, right), (false, right, left)] {
            let Some(index) = indexed.index else {
                continue;
            };
            let delta = Some(index.delta_rows());
            let cost = model.batched_index_join_cost(index.len(), probed.rows.len(), dim, 1, delta);
            if cost < best_cost {
                (best, best_cost) = (JoinPlan::Indexed { index_left }, cost);
            }
        }
        Ok(best)
    }

    /// Execute the plan for every `(tau, predicate)` member over one
    /// relation pair: one sorted, predicate-filtered `(left_idx, right_idx)`
    /// vector per member. The tree is built or borrowed (the indexed side's
    /// live index) once for all members. Bare slices join as
    /// `JoinPlan::choose(l, r)?.run(l, r, &[(tau, None)], &pool)`.
    ///
    /// Errors with [`DlError::SchemaMismatch`] when the sides are not ones
    /// [`JoinPlan::choose`] would have given this plan: rows that disagree
    /// on dimension, or [`JoinPlan::Indexed`] over a side without a live
    /// index — and when a side has more rows than a `u32` row id can
    /// address. A negative or NaN `tau` is a [`DlError::SchemaMismatch`]
    /// before any tree is built or probed.
    pub fn run<'a>(
        self,
        left: impl Into<JoinSide<'a>>,
        right: impl Into<JoinSide<'a>>,
        members: &[(f32, Option<PairPredicate<'_>>)],
        pool: &WorkerPool,
    ) -> Result<Vec<Vec<(u32, u32)>>> {
        for &(tau, _) in members {
            check_tau(tau)?;
        }
        let (left, right) = (left.into(), right.into());
        let (l, r) = (left.rows, right.rows);
        row_id(l.len().saturating_sub(1))?;
        row_id(r.len().saturating_sub(1))?;
        let (JoinPlan::BallTree { index_left } | JoinPlan::Indexed { index_left }) = self;
        let (indexed, probes) = if index_left { (left, r) } else { (right, l) };
        let tree = indexed.tree(matches!(self, JoinPlan::Indexed { .. }), pool)?;
        let members: Vec<BatchJoinMember> = members
            .iter()
            .map(|&(tau, predicate)| BatchJoinMember {
                probes,
                tau,
                probe_is_left: !index_left,
                predicate,
            })
            .collect();
        ops::similarity_join_balltree_multi(&tree, indexed.rows, &members, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::{ImgRef, PatchId};

    fn rows(n: usize, dim: usize) -> Vec<Patch> {
        (0..n as u64)
            .map(|i| Patch::features(PatchId(i), ImgRef::frame("p", i), vec![i as f32; dim]))
            .collect()
    }

    #[test]
    fn ragged_inputs_route_as_documented() {
        let (small, large) = (rows(12, 3), rows(90, 3));
        let mut ragged = small.clone();
        ragged.insert(4, Patch::empty(PatchId(999), ImgRef::frame("p", 999)));
        let tree = |index_left| JoinPlan::BallTree { index_left };
        let pool = WorkerPool::new(2);
        for (l, r, want) in [
            // A featureless row on the indexed (smaller) side leaves the
            // tree over the featured rows; on the probe side it matches
            // nothing.
            (&ragged, &large, tree(true)),
            (&small, &ragged, tree(true)),
            (&large, &small, tree(false)),
            // A dedup is the self-join.
            (&small, &small, tree(true)),
            (&ragged, &ragged, tree(true)),
        ] {
            let plan = JoinPlan::choose(l, r).unwrap();
            assert_eq!(plan, want);
            let mut oracle = ops::similarity_join_nested(l, r, 2.0).unwrap();
            oracle.sort_unstable();
            assert_eq!(plan.run(l, r, &[(2.0, None)], &pool).unwrap(), [oracle]);
        }
    }

    #[test]
    fn mismatched_dimensions_are_a_schema_mismatch() {
        let (a, b) = (rows(10, 8), rows(20, 4));
        let mut mixed = rows(6, 4);
        mixed.extend(rows(3, 8));
        for (l, r) in [
            (&a, &b),
            (&b, &a),
            (&mixed, &b),
            (&b, &mixed),
            (&mixed, &mixed),
        ] {
            assert!(
                matches!(JoinPlan::choose(l, r), Err(DlError::SchemaMismatch(_))),
                "{}x{} rows",
                l.len(),
                r.len()
            );
        }
        // Featureless rows carry no dimension, and an empty side agrees with
        // any.
        let mut ragged = rows(5, 4);
        ragged.push(Patch::empty(PatchId(99), ImgRef::frame("p", 99)));
        assert!(JoinPlan::choose(&ragged, &b).is_ok());
        let none: &[Patch] = &[];
        assert!(JoinPlan::choose(none, &a).is_ok());
        // An indexed side answers with its index's dimension.
        let a = indexed(a);
        for (l, r) in [
            (JoinSide::from(&a), JoinSide::from(&b)),
            ((&b).into(), (&a).into()),
        ] {
            assert!(matches!(
                JoinPlan::choose(l, r),
                Err(DlError::SchemaMismatch(_))
            ));
        }
        assert!(JoinPlan::choose(&a, &a).is_ok());
    }

    /// `rows` as a collection carrying a live Ball index.
    fn indexed(rows: Vec<Patch>) -> PatchCollection {
        let mut col = PatchCollection::from_patches(rows);
        col.build_ball_index("by_feat", 1).unwrap();
        col
    }

    #[test]
    fn a_live_index_is_probed_when_cheaper_than_a_build() {
        // The served join's shape: 64 probes × a 20 000-row, 8-d gallery.
        let (probes, gallery) = (rows(64, 8), rows(20_000, 8));
        let (probes_ix, gallery_ix) = (indexed(probes.clone()), indexed(gallery.clone()));
        let mut ragged = probes.clone();
        ragged[5] = Patch::empty(PatchId(5), ImgRef::frame("p", 5));
        let tree = |index_left| JoinPlan::BallTree { index_left };
        let indexed_plan = |index_left| JoinPlan::Indexed { index_left };
        let cases: [(JoinSide, JoinSide, JoinPlan); 8] = [
            // The index on either side.
            ((&probes).into(), (&gallery_ix).into(), indexed_plan(false)),
            ((&gallery_ix).into(), (&probes).into(), indexed_plan(true)),
            // No index: the on-the-fly tree over the smaller side, as ever.
            ((&probes).into(), (&gallery).into(), tree(true)),
            ((&gallery).into(), (&probes).into(), tree(false)),
            // An index on the small side saves the build over it.
            ((&probes_ix).into(), (&gallery).into(), indexed_plan(true)),
            // A featureless probe row matches nothing under `Indexed`, and
            // the on-the-fly tree indexes only the featured rows.
            ((&ragged).into(), (&gallery_ix).into(), indexed_plan(false)),
            ((&ragged).into(), (&gallery).into(), tree(true)),
            // A dedup over an indexed collection probes its index.
            (
                (&gallery_ix).into(),
                (&gallery_ix).into(),
                indexed_plan(true),
            ),
        ];
        for (l, r, want) in cases {
            assert_eq!(JoinPlan::choose(l, r).unwrap(), want);
        }
        assert_eq!(JoinPlan::choose(&gallery, &gallery).unwrap(), tree(true));
    }

    #[test]
    fn the_indexed_plan_probes_the_live_index_and_matches_the_tree_plan() {
        let (probes, gallery) = (rows(30, 3), indexed(rows(300, 3)));
        let pool = WorkerPool::new(2);
        let plan = JoinPlan::choose(&probes, &gallery).unwrap();
        assert_eq!(plan, JoinPlan::Indexed { index_left: false });
        let members = [(1.5, None), (4.0, None)];
        let got = plan.run(&probes, &gallery, &members, &pool).unwrap();
        let want = JoinPlan::BallTree { index_left: false }
            .run(&probes, &gallery.patches[..], &members, &pool)
            .unwrap();
        assert_eq!(got, want);
        assert!(!got[1].is_empty());
        // Run over a bare slice, the same plan has no index to probe.
        assert!(matches!(
            plan.run(&probes, &gallery.patches[..], &members, &pool),
            Err(DlError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn row_ids_past_u32_are_an_error_not_a_wrap() {
        assert_eq!(row_id(0).unwrap(), 0);
        assert_eq!(row_id(u32::MAX as usize).unwrap(), u32::MAX);
        assert!(matches!(
            row_id(u32::MAX as usize + 1),
            Err(DlError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn a_plan_run_on_slices_it_was_not_chosen_for_errors() {
        let good = rows(7, 4);
        let mut mixed = rows(6, 4);
        mixed.extend(rows(3, 8));
        let mut ragged = rows(5, 4);
        ragged.push(Patch::empty(PatchId(99), ImgRef::frame("p", 99)));
        let tree = |index_left| JoinPlan::BallTree { index_left };
        let mut cases = Vec::new();
        for plan in [tree(true), tree(false)] {
            cases.extend([(plan, &mixed, &good), (plan, &good, &mixed)]);
        }
        // Bare slices carry no index to probe.
        for index_left in [true, false] {
            cases.push((JoinPlan::Indexed { index_left }, &good, &good));
        }
        let pool = WorkerPool::new(2);
        // A featureless row where the tree must index it is left out of the
        // tree, not an error.
        for (plan, l, r) in [(tree(true), &ragged, &good), (tree(false), &good, &ragged)] {
            let mut oracle = ops::similarity_join_nested(l, r, 1.0).unwrap();
            oracle.sort_unstable();
            assert_eq!(plan.run(l, r, &[(1.0, None)], &pool).unwrap(), [oracle]);
        }
        for (plan, l, r) in cases {
            assert!(
                matches!(
                    plan.run(l, r, &[(1.0, None)], &pool),
                    Err(DlError::SchemaMismatch(_))
                ),
                "{plan:?} over {}x{} rows",
                l.len(),
                r.len()
            );
        }
    }

    #[test]
    fn negative_and_nan_taus_error_before_any_probe() {
        let rows = rows(64, 2);
        let pool = WorkerPool::new(1);
        for plan in [
            JoinPlan::BallTree { index_left: true },
            JoinPlan::BallTree { index_left: false },
        ] {
            for tau in [-1.5, -f32::MIN_POSITIVE, f32::NAN, f32::NEG_INFINITY] {
                let got = plan.run(&rows, &rows, &[(1.0, None), (tau, None)], &pool);
                assert!(
                    matches!(got, Err(DlError::SchemaMismatch(_))),
                    "{plan:?} at {tau}"
                );
            }
            // Zero, negative zero and infinity are thresholds every plan
            // agrees on.
            for tau in [0.0, -0.0, f32::INFINITY] {
                let mut oracle = ops::similarity_join_nested(&rows, &rows, tau).unwrap();
                oracle.sort_unstable();
                assert_eq!(
                    plan.run(&rows, &rows, &[(tau, None)], &pool).unwrap(),
                    [oracle]
                );
            }
        }
    }
}
