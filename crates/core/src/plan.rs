//! The physical plan of a similarity join: chosen once, priced and run as
//! chosen.
//!
//! [`JoinPlan::choose`] is the only place the engine decides *how* a
//! similarity join executes — probe the persisted Ball index one side's
//! snapshot already carries, build an on-the-fly Ball-Tree over the smaller
//! side, or fall back to the nested loop for relations with featureless
//! rows — and where a join whose featured rows disagree on dimension is
//! rejected. A dedup is the self-join `choose(rows, rows)`. The choice
//! depends on the two sides only, never on the session's thread budget:
//! the budget sets the worker count a tree plan runs with; the nested loop
//! runs serially. It sees each side as a [`JoinSide`]: the rows, plus the
//! live Ball index when the side is a materialized collection that has one. Bare slices
//! carry no index, so for them the choice is between the last two plans
//! only.
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
    /// On-the-fly Ball-Tree over the smaller relation (ties index the
    /// left), probed with the other in one morsel-sharded pass.
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
    /// Brute-force nested loop, skipping featureless rows pair-wise: the
    /// fallback when the relation a tree must index has a row without
    /// features.
    Nested,
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
    /// Whether any row is featureless, and the one dimension featured rows
    /// share ([`feature_shape`], seeded with `dim`). A side with a live
    /// index reads both off the index without walking its rows: every
    /// indexed row has features of the index's dimension by construction.
    fn shape(&self, dim: Option<usize>) -> Result<(bool, Option<usize>)> {
        match (self.index.and_then(DeltaBallTree::dim), dim) {
            (Some(d), Some(e)) if d != e => Err(DlError::SchemaMismatch(format!(
                "indexed rows have dimension {d} but expected {e}"
            ))),
            (Some(d), _) => Ok((false, Some(d))),
            (None, _) => feature_shape(self.rows, dim),
        }
    }

    /// The tree a tree pass over this side probes: the side's live index
    /// when `persisted` (a borrow, nothing built), else a fresh on-the-fly
    /// tree over its rows.
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

/// Dimensionality of the first feature payload in `patches` (0 if none):
/// the cost model's `dim` input.
pub(crate) fn feature_dim(patches: &[Patch]) -> usize {
    patches
        .iter()
        .find_map(|p| p.data.features().map(<[f32]>::len))
        .unwrap_or(0)
}

/// The cost model's `dim` for a join of `left × right` (at least 1).
pub(crate) fn join_dim(left: &[Patch], right: &[Patch]) -> usize {
    feature_dim(left).max(feature_dim(right)).max(1)
}

/// One walk over `patches`: whether any row is featureless, and the one
/// dimension every featured row shares. `dim` seeds the walk with another
/// relation's dimension, so both sides of a join are held to the same one.
///
/// Errors with [`DlError::SchemaMismatch`] when two featured rows disagree:
/// the tree kernels assume one dimension, and the nested loop
/// would silently compare a prefix.
pub(crate) fn feature_shape(
    patches: &[Patch],
    mut dim: Option<usize>,
) -> Result<(bool, Option<usize>)> {
    let mut ragged = false;
    for (i, p) in patches.iter().enumerate() {
        let Some(f) = p.data.features() else {
            ragged = true;
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
    Ok((ragged, dim))
}

/// The host-side tree plan: index the smaller side, ties going left (§5),
/// unless it is ragged.
fn tree_or_nested(
    n_left: usize,
    n_right: usize,
    left_ragged: bool,
    right_ragged: bool,
) -> JoinPlan {
    let index_left = n_left <= n_right;
    if (index_left && left_ragged) || (!index_left && right_ragged) {
        JoinPlan::Nested
    } else {
        JoinPlan::BallTree { index_left }
    }
}

impl JoinPlan {
    /// The plan for joining `left × right` (a dedup passes one side twice):
    /// the cheapest, by [`CostModel::batched_index_join_cost`], of the
    /// on-the-fly Ball-Tree over the smaller side (or [`JoinPlan::Nested`]
    /// when that side is ragged, priced by [`CostModel::nested_loop_cost`]) and
    /// [`JoinPlan::Indexed`] over each side that carries a live index —
    /// priced without a build, plus the index's delta scan per probe. Ties
    /// keep the on-the-fly plan, then the left index. Featureless probe rows
    /// match nothing under `Indexed`, so a ragged probe side still takes it.
    ///
    /// Errors with [`DlError::SchemaMismatch`] when two featured rows across
    /// the two sides disagree on dimension (an indexed side answers with its
    /// index's dimension, without a walk over its rows).
    pub fn choose<'a>(
        left: impl Into<JoinSide<'a>>,
        right: impl Into<JoinSide<'a>>,
    ) -> Result<JoinPlan> {
        let (left, right) = (left.into(), right.into());
        let (left_ragged, dim) = left.shape(None)?;
        let (right_ragged, dim) = right.shape(dim)?;
        let (n_left, n_right) = (left.rows.len(), right.rows.len());
        let dim = dim.unwrap_or(0).max(1);
        let model = CostModel::default();
        let mut best = tree_or_nested(n_left, n_right, left_ragged, right_ragged);
        let mut best_cost = match best {
            JoinPlan::BallTree { index_left: true } => {
                model.batched_index_join_cost(n_left, n_right, dim, 1, None)
            }
            JoinPlan::BallTree { index_left: false } => {
                model.batched_index_join_cost(n_right, n_left, dim, 1, None)
            }
            _ => model.nested_loop_cost(n_left, n_right, dim),
        };
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
    /// vector per member. A tree plan gets its tree once (a build, or the
    /// indexed side's live index) for all members. Bare slices join as
    /// `JoinPlan::choose(l, r)?.run(l, r, &[(tau, None)], &pool)`.
    ///
    /// Errors with [`DlError::SchemaMismatch`] when the sides are not ones
    /// [`JoinPlan::choose`] would have given this plan: rows that disagree
    /// on dimension, a featureless row where the tree must index one, or
    /// [`JoinPlan::Indexed`] over a side without a live index — and when a
    /// side has more rows than a `u32` row id can address.
    pub fn run<'a>(
        self,
        left: impl Into<JoinSide<'a>>,
        right: impl Into<JoinSide<'a>>,
        members: &[(f32, Option<PairPredicate<'_>>)],
        pool: &WorkerPool,
    ) -> Result<Vec<Vec<(u32, u32)>>> {
        let (left, right) = (left.into(), right.into());
        let (l, r) = (left.rows, right.rows);
        row_id(l.len().saturating_sub(1))?;
        row_id(r.len().saturating_sub(1))?;
        Ok(match self {
            JoinPlan::BallTree { index_left } | JoinPlan::Indexed { index_left } => {
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
                ops::similarity_join_balltree_multi(&tree, indexed.rows, &members, pool)?
            }
            JoinPlan::Nested => {
                let (_, dim) = feature_shape(l, None)?;
                feature_shape(r, dim)?;
                members
                    .iter()
                    .map(|&(tau, pred)| {
                        let mut pairs = ops::similarity_join_nested(l, r, tau)?;
                        if let Some(p) = pred {
                            pairs.retain(|&(i, j)| p(&l[i as usize], &r[j as usize]));
                        }
                        Ok(pairs)
                    })
                    .collect::<Result<_>>()?
            }
        })
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
        ragged.push(Patch::empty(PatchId(999), ImgRef::frame("p", 999)));
        let tree = |index_left| JoinPlan::BallTree { index_left };
        for (l, r, want) in [
            // Only the indexed (smaller) side must be rectangular.
            (&ragged, &large, JoinPlan::Nested),
            (&small, &ragged, tree(true)),
            (&large, &small, tree(false)),
            // A dedup is the self-join.
            (&small, &small, tree(true)),
            (&ragged, &ragged, JoinPlan::Nested),
        ] {
            assert_eq!(JoinPlan::choose(l, r).unwrap(), want);
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
            // A featureless probe row matches nothing under `Indexed`.
            ((&ragged).into(), (&gallery_ix).into(), indexed_plan(false)),
            ((&ragged).into(), (&gallery).into(), JoinPlan::Nested),
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
        // An index that no longer covers the rows is not live.
        let mut stale = gallery_ix.clone();
        stale.patches.pop();
        assert_eq!(JoinPlan::choose(&probes, &stale).unwrap(), tree(true));
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
            .run(&probes, &gallery.patches, &members, &pool)
            .unwrap();
        assert_eq!(got, want);
        assert!(!got[1].is_empty());
        // Run over a bare slice, the same plan has no index to probe.
        assert!(matches!(
            plan.run(&probes, &gallery.patches, &members, &pool),
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
        for plan in [tree(true), tree(false), JoinPlan::Nested] {
            cases.extend([(plan, &mixed, &good), (plan, &good, &mixed)]);
        }
        // Bare slices carry no index to probe.
        for index_left in [true, false] {
            cases.push((JoinPlan::Indexed { index_left }, &good, &good));
        }
        // A featureless row where the tree must index it.
        cases.extend([(tree(true), &ragged, &good), (tree(false), &good, &ragged)]);
        let pool = WorkerPool::new(2);
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
}
