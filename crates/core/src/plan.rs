//! The physical plan of a similarity join: chosen once, priced and run as
//! chosen.
//!
//! [`JoinPlan::choose`] is the only place the engine decides *how* a
//! similarity join executes — on-the-fly Ball-Tree over the smaller side,
//! the device's all-pairs kernel, or the nested fallback for relations with
//! featureless rows — and where a join whose featured rows disagree on
//! dimension is rejected. [`crate::batch::QueryBatch::plan`] calls it once per
//! join member, [`crate::batch::PlannedBatch::estimate_us`] prices the plan
//! it returned, and [`crate::batch::PlannedBatch::run`] executes that same
//! plan, so the cost a server admits is the cost of the work it then does.
//! Every plan emits the identical sorted pair set; the choice moves
//! wall-clock only.

use deeplens_exec::{Device, Executor, WorkerPool};

use crate::ops::{self, BatchJoinMember, PairPredicate};
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
    /// The simulated GPU's dense all-pairs kernel over both feature
    /// matrices (Fig. 8's query-time offload).
    GpuAllPairs,
    /// Brute-force nested loop, skipping featureless rows pair-wise: the
    /// fallback when a relation the chosen kernel must index or stack into
    /// a matrix has a row without features.
    Nested,
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
/// the tree and matrix kernels assume one dimension, and the nested loop
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
    /// The plan for joining `left × right` on `device`: the Ball-Tree on CPU
    /// devices, the all-pairs offload on the simulated GPU. Either falls
    /// back to [`JoinPlan::Nested`] when the relation it must index (or
    /// either side of the dense matrix pair) is ragged.
    ///
    /// Errors with [`DlError::SchemaMismatch`] when two featured rows across
    /// the two sides disagree on dimension.
    pub fn choose(left: &[Patch], right: &[Patch], device: Device) -> Result<JoinPlan> {
        let (left_ragged, dim) = feature_shape(left, None)?;
        let (right_ragged, _) = feature_shape(right, dim)?;
        Ok(match device {
            Device::GpuSim if left_ragged || right_ragged => JoinPlan::Nested,
            Device::GpuSim => JoinPlan::GpuAllPairs,
            _ => tree_or_nested(left.len(), right.len(), left_ragged, right_ragged),
        })
    }

    /// The plan for deduplicating `rows` (a self-join). The all-pairs
    /// offload is a two-relation kernel, so a dedup stays on the host tree
    /// whatever the device; errors as [`JoinPlan::choose`] does.
    pub fn choose_dedup(rows: &[Patch]) -> Result<JoinPlan> {
        let (ragged, _) = feature_shape(rows, None)?;
        Ok(tree_or_nested(rows.len(), rows.len(), ragged, ragged))
    }

    /// The device this plan's kernel is priced on: the session's
    /// `pool_threads`-worker slice for the tree pass, the simulated GPU for
    /// the offload, one serial core for the nested loop.
    pub fn device(self, pool_threads: usize) -> Device {
        match self {
            JoinPlan::BallTree { .. } => Device::ParallelCpu(pool_threads),
            JoinPlan::GpuAllPairs => Device::GpuSim,
            JoinPlan::Nested => Device::Avx,
        }
    }

    /// Execute the plan for every `(tau, predicate)` member over one
    /// relation pair: one sorted, predicate-filtered `(left_idx, right_idx)`
    /// vector per member. The Ball-Tree builds once and the all-pairs kernel
    /// dispatches once for all members. Bare slices join as
    /// `JoinPlan::choose(l, r, device)?.run(l, r, &[(tau, None)], &pool)`.
    ///
    /// Errors with [`DlError::SchemaMismatch`] when the slices are not ones
    /// [`JoinPlan::choose`] (or, for a self-join, [`JoinPlan::choose_dedup`])
    /// would have given this plan: rows that disagree on dimension, or a
    /// featureless row where the kernel must index or stack one.
    pub fn run(
        self,
        left: &[Patch],
        right: &[Patch],
        members: &[(f32, Option<PairPredicate<'_>>)],
        pool: &WorkerPool,
    ) -> Result<Vec<Vec<(u32, u32)>>> {
        let filtered = |pairs: Vec<(u32, u32)>, pred: Option<PairPredicate<'_>>| match pred {
            None => pairs,
            Some(p) => pairs
                .into_iter()
                .filter(|&(l, r)| p(&left[l as usize], &right[r as usize]))
                .collect(),
        };
        Ok(match self {
            JoinPlan::BallTree { index_left } => {
                let (indexed, probes) = if index_left {
                    (left, right)
                } else {
                    (right, left)
                };
                let members: Vec<BatchJoinMember> = members
                    .iter()
                    .map(|&(tau, predicate)| BatchJoinMember {
                        probes,
                        tau,
                        probe_is_left: !index_left,
                        predicate,
                    })
                    .collect();
                ops::similarity_join_balltree_multi(indexed, &members, pool)?
            }
            JoinPlan::GpuAllPairs if left.is_empty() || right.is_empty() => {
                vec![Vec::new(); members.len()]
            }
            JoinPlan::GpuAllPairs => {
                let a = ops::feature_matrix(left)?;
                let b = ops::feature_matrix(right)?;
                let taus: Vec<f32> = members.iter().map(|m| m.0).collect();
                Executor::new(Device::GpuSim)
                    .threshold_join(&a, &b, &taus)
                    .into_iter()
                    .zip(members)
                    .map(|(pairs, &(_, pred))| filtered(pairs, pred))
                    .collect()
            }
            JoinPlan::Nested => {
                let (_, dim) = feature_shape(left, None)?;
                feature_shape(right, dim)?;
                members
                    .iter()
                    .map(|&(tau, pred)| {
                        filtered(ops::similarity_join_nested(left, right, tau), pred)
                    })
                    .collect()
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
    fn gpu_and_ragged_inputs_route_as_documented() {
        let (small, large) = (rows(12, 3), rows(90, 3));
        let mut ragged = small.clone();
        ragged.push(Patch::empty(PatchId(999), ImgRef::frame("p", 999)));
        let (gpu, cpu) = (Device::GpuSim, Device::Avx);
        let tree = |index_left| JoinPlan::BallTree { index_left };
        for (l, r, device, want) in [
            (&small, &large, gpu, JoinPlan::GpuAllPairs),
            (&large, &ragged, gpu, JoinPlan::Nested),
            // CPU: only the indexed (smaller) side must be rectangular.
            (&ragged, &large, cpu, JoinPlan::Nested),
            (&small, &ragged, cpu, tree(true)),
            (&large, &small, cpu, tree(false)),
        ] {
            assert_eq!(JoinPlan::choose(l, r, device).unwrap(), want);
        }
        // A dedup never offloads.
        assert_eq!(JoinPlan::choose_dedup(&small).unwrap(), tree(true));
        assert_eq!(JoinPlan::choose_dedup(&ragged).unwrap(), JoinPlan::Nested);
    }

    #[test]
    fn mismatched_dimensions_are_a_schema_mismatch() {
        let (a, b) = (rows(10, 8), rows(20, 4));
        let mut mixed = rows(6, 4);
        mixed.extend(rows(3, 8));
        for device in [Device::Avx, Device::ParallelCpu(2), Device::GpuSim] {
            for (l, r) in [(&a, &b), (&b, &a), (&mixed, &b), (&b, &mixed)] {
                assert!(
                    matches!(
                        JoinPlan::choose(l, r, device),
                        Err(DlError::SchemaMismatch(_))
                    ),
                    "{device:?}: {}x{} rows",
                    l.len(),
                    r.len()
                );
            }
        }
        assert!(matches!(
            JoinPlan::choose_dedup(&mixed),
            Err(DlError::SchemaMismatch(_))
        ));
        // Featureless rows carry no dimension, and an empty side agrees with
        // any.
        let mut ragged = rows(5, 4);
        ragged.push(Patch::empty(PatchId(99), ImgRef::frame("p", 99)));
        assert!(JoinPlan::choose(&ragged, &b, Device::Avx).is_ok());
        assert!(JoinPlan::choose(&[], &a, Device::GpuSim).is_ok());
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
        for plan in [
            tree(true),
            tree(false),
            JoinPlan::GpuAllPairs,
            JoinPlan::Nested,
        ] {
            cases.extend([(plan, &mixed, &good), (plan, &good, &mixed)]);
        }
        // A featureless row where the kernel must index or stack it.
        cases.extend([
            (tree(true), &ragged, &good),
            (tree(false), &good, &ragged),
            (JoinPlan::GpuAllPairs, &good, &ragged),
        ]);
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
