//! The physical plan of a similarity join: chosen once, priced and run as
//! chosen.
//!
//! [`JoinPlan::choose`] is the only place the engine decides *how* a
//! similarity join executes — packed kernel over live columnar backings,
//! on-the-fly Ball-Tree over the smaller side, the device's all-pairs
//! kernel, or the nested fallback for relations with featureless rows.
//! [`crate::batch::QueryBatch::plan`] calls it once per join member,
//! [`crate::batch::PlannedBatch::estimate_us`] prices the plan it returned,
//! and [`crate::batch::PlannedBatch::run`] executes that same plan, so the
//! cost a server admits is the cost of the work it then does. Every plan
//! emits the identical sorted pair set; the choice moves wall-clock only.

use deeplens_exec::{Device, Executor, WorkerPool};

use crate::catalog::{self, PatchCollection};
use crate::ops::{self, PairPredicate};
use crate::optimizer::CostModel;
use crate::patch::Patch;
use crate::Result;

/// How one similarity join `left × right` executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPlan {
    /// Block-form threshold kernel straight over both sides' columnar
    /// chunks; no row is assembled ([`ops::similarity_join_packed`]).
    Packed,
    /// On-the-fly Ball-Tree over the smaller relation (ties index the
    /// left), probed with the other ([`ops::similarity_join_balltree_multi`]).
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

fn ragged(patches: &[Patch]) -> bool {
    patches.iter().any(|p| p.data.features().is_none())
}

/// Whether both collections carry a live columnar backing and the cost model
/// prices the packed plan at or under materialize-then-index
/// ([`CostModel::prefer_packed_join`]). Counts one backing hit per distinct
/// collection when — and only when — the answer is yes.
fn packed_preferred(left: &PatchCollection, right: &PatchCollection, model: &CostModel) -> bool {
    let self_join = std::ptr::eq(left, right);
    let Some(lc) = left.live_columnar() else {
        return false;
    };
    if !self_join && right.live_columnar().is_none() {
        return false;
    }
    let dim = join_dim(&left.patches, &right.patches);
    if !model.prefer_packed_join(left.len(), right.len(), dim, lc.chunk_rows()) {
        return false;
    }
    catalog::note_columnar_hits(if self_join { 1 } else { 2 });
    true
}

/// The smaller-side rule: the on-the-fly tree is built over the relation
/// with fewer rows, ties going left (§5).
pub(crate) fn index_left(n_left: usize, n_right: usize) -> bool {
    n_left <= n_right
}

/// The host-side tree plan: index the smaller side, unless it is ragged.
fn tree_or_nested(left: &[Patch], right: &[Patch]) -> JoinPlan {
    let index_left = index_left(left.len(), right.len());
    if ragged(if index_left { left } else { right }) {
        JoinPlan::Nested
    } else {
        JoinPlan::BallTree { index_left }
    }
}

impl JoinPlan {
    /// The plan for joining two materialized collections on `device`.
    ///
    /// CPU devices run packed when both sides carry a live backing and
    /// [`CostModel::prefer_packed_join`] prices it under the Ball-Tree, which
    /// they run otherwise; the simulated GPU offloads the all-pairs kernel. Either falls back to [`JoinPlan::Nested`] when the relation
    /// it must index (or either side of the dense matrix pair) is ragged.
    pub fn choose(
        left: &PatchCollection,
        right: &PatchCollection,
        device: Device,
        model: &CostModel,
    ) -> JoinPlan {
        if device != Device::GpuSim && packed_preferred(left, right, model) {
            return JoinPlan::Packed;
        }
        Self::choose_rows(&left.patches, &right.patches, device)
    }

    /// The plan for deduplicating `col` (a self-join) on `device`. The
    /// all-pairs offload is a two-relation kernel; a dedup on a GPU session
    /// stays on the host tree.
    pub fn choose_dedup(col: &PatchCollection, device: Device, model: &CostModel) -> JoinPlan {
        if device != Device::GpuSim && packed_preferred(col, col, model) {
            return JoinPlan::Packed;
        }
        tree_or_nested(&col.patches, &col.patches)
    }

    /// [`JoinPlan::choose`] for bare row slices (no backing to go packed
    /// over).
    pub fn choose_rows(left: &[Patch], right: &[Patch], device: Device) -> JoinPlan {
        match device {
            Device::GpuSim if ragged(left) || ragged(right) => JoinPlan::Nested,
            Device::GpuSim => JoinPlan::GpuAllPairs,
            _ => tree_or_nested(left, right),
        }
    }

    /// The device this plan's kernel is priced on: the session's
    /// `pool_threads`-worker slice for the packed and tree passes, the
    /// simulated GPU for the offload, one serial core for the nested loop.
    pub fn device(self, pool_threads: usize) -> Device {
        match self {
            JoinPlan::Packed | JoinPlan::BallTree { .. } => Device::ParallelCpu(pool_threads),
            JoinPlan::GpuAllPairs => Device::GpuSim,
            JoinPlan::Nested => Device::Avx,
        }
    }

    /// Execute a row-level plan for every `(tau, predicate)` member over one
    /// relation pair: one sorted, predicate-filtered pair vector per member.
    /// The Ball-Tree builds once and the all-pairs kernel dispatches once
    /// for all members.
    ///
    /// [`JoinPlan::Packed`] reads chunks, not rows, and is run by the batch
    /// executor off the collections' backings.
    pub(crate) fn run_rows(
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
                ops::similarity_join_balltree_pair(left, right, index_left, members, pool)
            }
            JoinPlan::GpuAllPairs if left.is_empty() || right.is_empty() => {
                vec![Vec::new(); members.len()]
            }
            JoinPlan::GpuAllPairs => {
                let a = ops::feature_matrix(left)?;
                let b = ops::feature_matrix(right)?;
                let taus: Vec<f32> = members.iter().map(|m| m.0).collect();
                Executor::new(Device::GpuSim)
                    .threshold_join_multi(&a, &b, &taus)
                    .into_iter()
                    .zip(members)
                    .map(|(mut pairs, &(_, pred))| {
                        pairs.sort_unstable();
                        filtered(pairs, pred)
                    })
                    .collect()
            }
            JoinPlan::Nested => members
                .iter()
                .map(|&(tau, pred)| filtered(ops::similarity_join_nested(left, right, tau), pred))
                .collect(),
            JoinPlan::Packed => unreachable!("a packed plan runs off columnar backings, not rows"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::{ImgRef, PatchId};

    fn collection(n: usize, dim: usize, backed: bool) -> PatchCollection {
        let patches = (0..n as u64)
            .map(|i| Patch::features(PatchId(i), ImgRef::frame("p", i), vec![i as f32; dim]))
            .collect();
        let mut col = PatchCollection::from_patches(patches);
        if backed {
            col.build_columnar_default();
        }
        col
    }

    #[test]
    fn choose_agrees_with_the_packed_cost_verdict() {
        let model = CostModel::default();
        // (n_left, n_right, dim, packed?) — the verdicts the engine has
        // routed by since the packed kernels landed: packed only under ~30
        // rows a side. 64×20 000×8 is the served cold join's shape, a
        // Ball-Tree over the 64-row side.
        let table = [
            (64, 20_000, 8, false),
            (20_000, 64, 8, false),
            (64, 64, 8, false),
            (512, 512, 8, false),
            (32, 32, 8, false),
            (24, 24, 8, true),
            (16, 16, 2, true),
            (1, 1, 1, true),
        ];
        for (nl, nr, dim, packed) in table {
            let (l, r) = (collection(nl, dim, true), collection(nr, dim, true));
            assert_eq!(
                model.prefer_packed_join(nl, nr, dim, l.columnar_chunk_rows().unwrap()),
                packed,
                "{nl}x{nr}x{dim}: cost verdict moved"
            );
            let tree = JoinPlan::BallTree {
                index_left: nl <= nr,
            };
            let want = if packed { JoinPlan::Packed } else { tree };
            assert_eq!(JoinPlan::choose(&l, &r, Device::Avx, &model), want);
            // Without a backing on both sides there is nothing to go packed
            // over, whatever the cost says.
            let bare = collection(nr, dim, false);
            assert_eq!(JoinPlan::choose(&l, &bare, Device::Avx, &model), tree);
        }
    }

    #[test]
    fn gpu_and_ragged_inputs_route_as_documented() {
        let model = CostModel::default();
        let (small, large) = (collection(12, 3, true), collection(90, 3, true));
        let mut rows = small.patches.clone();
        rows.push(Patch::empty(PatchId(999), ImgRef::frame("p", 999)));
        let ragged = PatchCollection::from_patches(rows);
        let (gpu, cpu) = (Device::GpuSim, Device::Avx);
        let tree = |index_left| JoinPlan::BallTree { index_left };
        for (l, r, device, want) in [
            (&small, &large, gpu, JoinPlan::GpuAllPairs),
            (&large, &ragged, gpu, JoinPlan::Nested),
            // CPU: only the indexed (smaller) side must be rectangular.
            (&ragged, &large, cpu, JoinPlan::Nested),
            (&small, &ragged, cpu, tree(true)),
        ] {
            assert_eq!(JoinPlan::choose(l, r, device, &model), want);
        }
        // A dedup never offloads, and a GPU session never goes packed.
        assert_eq!(JoinPlan::choose_dedup(&small, gpu, &model), tree(true));
        assert_eq!(
            JoinPlan::choose_dedup(&small, cpu, &model),
            JoinPlan::Packed
        );
    }
}
