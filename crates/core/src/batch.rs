//! Batched query execution inside a session (multi-query optimization).
//!
//! The paper's optimizer amortizes expensive work — scans, featurization,
//! index probes — *across* queries instead of re-running it per request. A
//! [`QueryBatch`] is that story at the session level: an application hands
//! the session K declarative queries at once, [`QueryBatch::plan`] makes
//! every physical decision for them once — snapshots, cache keys, cache
//! replays, one [`JoinPlan`] per join — and the resulting [`PlannedBatch`]
//! is priced ([`PlannedBatch::estimate_us`]) and run ([`PlannedBatch::run`])
//! as planned. [`QueryBatch::run`] is `plan()?.run()`; a single query
//! (`Session::join_collections`, `Session::dedup_collection`) is a batch of
//! one. Compatible members share physical work:
//!
//! * **tree joins and dedups** that index the same snapshot the same way
//!   share one tree and one morsel-sharded probe pass per distinct probe
//!   relation: either one on-the-fly Ball-Tree build
//!   ([`JoinPlan::BallTree`]), or no build at all — the persisted,
//!   delta-maintained Ball index the snapshot carries
//!   ([`JoinPlan::Indexed`]). The pass probes at the group's outer radius
//!   and demultiplexes candidates against each member's own threshold and
//!   predicate (the tree arm of [`JoinPlan::run`]);
//! * **index probes** against the same prebuilt Ball-Tree index share the
//!   snapshot and the index, sharded over the session's morsel pool.
//!
//! **Compatibility** is decided by snapshot identity, not by name: every
//! collection a batch mentions is resolved to one consistent snapshot up
//! front ([`crate::shared::SharedCatalog::snapshot_many`]). Incompatible
//! queries still execute correctly; they simply share nothing.
//!
//! **Determinism**: results come back in query order, and each member's
//! result is byte-identical to issuing that query alone against the same
//! snapshots ([`QueryBatch::run_serial`] is that reference path).
//!
//! **Admission**: a batch is *one* admission unit. However many members it
//! carries, it executes on the session's single thread slice
//! (`Session::pool`), so batching composes with the multi-session budget
//! split instead of multiplying it.

use std::sync::Arc;

use crate::cache::{fingerprint, CachedResult};
use crate::catalog::PatchCollection;
use crate::ops::{self, BatchJoinMember, PairPredicate};
use crate::optimizer::{CostModel, DevicePlanner};
use crate::patch::Patch;
use crate::plan::{self, JoinPlan, JoinSide};
use crate::session::Session;
use crate::{DlError, Result};

/// A θ-predicate attached to a batched similarity join, called as
/// `pred(left_patch, right_patch)` in the query's own orientation.
pub type JoinPredicate = Arc<dyn Fn(&Patch, &Patch) -> bool + Send + Sync>;

/// One declarative query inside a [`QueryBatch`].
#[derive(Clone)]
pub enum BatchQuery {
    /// Similarity join of two materialized collections: all `(left_idx,
    /// right_idx)` pairs within `tau`, sorted — with an optional θ-predicate
    /// applied to the joined pairs.
    SimilarityJoin {
        /// Left collection name.
        left: String,
        /// Right collection name.
        right: String,
        /// Similarity threshold.
        tau: f32,
        /// Optional pair filter.
        predicate: Option<JoinPredicate>,
    },
    /// Similarity deduplication of one collection: transitive clusters of
    /// patches within `tau`.
    Dedup {
        /// Collection name.
        collection: String,
        /// Similarity threshold.
        tau: f32,
    },
    /// Range probe of a prebuilt Ball-Tree index: positions within `tau` of
    /// `probe`, sorted ascending (shape-independent, so a delta-maintained
    /// index answers byte-identically to a fresh rebuild).
    IndexProbe {
        /// Collection name.
        collection: String,
        /// Ball-Tree index name on that collection.
        index: String,
        /// Probe feature vector.
        probe: Vec<f32>,
        /// Similarity threshold.
        tau: f32,
    },
}

impl std::fmt::Debug for BatchQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchQuery::SimilarityJoin {
                left,
                right,
                tau,
                predicate,
            } => f
                .debug_struct("SimilarityJoin")
                .field("left", left)
                .field("right", right)
                .field("tau", tau)
                .field("filtered", &predicate.is_some())
                .finish(),
            BatchQuery::Dedup { collection, tau } => f
                .debug_struct("Dedup")
                .field("collection", collection)
                .field("tau", tau)
                .finish(),
            BatchQuery::IndexProbe {
                collection,
                index,
                tau,
                ..
            } => f
                .debug_struct("IndexProbe")
                .field("collection", collection)
                .field("index", index)
                .field("tau", tau)
                .finish(),
        }
    }
}

/// The result of one batch member, in query order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchResult {
    /// Sorted `(left_idx, right_idx)` join pairs.
    Pairs(Vec<(u32, u32)>),
    /// Dedup clusters (sorted members, ordered by smallest member).
    Clusters(Vec<Vec<u32>>),
    /// Index-probe hits, sorted ascending.
    Hits(Vec<u32>),
}

impl BatchResult {
    /// The join pairs, if this member was a similarity join.
    pub fn pairs(&self) -> Option<&[(u32, u32)]> {
        match self {
            BatchResult::Pairs(p) => Some(p),
            _ => None,
        }
    }

    /// The clusters, if this member was a dedup.
    pub fn clusters(&self) -> Option<&[Vec<u32>]> {
        match self {
            BatchResult::Clusters(c) => Some(c),
            _ => None,
        }
    }

    /// The probe hits, if this member was an index probe.
    pub fn hits(&self) -> Option<&[u32]> {
        match self {
            BatchResult::Hits(h) => Some(h),
            _ => None,
        }
    }
}

impl BatchQuery {
    /// The collections this query reads, in the order
    /// [`BatchQuery::cache_key`] takes their snapshots.
    fn collections(&self) -> Vec<&str> {
        match self {
            BatchQuery::SimilarityJoin { left, right, .. } => vec![left, right],
            BatchQuery::Dedup { collection, .. } | BatchQuery::IndexProbe { collection, .. } => {
                vec![collection]
            }
        }
    }

    /// The result-cache fingerprint of this query over `snaps` (its
    /// collections' resolved snapshots, in query order), or `None` when it is
    /// uncacheable: an unversioned snapshot, or a host θ-predicate.
    pub fn cache_key(&self, snaps: &[&PatchCollection]) -> Option<Vec<u8>> {
        match self {
            BatchQuery::SimilarityJoin {
                predicate: Some(_), ..
            } => None,
            BatchQuery::SimilarityJoin { tau, .. } => {
                fingerprint::join_key(snaps[0].version(), snaps[1].version(), *tau)
            }
            BatchQuery::Dedup { tau, .. } => fingerprint::dedup_key(snaps[0].version(), *tau),
            BatchQuery::IndexProbe {
                index, probe, tau, ..
            } => fingerprint::probe_key(snaps[0].version(), index, probe, *tau),
        }
    }
}

/// A batch of declarative queries accepted by one [`Session`]
/// ([`Session::batch`]). Enqueue members, then [`QueryBatch::run`] — or
/// [`QueryBatch::plan`] first, to price the batch before running it.
#[derive(Debug)]
pub struct QueryBatch<'s> {
    session: &'s Session,
    queries: Vec<BatchQuery>,
}

/// One join or dedup member of a planned group.
struct JoinMember {
    query: usize,
    tau: f32,
    predicate: Option<JoinPredicate>,
    /// `Some(n)` when the member is a dedup over `n` patches: its pairs are
    /// clustered after the pass.
    cluster_n: Option<usize>,
}

impl JoinMember {
    fn predicate(&self) -> Option<PairPredicate<'_>> {
        self.predicate.as_deref().map(|p| p as PairPredicate<'_>)
    }

    fn result(&self, pairs: Vec<(u32, u32)>) -> Result<BatchResult> {
        Ok(match self.cluster_n {
            Some(n) => BatchResult::Clusters(ops::cluster_from_pairs(n, &pairs)?),
            None => BatchResult::Pairs(pairs),
        })
    }
}

/// One Ball-Tree over snapshot `indexed` — built on the fly, or its
/// persisted index when `persisted` — shared by every member that probes
/// it; each `(member, probe relation, probe_is_left)` probes with its own
/// relation. Collections are positions in [`PlannedBatch::snaps`].
struct TreeGroup {
    indexed: usize,
    persisted: bool,
    members: Vec<(JoinMember, usize, bool)>,
}

/// Members over one exact `(left, right)` snapshot pair under the nested
/// plan.
struct PairGroup {
    left: usize,
    right: usize,
    members: Vec<JoinMember>,
}

/// `(query, probe, tau)` probes of one prebuilt index.
struct ProbeGroup {
    collection: usize,
    index: String,
    members: Vec<(usize, Vec<f32>, f32)>,
}

/// A [`QueryBatch`] with its physical decisions made: snapshots resolved,
/// cache consulted, and every remaining member assigned to a shared pass
/// under one [`JoinPlan`]. [`PlannedBatch::estimate_us`] prices exactly the
/// passes [`PlannedBatch::run`] then executes, against the snapshots the
/// plan holds — however long the value waits in between.
pub struct PlannedBatch<'s> {
    session: &'s Session,
    snaps: Vec<Arc<PatchCollection>>,
    /// Per member: the key its fresh result is cached under after the run
    /// (`None`: uncacheable, or already cache-resident).
    keys: Vec<Option<Vec<u8>>>,
    /// Per member: the result the cache already held.
    results: Vec<Option<BatchResult>>,
    trees: Vec<TreeGroup>,
    pairs: Vec<PairGroup>,
    probes: Vec<ProbeGroup>,
}

impl<'s> QueryBatch<'s> {
    pub(crate) fn new(session: &'s Session) -> Self {
        QueryBatch {
            session,
            queries: Vec::new(),
        }
    }

    /// Number of enqueued queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The enqueued queries, in order.
    pub fn queries(&self) -> &[BatchQuery] {
        &self.queries
    }

    /// Enqueue a similarity join of collections `left × right` within
    /// `tau`. Returns the query's position in the batch (its result index).
    pub fn similarity_join(&mut self, left: &str, right: &str, tau: f32) -> usize {
        self.push(BatchQuery::SimilarityJoin {
            left: left.to_string(),
            right: right.to_string(),
            tau,
            predicate: None,
        })
    }

    /// [`QueryBatch::similarity_join`] with a θ-predicate over the joined
    /// pairs: the result is the join filtered to pairs satisfying
    /// `pred(left_patch, right_patch)` — applied per morsel during the
    /// shared pass, never as a separate scan.
    pub fn similarity_join_filtered(
        &mut self,
        left: &str,
        right: &str,
        tau: f32,
        pred: JoinPredicate,
    ) -> usize {
        self.push(BatchQuery::SimilarityJoin {
            left: left.to_string(),
            right: right.to_string(),
            tau,
            predicate: Some(pred),
        })
    }

    /// Enqueue a similarity dedup of `collection` within `tau`.
    pub fn dedup(&mut self, collection: &str, tau: f32) -> usize {
        self.push(BatchQuery::Dedup {
            collection: collection.to_string(),
            tau,
        })
    }

    /// Enqueue a range probe of the prebuilt Ball-Tree `index` on
    /// `collection`.
    pub fn index_probe(
        &mut self,
        collection: &str,
        index: &str,
        probe: Vec<f32>,
        tau: f32,
    ) -> usize {
        self.push(BatchQuery::IndexProbe {
            collection: collection.to_string(),
            index: index.to_string(),
            probe,
            tau,
        })
    }

    /// Enqueue an already-built [`BatchQuery`].
    pub fn push(&mut self, query: BatchQuery) -> usize {
        self.queries.push(query);
        self.queries.len() - 1
    }

    /// Make every physical decision of the batch, once: resolve each
    /// mentioned collection to one consistent snapshot
    /// ([`crate::shared::SharedCatalog::snapshot_many`], first-use order),
    /// derive each member's cache key, replay the members the result cache
    /// already holds (one counted lookup each), choose a [`JoinPlan`] for
    /// every other join and dedup, and group the members that can share a
    /// pass.
    ///
    /// A member whose rows disagree on feature dimension, or whose probe
    /// disagrees with its index's, fails the whole batch here with
    /// [`crate::DlError::SchemaMismatch`] — before anything is admitted or
    /// run, just as a missing collection or index does.
    pub fn plan(self) -> Result<PlannedBatch<'s>> {
        let QueryBatch { session, queries } = self;
        let mut names: Vec<&str> = Vec::new();
        let mut slots: Vec<Vec<usize>> = Vec::with_capacity(queries.len());
        for q in &queries {
            let of_query = q.collections().into_iter().map(|name| {
                names.iter().position(|n| *n == name).unwrap_or_else(|| {
                    names.push(name);
                    names.len() - 1
                })
            });
            slots.push(of_query.collect());
        }
        let snaps = session.catalog.snapshot_many(&names)?;

        let cache = session.catalog.result_cache();
        let mut keys = Vec::with_capacity(queries.len());
        let mut results = Vec::with_capacity(queries.len());
        let (mut trees, mut pairs, mut probes) = (Vec::new(), Vec::new(), Vec::new());
        for (qi, (q, slots)) in queries.into_iter().zip(slots).enumerate() {
            let of_query: Vec<&PatchCollection> = slots.iter().map(|&i| &*snaps[i]).collect();
            let key = q.cache_key(&of_query);
            if let Some(CachedResult::Batch(hit)) = key.as_ref().and_then(|k| cache.get(k)) {
                keys.push(None);
                results.push(Some(hit));
                continue;
            }
            keys.push(key);
            results.push(None);
            let (plan, left, right, tau, predicate, cluster_n) = match q {
                BatchQuery::SimilarityJoin { tau, predicate, .. } => {
                    let plan = JoinPlan::choose(of_query[0], of_query[1])?;
                    (plan, slots[0], slots[1], tau, predicate, None)
                }
                BatchQuery::Dedup { tau, .. } => {
                    let plan = JoinPlan::choose(of_query[0], of_query[0])?;
                    (plan, slots[0], slots[0], tau, None, Some(of_query[0].len()))
                }
                BatchQuery::IndexProbe {
                    index, probe, tau, ..
                } => {
                    of_query[0].ball_index(&index, &probe)?;
                    let collection = slots[0];
                    let member = (qi, probe, tau);
                    match probes
                        .iter_mut()
                        .find(|g: &&mut ProbeGroup| g.collection == collection && g.index == index)
                    {
                        Some(g) => g.members.push(member),
                        None => probes.push(ProbeGroup {
                            collection,
                            index,
                            members: vec![member],
                        }),
                    }
                    continue;
                }
            };
            let member = JoinMember {
                query: qi,
                tau,
                predicate,
                cluster_n,
            };
            if let JoinPlan::BallTree { index_left } | JoinPlan::Indexed { index_left } = plan {
                // Members group on the tree they probe: the snapshot it
                // covers, and whether it is built or persisted.
                let persisted = matches!(plan, JoinPlan::Indexed { .. });
                let (indexed, probed) = if index_left {
                    (left, right)
                } else {
                    (right, left)
                };
                let member = (member, probed, !index_left);
                match trees
                    .iter_mut()
                    .find(|g: &&mut TreeGroup| (g.indexed, g.persisted) == (indexed, persisted))
                {
                    Some(g) => g.members.push(member),
                    None => trees.push(TreeGroup {
                        indexed,
                        persisted,
                        members: vec![member],
                    }),
                }
            } else {
                match pairs
                    .iter_mut()
                    .find(|g: &&mut PairGroup| (g.left, g.right) == (left, right))
                {
                    Some(g) => g.members.push(member),
                    None => pairs.push(PairGroup {
                        left,
                        right,
                        members: vec![member],
                    }),
                }
            }
        }
        Ok(PlannedBatch {
            session,
            snaps,
            keys,
            results,
            trees,
            pairs,
            probes,
        })
    }

    /// Plan and execute the batch as **one admission unit** on the session's
    /// thread slice: one shared pass per compatible group, results
    /// demultiplexed into query order, each byte-identical to issuing that
    /// query alone against the same snapshots ([`QueryBatch::run_serial`]).
    pub fn run(self) -> Result<Vec<BatchResult>> {
        self.plan()?.run()
    }

    /// The serial reference path: every member issued alone, in order, as a
    /// batch of one. [`QueryBatch::run`] is byte-identical to this when no
    /// concurrent writer republishes a mentioned collection mid-batch.
    pub fn run_serial(self) -> Result<Vec<BatchResult>> {
        let mut out = Vec::with_capacity(self.queries.len());
        for q in self.queries {
            out.push(self.session.run_one(q)?);
        }
        Ok(out)
    }
}

impl PlannedBatch<'_> {
    /// Estimated wall-clock (µs) of [`PlannedBatch::run`]: the cost model's
    /// units for exactly the planned passes — a
    /// [`CostModel::batched_index_join_cost`] per probe relation of a shared
    /// tree (one build for an on-the-fly tree; none for a persisted index,
    /// whose delta scan each probe pays instead),
    /// [`CostModel::nested_loop_cost`] per nested member,
    /// [`CostModel::probe_cost`] per index probe, nothing for cache-resident
    /// members — bridged to time by `planner` at the worker count each pass
    /// runs with (the session's slice for a tree or probe pass, one worker
    /// for the serial nested loop). The floor is 1 µs.
    pub fn estimate_us(&self, planner: &DevicePlanner) -> f64 {
        let model = CostModel::default();
        let threads = self.session.effective_threads();
        let bridge =
            |workers: usize, units: f64| planner.estimate_us(workers, units / planner.units_per_us);
        let mut total = 0.0;
        for group in &self.trees {
            let snap = &self.snaps[group.indexed];
            let indexed = &snap.patches;
            let delta = group
                .persisted
                .then(|| snap.live_ball_index().map_or(0, |index| index.delta_rows()));
            // (probe relation, its member count), first-use order.
            let mut passes: Vec<(usize, usize)> = Vec::new();
            for (_, probed, _) in &group.members {
                match passes.iter_mut().find(|(p, _)| p == probed) {
                    Some((_, k)) => *k += 1,
                    None => passes.push((*probed, 1)),
                }
            }
            let mut units = 0.0;
            for (i, (probed, k)) in passes.into_iter().enumerate() {
                let probed = &self.snaps[probed].patches;
                let dim = plan::join_dim(indexed, probed);
                units += model.batched_index_join_cost(indexed.len(), probed.len(), dim, k, delta);
                if i > 0 && delta.is_none() {
                    // An on-the-fly tree is built once for the whole group.
                    units -= model.build_cost(indexed.len(), dim);
                }
            }
            total += bridge(threads, units);
        }
        for group in &self.pairs {
            let (l, r) = (&self.snaps[group.left], &self.snaps[group.right]);
            let dim = plan::join_dim(&l.patches, &r.patches);
            let k = group.members.len() as f64;
            let units = k * model.nested_loop_cost(l.len(), r.len(), dim);
            // The nested loop runs serially.
            total += bridge(1, units);
        }
        for group in &self.probes {
            let col = &self.snaps[group.collection];
            let dim = plan::feature_dim(&col.patches).max(1);
            let units = group.members.len() as f64 * model.probe_cost(col.len(), dim);
            total += bridge(threads, units);
        }
        total.max(1.0)
    }

    /// Execute the planned passes and return every member's result in query
    /// order, caching the freshly computed ones.
    pub fn run(self) -> Result<Vec<BatchResult>> {
        let snaps = &self.snaps;
        let mut results = self.results;
        let pool = self.session.pool();
        for group in &self.trees {
            let passes: Vec<BatchJoinMember> = group
                .members
                .iter()
                .map(|(m, probed, probe_is_left)| BatchJoinMember {
                    probes: &snaps[*probed].patches,
                    tau: m.tau,
                    probe_is_left: *probe_is_left,
                    predicate: m.predicate(),
                })
                .collect();
            let indexed = &*snaps[group.indexed];
            let tree = JoinSide::from(indexed).tree(group.persisted, &pool)?;
            let outs =
                ops::similarity_join_balltree_multi(&tree, &indexed.patches, &passes, &pool)?;
            for ((m, _, _), pairs) in group.members.iter().zip(outs) {
                results[m.query] = Some(m.result(pairs)?);
            }
        }
        for group in &self.pairs {
            let (left, right) = (&snaps[group.left], &snaps[group.right]);
            let specs: Vec<_> = group
                .members
                .iter()
                .map(|m| (m.tau, m.predicate()))
                .collect();
            let outs = JoinPlan::Nested.run(&left.patches, &right.patches, &specs, &pool)?;
            for (m, pairs) in group.members.iter().zip(outs) {
                results[m.query] = Some(m.result(pairs)?);
            }
        }
        // The K probes shard over the session pool, each performing the
        // identical lookup a lone probe would.
        for group in &self.probes {
            let col = &snaps[group.collection];
            let hits = pool
                .run_morsels(group.members.len(), 1, |range| {
                    range
                        .map(|i| {
                            let (_, probe, tau) = &group.members[i];
                            col.lookup_similar(&group.index, probe, *tau)
                        })
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten();
            for ((qi, _, _), hit) in group.members.iter().zip(hits) {
                results[*qi] = Some(BatchResult::Hits(hit?));
            }
        }

        // Every member is cache-resident or in a group, so none is missing.
        let results: Vec<BatchResult> = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.ok_or_else(|| DlError::NotFound(format!("result of batch member {i}"))))
            .collect::<Result<_>>()?;
        let cache = self.session.catalog.result_cache();
        for (key, result) in self.keys.into_iter().zip(&results) {
            if let Some(key) = key {
                cache.insert(key, CachedResult::Batch(result.clone()));
            }
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::{ImgRef, PatchId};
    use crate::shared::SharedCatalog;
    use deeplens_exec::Device;

    fn feat_patches(n: u64, dim: usize, seed: u64) -> Vec<Patch> {
        let mut s = seed;
        (0..n)
            .map(|i| {
                let f: Vec<f32> = (0..dim)
                    .map(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
                    })
                    .collect();
                Patch::features(PatchId(i), ImgRef::frame("b", i), f)
            })
            .collect()
    }

    fn seeded_session(device: Device) -> Session {
        let mut s = Session::ephemeral().unwrap();
        s.set_device(device);
        s.catalog.materialize("small", feat_patches(60, 6, 1));
        s.catalog.materialize("large", feat_patches(220, 6, 2));
        s.catalog.materialize("other", feat_patches(90, 6, 3));
        s.build_ball_index("large", "by_feat").unwrap();
        s
    }

    fn mixed_batch(s: &Session) -> QueryBatch<'_> {
        let mut b = s.batch();
        b.similarity_join("small", "large", 2.0);
        b.similarity_join("small", "large", 4.5);
        b.similarity_join("large", "small", 3.0); // flipped orientation
        b.similarity_join("small", "other", 2.5); // different probe relation
        b.dedup("small", 3.0);
        b.index_probe("large", "by_feat", vec![5.0; 6], 2.0);
        b.index_probe("large", "by_feat", vec![1.0; 6], 4.0);
        b
    }

    #[test]
    fn batch_matches_serial_issuance() {
        for device in [Device::Avx, Device::ParallelCpu(4)] {
            let s = seeded_session(device);
            let got = mixed_batch(&s).run().unwrap();
            let want = mixed_batch(&s).run_serial().unwrap();
            assert_eq!(got.len(), 7);
            assert_eq!(got, want, "device {device:?}");
            assert!(!got[0].pairs().unwrap().is_empty());
            assert!(!got[4].clusters().unwrap().is_empty());
        }
    }

    #[test]
    fn filtered_join_applies_predicate_per_pair() {
        let s = seeded_session(Device::Avx);
        let pred: JoinPredicate =
            Arc::new(|l: &Patch, r: &Patch| (l.id.0 + r.id.0).is_multiple_of(2));
        let mut b = s.batch();
        b.similarity_join_filtered("small", "large", 3.0, pred.clone());
        b.similarity_join("small", "large", 3.0);
        let got = b.run().unwrap();
        let unfiltered = got[1].pairs().unwrap();
        let l = s.catalog.snapshot("small").unwrap();
        let r = s.catalog.snapshot("large").unwrap();
        let want: Vec<(u32, u32)> = unfiltered
            .iter()
            .copied()
            .filter(|&(a, c)| pred(&l.patches[a as usize], &r.patches[c as usize]))
            .collect();
        assert!(want.len() < unfiltered.len(), "predicate must drop pairs");
        assert_eq!(got[0].pairs().unwrap(), &want[..]);
    }

    #[test]
    fn missing_collection_fails_whole_batch() {
        let s = seeded_session(Device::Avx);
        let mut b = s.batch();
        b.similarity_join("small", "missing", 1.0);
        assert!(matches!(b.run(), Err(DlError::NotFound(_))));
        let mut b = s.batch();
        b.index_probe("small", "no_such_index", vec![0.0; 6], 1.0);
        assert!(b.plan().is_err(), "missing index surfaces at plan time");
    }

    #[test]
    fn mismatched_dimensions_fail_the_batch_at_plan_time() {
        let s = seeded_session(Device::Avx);
        s.catalog.materialize("narrow", feat_patches(20, 4, 9));
        let mismatch = |b: QueryBatch<'_>| matches!(b.plan(), Err(DlError::SchemaMismatch(_)));
        let mut b = s.batch();
        b.similarity_join("small", "narrow", 1.0);
        assert!(mismatch(b));
        let mut b = s.batch();
        b.index_probe("large", "by_feat", vec![0.0; 3], 1.0);
        assert!(mismatch(b));
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let s = seeded_session(Device::Avx);
        let b = s.batch();
        assert!(b.is_empty());
        assert!(b.run().unwrap().is_empty());
    }

    #[test]
    fn batch_is_one_admission_unit() {
        // A second attached session halves the thread budget; a batch of
        // many members must still execute on the (single) session slice and
        // leave the admission count untouched.
        let shared = Arc::new(SharedCatalog::new());
        let mut a = Session::ephemeral_attached(shared.clone()).unwrap();
        a.set_device(Device::ParallelCpu(8));
        a.catalog.materialize("small", feat_patches(50, 4, 7));
        a.catalog.materialize("large", feat_patches(150, 4, 8));
        let _b = Session::ephemeral_attached(shared.clone()).unwrap();
        assert_eq!(shared.active_sessions(), 2);
        assert_eq!(a.effective_threads(), 4);
        let mut batch = a.batch();
        for k in 0..6 {
            batch.similarity_join("small", "large", 1.0 + k as f32 * 0.5);
        }
        let got = batch.run().unwrap();
        assert_eq!(got.len(), 6);
        assert_eq!(
            shared.active_sessions(),
            2,
            "a 6-member batch admits as one session's work, not six"
        );
        let want = {
            let mut batch = a.batch();
            for k in 0..6 {
                batch.similarity_join("small", "large", 1.0 + k as f32 * 0.5);
            }
            batch.run_serial().unwrap()
        };
        assert_eq!(got, want);
    }

    #[test]
    fn batch_runs_against_resolved_snapshots() {
        // The batch resolves snapshots once: a writer republishing the
        // collection after run() starts (simulated here by mutating between
        // building and running two identical batches) cannot make members
        // disagree — each run is internally consistent.
        let s = seeded_session(Device::Avx);
        let mut b1 = s.batch();
        b1.similarity_join("small", "large", 2.0);
        b1.dedup("small", 3.0);
        let r1 = b1.run().unwrap();
        s.catalog.materialize("small", feat_patches(10, 6, 99));
        let mut b2 = s.batch();
        b2.similarity_join("small", "large", 2.0);
        b2.dedup("small", 3.0);
        let r2 = b2.run().unwrap();
        assert_ne!(r1, r2, "new version visible to a new batch");
        assert_eq!(r2, {
            let mut b = s.batch();
            b.similarity_join("small", "large", 2.0);
            b.dedup("small", 3.0);
            b.run_serial().unwrap()
        });
    }

    #[test]
    fn estimate_is_at_the_floor_when_every_member_is_cache_resident() {
        let s = seeded_session(Device::Avx);
        let planner = DevicePlanner::default();
        let cold = mixed_batch(&s).plan().unwrap();
        assert!(cold.estimate_us(&planner) > 1.0, "cold members cost work");
        cold.run().unwrap();
        let warm = mixed_batch(&s).plan().unwrap();
        assert_eq!(warm.estimate_us(&planner), 1.0);
        assert_eq!(warm.run().unwrap(), mixed_batch(&s).run_serial().unwrap());
    }

    #[test]
    fn shared_tree_pass_is_priced_as_one_batched_join_not_k_singles() {
        let s = seeded_session(Device::Avx);
        let model = CostModel::default();
        let planner = DevicePlanner::default();
        let price = |right: &str, k: usize| {
            let mut b = s.batch();
            for i in 0..k {
                b.similarity_join("small", right, 1.0 + i as f32);
            }
            b.plan().unwrap().estimate_us(&planner)
        };
        // 60 × 220 × 6 on one vectorized core, the units being the µs
        // bridge: `large` carries `by_feat`, so the pass probes it — no build,
        // and no delta to scan.
        let persisted =
            |k| model.batched_index_join_cost(220, 60, 6, k, Some(0)) / planner.units_per_us;
        assert_eq!(price("large", 1), persisted(1));
        assert_eq!(price("large", 4), persisted(4));
        assert!(
            price("large", 4) < 2.0 * price("large", 1),
            "members share the pass"
        );
        // A write leaves the index delta-maintained (one changed row: a
        // tombstone plus a delta row; two appended delta rows), and every
        // probe pays that delta scan.
        let mut rows = s.catalog.snapshot("large").unwrap().patches.clone();
        rows[7] = feat_patches(1, 6, 99).remove(0);
        rows.extend(feat_patches(2, 6, 98));
        s.catalog.materialize("large", rows);
        let snap = s.catalog.snapshot("large").unwrap();
        assert_eq!(snap.live_ball_index().unwrap().delta_rows(), 4);
        assert_eq!(
            price("large", 2),
            model.batched_index_join_cost(222, 60, 6, 2, Some(4)) / planner.units_per_us
        );
        // `other` has no index: one build over the smaller side, shared.
        let built = |k| model.batched_index_join_cost(60, 90, 6, k, None) / planner.units_per_us;
        assert_eq!(price("other", 1), built(1));
        assert_eq!(price("other", 4), built(4));
        assert!(
            price("other", 4) < 2.0 * price("other", 1),
            "members share the build and pass"
        );
    }

    #[test]
    fn joins_and_dedups_of_an_indexed_snapshot_share_its_index() {
        let s = seeded_session(Device::Avx);
        let model = CostModel::default();
        let planner = DevicePlanner::default();
        let batch = || {
            let mut b = s.batch();
            b.similarity_join("small", "large", 2.0);
            b.similarity_join("large", "small", 3.0);
            b.dedup("large", 1.5);
            b
        };
        let planned = batch().plan().unwrap();
        assert_eq!(planned.trees.len(), 1, "one group over `large`'s index");
        assert!(planned.trees[0].persisted);
        assert!(planned.pairs.is_empty());
        // Two probe passes over the index (by `small`, by `large` itself),
        // no build.
        let units = model.batched_index_join_cost(220, 60, 6, 2, Some(0))
            + model.batched_index_join_cost(220, 220, 6, 1, Some(0));
        assert_eq!(planned.estimate_us(&planner), units / planner.units_per_us);
        assert_eq!(planned.run().unwrap(), batch().run_serial().unwrap());
    }
}
