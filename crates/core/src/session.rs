//! Session facade: a shared-catalog attachment and a worker count.
//!
//! A [`Session`] is the entry point applications use: it attaches to a
//! [`SharedCatalog`] (its own fresh one by default, or one shared with other
//! sessions via [`Session::ephemeral_attached`]) and carries the session's
//! *thread budget*. A session touches no file system: everything it
//! materializes lives in the catalog.
//!
//! Every join, dedup, index build, and pipeline run issued through the
//! session executes on the worker pool the budget implies — `n` morsel
//! workers, or one per hardware thread for `0` — and the plan a join takes
//! never depends on it. When several sessions share one catalog the budget
//! is *divided* across them ([`Session::effective_threads`]): the machine no
//! longer belongs to a single query, so each session gets its exact share of
//! its budget — the even split plus, for the sessions of lowest slot rank,
//! one of the `threads % active_sessions` remainder threads — never below
//! one worker, and never stranding a core.

use std::sync::Arc;

use deeplens_analyze::sync::{LockRank, OrderedMutex};
use deeplens_codec::{FrameCache, Image};
use deeplens_exec::{configured_threads, WorkerPool};

use crate::batch::{BatchQuery, BatchResult, QueryBatch};
use crate::cache::{fingerprint, CachedResult};
use crate::etl::{Pipeline, PipelineBatch};
use crate::ops;
use crate::optimizer::{CostModel, DevicePlanner};
use crate::patch::Patch;
use crate::plan::{self, JoinPlan};
use crate::shared::SharedCatalog;
use crate::Result;

/// Decoded frames a session's frame cache retains by default. Sized for a
/// few seconds of footage: enough that back-to-back ingest batches over one
/// clip skip the second decode, small enough that a session never pins more
/// than a bounded number of rasters.
pub const DEFAULT_FRAME_CACHE_FRAMES: usize = 256;

/// A DeepLens session.
#[derive(Debug)]
pub struct Session {
    /// The shared materialization catalog this session is attached to.
    pub catalog: Arc<SharedCatalog>,
    /// The catalog slot this session occupies while attached; its rank
    /// among the active slots decides whether this session receives one of
    /// the remainder threads of an uneven budget split.
    slot: usize,
    /// The session's thread budget before the multi-session split; `0`
    /// means one worker per hardware thread ([`configured_threads`]).
    threads: usize,
    /// Bounded cache of decoded video frames serving this session's
    /// shared-scan ingest batches ([`Session::ingest_batch`]). Ranked
    /// `FrameCache`: a leaf with respect to catalog state — never held
    /// across a catalog or buffer acquisition.
    frame_cache: OrderedMutex<FrameCache>,
}

impl Session {
    /// A session on one worker, attached to a fresh private catalog.
    pub fn ephemeral() -> Result<Self> {
        Self::ephemeral_attached(Arc::new(SharedCatalog::new()))
    }

    /// A session on one worker, attached to an existing shared catalog:
    /// concurrent sessions over one `catalog` run queries, index builds, and
    /// pipelines against the same collections.
    pub fn ephemeral_attached(catalog: Arc<SharedCatalog>) -> Result<Self> {
        let slot = catalog.attach_session();
        Ok(Session {
            catalog,
            slot,
            threads: 1,
            frame_cache: OrderedMutex::new(
                LockRank::FrameCache,
                "Session::frame_cache",
                FrameCache::new(DEFAULT_FRAME_CACHE_FRAMES),
            ),
        })
    }

    /// Set the session's thread budget: `n` morsel workers, or one per
    /// hardware thread ([`configured_threads`]) for `0`.
    pub fn set_threads(&mut self, n: usize) {
        self.threads = n;
    }

    /// The thread budget this session may actually use right now: its
    /// worker count divided across every session attached to the shared
    /// catalog, never below one.
    ///
    /// The division is exact, not a floor: the `budget % sessions`
    /// remainder threads are granted one-each to the sessions of lowest
    /// slot rank ([`SharedCatalog::session_thread_share`]), so the shares
    /// sum to the whole budget. (The old floor division stranded the
    /// remainder — budget 8 across 3 sessions used 6 threads and idled 2
    /// forever.)
    pub fn effective_threads(&self) -> usize {
        let budget = match self.threads {
            0 => configured_threads(),
            n => n,
        };
        self.catalog.session_thread_share(self.slot, budget)
    }

    /// The worker pool of the session's thread budget: its share of the
    /// machine's morsel workers ([`Session::effective_threads`]).
    pub fn pool(&self) -> WorkerPool {
        WorkerPool::new(self.effective_threads())
    }

    /// Start a batch of declarative queries against this session
    /// ([`crate::batch::QueryBatch`]): enqueue K compatible similarity
    /// joins, dedups, and index probes, then run them as shared scan/probe
    /// passes. The whole batch executes as **one admission unit** on this
    /// session's thread slice ([`Session::effective_threads`]), so batching
    /// composes with the multi-session budget split instead of multiplying
    /// it, and every result is byte-identical to serial issuance.
    pub fn batch(&self) -> QueryBatch<'_> {
        QueryBatch::new(self)
    }

    /// Start a batch of ETL ingestions against this session
    /// ([`crate::etl::PipelineBatch`]): register frame sources, enqueue K
    /// `(pipeline, source, frame window, output)` jobs, then run them with
    /// **shared scans** — each source's frame window is decoded exactly
    /// once per batch (through the session's bounded frame cache) and all K
    /// generator + transformer chains fan out over the shared frames as one
    /// interleaved morsel set on this session's thread slice. Results are
    /// byte-identical to issuing each job serially through
    /// [`Session::run_pipeline`].
    pub fn ingest_batch(&self) -> PipelineBatch<'_> {
        PipelineBatch::new(self)
    }

    /// The session's decoded-frame cache (shared-scan ingest reads and
    /// fills it).
    pub(crate) fn frame_cache(&self) -> &OrderedMutex<FrameCache> {
        &self.frame_cache
    }

    /// Similarity join on the session pool: `(left_idx, right_idx)` pairs
    /// within `tau`, sorted. The physical plan is [`JoinPlan::choose`]'s,
    /// and every thread count returns the identical pair set: patches
    /// without features never match on any of them. Rows that disagree on
    /// feature dimension are a [`crate::DlError::SchemaMismatch`].
    pub fn similarity_join(
        &self,
        left: &[Patch],
        right: &[Patch],
        tau: f32,
    ) -> Result<Vec<(u32, u32)>> {
        let mut out =
            JoinPlan::choose(left, right)?.run(left, right, &[(tau, None)], &self.pool())?;
        Ok(out.pop().unwrap_or_default())
    }

    /// Run `query` alone, as a batch of one.
    pub(crate) fn run_one(&self, query: BatchQuery) -> Result<BatchResult> {
        let mut batch = self.batch();
        batch.push(query);
        let mut results = batch.run()?;
        Ok(results.pop().expect("a batch of one yields one result"))
    }

    /// [`Session::similarity_join`] over two materialized collections — a
    /// [`Session::batch`] of one: consistent snapshots, the result cache,
    /// and the planner's persisted-index / on-the-fly tree choice all
    /// apply.
    pub fn join_collections(&self, left: &str, right: &str, tau: f32) -> Result<Vec<(u32, u32)>> {
        match self.run_one(BatchQuery::SimilarityJoin {
            left: left.to_string(),
            right: right.to_string(),
            tau,
            predicate: None,
        })? {
            BatchResult::Pairs(pairs) => Ok(pairs),
            other => unreachable!("a similarity join yields pairs, not {other:?}"),
        }
    }

    /// Similarity deduplication (§5 q4) on the session pool: clusters of
    /// patches within `tau` of each other, transitively. The self-join runs
    /// under the plan [`JoinPlan::choose`] picks for the self-join; rows
    /// that disagree on feature dimension are a
    /// [`crate::DlError::SchemaMismatch`].
    pub fn dedup(&self, patches: &[Patch], tau: f32) -> Result<Vec<Vec<u32>>> {
        let plan = JoinPlan::choose(patches, patches)?;
        let pairs = plan.run(patches, patches, &[(tau, None)], &self.pool())?;
        ops::cluster_from_pairs(patches.len(), &pairs[0])
    }

    /// [`Session::dedup`] over a materialized collection — a
    /// [`Session::batch`] of one. Clusters are byte-identical to
    /// deduplicating the snapshot's patches directly.
    pub fn dedup_collection(&self, collection: &str, tau: f32) -> Result<Vec<Vec<u32>>> {
        match self.run_one(BatchQuery::Dedup {
            collection: collection.to_string(),
            tau,
        })? {
            BatchResult::Clusters(clusters) => Ok(clusters),
            other => unreachable!("a dedup yields clusters, not {other:?}"),
        }
    }

    /// Build a Ball-Tree index over `collection`'s features under
    /// `index_name`, with subtree construction on the session's thread
    /// budget. Only `collection`'s catalog shard is write-latched.
    pub fn build_ball_index(&self, collection: &str, index_name: &str) -> Result<()> {
        self.catalog
            .build_ball_index(collection, index_name, self.effective_threads())
    }

    /// Estimated wall-clock (µs) of [`Session::build_ball_index`] over
    /// `collection` on this session's thread slice — what a server admits
    /// the build on. An unknown collection prices at the 1 µs floor; the
    /// build itself answers `NotFound`.
    pub fn build_ball_index_estimate_us(&self, collection: &str, planner: &DevicePlanner) -> f64 {
        let Ok(col) = self.catalog.snapshot(collection) else {
            return 1.0;
        };
        let dim = plan::feature_dim(&col.patches).max(1);
        let units = CostModel::default().build_cost(col.len(), dim);
        planner
            .estimate_us(self.effective_threads(), units / planner.units_per_us)
            .max(1.0)
    }

    /// Encode `collection`'s column chunks now
    /// ([`SharedCatalog::build_columnar`]), so its first [`Session::scan`]
    /// does not pay for the encoding. Scans work without this call.
    pub fn build_columnar(&self, collection: &str) -> Result<()> {
        self.catalog.build_columnar(collection)
    }

    /// Scan `collection` against a consistent snapshot on the session pool,
    /// pruning the snapshot's column chunks with their zone maps. The first
    /// scan of a version encodes the chunks
    /// ([`PatchCollection::scan`](crate::catalog::PatchCollection::scan)).
    ///
    /// The returned rows may be shared with the catalog's result cache:
    /// a miss materializes them once and offers the same allocation to the
    /// cache, which keeps it only if the query was asked before (at any
    /// version of the collection); a hit hands that allocation out again.
    /// Neither copies a row. An executed scan counts the rows it
    /// materialized on the catalog ([`SharedCatalog::counters`]); a hit
    /// counts none.
    pub fn scan(
        &self,
        collection: &str,
        filter: &crate::scan::ScanFilter,
        projection: crate::scan::Projection,
    ) -> Result<crate::scan::ScanResult> {
        let snap = self.catalog.snapshot(collection)?;
        let cache = self.catalog.result_cache();
        let key = fingerprint::scan_key(snap.version(), filter, projection);
        if let Some(key) = &key {
            if let Some(CachedResult::Scan(result)) = cache.get(key) {
                // Replayed stats describe the execution that populated the
                // entry; the replay itself touched no chunk and
                // materialized no row, so it counts none.
                return Ok(result);
            }
        }
        let result = snap.scan(filter, projection, &self.pool());
        self.catalog
            .registry()
            .add_rows_materialized(result.patches.len() as u64);
        if let Some(key) = key {
            // O(1): if the cache keeps the rows, it shares them with the
            // caller.
            cache.insert(key, CachedResult::Scan(result.clone()));
        }
        Ok(result)
    }

    /// Count the patches of `collection` matching `filter` without
    /// materializing any of them.
    pub fn scan_count(&self, collection: &str, filter: &crate::scan::ScanFilter) -> Result<usize> {
        Ok(self
            .scan(collection, filter, crate::scan::Projection::Count)?
            .stats
            .rows_matched)
    }

    /// Run an ETL pipeline over `frames` on the session pool, materializing
    /// into the shared catalog under `output_name`. Returns the number of
    /// patches materialized.
    pub fn run_pipeline<'a>(
        &self,
        pipeline: &Pipeline,
        frames: impl Iterator<Item = (u64, &'a Image)>,
        source: &str,
        output_name: &str,
    ) -> Result<usize> {
        pipeline.run(frames, source, &self.catalog, output_name, &self.pool())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.catalog.detach_session(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etl::{FeaturizeTransformer, WholeImageGenerator};
    use crate::patch::{ImgRef, Patch, PatchId};

    #[test]
    fn catalog_reachable_through_session() {
        let s = Session::ephemeral().unwrap();
        let id = s.catalog.next_patch_id();
        s.catalog
            .materialize("x", vec![Patch::empty(id, ImgRef::frame("v", 0))]);
        assert_eq!(s.catalog.snapshot("x").unwrap().len(), 1);
    }

    #[test]
    fn thread_budget_flows_into_pool() {
        let mut s = Session::ephemeral().unwrap();
        assert_eq!(s.pool().threads(), 1, "sessions start on one worker");
        s.set_threads(3);
        assert_eq!(s.pool().threads(), 3);
    }

    #[test]
    fn thread_budget_splits_across_attached_sessions() {
        let shared = Arc::new(SharedCatalog::new());
        let mut a = Session::ephemeral_attached(shared.clone()).unwrap();
        a.set_threads(8);
        assert_eq!(shared.active_sessions(), 1);
        assert_eq!(a.pool().threads(), 8, "exclusive owner gets everything");
        {
            let mut b = Session::ephemeral_attached(shared.clone()).unwrap();
            b.set_threads(8);
            assert_eq!(shared.active_sessions(), 2);
            assert_eq!(a.pool().threads(), 4, "budget halves with a peer");
            assert_eq!(b.pool().threads(), 4);
            let c = Session::ephemeral_attached(shared.clone()).unwrap();
            assert_eq!(c.pool().threads(), 1, "never below one worker");
        }
        assert_eq!(shared.active_sessions(), 1, "drops detach");
        assert_eq!(a.pool().threads(), 8, "budget restored");
        // 0 is one worker per hardware thread, split like any other budget.
        a.set_threads(0);
        let _b = Session::ephemeral_attached(shared.clone()).unwrap();
        assert_eq!(
            a.effective_threads(),
            configured_threads().div_ceil(2),
            "half the host, and the lowest slot takes the odd thread"
        );
    }

    #[test]
    fn uneven_split_distributes_the_remainder() {
        // Regression: floor division stranded `budget % sessions` threads —
        // a budget of 8 across 3 sessions handed out 2+2+2 and idled two
        // cores forever. The shares must sum to the whole budget.
        let shared = Arc::new(SharedCatalog::new());
        let mut sessions: Vec<Session> = (0..3)
            .map(|_| Session::ephemeral_attached(shared.clone()).unwrap())
            .collect();
        for s in &mut sessions {
            s.set_threads(8);
        }
        let shares: Vec<usize> = sessions.iter().map(Session::effective_threads).collect();
        assert_eq!(shares.iter().sum::<usize>(), 8, "no stranded threads");
        assert_eq!(shares, vec![3, 3, 2], "remainder goes to lowest ranks");

        // Five sessions, budget 8: 2+2+1+1+1? No — 8/5=1 rem 3: 2+2+2+1+1.
        let mut more: Vec<Session> = (0..2)
            .map(|_| Session::ephemeral_attached(shared.clone()).unwrap())
            .collect();
        for s in &mut more {
            s.set_threads(8);
        }
        let shares: Vec<usize> = sessions
            .iter()
            .chain(&more)
            .map(Session::effective_threads)
            .collect();
        assert_eq!(shares, vec![2, 2, 2, 1, 1]);
        assert_eq!(shares.iter().sum::<usize>(), 8);

        // Oversubscribed (more sessions than threads): everyone still gets
        // one worker — the floor guarantee is unchanged.
        let mut crowd: Vec<Session> = (0..10)
            .map(|_| Session::ephemeral_attached(shared.clone()).unwrap())
            .collect();
        for s in &mut crowd {
            s.set_threads(4);
        }
        assert!(crowd.iter().all(|s| s.effective_threads() == 1));
    }

    #[test]
    fn remainder_shares_are_stable_across_detach() {
        // Slots recycle: when the lowest-ranked session leaves, the
        // remainder moves deterministically to the next ranks, and a new
        // session takes the freed (lowest) slot.
        let shared = Arc::new(SharedCatalog::new());
        let mut a = Session::ephemeral_attached(shared.clone()).unwrap();
        let mut b = Session::ephemeral_attached(shared.clone()).unwrap();
        let mut c = Session::ephemeral_attached(shared.clone()).unwrap();
        for s in [&mut a, &mut b, &mut c] {
            s.set_threads(7);
        }
        // 7 / 3 = 2 rem 1: the lowest slot gets the extra.
        assert_eq!(
            [&a, &b, &c].map(|s| s.effective_threads()),
            [3, 2, 2],
            "7 across 3"
        );
        drop(a);
        // 7 / 2 = 3 rem 1.
        assert_eq!([&b, &c].map(|s| s.effective_threads()), [4, 3]);
        let mut d = Session::ephemeral_attached(shared.clone()).unwrap();
        d.set_threads(7);
        // d recycled slot 0, so it now holds the lowest rank.
        assert_eq!([&d, &b, &c].map(|s| s.effective_threads()), [3, 2, 2]);
        assert_eq!(
            [&d, &b, &c]
                .iter()
                .map(|s| s.effective_threads())
                .sum::<usize>(),
            7
        );
    }

    #[test]
    fn sessions_share_one_catalog() {
        let shared = Arc::new(SharedCatalog::new());
        let writer = Session::ephemeral_attached(shared.clone()).unwrap();
        let reader = Session::ephemeral_attached(shared.clone()).unwrap();
        let id = writer.catalog.next_patch_id();
        writer
            .catalog
            .materialize("shared_col", vec![Patch::empty(id, ImgRef::frame("v", 0))]);
        assert_eq!(reader.catalog.snapshot("shared_col").unwrap().len(), 1);
    }

    fn feat_patches(n: u64) -> Vec<Patch> {
        (0..n)
            .map(|i| {
                Patch::features(
                    PatchId(i),
                    ImgRef::frame("t", i),
                    vec![i as f32, (i % 3) as f32],
                )
            })
            .collect()
    }

    #[test]
    fn joins_and_dedup_agree_across_thread_counts() {
        let mut left = feat_patches(40);
        // A featureless straggler: it matches nothing, on every pool.
        left.push(Patch::empty(PatchId(999), ImgRef::frame("t", 999)));
        let right = feat_patches(25);
        let mut reference: Option<Vec<(u32, u32)>> = None;
        let mut dedup_ref: Option<Vec<Vec<u32>>> = None;
        for threads in [1, 2, 4] {
            let mut s = Session::ephemeral().unwrap();
            s.set_threads(threads);
            let pairs = s.similarity_join(&left, &right, 1.5).unwrap();
            match &reference {
                None => reference = Some(pairs),
                Some(r) => assert_eq!(r, &pairs, "{threads} threads: join mismatch"),
            }
            let clusters = s.dedup(&left, 1.5).unwrap();
            match &dedup_ref {
                None => dedup_ref = Some(clusters),
                Some(r) => assert_eq!(r, &clusters, "{threads} threads: dedup mismatch"),
            }
        }
    }

    #[test]
    fn mixed_dimension_rows_are_a_schema_mismatch_not_a_panic() {
        let row = |i: u64, dim: usize| {
            Patch::features(PatchId(i), ImgRef::frame("t", i), vec![i as f32; dim])
        };
        let mixed: Vec<Patch> = (0..6)
            .map(|i| row(i, 4))
            .chain((6..9).map(|i| row(i, 8)))
            .collect();
        let mismatch = |r: Result<_>| matches!(r, Err(crate::DlError::SchemaMismatch(_)));
        for threads in [1, 2, 4] {
            let mut s = Session::ephemeral().unwrap();
            s.set_threads(threads);
            assert!(mismatch(s.dedup(&mixed, 1.0).map(drop)), "{threads}");
            assert!(mismatch(s.similarity_join(&mixed, &mixed, 1.0).map(drop)));
        }
    }

    #[test]
    fn join_collections_matches_slice_join() {
        let s = Session::ephemeral().unwrap();
        let left = feat_patches(30);
        let right = feat_patches(20);
        s.catalog.materialize("l", left.clone());
        s.catalog.materialize("r", right.clone());
        assert_eq!(
            s.join_collections("l", "r", 1.5).unwrap(),
            s.similarity_join(&left, &right, 1.5).unwrap()
        );
        assert!(s.join_collections("l", "missing", 1.5).is_err());
    }

    #[test]
    fn pipeline_and_index_build_flow_through_session() {
        let imgs: Vec<deeplens_codec::Image> = (0..6)
            .map(|t| deeplens_codec::Image::solid(16, 16, [t as u8 * 30, 80, 10]))
            .collect();
        let pipe =
            Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FeaturizeTransformer {
                label: "mean-color".into(),
                dim: 3,
                f: Box::new(|img| img.mean_color().to_vec()),
            }));
        let mut s = Session::ephemeral().unwrap();
        s.set_threads(4);
        let n = s
            .run_pipeline(
                &pipe,
                imgs.iter().enumerate().map(|(i, f)| (i as u64, f)),
                "vid",
                "feats",
            )
            .unwrap();
        assert_eq!(n, 6);
        s.build_ball_index("feats", "by_feat").unwrap();
        let col = s.catalog.snapshot("feats").unwrap();
        let probe = col.patches[0].data.features().unwrap().to_vec();
        let hits = col.lookup_similar("by_feat", &probe, 0.01).unwrap();
        assert!(hits.contains(&0));
    }
}
