//! Materialized patch collections and secondary indexes (§3.2).
//!
//! Any intermediate result in DeepLens can be materialized into the catalog
//! and indexed. The catalog keeps the two structures its queries probe:
//!
//! * **hash** over any discrete metadata key (exact match),
//! * **Ball-Tree** over feature payloads (Euclidean threshold / kNN).
//!
//! Range predicates (`frame_no` windows, numeric metadata ranges) are
//! [`ScanFilter::FrameRange`] / [`ScanFilter::MetaRange`] scans, pruned by
//! the columnar backing's zone maps; backtracing (§5.1) goes through the
//! lineage store, not a collection index.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deeplens_exec::WorkerPool;
use deeplens_index::{BallTree, DeltaBallTree};

use crate::optimizer::CostModel;
use crate::patch::{Patch, PatchId};
use crate::scan::{row_scan, ColumnarPatches, Projection, ScanFilter, ScanResult};
use crate::value::Value;
use crate::{DlError, Result};

/// Process-wide count of scans served off a live (row-count-current)
/// columnar backing's chunks.
static COLUMNAR_HITS: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of scans that found a backing but had to bypass it
/// because it was stale (row count disagreed with the collection).
static COLUMNAR_STALE: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of columnar backings rebuilt by a re-materialize
/// carrying a prior backing forward (see
/// [`SharedCatalog::materialize`](crate::shared::SharedCatalog::materialize)).
static COLUMNAR_REBUILT: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of columnar backings built *eagerly* by a materialize
/// because `CostModel::prefer_columnar_backing` predicted a win (no explicit
/// `build_columnar` call).
static COLUMNAR_AUTOBUILT: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of Ball indexes carried across a re-materialize by
/// delta maintenance (tombstones + side buffer), i.e. without a rebuild.
static INDEX_DELTA_MAINTAINED: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of Ball-index deltas that crossed the cost model's
/// merge threshold and were collapsed into a full rebuild.
static INDEX_DELTA_MERGES: AtomicU64 = AtomicU64::new(0);

/// Scans served by a live columnar backing since process start. Joins and
/// dedups read rows, never a backing, so they are never hits.
///
/// Together with [`columnar_backing_stale`] this gives the backing hit/stale
/// rate the serve stats endpoint reports.
pub fn columnar_backing_hits() -> u64 {
    COLUMNAR_HITS.load(Ordering::Relaxed)
}

/// Scans that bypassed a stale columnar backing since process start.
pub fn columnar_backing_stale() -> u64 {
    COLUMNAR_STALE.load(Ordering::Relaxed)
}

/// Columnar backings rebuilt by re-materializes since process start.
pub fn columnar_backings_rebuilt() -> u64 {
    COLUMNAR_REBUILT.load(Ordering::Relaxed)
}

pub(crate) fn note_columnar_hits() {
    COLUMNAR_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_columnar_rebuilt() {
    COLUMNAR_REBUILT.fetch_add(1, Ordering::Relaxed);
}

/// Columnar backings built eagerly by the cost model since process start.
pub fn columnar_backings_autobuilt() -> u64 {
    COLUMNAR_AUTOBUILT.load(Ordering::Relaxed)
}

/// Ball indexes carried across a re-materialize by delta maintenance since
/// process start.
pub fn index_deltas_maintained() -> u64 {
    INDEX_DELTA_MAINTAINED.load(Ordering::Relaxed)
}

/// Ball-index deltas merged into a full rebuild since process start (the
/// serve stats endpoint reports this as `delta_merges`).
pub fn index_delta_merges() -> u64 {
    INDEX_DELTA_MERGES.load(Ordering::Relaxed)
}

/// A secondary index over one collection.
#[derive(Clone)]
pub enum SecondaryIndex {
    /// Exact-match index on a metadata key.
    Hash {
        /// The indexed key.
        key: String,
        /// Value → positions in the collection.
        map: HashMap<Value, Vec<u32>>,
    },
    /// Similarity index on feature payloads. The delta-maintained form: a
    /// base Ball-Tree plus tombstones and a side buffer, so re-materializes
    /// carry it forward without an O(n log n) rebuild (ids are positions).
    Ball {
        /// The delta-maintained Ball-Tree.
        index: DeltaBallTree,
    },
}

impl std::fmt::Debug for SecondaryIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecondaryIndex::{}", self.kind())
    }
}

impl SecondaryIndex {
    /// Short kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            SecondaryIndex::Hash { .. } => "hash",
            SecondaryIndex::Ball { .. } => "ball",
        }
    }
}

/// A named, materialized collection of patches with its indexes.
///
/// `Clone` supports the shared catalog's copy-on-write protocol: a writer
/// that must preserve reader snapshots clones the collection and mutates the
/// copy (see [`crate::shared::SharedCatalog`]).
#[derive(Debug, Default, Clone)]
pub struct PatchCollection {
    /// The patches, addressed by position.
    pub patches: Vec<Patch>,
    indexes: HashMap<String, SecondaryIndex>,
    /// Chunked-columnar backing for zone-map scans, shared across clones
    /// (the backing is immutable once built; `Arc` keeps the copy-on-write
    /// clone cheap).
    columnar: Option<Arc<ColumnarPatches>>,
    /// Snapshot version stamped by `SharedCatalog` at publish time; `0`
    /// means "never published with a version" and is excluded from result
    /// caching. Versions are globally unique across all collections of a
    /// catalog, so a `(version, query)` cache key can never alias a
    /// different snapshot.
    version: u64,
}

impl PatchCollection {
    /// A collection over `patches` with no indexes yet.
    pub fn from_patches(patches: Vec<Patch>) -> Self {
        PatchCollection {
            patches,
            indexes: HashMap::new(),
            columnar: None,
            version: 0,
        }
    }

    /// The snapshot version stamped at publish time (`0` = unversioned).
    pub fn version(&self) -> u64 {
        self.version
    }

    pub(crate) fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Number of patches.
    pub fn len(&self) -> usize {
        self.patches.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty()
    }

    /// Approximate in-memory footprint of payloads in bytes.
    pub fn byte_size(&self) -> usize {
        self.patches.iter().map(|p| p.data.byte_size()).sum()
    }

    /// Names of existing indexes.
    pub fn index_names(&self) -> Vec<&str> {
        self.indexes.keys().map(String::as_str).collect()
    }

    /// Build (or rebuild) a hash index on `key` under `index_name`.
    pub fn build_hash_index(&mut self, index_name: &str, key: &str) {
        let mut map: HashMap<Value, Vec<u32>> = HashMap::new();
        for (i, p) in self.patches.iter().enumerate() {
            if let Some(v) = p.get(key) {
                map.entry(v.clone()).or_default().push(i as u32);
            }
        }
        self.indexes.insert(
            index_name.to_string(),
            SecondaryIndex::Hash {
                key: key.to_string(),
                map,
            },
        );
    }

    /// Build a Ball-Tree over feature payloads under `index_name`.
    ///
    /// Errors with [`DlError::SchemaMismatch`] if any patch lacks features
    /// or two patches disagree on dimension.
    pub fn build_ball_index(&mut self, index_name: &str) -> Result<()> {
        self.build_ball_index_parallel(index_name, 1)
    }

    /// [`PatchCollection::build_ball_index`] with subtree construction
    /// fanned out over up to `threads` scoped workers. The index is
    /// structurally identical to the serial build.
    pub fn build_ball_index_parallel(&mut self, index_name: &str, threads: usize) -> Result<()> {
        crate::plan::feature_shape(&self.patches, None)?;
        let vectors: Vec<Vec<f32>> =
            self.patches
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    p.data.features().map(<[f32]>::to_vec).ok_or_else(|| {
                        DlError::SchemaMismatch(format!("patch {i} has no features"))
                    })
                })
                .collect::<Result<_>>()?;
        self.indexes.insert(
            index_name.to_string(),
            SecondaryIndex::Ball {
                index: DeltaBallTree::from_tree(BallTree::from_vectors_parallel(&vectors, threads)),
            },
        );
        Ok(())
    }

    /// Build (or rebuild) the chunked-columnar backing with `chunk_rows`
    /// rows per chunk. Scans via [`PatchCollection::scan`] then prune with
    /// the per-chunk zone maps instead of touching every row.
    pub fn build_columnar(&mut self, chunk_rows: usize) {
        self.columnar = Some(Arc::new(ColumnarPatches::from_patches(
            &self.patches,
            chunk_rows,
        )));
    }

    /// [`PatchCollection::build_columnar`] at the default chunk size.
    pub fn build_columnar_default(&mut self) {
        self.columnar = Some(Arc::new(ColumnarPatches::from_patches_default(
            &self.patches,
        )));
    }

    /// Carry a replaced collection's physical design forward onto this
    /// freshly materialized one — the single pass
    /// [`SharedCatalog::materialize`](crate::shared::SharedCatalog::materialize)
    /// runs:
    ///
    /// * the **columnar backing** is rebuilt at the prior granularity (or
    ///   built eagerly when [`CostModel::prefer_columnar_backing`] predicts
    ///   a win and the prior version had none);
    /// * **hash** indexes are rebuilt over the new rows (an O(n) build,
    ///   positional, and cheap next to the rows themselves);
    /// * **Ball** indexes are *delta-maintained*: unchanged rows keep the
    ///   prior base tree (an `Arc` copy), changed/appended rows go into the
    ///   tombstone set and side buffer, and the delta is collapsed into a
    ///   full rebuild only when [`CostModel::incremental_index_cost`]
    ///   crosses [`CostModel::rebuild_cost`]. A Ball index whose new rows
    ///   lack features (or change dimensionality) is dropped, exactly as a
    ///   fresh build over those rows would fail.
    pub fn carry_from(&mut self, prior: &PatchCollection, model: &CostModel, threads: usize) {
        if let Some(chunk_rows) = prior.columnar_chunk_rows() {
            self.build_columnar(chunk_rows);
            note_columnar_rebuilt();
        } else if model.prefer_columnar_backing(self.len(), crate::scan::DEFAULT_CHUNK_ROWS) {
            self.build_columnar_default();
            COLUMNAR_AUTOBUILT.fetch_add(1, Ordering::Relaxed);
        }
        for (name, index) in &prior.indexes {
            match index {
                SecondaryIndex::Hash { key, .. } => self.build_hash_index(name, key),
                SecondaryIndex::Ball { index } => {
                    self.carry_ball_index(name, index, &prior.patches, model, threads);
                }
            }
        }
    }

    /// Eagerly build the columnar backing of a *first* materialize (no
    /// prior version) when the cost model predicts a win.
    pub(crate) fn maybe_autobuild_columnar(&mut self, model: &CostModel) {
        if model.prefer_columnar_backing(self.len(), crate::scan::DEFAULT_CHUNK_ROWS) {
            self.build_columnar_default();
            COLUMNAR_AUTOBUILT.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Delta-maintain one Ball index across a re-materialize, or collapse
    /// it into a rebuild when the cost model says the delta stopped being
    /// cheap. `prior_rows` are the rows the prior index described.
    fn carry_ball_index(
        &mut self,
        index_name: &str,
        prior_index: &DeltaBallTree,
        prior_rows: &[Patch],
        model: &CostModel,
        threads: usize,
    ) {
        let Some(maintained) = self.maintained_ball(prior_index, prior_rows) else {
            // New rows without features (or with a different dimensionality)
            // cannot be indexed — a fresh build over them would fail the
            // same way, so the index is dropped, as every re-materialize
            // did before maintenance existed.
            return;
        };
        let dim = maintained.dim().unwrap_or(1);
        let merge = model.incremental_index_cost(self.len(), maintained.delta_rows(), dim)
            >= model.rebuild_cost(self.len(), dim);
        if merge && self.build_ball_index_parallel(index_name, threads).is_ok() {
            INDEX_DELTA_MERGES.fetch_add(1, Ordering::Relaxed);
        } else if !merge {
            self.indexes.insert(
                index_name.to_string(),
                SecondaryIndex::Ball { index: maintained },
            );
            INDEX_DELTA_MAINTAINED.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The delta-maintained form of `prior_index` updated to this
    /// collection's rows: bitwise-unchanged rows stay on the base tree,
    /// changed/appended rows become tombstones + delta entries, truncation
    /// tombstones the tail. `None` when maintenance is impossible (a row
    /// lost its features or changed dimensionality).
    fn maintained_ball(
        &self,
        prior_index: &DeltaBallTree,
        prior_rows: &[Patch],
    ) -> Option<DeltaBallTree> {
        let mut index = prior_index.clone();
        if self.patches.len() < prior_rows.len() {
            index.truncate(self.patches.len());
        }
        for (pos, (new, old)) in self.patches.iter().zip(prior_rows).enumerate() {
            let features = new.data.features();
            if features == old.data.features() {
                continue;
            }
            if !index.upsert(pos as u32, features?.to_vec()) {
                return None;
            }
        }
        for (pos, p) in self.patches.iter().enumerate().skip(prior_rows.len()) {
            if !index.upsert(pos as u32, p.data.features()?.to_vec()) {
                return None;
            }
        }
        Some(index)
    }

    /// The chunked-columnar backing, if built.
    pub fn columnar(&self) -> Option<&ColumnarPatches> {
        self.columnar.as_deref()
    }

    /// Rows-per-chunk of the backing, if one exists (live or stale).
    /// Re-materializes use this to rebuild a replacement backing at the
    /// same granularity.
    pub fn columnar_chunk_rows(&self) -> Option<usize> {
        self.columnar.as_ref().map(|c| c.chunk_rows())
    }

    /// The columnar backing **iff it is current** (row count agrees with the
    /// collection). A stale backing — patches mutated after the build — is
    /// never returned, and bumps [`columnar_backing_stale`]. A live one is
    /// counted ([`columnar_backing_hits`]) by the [`PatchCollection::scan`]
    /// that goes on to read it, not by this look.
    pub fn live_columnar(&self) -> Option<&ColumnarPatches> {
        match &self.columnar {
            Some(c) if c.len() == self.patches.len() => Some(c),
            Some(_) => {
                COLUMNAR_STALE.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        }
    }

    /// Scan the collection with zone-map pushdown when a current columnar
    /// backing exists, falling back to the row layout otherwise. A backing
    /// whose row count disagrees with the collection (patches were mutated
    /// after the build) is stale and is bypassed, never served.
    pub fn scan(
        &self,
        filter: &ScanFilter,
        projection: Projection,
        pool: &WorkerPool,
    ) -> ScanResult {
        match self.live_columnar() {
            Some(c) => {
                note_columnar_hits();
                c.scan(filter, projection, pool)
            }
            None => row_scan(&self.patches, filter, projection),
        }
    }

    fn index(&self, name: &str) -> Result<&SecondaryIndex> {
        self.indexes
            .get(name)
            .ok_or_else(|| DlError::NotFound(format!("index '{name}'")))
    }

    /// Exact-match lookup through a hash index: positions whose `key`
    /// equals `value`.
    pub fn lookup_eq(&self, index_name: &str, value: &Value) -> Result<Vec<u32>> {
        match self.index(index_name)? {
            SecondaryIndex::Hash { map, .. } => Ok(map.get(value).cloned().unwrap_or_default()),
            other => Err(DlError::WrongIndex {
                expected: "hash",
                actual: other.kind(),
            }),
        }
    }

    /// Similarity lookup through a Ball-Tree index: positions within `tau`
    /// of `query`, sorted ascending. The sorted order is deliberate — it is
    /// independent of the tree's shape, so a delta-maintained index answers
    /// byte-identically to a freshly rebuilt one.
    pub fn lookup_similar(&self, index_name: &str, query: &[f32], tau: f32) -> Result<Vec<u32>> {
        Ok(self.ball_index(index_name, query)?.range_query(query, tau))
    }

    /// The Ball-Tree index `index_name`, once `query` is checked against its
    /// dimension: [`DlError::NotFound`], [`DlError::WrongIndex`] or
    /// [`DlError::SchemaMismatch`] instead of an index the query cannot
    /// probe.
    pub(crate) fn ball_index(&self, index_name: &str, query: &[f32]) -> Result<&DeltaBallTree> {
        match self.index(index_name)? {
            SecondaryIndex::Ball { index } => match index.dim() {
                Some(dim) if dim != query.len() => Err(DlError::SchemaMismatch(format!(
                    "probe has dimension {} but index '{index_name}' has {dim}",
                    query.len()
                ))),
                _ => Ok(index),
            },
            other => Err(DlError::WrongIndex {
                expected: "ball",
                actual: other.kind(),
            }),
        }
    }
}

/// A pre-reserved, contiguous range of patch ids.
///
/// Parallel producers (ETL morsels) cannot share the catalog's single
/// allocator without serializing on it and losing deterministic ids, so the
/// catalog hands out whole ranges instead: reserve once, then allocate
/// lock-free from the range. [`PatchIdRange::speculative`] starts a range at
/// zero for work whose ids are rebased onto a real reservation afterwards
/// (the ETL pipeline's per-frame scheme).
#[derive(Debug)]
pub struct PatchIdRange {
    start: u64,
    next: u64,
    end: u64,
}

impl PatchIdRange {
    /// A zero-based provisional range: ids handed out are *local* (0, 1, …)
    /// and must be rebased by the caller (add the start of a real
    /// reservation) before they enter a catalog.
    pub fn speculative() -> Self {
        PatchIdRange {
            start: 0,
            next: 0,
            end: u64::MAX,
        }
    }

    /// A real reservation of `n` ids starting at `start` (the catalog's
    /// allocator constructs these; see
    /// [`SharedCatalog::reserve_patch_ids`](crate::shared::SharedCatalog::reserve_patch_ids)).
    pub(crate) fn from_reservation(start: u64, n: u64) -> Self {
        PatchIdRange {
            start,
            next: start,
            end: start + n,
        }
    }

    /// The first id of the range.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Hand out the next id. Panics if the reservation is exhausted.
    pub fn alloc(&mut self) -> PatchId {
        assert!(self.next < self.end, "patch id range exhausted");
        let id = PatchId(self.next);
        self.next += 1;
        id
    }

    /// How many ids have been handed out so far.
    pub fn used(&self) -> u64 {
        self.next - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::ImgRef;

    fn make_collection() -> PatchCollection {
        let patches: Vec<Patch> = (0..50)
            .map(|i| {
                Patch::features(
                    PatchId(i),
                    ImgRef::frame("cam", i / 5),
                    vec![(i % 10) as f32, 1.0],
                )
                .with_meta("label", if i % 3 == 0 { "car" } else { "person" })
                .with_meta("frameno", (i / 5) as i64)
            })
            .collect();
        PatchCollection::from_patches(patches)
    }

    #[test]
    fn hash_index_matches_scan() {
        let mut col = make_collection();
        col.build_hash_index("by_label", "label");
        let cars = col.lookup_eq("by_label", &Value::from("car")).unwrap();
        let scan: Vec<u32> = col
            .patches
            .iter()
            .enumerate()
            .filter(|(_, p)| p.get_str("label") == Some("car"))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(cars, scan);
        assert!(col
            .lookup_eq("by_label", &Value::from("giraffe"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn ball_index_similarity() {
        let mut col = make_collection();
        col.build_ball_index("by_feat").unwrap();
        let hits = col.lookup_similar("by_feat", &[3.0, 1.0], 0.1).unwrap();
        assert_eq!(hits.len(), 5, "five patches share feature [3,1]");
    }

    #[test]
    fn mismatched_dimensions_are_errors_not_panics() {
        let mut col = make_collection();
        col.build_ball_index("by_feat").unwrap();
        assert!(matches!(
            col.lookup_similar("by_feat", &[1.0, 2.0, 3.0], 1.0),
            Err(DlError::SchemaMismatch(_))
        ));
        col.patches.push(Patch::features(
            PatchId(99),
            ImgRef::frame("cam", 99),
            vec![1.0; 4],
        ));
        assert!(matches!(
            col.build_ball_index("mixed"),
            Err(DlError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn wrong_index_kind_rejected() {
        let mut col = make_collection();
        col.build_hash_index("idx", "label");
        assert!(matches!(
            col.lookup_similar("idx", &[0.0, 0.0], 1.0),
            Err(DlError::WrongIndex {
                expected: "ball",
                actual: "hash"
            })
        ));
        assert!(col.lookup_eq("missing", &Value::from(1i64)).is_err());
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhausted_range_panics() {
        let mut r = PatchIdRange::from_reservation(7, 1);
        let _ = r.alloc();
        let _ = r.alloc();
    }

    #[test]
    fn speculative_range_is_zero_based() {
        let mut r = PatchIdRange::speculative();
        assert_eq!(r.alloc(), PatchId(0));
        assert_eq!(r.alloc(), PatchId(1));
        assert_eq!(r.used(), 2);
        assert_eq!(r.start(), 0);
    }

    #[test]
    fn parallel_ball_index_matches_serial() {
        let mut col = make_collection();
        col.build_ball_index("serial").unwrap();
        col.build_ball_index_parallel("parallel", 4).unwrap();
        for q in [[0.0f32, 1.0], [3.0, 1.0], [9.0, 1.0]] {
            assert_eq!(
                col.lookup_similar("serial", &q, 1.5).unwrap(),
                col.lookup_similar("parallel", &q, 1.5).unwrap()
            );
        }
    }

    #[test]
    fn stale_columnar_backing_falls_back_to_rows() {
        use crate::scan::{Projection, ScanFilter};
        let mut col = make_collection();
        let pool = deeplens_exec::WorkerPool::new(1);
        // No backing yet: row fallback.
        assert!(
            !col.scan(&ScanFilter::All, Projection::Count, &pool)
                .stats
                .used_columnar
        );
        col.build_columnar(16);
        assert!(col.columnar().is_some());
        let served = col.scan(&ScanFilter::All, Projection::Count, &pool);
        assert!(served.stats.used_columnar);
        assert_eq!(served.stats.rows_matched, 50);
        // Mutating the patches makes the backing stale: the scan must
        // bypass it (never serve the old rows) until it is rebuilt.
        let extra = Patch::empty(PatchId(9999), ImgRef::frame("cam", 99));
        col.patches.push(extra);
        let stale = col.scan(&ScanFilter::All, Projection::Count, &pool);
        assert!(!stale.stats.used_columnar, "stale backing bypassed");
        assert_eq!(stale.stats.rows_matched, 51);
        col.build_columnar_default();
        let rebuilt = col.scan(&ScanFilter::All, Projection::Count, &pool);
        assert!(rebuilt.stats.used_columnar);
        assert_eq!(rebuilt.stats.rows_matched, 51);
    }

    #[test]
    fn collections_are_cloneable_with_indexes() {
        // Clone backs the shared catalog's copy-on-write protocol: the copy
        // must answer index lookups identically and independently.
        let mut col = make_collection();
        col.build_hash_index("by_label", "label");
        col.build_ball_index("by_feat").unwrap();
        let copy = col.clone();
        assert_eq!(copy.len(), col.len());
        assert_eq!(
            copy.lookup_eq("by_label", &Value::from("car")).unwrap(),
            col.lookup_eq("by_label", &Value::from("car")).unwrap()
        );
        assert_eq!(
            copy.lookup_similar("by_feat", &[3.0, 1.0], 0.1).unwrap(),
            col.lookup_similar("by_feat", &[3.0, 1.0], 0.1).unwrap()
        );
        let mut names = copy.index_names();
        names.sort_unstable();
        assert_eq!(names, vec!["by_feat", "by_label"]);
    }
}
