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
//! the collection's column-chunk zone maps; backtracing (§5.1) reads a
//! patch's own `img_ref`, not a collection index.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use deeplens_exec::WorkerPool;
use deeplens_index::{BallTree, DeltaBallTree};

use crate::optimizer::CostModel;
use crate::patch::{Patch, PatchId};
use crate::plan::{check_tau, row_id};
use crate::scan::{ColumnarPatches, Projection, ScanFilter, ScanResult};
use crate::value::Value;
use crate::{DlError, Result};

/// What one [`PatchCollection::carry_from`] did with the prior version's
/// Ball indexes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Carried {
    /// Ball indexes carried by delta maintenance (tombstones + side
    /// buffer), i.e. without a rebuild.
    pub maintained: u64,
    /// Ball-index deltas that crossed the cost model's merge threshold and
    /// were collapsed into a full rebuild.
    pub merged: u64,
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

/// A collection's rows, read-only: they are fixed when the collection is
/// built ([`PatchCollection::from_patches`]), so the column chunks its first
/// scan encodes and the indexes built over it always describe them. Reads
/// go through `Deref` to the `Vec`; there is no `DerefMut` and no `Clone` —
/// `.clone()` through the deref copies the rows into a plain `Vec`, and a
/// changed row is a new collection.
///
/// An in-place edit does not compile:
///
/// ```compile_fail
/// use deeplens_core::catalog::PatchCollection;
/// use deeplens_core::patch::{ImgRef, Patch, PatchId};
///
/// let row = |frame| Patch::empty(PatchId(frame), ImgRef::frame("cam", frame));
/// let mut col = PatchCollection::from_patches(vec![row(0)]);
/// col.patches[0] = row(99);
/// ```
#[derive(Debug, Default, PartialEq)]
pub struct Rows(Vec<Patch>);

impl Deref for Rows {
    type Target = Vec<Patch>;

    fn deref(&self) -> &Vec<Patch> {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a Patch;
    type IntoIter = std::slice::Iter<'a, Patch>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A named, materialized collection of patches with its indexes.
///
/// `Clone` supports the shared catalog's copy-on-write protocol: a writer
/// that must preserve reader snapshots clones the collection and mutates the
/// copy's indexes or column chunks (see [`crate::shared::SharedCatalog`]).
#[derive(Debug, Default)]
pub struct PatchCollection {
    /// The patches, addressed by position; read-only.
    pub patches: Rows,
    indexes: HashMap<String, SecondaryIndex>,
    /// The rows as column chunks, encoded by the first scan (or by
    /// [`SharedCatalog::build_columnar`](crate::shared::SharedCatalog::build_columnar))
    /// and reused by every later scan of this version. Immutable once set,
    /// so a copy-on-write clone shares the `Arc`.
    columnar: OnceLock<Arc<ColumnarPatches>>,
    /// Snapshot version stamped by `SharedCatalog` at publish time; `0`
    /// means "never published with a version" and is excluded from result
    /// caching. Versions are globally unique across all collections of a
    /// catalog, so a `(version, query)` cache key can never alias a
    /// different snapshot.
    version: u64,
}

impl Clone for PatchCollection {
    fn clone(&self) -> Self {
        PatchCollection {
            patches: Rows(self.patches.0.clone()),
            indexes: self.indexes.clone(),
            columnar: self.columnar.clone(),
            version: self.version,
        }
    }
}

impl PatchCollection {
    /// A collection over `patches` with no indexes yet.
    pub fn from_patches(patches: Vec<Patch>) -> Self {
        PatchCollection {
            patches: Rows(patches),
            indexes: HashMap::new(),
            columnar: OnceLock::new(),
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
    ///
    /// Errors with [`DlError::SchemaMismatch`] if a position does not fit a
    /// `u32` row id.
    pub fn build_hash_index(&mut self, index_name: &str, key: &str) -> Result<()> {
        row_id(self.patches.len().saturating_sub(1))?;
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
        Ok(())
    }

    /// Build a Ball-Tree over feature payloads under `index_name`, with
    /// subtree construction fanned out over up to `threads` scoped workers.
    /// The index is structurally identical for every `threads`.
    ///
    /// Errors with [`DlError::SchemaMismatch`] if any patch lacks features
    /// or two patches disagree on dimension.
    pub fn build_ball_index(&mut self, index_name: &str, threads: usize) -> Result<()> {
        crate::plan::feature_shape(&self.patches, None)?;
        row_id(self.patches.len().saturating_sub(1))?;
        let vectors: Vec<&[f32]> = self
            .patches
            .iter()
            .enumerate()
            .map(|(i, p)| {
                p.data
                    .features()
                    .ok_or_else(|| DlError::SchemaMismatch(format!("patch {i} has no features")))
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

    /// Encode the current rows into column chunks now, replacing any
    /// earlier encoding, so the next scan does not pay for it.
    pub(crate) fn build_columnar(&mut self) {
        self.columnar = OnceLock::from(encode(&self.patches));
    }

    /// Carry a replaced collection's indexes forward onto this freshly
    /// materialized one — the single pass
    /// [`SharedCatalog::materialize`](crate::shared::SharedCatalog::materialize)
    /// runs. Column chunks are not carried: the new version encodes its own
    /// on its first scan.
    ///
    /// * **hash** indexes are rebuilt over the new rows (an O(n) build,
    ///   positional, and cheap next to the rows themselves); one whose rows
    ///   no longer fit `u32` row ids is dropped;
    /// * **Ball** indexes are *delta-maintained*: unchanged rows keep the
    ///   prior base tree (an `Arc` copy), changed/appended rows go into the
    ///   tombstone set and side buffer, and the delta is collapsed into a
    ///   full rebuild only when [`CostModel::incremental_index_cost`]
    ///   crosses [`CostModel::rebuild_cost`]. A Ball index whose new rows
    ///   lack features (or change dimensionality) is dropped, exactly as a
    ///   fresh build over those rows would fail.
    ///
    /// Returns how many Ball indexes it maintained and how many it merged.
    pub fn carry_from(
        &mut self,
        prior: &PatchCollection,
        model: &CostModel,
        threads: usize,
    ) -> Carried {
        let mut carried = Carried::default();
        for (name, index) in &prior.indexes {
            match index {
                SecondaryIndex::Hash { key, .. } => {
                    // Unaddressable rows drop the index, as for a Ball index.
                    let _ = self.build_hash_index(name, key);
                }
                SecondaryIndex::Ball { index } => {
                    let rows = &prior.patches;
                    self.carry_ball_index(name, index, rows, model, threads, &mut carried);
                }
            }
        }
        carried
    }

    /// Delta-maintain one Ball index across a re-materialize, or collapse
    /// it into a rebuild when the cost model says the delta stopped being
    /// cheap, counting which into `carried`. `prior_rows` are the rows the
    /// prior index described.
    ///
    /// One comparison pass ([`PatchCollection::changed_rows`]) finds the
    /// changed and appended rows. Every one of them becomes a delta row of
    /// the maintained index, so their count is a lower bound on its
    /// `delta_rows()`; the incremental cost grows with the delta, so when
    /// the count alone already reaches the rebuild cost the index is rebuilt
    /// without building the delta first. The decision, the counts and the
    /// tree are those of pricing the built delta.
    fn carry_ball_index(
        &mut self,
        index_name: &str,
        prior_index: &DeltaBallTree,
        prior_rows: &[Patch],
        model: &CostModel,
        threads: usize,
        carried: &mut Carried,
    ) {
        let mut index = prior_index.clone();
        if self.patches.len() < prior_rows.len() {
            index.truncate(self.patches.len());
        }
        let Some((changed, dim)) = self.changed_rows(index.dim(), prior_rows) else {
            // New rows without features (or with a different dimensionality)
            // cannot be indexed — a fresh build over them would fail the
            // same way, so the index is dropped, as every re-materialize
            // did before maintenance existed.
            return;
        };
        let (n, dim) = (self.len(), dim.unwrap_or(1));
        let merge = |delta_rows| {
            model.incremental_index_cost(n, delta_rows, dim) >= model.rebuild_cost(n, dim)
        };
        if !merge(changed.len()) {
            for &pos in &changed {
                let features = self.patches[pos as usize].data.features();
                let upserted = features.is_some_and(|f| index.upsert(pos, f.to_vec()));
                debug_assert!(upserted, "changed_rows checked row {pos}");
            }
            if !merge(index.delta_rows()) {
                self.indexes
                    .insert(index_name.to_string(), SecondaryIndex::Ball { index });
                carried.maintained += 1;
                return;
            }
        }
        if self.build_ball_index(index_name, threads).is_ok() {
            carried.merged += 1;
        }
    }

    /// The positions whose rows a Ball index over `prior_rows` must take
    /// into its delta to describe this collection's rows — changed rows in
    /// order, then appended ones — and the dimension of the maintained
    /// index. `dim` is the index's dimension before any upsert (`None` for
    /// one that covers no rows yet; the first upserted row then sets it).
    /// `None` when maintenance is impossible: a changed or appended row has
    /// no features or another dimension, or a position does not fit a `u32`
    /// row id.
    fn changed_rows(
        &self,
        mut dim: Option<usize>,
        prior_rows: &[Patch],
    ) -> Option<(Vec<u32>, Option<usize>)> {
        let mut changed = Vec::new();
        for (pos, new) in self.patches.iter().enumerate() {
            let features = new.data.features();
            if prior_rows
                .get(pos)
                .is_some_and(|old| features == old.data.features())
            {
                continue;
            }
            let len = features?.len();
            if *dim.get_or_insert(len) != len {
                return None;
            }
            changed.push(row_id(pos).ok()?);
        }
        Some((changed, dim))
    }

    /// The Ball index a join over this collection probes instead of
    /// building a tree ([`crate::plan::JoinPlan::Indexed`]): a Ball index
    /// that covers exactly the collection's rows (its `len()` equals the row
    /// count). Among several, the one with the fewest `delta_rows()`, ties
    /// broken by name; `None` when no Ball index is live.
    pub(crate) fn live_ball_index(&self) -> Option<&DeltaBallTree> {
        self.indexes
            .iter()
            .filter_map(|(name, index)| match index {
                SecondaryIndex::Ball { index } if index.len() == self.len() => {
                    Some((index.delta_rows(), name, index))
                }
                _ => None,
            })
            .min_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)))
            .map(|(_, _, index)| index)
    }

    /// The rows' column chunks, if a scan or
    /// [`SharedCatalog::build_columnar`](crate::shared::SharedCatalog::build_columnar)
    /// has encoded them yet.
    pub fn columnar(&self) -> Option<&ColumnarPatches> {
        self.columnar.get().map(|c| &**c)
    }

    /// Scan the collection's column chunks with zone-map pushdown. The
    /// first scan of a version encodes the chunks and every later scan
    /// reuses them; concurrent first scans encode once. The rows are
    /// read-only ([`Rows`]), so the chunks always describe them.
    pub fn scan(
        &self,
        filter: &ScanFilter,
        projection: Projection,
        pool: &WorkerPool,
    ) -> ScanResult {
        self.columnar
            .get_or_init(|| encode(&self.patches))
            .scan(filter, projection, pool)
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
    /// byte-identically to a freshly rebuilt one. A negative or NaN `tau`
    /// is a [`DlError::SchemaMismatch`].
    pub fn lookup_similar(&self, index_name: &str, query: &[f32], tau: f32) -> Result<Vec<u32>> {
        check_tau(tau)?;
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

/// `patches` as column chunks of the default size.
fn encode(patches: &[Patch]) -> Arc<ColumnarPatches> {
    Arc::new(ColumnarPatches::from_patches_default(patches))
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
    use std::ops::Range;

    use super::*;
    use crate::patch::{ImgRef, PatchData};

    fn make_collection() -> PatchCollection {
        PatchCollection::from_patches(make_rows())
    }

    fn make_rows() -> Vec<Patch> {
        (0..50)
            .map(|i| {
                Patch::features(
                    PatchId(i),
                    ImgRef::frame("cam", i / 5),
                    vec![(i % 10) as f32, 1.0],
                )
                .with_meta("label", if i % 3 == 0 { "car" } else { "person" })
                .with_meta("frameno", (i / 5) as i64)
            })
            .collect()
    }

    #[test]
    fn hash_index_matches_scan() {
        let mut col = make_collection();
        col.build_hash_index("by_label", "label").unwrap();
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
        col.build_ball_index("by_feat", 1).unwrap();
        let hits = col.lookup_similar("by_feat", &[3.0, 1.0], 0.1).unwrap();
        assert_eq!(hits.len(), 5, "five patches share feature [3,1]");
    }

    #[test]
    fn mismatched_dimensions_are_errors_not_panics() {
        let mut col = make_collection();
        col.build_ball_index("by_feat", 1).unwrap();
        assert!(matches!(
            col.lookup_similar("by_feat", &[1.0, 2.0, 3.0], 1.0),
            Err(DlError::SchemaMismatch(_))
        ));
        let mut rows = make_rows();
        rows.push(Patch::features(
            PatchId(99),
            ImgRef::frame("cam", 99),
            vec![1.0; 4],
        ));
        assert!(matches!(
            PatchCollection::from_patches(rows).build_ball_index("mixed", 1),
            Err(DlError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn wrong_index_kind_rejected() {
        let mut col = make_collection();
        col.build_hash_index("idx", "label").unwrap();
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
        col.build_ball_index("serial", 1).unwrap();
        col.build_ball_index("parallel", 4).unwrap();
        for q in [[0.0f32, 1.0], [3.0, 1.0], [9.0, 1.0]] {
            assert_eq!(
                col.lookup_similar("serial", &q, 1.5).unwrap(),
                col.lookup_similar("parallel", &q, 1.5).unwrap()
            );
        }
    }

    #[test]
    fn live_ball_index_is_current_with_the_fewest_delta_rows() {
        let prior = {
            let mut col = make_collection();
            col.build_ball_index("b_delta", 1).unwrap();
            col.build_hash_index("a_hash", "label").unwrap();
            col
        };
        let mut rows = make_rows();
        rows[3] = Patch::features(PatchId(3), ImgRef::frame("cam", 0), vec![7.5, 1.0]);
        let mut col = PatchCollection::from_patches(rows);
        col.carry_from(&prior, &CostModel::default(), 1);
        let is = |col: &PatchCollection, name: &str| {
            let want = col.ball_index(name, &[0.0, 0.0]).unwrap();
            std::ptr::eq(col.live_ball_index().unwrap(), want)
        };
        assert!(col.ball_index("b_delta", &[0.0, 0.0]).unwrap().delta_rows() > 0);
        assert!(is(&col, "b_delta"), "the only Ball index, delta and all");
        col.build_ball_index("z_fresh", 1).unwrap();
        assert!(is(&col, "z_fresh"), "fewer delta rows beat the name order");
        col.build_ball_index("c_fresh", 1).unwrap();
        assert!(is(&col, "c_fresh"), "ties break by name");
    }

    /// `n` rows of `dim` features each; `version` picks their values, so
    /// two versions differ in every row.
    fn feature_rows(n: usize, dim: usize, version: u32) -> Vec<Patch> {
        (0..n)
            .map(|i| {
                let f = (0..dim)
                    .map(|j| ((i * 7 + j * 3 + version as usize * 11) % 31) as f32 * 0.25)
                    .collect();
                Patch::features(PatchId(i as u64), ImgRef::frame("cam", i as u64), f)
            })
            .collect()
    }

    /// `rows` with the rows at `positions` replaced by `version`'s values.
    fn changed(mut rows: Vec<Patch>, positions: Range<usize>, version: u32) -> Vec<Patch> {
        let dim = rows[0].data.features().unwrap().len();
        let fresh = feature_rows(rows.len(), dim, version);
        rows[positions.clone()].clone_from_slice(&fresh[positions]);
        rows
    }

    /// Materialize `rows` over `prior`, carrying its Ball index `feat`:
    /// the new collection, what the carry did, and the carried index's
    /// delta rows (`None` when it dropped the index).
    fn carry(
        prior: &PatchCollection,
        rows: Vec<Patch>,
    ) -> (PatchCollection, Carried, Option<usize>) {
        let mut col = PatchCollection::from_patches(rows);
        let carried = col.carry_from(prior, &CostModel::default(), 1);
        let delta_rows = match col.indexes.get("feat") {
            Some(SecondaryIndex::Ball { index }) => Some(index.delta_rows()),
            _ => None,
        };
        (col, carried, delta_rows)
    }

    fn indexed(rows: Vec<Patch>) -> PatchCollection {
        let mut col = PatchCollection::from_patches(rows);
        col.build_ball_index("feat", 1).unwrap();
        col
    }

    const MAINTAINED: Carried = Carried {
        maintained: 1,
        merged: 0,
    };
    const MERGED: Carried = Carried {
        maintained: 0,
        merged: 1,
    };

    /// The smallest `k` whose write `write(k)` the carry merges; below it
    /// every write is maintained with `delta_rows(k)` delta rows, and at or
    /// above it every write merges into a fresh tree.
    fn first_merge(
        prior: &PatchCollection,
        ks: Range<usize>,
        write: impl Fn(usize) -> Vec<Patch>,
        delta_rows: impl Fn(usize) -> usize,
    ) -> usize {
        let mut first = None;
        for k in ks {
            let (_, carried, rows) = carry(prior, write(k));
            match first {
                None if carried == MAINTAINED => assert_eq!(rows, Some(delta_rows(k)), "k = {k}"),
                None => {
                    assert_eq!((carried, rows), (MERGED, Some(0)), "k = {k}");
                    first = Some(k);
                }
                Some(_) => assert_eq!((carried, rows), (MERGED, Some(0)), "k = {k}"),
            }
        }
        first.expect("the sweep reaches a merge")
    }

    /// Where the carry stops maintaining and merges, for in-place changes,
    /// appends, shrinks and a prior index that already holds a delta. The
    /// thresholds are the ones the carry had when it built every delta
    /// before pricing it; pricing the changed-row count first moves none.
    #[test]
    fn carry_merges_at_the_thresholds_of_the_priced_delta() {
        let (n, dim) = (200, 3);
        let base = feature_rows(n, dim, 0);
        let prior = indexed(base.clone());
        let in_place = first_merge(
            &prior,
            0..n + 1,
            |k| changed(base.clone(), 0..k, 1),
            |k| 2 * k,
        );
        let appended = first_merge(
            &prior,
            0..n + 1,
            |a| [base.clone(), feature_rows(n + a, dim, 2).split_off(n)].concat(),
            |a| a,
        );
        let shrunk = first_merge(
            &prior,
            0..190,
            |k| changed(base[..190].to_vec(), 0..k, 1),
            |k| 10 + 2 * k,
        );
        // A prior version that already carries 10 changed rows.
        let (prior_delta, carried, rows) = carry(&prior, changed(base.clone(), 0..10, 1));
        assert_eq!((carried, rows), (MAINTAINED, Some(20)));
        let on_a_delta = first_merge(
            &prior_delta,
            0..n - 100,
            |k| changed(prior_delta.patches.to_vec(), 100..100 + k, 2),
            |k| 20 + 2 * k,
        );
        assert_eq!([in_place, appended, shrunk, on_a_delta], [18, 46, 12, 8]);
    }

    /// A re-materialize that changes every row merges into the tree a fresh
    /// build makes: every probe returns the same hits in the same order,
    /// with the same squared-distance bits.
    #[test]
    fn a_write_of_every_row_merges_into_the_fresh_tree() {
        let prior = indexed(feature_rows(300, 4, 0));
        let rows = feature_rows(300, 4, 5);
        let (col, carried, delta_rows) = carry(&prior, rows.clone());
        assert_eq!((carried, delta_rows), (MERGED, Some(0)));
        let fresh = indexed(rows.clone());
        for probe in rows.iter().step_by(17) {
            let q = probe.data.features().unwrap();
            let hits = |c: &PatchCollection| -> Vec<(u32, u32)> {
                let index = c.ball_index("feat", q).unwrap();
                let hits = index.range_query_sq(q, 2.5);
                hits.into_iter()
                    .map(|(id, d2)| (id, d2.to_bits()))
                    .collect()
            };
            assert!(!hits(&fresh).is_empty());
            assert_eq!(hits(&col), hits(&fresh));
        }
    }

    /// A 2 % write keeps the index: its delta holds a tombstone and a
    /// delta row per changed row.
    #[test]
    fn a_two_percent_write_is_maintained() {
        let base = feature_rows(500, 3, 0);
        let prior = indexed(base.clone());
        let (col, carried, delta_rows) = carry(&prior, changed(base, 40..50, 1));
        assert_eq!((carried, delta_rows), (MAINTAINED, Some(20)));
        let fresh = indexed(col.patches.to_vec());
        let q = [2.0, 3.0, 4.0];
        assert_eq!(
            col.lookup_similar("feat", &q, 2.0).unwrap(),
            fresh.lookup_similar("feat", &q, 2.0).unwrap()
        );
    }

    /// Changed or appended rows that lose their features or change
    /// dimension drop the index, whatever the size of the write — even when
    /// every row changes to one new dimension, which a fresh build would
    /// index.
    #[test]
    fn rows_that_lose_features_or_change_dimension_drop_the_index() {
        let base = feature_rows(200, 3, 0);
        let prior = indexed(base.clone());
        let featureless = |mut rows: Vec<Patch>, at: Range<usize>| {
            for p in &mut rows[at] {
                p.data = PatchData::Empty;
            }
            rows
        };
        let writes = [
            featureless(base.clone(), 7..8),
            featureless(changed(base.clone(), 0..200, 1), 199..200),
            changed(base.clone(), 0..3, 1)
                .into_iter()
                .chain(feature_rows(201, 4, 1).split_off(200))
                .collect(),
            [changed(base.clone(), 0..5, 1), feature_rows(1, 2, 0)].concat(),
            feature_rows(200, 5, 1),
            feature_rows(250, 2, 1),
        ];
        for (i, rows) in writes.into_iter().enumerate() {
            let (_, carried, delta_rows) = carry(&prior, rows);
            assert_eq!(
                (carried, delta_rows),
                (Carried::default(), None),
                "write {i}"
            );
        }
    }

    #[test]
    fn the_first_scan_encodes_and_later_scans_reuse_the_chunks() {
        use crate::scan::{Projection, ScanFilter};
        let col = make_collection();
        let pool = deeplens_exec::WorkerPool::new(1);
        assert!(col.columnar().is_none(), "nothing encodes before a scan");
        let served = col.scan(&ScanFilter::All, Projection::Count, &pool);
        assert!(served.stats.used_columnar);
        assert_eq!(served.stats.rows_matched, 50);
        let chunks: *const ColumnarPatches = col.columnar().unwrap();
        assert_eq!(col.columnar().map(ColumnarPatches::len), Some(50));
        let again = col.scan(&ScanFilter::All, Projection::Count, &pool);
        assert_eq!(again.stats.rows_matched, 50);
        assert!(std::ptr::eq(col.columnar().unwrap(), chunks));
    }

    #[test]
    fn collections_are_cloneable_with_indexes() {
        // Clone backs the shared catalog's copy-on-write protocol: the copy
        // must answer index lookups identically and independently.
        let mut col = make_collection();
        col.build_hash_index("by_label", "label").unwrap();
        col.build_ball_index("by_feat", 1).unwrap();
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
