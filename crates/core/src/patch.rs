//! The Patch abstract data type.
//!
//! `Patch(ImgRef, Data, MetaData)` is the paper's narrow waist (§2.1–2.2):
//! every visual corpus is an unordered collection of patches, every operator
//! consumes and produces patches, and every patch can be traced back to the
//! image that generated it.

use std::fmt;
use std::sync::Arc;

use deeplens_codec::Image;

use crate::value::Value;

/// Unique identifier of a patch within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatchId(pub u64);

/// Reference to the source image a patch derives from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ImgRef {
    /// Source collection or video name, shared by every patch of the
    /// source: cloning a reference is a refcount bump.
    pub source: Arc<str>,
    /// Frame number within the source (0 for still images).
    pub frame_no: u64,
}

impl ImgRef {
    /// Reference frame `frame_no` of `source`.
    pub fn frame(source: impl Into<Arc<str>>, frame_no: u64) -> Self {
        ImgRef {
            source: source.into(),
            frame_no,
        }
    }
}

/// The dense payload of a patch.
#[derive(Debug, Clone, PartialEq)]
pub enum PatchData {
    /// Raw pixels (a cropped sub-image or whole frame).
    Pixels(Image),
    /// A featurized representation (histogram, embedding, ...).
    Features(Vec<f32>),
    /// No payload — metadata-only patches (e.g. aggregate outputs).
    Empty,
}

impl PatchData {
    /// The feature vector, if this patch is featurized.
    pub fn features(&self) -> Option<&[f32]> {
        match self {
            PatchData::Features(f) => Some(f),
            _ => None,
        }
    }

    /// The pixel payload, if present.
    pub fn pixels(&self) -> Option<&Image> {
        match self {
            PatchData::Pixels(img) => Some(img),
            _ => None,
        }
    }

    /// Approximate in-memory size in bytes (for materialization stats).
    pub fn byte_size(&self) -> usize {
        match self {
            PatchData::Pixels(img) => img.byte_size(),
            PatchData::Features(f) => f.len() * 4,
            PatchData::Empty => 0,
        }
    }
}

/// A patch's metadata dictionary: entries kept sorted by key in one flat
/// `Vec`, so a patch's metadata is one allocation and its keys are shared
/// (`Arc<str>`) with every other patch carrying the same key. Lookups
/// binary-search; iteration is in key order, and `Debug` prints a map.
#[derive(Clone, Default, PartialEq)]
pub struct MetaMap(Vec<(Arc<str>, Value)>);

impl MetaMap {
    /// An empty map with room for `n` entries.
    pub(crate) fn with_capacity(n: usize) -> Self {
        MetaMap(Vec::with_capacity(n))
    }

    /// Append an entry whose key sorts after every key in the map — how a
    /// scan assembles a row from key-ordered columns without searching.
    pub(crate) fn push_sorted(&mut self, key: Arc<str>, value: Value) {
        debug_assert!(self.0.last().is_none_or(|(last, _)| *last < key));
        self.0.push((key, value));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn position(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| (**k).cmp(key))
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.position(key).ok().map(|i| &self.0[i].1)
    }

    /// Set `key` to `value`, returning the value it replaces. An existing
    /// entry keeps its key allocation; only a new key is converted.
    pub fn insert<K: AsRef<str> + Into<Arc<str>>>(
        &mut self,
        key: K,
        value: Value,
    ) -> Option<Value> {
        match self.position(key.as_ref()) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (key.into(), value));
                None
            }
        }
    }

    /// Entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &Value)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// Keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &Arc<str>> {
        self.0.iter().map(|(k, _)| k)
    }

    /// Values in key order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.0.iter_mut().map(|(_, v)| v)
    }
}

impl fmt::Debug for MetaMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A patch: the unit of data in DeepLens.
#[derive(Debug, Clone, PartialEq)]
pub struct Patch {
    /// Unique id (assigned by the catalog).
    pub id: PatchId,
    /// Source image reference — the root of the lineage chain, and the
    /// answer to §5.1's backtracing query ("which frame did this patch come
    /// from?"). Every operator carries it forward ([`Patch::derive`]), and
    /// a pipeline stage that rewrites it fails the run
    /// ([`Pipeline::run`](crate::etl::Pipeline::run)). Nothing walks
    /// `parents` to answer a backtrace: a hand-built patch whose parents
    /// carry another `ImgRef` backtraces to its own.
    pub img_ref: ImgRef,
    /// Dense payload.
    pub data: PatchData,
    /// Key-value metadata dictionary.
    pub meta: MetaMap,
    /// Direct lineage parents (empty for patches generated straight from a
    /// source image). Fig. 4's q3 indexed plan follows them.
    pub parents: Vec<PatchId>,
}

impl Patch {
    /// A pixel patch generated directly from a source image.
    pub fn pixels(id: PatchId, img_ref: ImgRef, img: Image) -> Self {
        Patch {
            id,
            img_ref,
            data: PatchData::Pixels(img),
            meta: MetaMap::default(),
            parents: vec![],
        }
    }

    /// A feature patch generated directly from a source image.
    pub fn features(id: PatchId, img_ref: ImgRef, features: Vec<f32>) -> Self {
        Patch {
            id,
            img_ref,
            data: PatchData::Features(features),
            meta: MetaMap::default(),
            parents: vec![],
        }
    }

    /// A metadata-only patch (aggregate results and the like).
    pub fn empty(id: PatchId, img_ref: ImgRef) -> Self {
        Patch {
            id,
            img_ref,
            data: PatchData::Empty,
            meta: MetaMap::default(),
            parents: vec![],
        }
    }

    /// Builder-style metadata insertion.
    pub fn with_meta(mut self, key: impl Into<Arc<str>>, value: impl Into<Value>) -> Self {
        let key: Arc<str> = key.into();
        self.meta.insert(key, value.into());
        self
    }

    /// Builder-style lineage parent registration.
    pub fn with_parent(mut self, parent: PatchId) -> Self {
        self.parents.push(parent);
        self
    }

    /// Metadata lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.meta.get(key)
    }

    /// String metadata lookup.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.meta.get(key).and_then(|v| v.as_str())
    }

    /// Integer metadata lookup.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        self.meta.get(key).and_then(|v| v.as_int())
    }

    /// Float metadata lookup (integers coerce).
    pub fn get_float(&self, key: &str) -> Option<f64> {
        self.meta.get(key).and_then(|v| v.as_float())
    }

    /// Derive a child patch: same source reference, new id and payload,
    /// lineage pointing back at this patch. The metadata dictionary is
    /// carried over (transformers may then overwrite entries).
    ///
    /// This is the operation §2.2 mandates: "every operator is required to
    /// update the ImgRef attribute to retain a lineage chain".
    pub fn derive(&self, new_id: PatchId, data: PatchData) -> Patch {
        Patch {
            id: new_id,
            img_ref: self.img_ref.clone(),
            data,
            meta: self.meta.clone(),
            parents: vec![self.id],
        }
    }

    /// [`Patch::derive`] for an owner that is done with this patch: the
    /// source reference and metadata move into the child instead of being
    /// cloned, and this patch's payload is dropped.
    pub fn into_derived(self, new_id: PatchId, data: PatchData) -> Patch {
        Patch {
            id: new_id,
            img_ref: self.img_ref,
            data,
            meta: self.meta,
            parents: vec![self.id],
        }
    }

    /// The patch's bounding box from conventional metadata keys
    /// (`x`, `y`, `w`, `h`), if present.
    pub fn bbox(&self) -> Option<(i64, i64, u32, u32)> {
        Some((
            self.get_int("x")?,
            self.get_int("y")?,
            self.get_int("w")? as u32,
            self.get_int("h")? as u32,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(id: u64) -> Patch {
        Patch::empty(PatchId(id), ImgRef::frame("cam", 7))
    }

    #[test]
    fn builder_metadata() {
        let patch = p(1)
            .with_meta("label", "car")
            .with_meta("score", 0.9)
            .with_meta("frameno", 7i64);
        assert_eq!(patch.get_str("label"), Some("car"));
        assert_eq!(patch.get_float("score"), Some(0.9));
        assert_eq!(patch.get_int("frameno"), Some(7));
        assert!(patch.get("missing").is_none());
    }

    #[test]
    fn derive_maintains_lineage() {
        let parent = p(1).with_meta("label", "person");
        let child = parent.derive(PatchId(2), PatchData::Features(vec![1.0, 2.0]));
        assert_eq!(child.parents, vec![PatchId(1)]);
        assert_eq!(child.img_ref, parent.img_ref);
        assert_eq!(
            child.get_str("label"),
            Some("person"),
            "metadata carried over"
        );
        assert_eq!(child.data.features(), Some(&[1.0, 2.0][..]));
    }

    #[test]
    fn bbox_from_meta() {
        let patch = p(1)
            .with_meta("x", 10i64)
            .with_meta("y", 20i64)
            .with_meta("w", 30i64)
            .with_meta("h", 40i64);
        assert_eq!(patch.bbox(), Some((10, 20, 30, 40)));
        assert_eq!(p(2).bbox(), None);
    }

    #[test]
    fn data_byte_sizes() {
        assert_eq!(PatchData::Empty.byte_size(), 0);
        assert_eq!(PatchData::Features(vec![0.0; 8]).byte_size(), 32);
        let img = deeplens_codec::Image::new(4, 4);
        assert_eq!(PatchData::Pixels(img).byte_size(), 48);
    }
}
