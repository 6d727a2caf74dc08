//! The Patch abstract data type.
//!
//! `Patch(ImgRef, Data, MetaData)` is the paper's narrow waist (§2.1–2.2):
//! every visual corpus is an unordered collection of patches, every operator
//! consumes and produces patches, and every patch can be traced back to the
//! image that generated it.

use std::collections::BTreeMap;

use deeplens_codec::Image;

use crate::value::Value;

/// Unique identifier of a patch within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatchId(pub u64);

/// Reference to the source image a patch derives from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ImgRef {
    /// Source collection or video name.
    pub source: String,
    /// Frame number within the source (0 for still images).
    pub frame_no: u64,
}

impl ImgRef {
    /// Reference frame `frame_no` of `source`.
    pub fn frame(source: impl Into<String>, frame_no: u64) -> Self {
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

/// A patch: the unit of data in DeepLens.
#[derive(Debug, Clone, PartialEq)]
pub struct Patch {
    /// Unique id (assigned by the catalog).
    pub id: PatchId,
    /// Source image reference — the root of the lineage chain.
    pub img_ref: ImgRef,
    /// Dense payload.
    pub data: PatchData,
    /// Key-value metadata dictionary.
    pub meta: BTreeMap<String, Value>,
    /// Direct lineage parents (empty for patches generated straight from a
    /// source image).
    pub parents: Vec<PatchId>,
}

impl Patch {
    /// A pixel patch generated directly from a source image.
    pub fn pixels(id: PatchId, img_ref: ImgRef, img: Image) -> Self {
        Patch {
            id,
            img_ref,
            data: PatchData::Pixels(img),
            meta: BTreeMap::new(),
            parents: vec![],
        }
    }

    /// A feature patch generated directly from a source image.
    pub fn features(id: PatchId, img_ref: ImgRef, features: Vec<f32>) -> Self {
        Patch {
            id,
            img_ref,
            data: PatchData::Features(features),
            meta: BTreeMap::new(),
            parents: vec![],
        }
    }

    /// A metadata-only patch (aggregate results and the like).
    pub fn empty(id: PatchId, img_ref: ImgRef) -> Self {
        Patch {
            id,
            img_ref,
            data: PatchData::Empty,
            meta: BTreeMap::new(),
            parents: vec![],
        }
    }

    /// Builder-style metadata insertion.
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.meta.insert(key.into(), value.into());
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

    /// Reduce the patch to what lineage recording needs — id, source
    /// reference, and parent pointers — dropping the payload and metadata.
    /// Pipelines use this to keep intermediate stages alive for lineage
    /// without holding their pixel buffers in memory.
    pub fn into_lineage_stub(self) -> Patch {
        Patch {
            id: self.id,
            img_ref: self.img_ref,
            data: PatchData::Empty,
            meta: BTreeMap::new(),
            parents: self.parents,
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
