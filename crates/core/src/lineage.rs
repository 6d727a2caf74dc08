//! Tuple-level lineage (§5.1).
//!
//! Every patch records its direct parents; the [`LineageStore`] keeps the
//! full derivation graph so a *backtracing query* — "which raw frames
//! contributed to this patch?" — resolves by walking parent pointers instead
//! of rescanning base data. The store also builds the **lineage index**
//! (source frame → derived patch ids) that gives q3 its 41× speedup in the
//! paper's Fig. 4.

use std::collections::HashMap;

use crate::patch::{ImgRef, Patch, PatchId};

/// One node of the lineage graph.
#[derive(Debug, Clone)]
pub struct LineageRecord {
    /// The patch's source image reference.
    pub img_ref: ImgRef,
    /// Direct parents (empty for root patches).
    pub parents: Vec<PatchId>,
}

/// The session-wide lineage graph.
#[derive(Debug, Default)]
pub struct LineageStore {
    records: HashMap<PatchId, LineageRecord>,
    /// Lineage index: (source, frame) → patch ids derived from that frame.
    frame_index: HashMap<(String, u64), Vec<PatchId>>,
    index_built: bool,
}

impl LineageStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a patch (idempotent per id).
    pub fn record(&mut self, patch: &Patch) {
        self.records.insert(
            patch.id,
            LineageRecord {
                img_ref: patch.img_ref.clone(),
                parents: patch.parents.clone(),
            },
        );
        if self.index_built {
            self.frame_index
                .entry((patch.img_ref.source.clone(), patch.img_ref.frame_no))
                .or_default()
                .push(patch.id);
        }
    }

    /// Register every patch in a collection.
    pub fn record_all<'a>(&mut self, patches: impl IntoIterator<Item = &'a Patch>) {
        for p in patches {
            self.record(p);
        }
    }

    /// Number of recorded patches.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Backtrace: all root image references reachable from `id` (patches
    /// with no parents contribute their own `img_ref`).
    pub fn backtrace(&self, id: PatchId) -> Vec<ImgRef> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        let mut seen = std::collections::HashSet::new();
        while let Some(cur) = stack.pop() {
            if !seen.insert(cur) {
                continue;
            }
            if let Some(rec) = self.records.get(&cur) {
                if rec.parents.is_empty()
                    || rec.parents.iter().all(|p| !self.records.contains_key(p))
                {
                    // Root patch, or every parent predates the store: the
                    // patch's own ImgRef is the best-known provenance.
                    out.push(rec.img_ref.clone());
                } else {
                    stack.extend(rec.parents.iter().copied());
                }
            }
        }
        out.sort_by(|a, b| (a.source.as_str(), a.frame_no).cmp(&(b.source.as_str(), b.frame_no)));
        out.dedup();
        out
    }

    /// Build the lineage index over everything recorded so far. Subsequent
    /// [`LineageStore::record`] calls maintain it incrementally.
    pub fn build_frame_index(&mut self) {
        self.frame_index.clear();
        for (id, rec) in &self.records {
            self.frame_index
                .entry((rec.img_ref.source.clone(), rec.img_ref.frame_no))
                .or_default()
                .push(*id);
        }
        for ids in self.frame_index.values_mut() {
            ids.sort_unstable();
        }
        self.index_built = true;
    }

    /// Indexed lookup: all patch ids derived from frame `frame_no` of
    /// `source`. Requires [`LineageStore::build_frame_index`].
    pub fn patches_of_frame(&self, source: &str, frame_no: u64) -> &[PatchId] {
        debug_assert!(self.index_built, "call build_frame_index first");
        self.frame_index
            .get(&(source.to_string(), frame_no))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Unindexed lookup: full scan of the lineage graph (the baseline the
    /// paper's q3 compares against).
    pub fn patches_of_frame_scan(&self, source: &str, frame_no: u64) -> Vec<PatchId> {
        let mut out: Vec<PatchId> = self
            .records
            .iter()
            .filter(|(_, rec)| rec.img_ref.source == source && rec.img_ref.frame_no == frame_no)
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::PatchData;

    fn patch(id: u64, frame: u64) -> Patch {
        Patch::empty(PatchId(id), ImgRef::frame("cam", frame))
    }

    #[test]
    fn backtrace_root_patch() {
        let mut store = LineageStore::new();
        let p = patch(1, 42);
        store.record(&p);
        assert_eq!(store.backtrace(PatchId(1)), vec![ImgRef::frame("cam", 42)]);
    }

    #[test]
    fn backtrace_chain() {
        let mut store = LineageStore::new();
        let root = patch(1, 10);
        let mid = root.derive(PatchId(2), PatchData::Empty);
        let leaf = mid.derive(PatchId(3), PatchData::Empty);
        store.record_all([&root, &mid, &leaf]);
        assert_eq!(store.backtrace(PatchId(3)), vec![ImgRef::frame("cam", 10)]);
    }

    #[test]
    fn backtrace_diamond_deduplicates() {
        let mut store = LineageStore::new();
        let root = patch(1, 5);
        let a = root.derive(PatchId(2), PatchData::Empty);
        let b = root.derive(PatchId(3), PatchData::Empty);
        // A join output with two parents.
        let mut joined = patch(4, 5);
        joined.parents = vec![a.id, b.id];
        store.record_all([&root, &a, &b, &joined]);
        assert_eq!(store.backtrace(PatchId(4)), vec![ImgRef::frame("cam", 5)]);
    }

    #[test]
    fn frame_index_matches_scan() {
        let mut store = LineageStore::new();
        for i in 0..100u64 {
            store.record(&patch(i, i % 10));
        }
        store.build_frame_index();
        for f in 0..10u64 {
            let indexed = store.patches_of_frame("cam", f).to_vec();
            let scanned = store.patches_of_frame_scan("cam", f);
            assert_eq!(indexed, scanned);
            assert_eq!(indexed.len(), 10);
        }
        assert!(store.patches_of_frame("other", 0).is_empty());
    }

    #[test]
    fn index_maintained_incrementally() {
        let mut store = LineageStore::new();
        store.record(&patch(1, 3));
        store.build_frame_index();
        store.record(&patch(2, 3));
        assert_eq!(store.patches_of_frame("cam", 3).len(), 2);
    }

    #[test]
    fn backtrace_unknown_id_is_empty() {
        let store = LineageStore::new();
        assert!(store.backtrace(PatchId(99)).is_empty());
    }
}
