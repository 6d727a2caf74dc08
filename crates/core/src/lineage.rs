//! Tuple-level lineage (§5.1).
//!
//! Every patch records its direct parents; the [`LineageStore`] keeps the
//! full derivation graph so a *backtracing query* — "which raw frames
//! contributed to this patch?" — resolves by walking parent pointers instead
//! of rescanning base data. Fig. 4's q3 does not use the store: its indexed
//! plan (`deeplens_bench::queries::q3_optimized`) follows each OCR patch's
//! parent pointer through a patch-id → position map built once, where the
//! baseline rescans every detection per hit.
//!
//! # Representation
//!
//! Patch ids come densely from one atomic counter
//! ([`SharedCatalog::reserve_patch_ids`](crate::shared::SharedCatalog::reserve_patch_ids)),
//! so records live in fixed pages of 1 024 slots addressed by `id >> 10`,
//! through a small map of page numbers. A page a dense writer opens fills
//! up; a sparse id costs one page, never a table sized to the id.
//!
//! A slot is 24 bytes: the frame number, an interned source id (`0` marks
//! an empty slot), the parent count, and either the one parent inline or,
//! for two or more, an offset into a shared overflow arena. Sources are
//! interned once, as the patch's own shared string, with a fast path for
//! the last source seen (a pointer compare before a string compare), so
//! [`LineageStore::record`] allocates only when it opens a page, stores a
//! multi-parent record or meets a new source. `ImgRef`s are rebuilt only
//! when a backtrace answers, and share the interned source. A dense run of
//! records costs ≈24 heap bytes each.
//!
//! Records are never dropped. Dropping one is safe only once no reachable
//! collection version contains or descends from its patch; any earlier,
//! and `backtrace` answers change.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::patch::{ImgRef, Patch, PatchId};

/// `log2` of [`PAGE_SLOTS`].
const PAGE_BITS: u32 = 10;

/// Slots per page: ids `k << 10 ..= (k << 10) + 1023` share page `k`.
const PAGE_SLOTS: usize = 1 << PAGE_BITS;

/// One patch's lineage record.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Frame number of the patch's source image.
    frame_no: u64,
    /// Interned source: `sources[source - 1]`. `0` = no record.
    source: u32,
    /// Number of direct parents.
    n_parents: u32,
    /// The parent when `n_parents == 1`; the start of the parent list in
    /// the overflow arena when `n_parents >= 2`; unused otherwise.
    parent: PatchId,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 24);

impl Slot {
    const EMPTY: Slot = Slot {
        frame_no: 0,
        source: 0,
        n_parents: 0,
        parent: PatchId(0),
    };

    fn is_record(&self) -> bool {
        self.source != 0
    }
}

/// The session-wide lineage graph.
#[derive(Debug, Default)]
pub struct LineageStore {
    /// Page number (`id >> PAGE_BITS`) → position in `pages`.
    page_of: HashMap<u64, usize>,
    /// Pages of [`PAGE_SLOTS`] slots each, in the order they were opened.
    pages: Vec<Box<[Slot]>>,
    /// `(page number, position)` of the page `record` wrote last.
    last_page: Option<(u64, usize)>,
    /// Parent lists of the records with two or more parents.
    overflow: Vec<PatchId>,
    /// Interned sources: id `i + 1` names `sources[i]`. The table's key
    /// is the same allocation.
    sources: Vec<Arc<str>>,
    source_ids: HashMap<Arc<str>, u32>,
    /// The source id `record` interned last (`0` before the first).
    last_source: u32,
    /// Number of occupied slots.
    len: usize,
}

impl LineageStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a patch. Re-registering an id replaces its record.
    pub fn record(&mut self, patch: &Patch) {
        let source = self.intern(&patch.img_ref.source);
        let (page, offset) = self.locate(patch.id);
        let was_record = self.pages[page][offset].is_record();
        let parent = self.store_parents(&patch.parents);
        self.pages[page][offset] = Slot {
            frame_no: patch.img_ref.frame_no,
            source,
            // 2^32 parents would be 32 GiB of ids in one `Vec`.
            n_parents: patch.parents.len() as u32,
            parent,
        };
        if !was_record {
            self.len += 1;
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
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Backtrace: all root image references reachable from `id` (patches
    /// with no parents contribute their own `img_ref`).
    pub fn backtrace(&self, id: PatchId) -> Vec<ImgRef> {
        let mut roots: Vec<(u32, u64)> = Vec::new();
        let mut stack = vec![id];
        let mut seen = HashSet::new();
        while let Some(cur) = stack.pop() {
            if !seen.insert(cur) {
                continue;
            }
            let Some(slot) = self.slot(cur) else {
                continue;
            };
            let parents = self.parents(slot);
            if parents.iter().all(|p| self.slot(*p).is_none()) {
                // Root patch, or every parent predates the store: the
                // patch's own ImgRef is the best-known provenance.
                roots.push((slot.source, slot.frame_no));
            } else {
                stack.extend_from_slice(parents);
            }
        }
        roots.sort_unstable_by(|a, b| {
            (self.source_name(a.0), a.1).cmp(&(self.source_name(b.0), b.1))
        });
        roots.dedup();
        roots
            .into_iter()
            .map(|(source, frame_no)| ImgRef {
                source: self.sources[source as usize - 1].clone(),
                frame_no,
            })
            .collect()
    }

    /// The interned id of `source`, interning it on first sight.
    fn intern(&mut self, source: &Arc<str>) -> u32 {
        if self.last_source != 0 {
            let last = &self.sources[self.last_source as usize - 1];
            if Arc::ptr_eq(last, source) || last == source {
                return self.last_source;
            }
        }
        let id = match self.source_ids.get(&**source) {
            Some(&id) => id,
            None => {
                self.sources.push(source.clone());
                let id = self.sources.len() as u32;
                self.source_ids.insert(source.clone(), id);
                id
            }
        };
        self.last_source = id;
        id
    }

    fn source_name(&self, source: u32) -> &str {
        &self.sources[source as usize - 1]
    }

    /// `(page position, slot offset)` of `id`, opening its page if needed.
    fn locate(&mut self, id: PatchId) -> (usize, usize) {
        let key = id.0 >> PAGE_BITS;
        let page = match self.last_page {
            Some((last, page)) if last == key => page,
            _ => {
                let opened = self.pages.len();
                let page = *self.page_of.entry(key).or_insert(opened);
                if page == opened {
                    self.pages
                        .push(vec![Slot::EMPTY; PAGE_SLOTS].into_boxed_slice());
                }
                self.last_page = Some((key, page));
                page
            }
        };
        (page, slot_offset(id))
    }

    /// The record of `id`, if any.
    fn slot(&self, id: PatchId) -> Option<&Slot> {
        let page = self.page_of.get(&(id.0 >> PAGE_BITS))?;
        Some(&self.pages[*page][slot_offset(id)]).filter(|s| s.is_record())
    }

    /// The direct parents of a record.
    fn parents<'a>(&'a self, slot: &'a Slot) -> &'a [PatchId] {
        match slot.n_parents {
            0 => &[],
            1 => std::slice::from_ref(&slot.parent),
            n => {
                let start = slot.parent.0 as usize;
                &self.overflow[start..start + n as usize]
            }
        }
    }

    /// The `parent` field of a record with `parents`, appending a list of
    /// two or more to the overflow arena.
    fn store_parents(&mut self, parents: &[PatchId]) -> PatchId {
        match parents {
            [] => PatchId(0),
            [only] => *only,
            many => {
                let start = self.overflow.len();
                self.overflow.extend_from_slice(many);
                PatchId(start as u64)
            }
        }
    }
}

/// Position of `id` within its page.
fn slot_offset(id: PatchId) -> usize {
    (id.0 & (PAGE_SLOTS as u64 - 1)) as usize
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
        let roots = store.backtrace(PatchId(1));
        assert_eq!(roots, vec![ImgRef::frame("cam", 42)]);
        // The store interned the patch's own source and answers with it.
        assert!(Arc::ptr_eq(&roots[0].source, &p.img_ref.source));
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
    fn backtrace_unknown_id_is_empty() {
        let store = LineageStore::new();
        assert!(store.backtrace(PatchId(99)).is_empty());
    }

    #[test]
    fn rerecords_replace_the_record() {
        let mut store = LineageStore::new();
        store.record(&patch(2, 4));
        store.record(&patch(2, 5));
        assert_eq!(store.len(), 1);
        assert_eq!(store.backtrace(PatchId(2)), vec![ImgRef::frame("cam", 5)]);
    }

    #[test]
    fn sparse_ids_cost_one_page_each() {
        let mut store = LineageStore::new();
        store.record(&patch(1 << 40, 1));
        store.record(&patch(u64::MAX, 2));
        store.record(&patch(0, 3));
        assert_eq!(store.pages.len(), 3);
        assert_eq!(store.len(), 3);
        assert_eq!(
            store.backtrace(PatchId(u64::MAX)),
            vec![ImgRef::frame("cam", 2)]
        );
        assert_eq!(
            store.backtrace(PatchId(1 << 40)),
            vec![ImgRef::frame("cam", 1)]
        );
        assert!(store.backtrace(PatchId((1 << 40) + 1)).is_empty());
    }

    #[test]
    fn multi_parent_rerecords_answer_their_new_parents() {
        let mut store = LineageStore::new();
        let mut joined = patch(10, 0);
        for parents in [
            vec![PatchId(1), PatchId(2), PatchId(3)],
            vec![PatchId(3), PatchId(2)],
            vec![PatchId(1), PatchId(2), PatchId(3), PatchId(4)],
        ] {
            joined.parents = parents;
            store.record(&joined);
            let slot = *store.slot(PatchId(10)).unwrap();
            assert_eq!(store.parents(&slot), joined.parents.as_slice());
        }
    }

    impl LineageStore {
        /// Heap bytes the store owns: pages, map tables (buckets of entry
        /// plus one control byte, at hashbrown's 7/8 load factor), the
        /// overflow arena and interned sources.
        fn heap_bytes(&self) -> usize {
            fn table<K, V>(map: &HashMap<K, V>) -> usize {
                map.capacity() * 8 / 7 * (std::mem::size_of::<(K, V)>() + 1)
            }
            let slot = std::mem::size_of::<Slot>();
            let pages = self.pages.capacity() * std::mem::size_of::<Box<[Slot]>>()
                + self.pages.len() * PAGE_SLOTS * slot;
            let overflow = self.overflow.capacity() * std::mem::size_of::<PatchId>();
            // The interned strings are shared with the patches; charge each
            // once, with its two reference counts.
            let sources: usize = self
                .sources
                .iter()
                .map(|s| s.len() + 2 * std::mem::size_of::<usize>())
                .sum::<usize>()
                + self.sources.capacity() * std::mem::size_of::<Arc<str>>()
                + table(&self.source_ids);
            pages + table(&self.page_of) + overflow + sources
        }
    }

    #[test]
    fn dense_records_cost_at_most_32_heap_bytes_each() {
        const N: u64 = 100_000;
        let mut store = LineageStore::new();
        let mut p = patch(0, 0);
        for id in 0..N {
            p.id = PatchId(id);
            p.img_ref.frame_no = id / 4;
            p.parents = if id % 2 == 0 {
                vec![]
            } else {
                vec![PatchId(id - 1)]
            };
            store.record(&p);
        }
        assert_eq!(store.len(), N as usize);
        let per_record = store.heap_bytes() as f64 / N as f64;
        assert!(per_record <= 32.0, "{per_record:.1} heap bytes per record");
        assert_eq!(
            store.backtrace(PatchId(N - 1)),
            vec![ImgRef::frame("cam", (N - 2) / 4)]
        );
    }

    /// The `HashMap` store this module replaced, kept as the reference the
    /// paged store must answer identically to.
    #[derive(Default)]
    struct ReferenceStore {
        records: HashMap<PatchId, (ImgRef, Vec<PatchId>)>,
    }

    impl ReferenceStore {
        fn record(&mut self, patch: &Patch) {
            self.records
                .insert(patch.id, (patch.img_ref.clone(), patch.parents.clone()));
        }

        fn backtrace(&self, id: PatchId) -> Vec<ImgRef> {
            let mut out = Vec::new();
            let mut stack = vec![id];
            let mut seen = HashSet::new();
            while let Some(cur) = stack.pop() {
                if !seen.insert(cur) {
                    continue;
                }
                if let Some((img_ref, parents)) = self.records.get(&cur) {
                    if parents.is_empty() || parents.iter().all(|p| !self.records.contains_key(p)) {
                        out.push(img_ref.clone());
                    } else {
                        stack.extend(parents.iter().copied());
                    }
                }
            }
            out.sort_by(|a, b| (&*a.source, a.frame_no).cmp(&(&*b.source, b.frame_no)));
            out.dedup();
            out
        }
    }

    /// SplitMix64 (the crate has no dependency to draw a generator from).
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }

    const SOURCES: [&str; 4] = ["cam0", "cam1", "wire", ""];
    const FRAMES: [u64; 6] = [0, 1, 2, 3, 7, u64::MAX];

    /// A random id: mostly dense (several pages), sometimes far away.
    fn random_id(rng: &mut Rng) -> PatchId {
        PatchId(match rng.below(10) {
            0 => (1 << 40) + rng.below(3),
            1 => u64::MAX - rng.below(2),
            _ => rng.below(2_500),
        })
    }

    fn assert_same(store: &LineageStore, reference: &ReferenceStore, ids: &[PatchId], ctx: &str) {
        assert_eq!(store.len(), reference.records.len(), "{ctx}: len");
        for id in ids {
            assert_eq!(
                store.backtrace(*id),
                reference.backtrace(*id),
                "{ctx}: backtrace of {id:?}"
            );
        }
    }

    #[test]
    fn random_record_sequences_answer_like_the_hashmap_store() {
        for seed in 0..60u64 {
            let mut rng = Rng(seed);
            let mut store = LineageStore::new();
            let mut reference = ReferenceStore::default();
            let mut ids: Vec<PatchId> = Vec::new();
            let steps = 50 + rng.below(400);
            for step in 0..steps {
                // Re-record a known id a third of the time.
                let id = if !ids.is_empty() && rng.below(3) == 0 {
                    ids[rng.below(ids.len() as u64) as usize]
                } else {
                    random_id(&mut rng)
                };
                let source = SOURCES[rng.below(SOURCES.len() as u64) as usize];
                let frame = FRAMES[rng.below(FRAMES.len() as u64) as usize];
                let mut p = Patch::empty(id, ImgRef::frame(source, frame));
                // Parents: known ids (a real graph), unknown ones (predating
                // the store), sometimes the patch itself (a cycle).
                for _ in 0..[0, 0, 1, 1, 2, 3, 5][rng.below(7) as usize] {
                    p.parents.push(match rng.below(6) {
                        0 => random_id(&mut rng),
                        1 => id,
                        _ if !ids.is_empty() => ids[rng.below(ids.len() as u64) as usize],
                        _ => random_id(&mut rng),
                    });
                }
                store.record(&p);
                reference.record(&p);
                ids.push(id);
                if step % 97 == 0 {
                    assert_same(
                        &store,
                        &reference,
                        &ids,
                        &format!("seed {seed} step {step}"),
                    );
                }
            }
            ids.extend([PatchId(2_501), PatchId(1 << 41)]);
            assert_same(&store, &reference, &ids, &format!("seed {seed} end"));
        }
    }
}
