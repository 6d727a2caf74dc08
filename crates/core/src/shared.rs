//! The shared, sharded catalog behind concurrent query sessions.
//!
//! A [`SharedCatalog`] is the engine's one catalog — a single session over
//! a fresh `SharedCatalog::new()` is the single-user case. The
//! collection map is split across N shards keyed by a hash of the collection
//! name, each shard behind its own ranked `OrderedRwLock`, and every
//! collection is stored as an [`Arc`] snapshot with **copy-on-write**
//! semantics. Readers obtain a consistent [`SharedCatalog::snapshot`] and
//! scan it latch-free for as long as they like; a writer that materializes,
//! drops, or re-indexes a collection mutates a private copy (or the shard's
//! sole copy when no reader holds it) and publishes it with a single `Arc`
//! swap under the shard's write latch. A reader therefore never observes a
//! half-materialized or half-indexed collection — it sees the version that
//! was current when it took its snapshot.
//!
//! **Latch ordering** (deadlock freedom): every lock here is ranked, and the
//! [`LockRank`] enum in `deeplens-analyze` is the single source of truth for
//! the order — `SessionSlots` < `CatalogShard`, checked at runtime under
//! `debug_assertions`. Concretely:
//!
//! 1. at most one `CatalogShard` latch is held at a time (the checker
//!    rejects a second same-rank acquisition) — cross-shard operations
//!    ([`SharedCatalog::names`]) visit shards sequentially, releasing each
//!    latch before taking the next;
//! 2. patch-id reservation ([`SharedCatalog::reserve_patch_ids`]) is a
//!    lock-free atomic fetch-add and participates in no ordering at all;
//! 3. the result cache's shard locks (`ResultCacheShard`, the innermost
//!    rank) are taken only inside [`crate::cache::ResultCache`] lookups and
//!    inserts, never while acquiring anything else — and the snapshot
//!    version counter feeding the cache keys is, like the id allocator, a
//!    lock-free fetch-add stamped on every publish path.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use deeplens_analyze::sync::{LockRank, OrderedMutex, OrderedRwLock};

use crate::cache::{ResultCache, DEFAULT_RESULT_CACHE_CAPACITY};
use crate::catalog::{PatchCollection, PatchIdRange};
use crate::optimizer::CostModel;
use crate::patch::{Patch, PatchId};
use crate::{DlError, Result};

/// Default number of collection shards.
pub const DEFAULT_SHARDS: usize = 16;

/// A catalog shared by concurrent query sessions: sharded collection map,
/// copy-on-write collection snapshots and a lock-free patch-id allocator.
#[derive(Debug)]
pub struct SharedCatalog {
    shards: Vec<OrderedRwLock<HashMap<String, Arc<PatchCollection>>>>,
    next_id: AtomicU64,
    /// Slot numbers of the currently attached sessions. Each session holds
    /// the lowest slot that was free when it attached; the *rank* of a
    /// session's slot within this set decides which sessions receive the
    /// remainder threads of an uneven budget split
    /// ([`SharedCatalog::session_thread_share`]).
    session_slots: OrderedMutex<BTreeSet<usize>>,
    /// Monotonic publish counter behind the collection snapshot versions:
    /// every publish (materialize, copy-on-write index or columnar build)
    /// stamps the new snapshot with the next value, so versions are
    /// globally unique across collections and a `(version, query)` result
    /// cache key can never alias. `0` is reserved for "unversioned".
    version_counter: AtomicU64,
    /// The snapshot-keyed result cache sessions consult. Invalidation is
    /// the version counter: post-write keys never match pre-write entries.
    result_cache: ResultCache,
    /// Ball indexes [`SharedCatalog::materialize`] carried by delta
    /// maintenance, and Ball-index deltas it merged into a rebuild.
    delta_maintained: AtomicU64,
    delta_merges: AtomicU64,
}

impl Default for SharedCatalog {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

impl SharedCatalog {
    /// An empty shared catalog with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty shared catalog with an explicit shard count (minimum 1) and
    /// a result cache of [`DEFAULT_RESULT_CACHE_CAPACITY`] entries.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_cache(shards, DEFAULT_RESULT_CACHE_CAPACITY)
    }

    /// [`SharedCatalog::with_shards`] with an explicit result-cache entry
    /// budget. The cache stores an answer once its query repeats, so a
    /// query asked once never takes an entry. `cache_capacity == 0`
    /// disables result caching — the uncached reference configuration the
    /// byte-identity tests compare against.
    pub fn with_shards_and_cache(shards: usize, cache_capacity: usize) -> Self {
        SharedCatalog {
            shards: (0..shards.max(1))
                .map(|_| {
                    OrderedRwLock::new(
                        LockRank::CatalogShard,
                        "SharedCatalog::shards",
                        HashMap::new(),
                    )
                })
                .collect(),
            next_id: AtomicU64::new(0),
            session_slots: OrderedMutex::new(
                LockRank::SessionSlots,
                "SharedCatalog::session_slots",
                BTreeSet::new(),
            ),
            version_counter: AtomicU64::new(0),
            result_cache: ResultCache::with_capacity(cache_capacity),
            delta_maintained: AtomicU64::new(0),
            delta_merges: AtomicU64::new(0),
        }
    }

    /// The snapshot-keyed result cache: a bounded LRU that stores an answer
    /// once its query repeats (see [`crate::cache`]).
    pub fn result_cache(&self) -> &ResultCache {
        &self.result_cache
    }

    /// Ball indexes this catalog's re-materializes carried by delta
    /// maintenance, without a rebuild.
    pub fn index_deltas_maintained(&self) -> u64 {
        self.delta_maintained.load(Ordering::Relaxed)
    }

    /// Ball-index deltas this catalog's re-materializes merged into a full
    /// rebuild (the serve stats endpoint reports this as `delta_merges`).
    pub fn index_delta_merges(&self) -> u64 {
        self.delta_merges.load(Ordering::Relaxed)
    }

    /// The next globally unique snapshot version (never 0).
    fn next_version(&self) -> u64 {
        self.version_counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Number of shards the collection map is split across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// FNV-1a over the collection name picks the shard; stable across runs
    /// so shard-count experiments are reproducible.
    fn shard_of(&self, name: &str) -> &OrderedRwLock<HashMap<String, Arc<PatchCollection>>> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    // ---- patch ids (lock-free) -------------------------------------------

    /// Allocate a fresh patch id.
    pub fn next_patch_id(&self) -> PatchId {
        PatchId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Reserve `n` consecutive patch ids in one atomic step. Concurrent
    /// sessions get disjoint ranges without taking any latch.
    pub fn reserve_patch_ids(&self, n: u64) -> PatchIdRange {
        let start = self.next_id.fetch_add(n, Ordering::Relaxed);
        PatchIdRange::from_reservation(start, n)
    }

    // ---- collections ------------------------------------------------------

    /// Materialize `patches` under `name`.
    ///
    /// The collection is fully constructed before the shard's write latch is
    /// taken, so readers only ever see it complete. Returns the snapshot it
    /// replaced (if any) so concurrent writers cannot clobber each other
    /// invisibly; use [`SharedCatalog::materialize_new`] to make the
    /// conflict a hard error instead.
    ///
    /// The replaced version's indexes are carried forward in one off-latch
    /// pass ([`PatchCollection::carry_from`]): hash indexes are rebuilt over
    /// the new rows, and Ball indexes are **delta-maintained** — unchanged
    /// rows keep the prior tree; only a cost-model-priced merge triggers a
    /// full rebuild. Column chunks are not carried: the new version's first
    /// scan encodes its own. The prior snapshot is peeked under the shard's
    /// *read* latch, which is released before the write latch is taken
    /// (ordering rule 1); a version raced in between the peek and the
    /// publish is missed, which only costs a dropped carry, never
    /// correctness. The publish stamps a fresh snapshot version, so
    /// result cache entries keyed to the replaced version can never be
    /// served again.
    pub fn materialize(&self, name: &str, patches: Vec<Patch>) -> Option<Arc<PatchCollection>> {
        let prior = self.shard_of(name).read().get(name).cloned();
        let mut collection = PatchCollection::from_patches(patches);
        if let Some(prior) = &prior {
            let carried = collection.carry_from(prior, &CostModel::default(), 1);
            self.delta_maintained
                .fetch_add(carried.maintained, Ordering::Relaxed);
            self.delta_merges
                .fetch_add(carried.merged, Ordering::Relaxed);
        }
        collection.set_version(self.next_version());
        self.shard_of(name)
            .write()
            .insert(name.to_string(), Arc::new(collection))
    }

    /// [`SharedCatalog::materialize`] that refuses to replace: errors with
    /// [`DlError::Conflict`] if `name` already exists (checked under the
    /// shard's write latch, so two racing `materialize_new` calls cannot
    /// both succeed), leaving existing state untouched.
    pub fn materialize_new(&self, name: &str, patches: Vec<Patch>) -> Result<()> {
        // Construct outside the latch; the occupancy check and the insert
        // both happen inside it, so a loser has zero side effects.
        let mut collection = PatchCollection::from_patches(patches);
        collection.set_version(self.next_version());
        let collection = Arc::new(collection);
        let mut shard = self.shard_of(name).write();
        if shard.contains_key(name) {
            return Err(DlError::Conflict(format!(
                "collection '{name}' already exists"
            )));
        }
        shard.insert(name.to_string(), collection);
        Ok(())
    }

    /// A consistent snapshot of collection `name`. The returned [`Arc`] is
    /// immutable and latch-free: concurrent writers publish *new* versions
    /// instead of mutating this one.
    pub fn snapshot(&self, name: &str) -> Result<Arc<PatchCollection>> {
        self.shard_of(name)
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DlError::NotFound(format!("collection '{name}'")))
    }

    /// Consistent snapshots of several collections, in input order.
    ///
    /// Each name's shard latch is taken (and released) independently — one
    /// latch at a time, per ordering rule 1 — so the result is per-name
    /// consistent rather than a global atomic cut, the same guarantee a
    /// sequence of [`SharedCatalog::snapshot`] calls gives. Fails with the
    /// first missing name in input order. Batched query execution resolves
    /// its scan sources through this.
    pub fn snapshot_many(&self, names: &[&str]) -> Result<Vec<Arc<PatchCollection>>> {
        names.iter().map(|n| self.snapshot(n)).collect()
    }

    /// Drop a collection, returning its final snapshot if it existed.
    pub fn drop_collection(&self, name: &str) -> Option<Arc<PatchCollection>> {
        self.shard_of(name).write().remove(name)
    }

    /// Names of all materialized collections, sorted. Shards are visited
    /// sequentially (one latch at a time), so the listing is consistent per
    /// shard but not a global atomic snapshot — the same guarantee a
    /// directory listing gives.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort_unstable();
        names
    }

    /// Run a copy-on-write mutation against collection `name` under its
    /// shard's write latch. If readers hold snapshots of the current
    /// version, the collection is cloned and the clone mutated — their
    /// snapshots stay consistent; otherwise the sole copy is mutated in
    /// place. Either way the mutated collection is stamped with a fresh
    /// snapshot version (an in-place mutation makes the old version
    /// unreachable, so retiring its number is exactly right) — result
    /// cache entries keyed to the pre-mutation version go permanently
    /// unmatchable.
    fn update_collection<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut PatchCollection) -> T,
    ) -> Result<T> {
        let mut shard = self.shard_of(name).write();
        let slot = shard
            .get_mut(name)
            .ok_or_else(|| DlError::NotFound(format!("collection '{name}'")))?;
        let collection = Arc::make_mut(slot);
        let out = f(collection);
        collection.set_version(self.next_version());
        Ok(out)
    }

    /// Build (or rebuild) a hash index on metadata `key` of collection
    /// `collection` under `index_name`.
    pub fn build_hash_index(&self, collection: &str, index_name: &str, key: &str) -> Result<()> {
        self.update_collection(collection, |c| c.build_hash_index(index_name, key))?
    }

    /// Encode collection `collection`'s column chunks now and publish them
    /// as a new version, so its first scan does not pay for the encoding.
    /// Without this call the first [`PatchCollection::scan`] encodes them.
    pub fn build_columnar(&self, collection: &str) -> Result<()> {
        self.update_collection(collection, PatchCollection::build_columnar)
    }

    /// Build a Ball-Tree over feature payloads with up to `threads` build
    /// workers.
    ///
    /// Unlike the cheap O(n) index builds above, Ball-Tree construction is
    /// O(n log n) and must not stall the shard: the build runs **off-latch**
    /// against a private clone of the current snapshot, and the shard's
    /// write latch is taken only for the final pointer swap. If another
    /// writer replaced the collection mid-build, the build retries against
    /// the new version (so the index always describes the patches it is
    /// published with); after a few lost races it falls back to building
    /// under the shard's write latch, so a sustained republisher can delay
    /// the build but never livelock it.
    pub fn build_ball_index(
        &self,
        collection: &str,
        index_name: &str,
        threads: usize,
    ) -> Result<()> {
        const OPTIMISTIC_TRIES: usize = 3;
        for _ in 0..OPTIMISTIC_TRIES {
            let before = self.snapshot(collection)?;
            let mut copy = (*before).clone();
            copy.build_ball_index(index_name, threads)?;
            let mut shard = self.shard_of(collection).write();
            let slot = shard
                .get_mut(collection)
                .ok_or_else(|| DlError::NotFound(format!("collection '{collection}'")))?;
            if Arc::ptr_eq(slot, &before) {
                copy.set_version(self.next_version());
                *slot = Arc::new(copy);
                return Ok(());
            }
            // Lost a race with materialize/drop+re-materialize: the index
            // we built describes a superseded version. Rebuild over the
            // current one.
        }
        // Pessimistic fallback: build while holding the write latch. Readers
        // of this shard stall for the build, but the operation terminates.
        self.update_collection(collection, |c| c.build_ball_index(index_name, threads))?
    }

    // ---- session tracking -------------------------------------------------

    /// Number of sessions currently attached (drives per-session thread
    /// budgets; see `Session::pool`).
    pub fn active_sessions(&self) -> usize {
        self.session_slots.lock().len()
    }

    /// Attach a session, returning the slot it occupies: the lowest slot
    /// number not currently held. Slots are recycled on detach, so a
    /// long-lived catalog serving churning sessions keeps its slot numbers
    /// dense.
    pub(crate) fn attach_session(&self) -> usize {
        let mut slots = self.session_slots.lock();
        // `len` slots are taken, so one of the `len + 1` candidates is free.
        let slot = (0..=slots.len())
            .find(|s| !slots.contains(s))
            .unwrap_or(slots.len());
        slots.insert(slot);
        slot
    }

    pub(crate) fn detach_session(&self, slot: usize) {
        self.session_slots.lock().remove(&slot);
    }

    /// The share of `budget` threads the session holding `slot` may
    /// use right now: `budget / n` for each of the `n` attached sessions,
    /// with the `budget % n` remainder threads granted one-each to the
    /// sessions of lowest slot rank — so the shares always sum to exactly
    /// `budget` (when `n <= budget`) instead of stranding the remainder.
    /// Never below one thread; a detached caller (slot not present) gets
    /// the even share with no remainder claim.
    pub fn session_thread_share(&self, slot: usize, budget: usize) -> usize {
        let slots = self.session_slots.lock();
        let n = slots.len().max(1);
        let base = budget / n;
        let rank = slots.iter().position(|s| *s == slot);
        let extra = match rank {
            Some(r) if r < budget % n => 1,
            _ => 0,
        };
        (base + extra).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::ImgRef;
    use crate::value::Value;

    fn feat_patches(cat: &SharedCatalog, n: u64, tag: i64) -> Vec<Patch> {
        (0..n)
            .map(|i| {
                Patch::features(
                    cat.next_patch_id(),
                    ImgRef::frame("cam", i),
                    vec![i as f32, 1.0],
                )
                .with_meta("tag", tag)
            })
            .collect()
    }

    #[test]
    fn materialize_snapshot_drop_roundtrip() {
        let cat = SharedCatalog::with_shards(4);
        assert!(cat.materialize("a", feat_patches(&cat, 5, 0)).is_none());
        assert_eq!(cat.snapshot("a").unwrap().len(), 5);
        assert!(cat.snapshot("missing").is_err());
        assert_eq!(cat.names(), vec!["a".to_string()]);
        let dropped = cat.drop_collection("a").unwrap();
        assert_eq!(dropped.len(), 5);
        assert!(cat.drop_collection("a").is_none());
        assert!(cat.names().is_empty());
    }

    #[test]
    fn replaced_collection_is_returned() {
        let cat = SharedCatalog::new();
        let first = feat_patches(&cat, 3, 1);
        let first_id = first[0].id;
        assert!(cat.materialize("c", first).is_none(), "fresh name");
        let replaced = cat.materialize("c", feat_patches(&cat, 7, 2)).unwrap();
        assert_eq!(replaced.len(), 3, "the clobbered version comes back");
        assert_eq!(replaced.patches[0].id, first_id, "with its patches");
        assert_eq!(cat.snapshot("c").unwrap().len(), 7);
    }

    #[test]
    fn materialize_new_conflicts() {
        let cat = SharedCatalog::new();
        cat.materialize_new("c", feat_patches(&cat, 2, 0)).unwrap();
        let err = cat
            .materialize_new("c", feat_patches(&cat, 2, 1))
            .unwrap_err();
        assert!(matches!(err, DlError::Conflict(_)), "got {err:?}");
        let snap = cat.snapshot("c").unwrap();
        assert_eq!(
            snap.patches[0].get_int("tag"),
            Some(0),
            "loser changed nothing"
        );
    }

    #[test]
    fn snapshots_survive_replacement_and_reindex() {
        // Copy-on-write: a reader's snapshot is immutable even while a
        // writer replaces the collection and builds indexes on it.
        let cat = SharedCatalog::new();
        cat.materialize("c", feat_patches(&cat, 10, 1));
        let before = cat.snapshot("c").unwrap();
        cat.build_hash_index("c", "by_tag", "tag").unwrap();
        assert!(
            before.index_names().is_empty(),
            "pre-index snapshot cannot grow an index"
        );
        let indexed = cat.snapshot("c").unwrap();
        assert_eq!(
            indexed
                .lookup_eq("by_tag", &Value::from(1i64))
                .unwrap()
                .len(),
            10
        );
        cat.materialize("c", feat_patches(&cat, 4, 2));
        assert_eq!(before.len(), 10, "old snapshot still consistent");
        assert_eq!(cat.snapshot("c").unwrap().len(), 4);
    }

    #[test]
    fn index_builds_route_through_cow() {
        let cat = SharedCatalog::with_shards(2);
        cat.materialize("c", feat_patches(&cat, 20, 3));
        cat.build_hash_index("c", "by_tag", "tag").unwrap();
        cat.build_ball_index("c", "by_feat", 2).unwrap();
        let snap = cat.snapshot("c").unwrap();
        let mut names = snap.index_names();
        names.sort_unstable();
        assert_eq!(names, vec!["by_feat", "by_tag"]);
        assert!(cat.build_hash_index("missing", "i", "k").is_err());
        assert!(!snap
            .lookup_similar("by_feat", &[0.0, 1.0], 0.5)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn reserved_id_ranges_are_disjoint_and_dense() {
        let cat = SharedCatalog::new();
        let a = cat.next_patch_id();
        let mut r1 = cat.reserve_patch_ids(3);
        let mut r2 = cat.reserve_patch_ids(2);
        let b = cat.next_patch_id();
        let mut seen = vec![a.0, b.0];
        for _ in 0..3 {
            seen.push(r1.alloc().0);
        }
        for _ in 0..2 {
            seen.push(r2.alloc().0);
        }
        assert_eq!(r1.used(), 3);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 7, "no id is handed out twice");
        assert_eq!(seen, (0..7).collect::<Vec<u64>>(), "ids stay dense");
    }

    #[test]
    fn id_ranges_disjoint_across_threads() {
        let cat = SharedCatalog::new();
        let ranges: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let r = cat.reserve_patch_ids(100);
                        (r.start(), r.start() + 100)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = ranges.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(w[0].1 <= w[1].0, "ranges overlap: {w:?}");
        }
        assert_eq!(sorted.last().unwrap().1, 800, "ids stay dense");
    }

    #[test]
    fn snapshot_many_resolves_in_order() {
        let cat = SharedCatalog::with_shards(4);
        cat.materialize("a", feat_patches(&cat, 2, 0));
        cat.materialize("b", feat_patches(&cat, 5, 1));
        let snaps = cat.snapshot_many(&["b", "a", "b"]).unwrap();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].len(), 5);
        assert_eq!(snaps[1].len(), 2);
        assert!(Arc::ptr_eq(&snaps[0], &snaps[2]), "same version resolves");
        assert!(matches!(
            cat.snapshot_many(&["a", "missing", "b"]),
            Err(DlError::NotFound(_))
        ));
    }

    #[test]
    fn thread_shares_sum_to_the_budget() {
        let cat = SharedCatalog::new();
        let slots: Vec<usize> = (0..3).map(|_| cat.attach_session()).collect();
        assert_eq!(slots, vec![0, 1, 2], "lowest free slot first");
        for budget in [1usize, 3, 7, 8, 16] {
            let shares: Vec<usize> = slots
                .iter()
                .map(|s| cat.session_thread_share(*s, budget))
                .collect();
            assert_eq!(
                shares.iter().sum::<usize>(),
                budget.max(slots.len()),
                "budget {budget}: shares {shares:?}"
            );
            // Deterministic: remainder goes to the lowest ranks, so shares
            // are non-increasing in rank.
            assert!(shares.windows(2).all(|w| w[0] >= w[1]));
        }
        // Slots recycle on detach.
        cat.detach_session(1);
        assert_eq!(cat.attach_session(), 1);
        // A detached (unknown) slot gets the even share, no remainder claim.
        assert_eq!(cat.session_thread_share(99, 8), 2);
        assert_eq!(cat.session_thread_share(99, 1), 1, "never zero");
    }

    #[test]
    fn shard_count_bounds() {
        assert_eq!(SharedCatalog::with_shards(0).shard_count(), 1);
        assert_eq!(SharedCatalog::new().shard_count(), DEFAULT_SHARDS);
        // Names spread across shards still list completely and sorted.
        let cat = SharedCatalog::with_shards(3);
        for name in ["zz", "aa", "mm", "bb"] {
            cat.materialize(name, vec![]);
        }
        assert_eq!(cat.names(), vec!["aa", "bb", "mm", "zz"]);
    }
}
