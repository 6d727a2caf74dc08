//! Snapshot-keyed result cache: repeated queries over unchanged data are
//! free.
//!
//! A [`ResultCache`] is a bounded, sharded LRU owned by the shared catalog
//! and consulted by [`Session`](crate::session::Session) query methods
//! (`join_collections`, `dedup_collection`, `scan`, `scan_count`) and by
//! batched execution ([`QueryBatch::run`](crate::batch::QueryBatch::run)).
//! Keys are **canonical byte fingerprints**, never hashes: a tag byte for
//! the query shape, the snapshot **versions** of every collection the query
//! reads, and the query's own parameters (thresholds as exact `f32` bits,
//! filter values via the order-preserving [`Value::encode_key`](crate::value::Value::encode_key) encoding).
//! Two distinct queries therefore can never collide, and a cached value is
//! byte-identical to re-executing the query — the property the batch
//! layer's determinism contract requires.
//!
//! **Invalidation is free.** Snapshot versions are stamped by
//! `SharedCatalog` from a global counter on every publish (materialize,
//! copy-on-write index build, columnar build), so a write produces a
//! version that has never been seen before: post-write queries build keys
//! that cannot match any cached entry, and stale entries age out of the
//! LRU instead of being hunted down. A collection that has never been
//! published with a version (`version() == 0`, e.g. a free-standing
//! `PatchCollection::from_patches`) is never cached — [`fingerprint`] builders
//! return `None` for it, as they do for queries that cannot be
//! fingerprinted at all (θ-predicate joins carry host closures).
//!
//! **Admission on the second sighting.** An answer is stored only when its
//! query has been offered before: a small set of *query hashes* per shard
//! (TinyLFU's "doorkeeper", Einziger, Friedman & Manes, ToS 2017) records
//! the first offer, and the answer is dropped. A query hash is FNV-1a over
//! the key with its snapshot versions skipped, so a query asked again after
//! a write is stored on its first miss at the new version. A one-shot query
//! — every `Full` scan of a fresh window — is answered and never held. A
//! hash collision can only admit an answer early; entries are still matched
//! by their exact key bytes. The set is cleared when full (TinyLFU's
//! reset).
//!
//! **Locking.** The query hash picks the shard, so every version of a query
//! — its sightings and its entries — lives in one shard; each shard is an
//! `OrderedMutex` at [`LockRank::ResultCacheShard`] — the innermost rank in
//! the workspace lock table. Lookups clone the value out under the shard
//! lock and never acquire anything else while holding it. A scan reply's
//! rows are shared ([`ScanRows`](crate::scan::ScanRows)), so that clone —
//! and the insert's — is a reference-count bump, not a copy of the rows.
//! Values an insert refuses or evicts are dropped after the shard lock is
//! released.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use deeplens_analyze::sync::{LockRank, OrderedMutex};

use crate::batch::BatchResult;
use crate::scan::{Projection, ScanFilter, ScanResult};

/// Default total entry budget of a catalog's result cache.
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 1024;

/// Number of lock shards the entry map splits across.
const CACHE_SHARDS: usize = 8;

/// Query hashes the doorkeepers of all shards remember before each clears.
const DOORKEEPER_HASHES: usize = 4096;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A cached query answer. `Batch` holds every batch-shaped result (join
/// pairs, dedup clusters, probe hits); `Scan` holds a full scan reply,
/// including the stats of the execution that populated the entry (a replay
/// reports the original counters — it did no chunk work of its own).
#[derive(Debug, Clone)]
pub enum CachedResult {
    /// A batch member's result (also what the serial join/dedup cache).
    Batch(BatchResult),
    /// A scan's materialized patches and stats.
    Scan(ScanResult),
}

#[derive(Debug)]
struct Entry {
    /// LRU stamp: the shard clock at last touch.
    stamp: u64,
    value: CachedResult,
}

#[derive(Debug, Default)]
struct Shard {
    clock: u64,
    map: HashMap<Vec<u8>, Entry>,
    /// The doorkeeper: hashes of queries offered once and not stored.
    seen: HashSet<u64>,
}

/// FNV-1a of `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The hash of the query `key` names, whatever snapshot it was asked of:
/// FNV-1a over the tag byte and the parameters, skipping the versions of
/// the [`fingerprint`] layout `[tag][version(s)][params]`. A key with an
/// unknown tag, or too short to hold its versions, is hashed whole.
fn query_hash(key: &[u8]) -> u64 {
    let parts = key.split_first().and_then(|(tag, rest)| {
        let params = rest.get(fingerprint::version_bytes(*tag)?..)?;
        Some((std::slice::from_ref(tag), params))
    });
    match parts {
        Some((tag, params)) => fnv1a(fnv1a(FNV_OFFSET, tag), params),
        None => fnv1a(FNV_OFFSET, key),
    }
}

/// Bounded, sharded, exact-key LRU over canonical query fingerprints that
/// stores an answer only once its query repeats.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<OrderedMutex<Shard>>,
    /// Max entries per shard; `0` disables the cache entirely.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RESULT_CACHE_CAPACITY)
    }
}

impl ResultCache {
    /// A cache bounded to roughly `capacity` entries (split evenly across
    /// the lock shards). `capacity == 0` disables caching: every lookup
    /// misses and inserts are dropped — the uncached reference
    /// configuration benchmarks and identity tests run against.
    pub fn with_capacity(capacity: usize) -> Self {
        ResultCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| {
                    OrderedMutex::new(
                        LockRank::ResultCacheShard,
                        "ResultCache::shards",
                        Shard::default(),
                    )
                })
                .collect(),
            shard_capacity: capacity.div_ceil(CACHE_SHARDS) * usize::from(capacity > 0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The lock shard of the query hashing to `query`, picked by the high
    /// half: FNV-1a's low bits depend only on the low bits of each byte.
    fn shard(&self, query: u64) -> &OrderedMutex<Shard> {
        &self.shards[((query >> 32) % CACHE_SHARDS as u64) as usize]
    }

    /// Look `key` up, promoting the entry to most-recently-used and
    /// cloning its value out (O(1) for a scan reply, whose rows are
    /// shared). Counts a hit or a miss.
    pub fn get(&self, key: &[u8]) -> Option<CachedResult> {
        let mut shard = self.shard(query_hash(key)).lock();
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = clock;
                let value = entry.value.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether `key` is resident, without promoting it or counting a hit.
    /// No engine path calls it; it is for a caller that prices a request by
    /// what would hit before the real lookup does the counting.
    pub fn peek(&self, key: &[u8]) -> bool {
        self.shard(query_hash(key)).lock().map.contains_key(key)
    }

    /// Offer the answer to `key`. A resident key is refreshed: it becomes
    /// most-recently-used and keeps its value, since one key always names
    /// byte-identical answers. Otherwise the answer is stored only if its
    /// query has been offered before (under any snapshot version), evicting
    /// the shard's least-recently-used entry if the shard is over budget; a
    /// first offer is recorded and the answer dropped. A no-op when
    /// disabled. Refused and evicted values are freed after the shard lock
    /// is released, so a lookup on the shard never waits for a large reply
    /// to be dropped.
    pub fn insert(&self, key: Vec<u8>, value: CachedResult) {
        if self.shard_capacity == 0 {
            return;
        }
        let query = query_hash(&key);
        // An early return drops the guard before `value`: parameters
        // outlive the locals of the body.
        let mut shard = self.shard(query).lock();
        shard.clock += 1;
        let stamp = shard.clock;
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.stamp = stamp;
            return;
        }
        if !shard.seen.contains(&query) {
            if shard.seen.len() >= DOORKEEPER_HASHES / CACHE_SHARDS {
                shard.seen.clear();
            }
            shard.seen.insert(query);
            return;
        }
        shard.map.insert(key, Entry { stamp, value });
        let mut evicted = None;
        if shard.map.len() > self.shard_capacity {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                evicted = shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(shard);
        drop(evicted);
    }

    /// Lookups served from cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to execution since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU bound since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Resident entries across all shards (test/diagnostic).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Canonical fingerprint builders. Each returns `None` when the query is
/// uncacheable: an involved snapshot is unversioned (`version == 0`) or
/// the query carries state that cannot be serialized (host predicates).
pub mod fingerprint {
    use super::*;

    /// Query-shape tags (the first key byte). Distinct per shape so keys
    /// of different shapes can never alias.
    const TAG_JOIN: u8 = 1;
    const TAG_DEDUP: u8 = 2;
    const TAG_PROBE: u8 = 3;
    const TAG_SCAN: u8 = 4;

    /// Bytes of snapshot versions that follow `tag` in a key of that shape
    /// (`None` for a tag no builder writes).
    pub(super) fn version_bytes(tag: u8) -> Option<usize> {
        match tag {
            TAG_JOIN => Some(16),
            TAG_DEDUP | TAG_PROBE | TAG_SCAN => Some(8),
            _ => None,
        }
    }

    fn push_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_be_bytes());
    }

    fn push_f32(buf: &mut Vec<u8>, v: f32) {
        buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    fn push_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    fn push_str(buf: &mut Vec<u8>, s: &str) {
        push_u64(buf, s.len() as u64);
        buf.extend_from_slice(s.as_bytes());
    }

    /// Key of an unpredicated similarity join `left × right` within `tau`.
    pub fn join_key(left_version: u64, right_version: u64, tau: f32) -> Option<Vec<u8>> {
        if left_version == 0 || right_version == 0 {
            return None;
        }
        let mut key = vec![TAG_JOIN];
        push_u64(&mut key, left_version);
        push_u64(&mut key, right_version);
        push_f32(&mut key, tau);
        Some(key)
    }

    /// Key of a similarity dedup of one collection within `tau`.
    pub fn dedup_key(version: u64, tau: f32) -> Option<Vec<u8>> {
        if version == 0 {
            return None;
        }
        let mut key = vec![TAG_DEDUP];
        push_u64(&mut key, version);
        push_f32(&mut key, tau);
        Some(key)
    }

    /// Key of a prebuilt-index range probe.
    pub fn probe_key(version: u64, index: &str, probe: &[f32], tau: f32) -> Option<Vec<u8>> {
        if version == 0 {
            return None;
        }
        let mut key = vec![TAG_PROBE];
        push_u64(&mut key, version);
        push_str(&mut key, index);
        push_f32(&mut key, tau);
        push_u64(&mut key, probe.len() as u64);
        for &v in probe {
            push_f32(&mut key, v);
        }
        Some(key)
    }

    /// Key of a scan with `filter` under `projection`.
    pub fn scan_key(version: u64, filter: &ScanFilter, projection: Projection) -> Option<Vec<u8>> {
        if version == 0 {
            return None;
        }
        let mut key = vec![TAG_SCAN];
        push_u64(&mut key, version);
        key.push(match projection {
            Projection::Full => 0,
            Projection::MetaOnly => 1,
            Projection::Count => 2,
        });
        match filter {
            ScanFilter::All => key.push(0),
            ScanFilter::FrameRange { lo, hi } => {
                key.push(1);
                push_u64(&mut key, *lo);
                push_u64(&mut key, *hi);
            }
            ScanFilter::MetaEq { key: k, value } => {
                key.push(2);
                push_str(&mut key, k);
                // Value::encode_key is injective per value, so equality of
                // fingerprints is equality of filters.
                key.extend_from_slice(&value.encode_key());
            }
            ScanFilter::MetaRange { key: k, lo, hi } => {
                key.push(3);
                push_str(&mut key, k);
                push_f64(&mut key, *lo);
                push_f64(&mut key, *hi);
            }
        }
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::fingerprint::*;
    use super::*;

    #[test]
    fn unversioned_snapshots_are_uncacheable() {
        assert!(join_key(0, 3, 1.0).is_none());
        assert!(join_key(3, 0, 1.0).is_none());
        assert!(dedup_key(0, 1.0).is_none());
        assert!(probe_key(0, "i", &[1.0], 1.0).is_none());
        assert!(scan_key(0, &ScanFilter::All, Projection::Count).is_none());
    }

    #[test]
    fn keys_separate_by_shape_version_and_params() {
        let keys = [
            join_key(1, 2, 1.0).unwrap(),
            join_key(2, 1, 1.0).unwrap(),
            join_key(1, 2, 1.5).unwrap(),
            dedup_key(1, 1.0).unwrap(),
            dedup_key(2, 1.0).unwrap(),
            probe_key(1, "a", &[1.0, 2.0], 1.0).unwrap(),
            probe_key(1, "a", &[1.0], 2.0).unwrap(),
            probe_key(1, "b", &[1.0, 2.0], 1.0).unwrap(),
            scan_key(1, &ScanFilter::All, Projection::Count).unwrap(),
            scan_key(1, &ScanFilter::All, Projection::Full).unwrap(),
            scan_key(
                1,
                &ScanFilter::FrameRange { lo: 1, hi: 2 },
                Projection::Full,
            )
            .unwrap(),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// A string-valued `MetaEq` scan's fingerprint, pinned byte for byte:
    /// cached answers stay addressable whatever a string value's in-memory
    /// representation.
    #[test]
    fn string_filter_fingerprint_is_pinned() {
        use crate::value::Value;
        let filter = ScanFilter::MetaEq {
            key: "label".into(),
            value: Value::Str("car".into()),
        };
        let key = scan_key(3, &filter, Projection::Full).unwrap();
        let want: &[u8] = &[
            4, // TAG_SCAN
            0, 0, 0, 0, 0, 0, 0, 3, // version
            0, // Projection::Full
            2, // MetaEq
            0, 0, 0, 0, 0, 0, 0, 5, b'l', b'a', b'b', b'e', b'l', // key
            4, b'c', b'a', b'r', // Value::encode_key
        ];
        assert_eq!(key, want);
        assert_eq!(query_hash(&key), 0xf5ff_2931_c67f_06e2);
    }

    fn hits(n: u32) -> CachedResult {
        CachedResult::Batch(BatchResult::Hits((0..n).collect()))
    }

    #[test]
    fn lru_bounds_and_counts() {
        let cache = ResultCache::with_capacity(CACHE_SHARDS); // 1 per shard
        assert!(cache.get(b"missing").is_none());
        assert_eq!(cache.misses(), 1);
        for i in 0..64u64 {
            let value = CachedResult::Batch(BatchResult::Hits(vec![i as u32]));
            // The first offer is only recorded; the second is stored.
            cache.insert(i.to_be_bytes().to_vec(), value.clone());
            assert!(!cache.peek(&i.to_be_bytes()), "stored on first offer");
            cache.insert(i.to_be_bytes().to_vec(), value);
            assert!(cache.peek(&i.to_be_bytes()), "not stored on second offer");
        }
        assert!(cache.len() <= CACHE_SHARDS, "bounded: {}", cache.len());
        assert!(cache.evictions() >= 64 - CACHE_SHARDS as u64);
        // A resident entry round-trips byte-identically.
        let resident = (0..64u64)
            .find(|i| cache.peek(&i.to_be_bytes()))
            .expect("something resident");
        match cache.get(&resident.to_be_bytes()) {
            Some(CachedResult::Batch(BatchResult::Hits(h))) => {
                assert_eq!(h, vec![resident as u32]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResultCache::with_capacity(0);
        for _ in 0..3 {
            cache.insert(vec![1], CachedResult::Batch(BatchResult::Hits(vec![])));
        }
        assert!(cache.is_empty());
        assert!(cache.get(&[1]).is_none());
    }

    #[test]
    fn query_hash_skips_versions_and_keeps_params() {
        let filter = ScanFilter::FrameRange { lo: 1, hi: 9 };
        let shapes: [(Vec<u8>, Vec<u8>, Vec<u8>); 4] = [
            (
                join_key(1, 2, 1.0).unwrap(),
                join_key(70, 3, 1.0).unwrap(),
                join_key(1, 2, 1.5).unwrap(),
            ),
            (
                dedup_key(1, 1.0).unwrap(),
                dedup_key(9, 1.0).unwrap(),
                dedup_key(1, 2.0).unwrap(),
            ),
            (
                probe_key(1, "a", &[1.0, 2.0], 1.0).unwrap(),
                probe_key(5, "a", &[1.0, 2.0], 1.0).unwrap(),
                probe_key(1, "a", &[1.0, 3.0], 1.0).unwrap(),
            ),
            (
                scan_key(1, &filter, Projection::Full).unwrap(),
                scan_key(4, &filter, Projection::Full).unwrap(),
                scan_key(1, &filter, Projection::MetaOnly).unwrap(),
            ),
        ];
        for (key, other_version, other_params) in &shapes {
            assert_ne!(key, other_version);
            assert_eq!(query_hash(key), query_hash(other_version), "{key:?}");
            assert_ne!(query_hash(key), query_hash(other_params), "{key:?}");
        }
    }

    #[test]
    fn keys_of_any_shape_hash_and_cache_without_panicking() {
        for tag in 0..=u8::MAX {
            let cache = ResultCache::with_capacity(64);
            for len in 0..=40u8 {
                let key: Vec<u8> = (0..len).map(|i| if i == 0 { tag } else { i }).collect();
                query_hash(&key);
                assert!(cache.get(&key).is_none());
                cache.insert(key.clone(), hits(1));
                cache.insert(key.clone(), hits(1));
                assert!(cache.peek(&key));
            }
        }
    }

    #[test]
    fn the_first_offer_is_dropped_and_a_later_version_is_stored_at_once() {
        let cache = ResultCache::default();
        let at = |v| dedup_key(v, 1.0).unwrap();
        cache.insert(at(1), hits(3));
        assert!(cache.is_empty(), "one offer stores nothing");
        cache.insert(at(1), hits(3));
        assert!(cache.peek(&at(1)));
        cache.insert(at(1), hits(3));
        assert_eq!(cache.len(), 1, "a resident key is refreshed in place");
        cache.insert(at(2), hits(3));
        assert!(cache.peek(&at(2)), "the query was seen at version 1");
        cache.insert(dedup_key(2, 2.0).unwrap(), hits(3));
        assert_eq!(cache.len(), 2, "a new tau is a new query");
    }

    #[test]
    fn one_shot_queries_store_nothing_and_the_doorkeeper_stays_bounded() {
        let cache = ResultCache::default();
        let window = |lo| {
            scan_key(
                1,
                &ScanFilter::FrameRange { lo, hi: lo + 100 },
                Projection::Full,
            )
            .unwrap()
        };
        for lo in 0..10 * DOORKEEPER_HASHES as u64 {
            cache.insert(window(lo), hits(1));
        }
        assert!(cache.is_empty(), "a one-shot answer was stored");
        assert_eq!(cache.evictions(), 0);
        for shard in &cache.shards {
            assert!(shard.lock().seen.len() <= DOORKEEPER_HASHES / CACHE_SHARDS);
        }
        // Many small repeated answers stay within the entry bound.
        for lo in 0..4 * DEFAULT_RESULT_CACHE_CAPACITY as u64 {
            cache.insert(window(lo), hits(1));
            cache.insert(window(lo), hits(1));
        }
        let shard_capacity = DEFAULT_RESULT_CACHE_CAPACITY / CACHE_SHARDS;
        for shard in &cache.shards {
            assert!(shard.lock().map.len() <= shard_capacity);
        }
        assert!(cache.evictions() > 0);
    }
}
