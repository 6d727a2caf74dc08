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
//! **Locking.** Entries shard by FNV-1a of the key; each shard is an
//! `OrderedMutex` at [`LockRank::ResultCacheShard`] — the innermost rank in
//! the workspace lock table. Lookups clone the value out under the shard
//! lock and never acquire anything else while holding it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use deeplens_analyze::sync::{LockRank, OrderedMutex};

use crate::batch::BatchResult;
use crate::scan::{Projection, ScanFilter, ScanResult};

/// Default total entry budget of a catalog's result cache.
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 1024;

/// Number of lock shards the entry map splits across.
const CACHE_SHARDS: usize = 8;

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
}

/// Bounded, sharded, exact-key LRU over canonical query fingerprints.
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

    /// FNV-1a of the key bytes picks the lock shard.
    fn shard_for(&self, key: &[u8]) -> &OrderedMutex<Shard> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % CACHE_SHARDS as u64) as usize]
    }

    /// Look `key` up, promoting the entry to most-recently-used and
    /// cloning its value out. Counts a hit or a miss.
    pub fn get(&self, key: &[u8]) -> Option<CachedResult> {
        let mut shard = self.shard_for(key).lock();
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
    /// The admission controller prices a request by peeking — the later
    /// real lookup does the counting.
    pub fn peek(&self, key: &[u8]) -> bool {
        self.shard_for(key).lock().map.contains_key(key)
    }

    /// Insert (or refresh) an entry, evicting the shard's least-recently
    /// used entry if the shard is over budget. A no-op when disabled.
    /// Concurrent computations of the same key insert byte-identical
    /// values, so last-writer-wins is harmless.
    pub fn insert(&self, key: Vec<u8>, value: CachedResult) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard_for(&key).lock();
        shard.clock += 1;
        let stamp = shard.clock;
        shard.map.insert(key, Entry { stamp, value });
        if shard.map.len() > self.shard_capacity {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
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

    #[test]
    fn lru_bounds_and_counts() {
        let cache = ResultCache::with_capacity(CACHE_SHARDS); // 1 per shard
        assert!(cache.get(b"missing").is_none());
        assert_eq!(cache.misses(), 1);
        for i in 0..64u64 {
            cache.insert(
                i.to_be_bytes().to_vec(),
                CachedResult::Batch(BatchResult::Hits(vec![i as u32])),
            );
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
        cache.insert(vec![1], CachedResult::Batch(BatchResult::Hits(vec![])));
        assert!(cache.is_empty());
        assert!(cache.get(&[1]).is_none());
    }
}
