//! Lock-discipline battery for the ranked lock wrappers (lockdep).
//!
//! Two halves, mirroring the checker's contract:
//!
//! * **No false positives** — an 8-thread hammer drives the real engine
//!   paths concurrently: catalog materialize/snapshot/drop + ball-index
//!   builds, a query batch (join, dedup, index probe) issued until the
//!   result cache replays it, and shared-scan ingest batches through one
//!   contended session frame cache. Together they take five of the seven
//!   ranks, all but the serving layer's two. Under `debug_assertions` every
//!   acquisition is rank-checked; the test passing means the documented
//!   order holds on every exercised path.
//! * **True positives** — seeded violations using the same public wrappers
//!   (a rank inversion and a double same-rank acquisition) must panic, and
//!   the inversion diagnostic must name both locks.
//!
//! The `#[should_panic]` half is compiled only under `debug_assertions`:
//! release builds compile the checker out (zero-cost passthrough), so the
//! seeded violations intentionally do not fire there.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use deeplens::analyze::sync::held_locks;
use deeplens::codec::video::{encode_video, VideoConfig};
use deeplens::codec::{Image, Quality};
use deeplens::core::etl::{FeaturizeTransformer, TileGenerator};
use deeplens::prelude::*;

const THREADS: usize = 8;
const ROUNDS: usize = 6;
const CLIP_FRAMES: u64 = 6;

/// One small encoded clip shared by every ingest batch in the hammer.
fn clip_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let frames: Vec<Image> = (0..CLIP_FRAMES)
            .map(|t| {
                let mut img = Image::solid(16, 16, [40, 60, 80]);
                img.fill_rect(1 + t as i64 * 2, 3, 6, 6, [220, 40, 40]);
                img
            })
            .collect();
        encode_video(&frames, VideoConfig::sequential(Quality::High)).unwrap()
    })
}

fn feature_patches(cat: &SharedCatalog, n: u64, tag: u64) -> Vec<Patch> {
    (0..n)
        .map(|i| {
            Patch::features(
                cat.next_patch_id(),
                ImgRef::frame("hammer", i),
                vec![i as f32, tag as f32, (i % 7) as f32],
            )
        })
        .collect()
}

fn mean_color_pipeline() -> Pipeline {
    Pipeline::new(Box::new(TileGenerator { tile: 8 })).then(Box::new(FeaturizeTransformer {
        label: "mean-color".into(),
        dim: 3,
        f: Box::new(|img| img.mean_color().to_vec()),
    }))
}

/// 8 threads exercise catalog read/write, query batches through the result
/// cache, and the session frame cache **concurrently**, with the lockdep
/// checker live under `debug_assertions` — the known-safe paths must produce
/// zero violations (the checker panics on the first one, failing the test
/// loudly).
#[test]
fn eight_thread_engine_hammer_has_no_false_positives() {
    let catalog = Arc::new(SharedCatalog::with_shards(4));

    // One indexed collection per thread that lives through the whole run,
    // so every thread's batch can name a peer's collection and index.
    for t in 0..THREADS {
        let base = format!("base_t{t}");
        catalog.materialize(&base, feature_patches(&catalog, 32, t as u64));
        catalog.build_ball_index(&base, "ball", 2).unwrap();
    }

    // One shared session: every thread's ingest batch contends on the SAME
    // ranked frame-cache mutex, and its query batches run on two workers.
    let mut session = Session::ephemeral_attached(catalog.clone()).unwrap();
    session.set_threads(2);
    let session = &session;

    let snapshots_seen = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let catalog = catalog.clone();
            let snapshots_seen = &snapshots_seen;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // --- catalog writes: a materialize (one CatalogShard
                    // latch at a time), then an index build.
                    let name = format!("col_t{t}_r{round}");
                    catalog.materialize(&name, feature_patches(&catalog, 24, t as u64));
                    catalog.build_ball_index(&name, "ball", 2).unwrap();

                    // --- query batch: a join, a dedup and an index probe
                    // over this round's collection and a peer's base, on the
                    // session's two workers (WorkerResults). A query is
                    // stored once it repeats, so the second issue inserts
                    // into the result cache and the third replays it
                    // (ResultCacheShard), contended by all eight threads.
                    let peer = format!("base_t{}", (t + 1) % THREADS);
                    let issue = || {
                        let mut b = session.batch();
                        b.similarity_join(&name, &peer, 2.0);
                        b.dedup(&name, 1.0);
                        b.index_probe(&peer, "ball", vec![3.0, t as f32, 3.0], 2.0);
                        b.run().unwrap()
                    };
                    let first = issue();
                    assert_eq!(first.len(), 3);
                    assert_eq!(issue(), first);
                    assert_eq!(issue(), first, "cached replay changed the answers");

                    // --- then a drop on alternate rounds.
                    if round % 2 == 1 {
                        catalog.drop_collection(&name);
                    }

                    // --- catalog reads across every thread's collections.
                    for peer in 0..THREADS {
                        let peer_name = format!("col_t{peer}_r{round}");
                        if let Ok(snap) = catalog.snapshot(&peer_name) {
                            assert_eq!(snap.len(), 24);
                            snapshots_seen.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let _ = catalog.names();

                    // --- frame cache: a shared-scan ingest batch through
                    // the session's ranked cache mutex, contended by all
                    // eight threads at once.
                    let mut batch = session.ingest_batch();
                    batch
                        .add_encoded_source("cam", clip_bytes().to_vec())
                        .unwrap();
                    let out = format!("ingest_t{t}_r{round}");
                    let window: Range<u64> = 0..CLIP_FRAMES;
                    batch
                        .ingest(mean_color_pipeline(), "cam", window, &out)
                        .unwrap();
                    let counts = batch.run().unwrap();
                    assert_eq!(counts.len(), 1);
                    assert!(counts[0] > 0, "ingest produced patches");
                }
            });
        }
    });

    assert!(
        snapshots_seen.load(Ordering::Relaxed) > 0,
        "readers must actually observe concurrent materializations"
    );
    assert!(
        catalog.result_cache().hits() >= (THREADS * ROUNDS * 3) as u64,
        "every batch's third issue must replay its three answers"
    );
    assert!(
        held_locks().is_empty(),
        "hammer left locks on the main thread's rank stack"
    );
}

#[cfg(debug_assertions)]
mod seeded_violations {
    use deeplens::analyze::sync::{LockRank, OrderedMutex, OrderedRwLock};

    /// Acquiring against the documented order panics.
    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn cache_before_catalog_is_an_inversion() {
        let cache = OrderedMutex::new(LockRank::ResultCacheShard, "seeded-cache-shard", ());
        let shard = OrderedRwLock::new(LockRank::CatalogShard, "seeded-catalog-shard", ());
        let _held = cache.lock();
        let _bad = shard.read(); // CatalogShard < ResultCacheShard: inversion
    }

    /// Two same-rank shard latches on one thread panic.
    #[test]
    #[should_panic(expected = "double acquisition")]
    fn two_catalog_shard_latches_panic() {
        let s0 = OrderedRwLock::new(LockRank::CatalogShard, "seeded-shard-0", ());
        let s1 = OrderedRwLock::new(LockRank::CatalogShard, "seeded-shard-1", ());
        let _held = s0.write();
        let _bad = s1.write();
    }

    /// The inversion diagnostic names BOTH locks and dumps the held stack,
    /// so the report is actionable without a debugger.
    #[test]
    fn inversion_panic_names_both_locks() {
        let result = std::thread::spawn(|| {
            let inner = OrderedMutex::new(LockRank::ResultCacheShard, "seeded-cache-shard", ());
            let outer = OrderedRwLock::new(LockRank::CatalogShard, "seeded-catalog-shard", ());
            let _held = inner.lock();
            let _bad = outer.read();
        })
        .join();
        let panic = result.expect_err("seeded inversion must panic");
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message");
        assert!(
            msg.contains("seeded-cache-shard"),
            "names the held lock: {msg}"
        );
        assert!(
            msg.contains("seeded-catalog-shard"),
            "names the attempted lock: {msg}"
        );
        assert!(msg.contains("held stack"), "dumps the held stack: {msg}");
    }
}
