//! Concurrent query sessions over one shared, sharded catalog.
//!
//! The battery the shared-state refactor must survive: many reader sessions
//! scanning and joining while a writer session materializes, re-indexes,
//! and drops collections on the same catalog. Readers must produce results
//! byte-identical to a serial run and must never observe a collection in a
//! half-materialized state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use deeplens::prelude::*;

fn feature_patches(cat: &SharedCatalog, n: u64, dim: usize, seed: u64) -> Vec<Patch> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            let f: Vec<f32> = (0..dim)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
                })
                .collect();
            Patch::features(cat.next_patch_id(), ImgRef::frame("cam", i), f)
        })
        .collect()
}

/// Patches for the writer's "flux" collection: every patch of generation
/// `gen` carries the same `gen` tag, and the generation determines the
/// collection size — so any mix of generations (or a partial generation) in
/// one snapshot is detectable.
fn flux_patches(cat: &SharedCatalog, gen: i64) -> Vec<Patch> {
    let n = flux_len(gen);
    (0..n)
        .map(|i| {
            Patch::features(
                cat.next_patch_id(),
                ImgRef::frame("flux", i),
                vec![i as f32],
            )
            .with_meta("gen", gen)
        })
        .collect()
}

fn flux_len(gen: i64) -> u64 {
    40 + (gen as u64 % 3) * 17
}

/// 8 reader sessions joining two shared collections while 1 writer session
/// churns the catalog: every reader result is byte-identical to the serial
/// reference, and every `flux` snapshot is internally consistent.
#[test]
fn eight_readers_one_writer_byte_identical_to_serial() {
    let shared = Arc::new(SharedCatalog::with_shards(4));
    let left = feature_patches(&shared, 250, 6, 0xA11CE);
    let right = feature_patches(&shared, 150, 6, 0xB0B);
    shared.materialize("left", left.clone());
    shared.materialize("right", right.clone());

    // Serial reference, computed before any concurrency exists.
    let reference = {
        let serial = Session::ephemeral_attached(shared.clone()).unwrap();
        serial.join_collections("left", "right", 2.5).unwrap()
    };
    assert!(!reference.is_empty(), "the workload must actually join");

    let readers_done = AtomicBool::new(false);
    let writer_rounds = AtomicU64::new(0);
    let readers_done = &readers_done;
    let writer_rounds = &writer_rounds;

    std::thread::scope(|scope| {
        // Writer session: churn scratch collections, re-index, drop, and
        // re-materialize "left" with byte-identical content — readers must
        // never notice any of it.
        let writer_shared = shared.clone();
        let writer_left = left.clone();
        scope.spawn(move || {
            let w = Session::ephemeral_attached(writer_shared).unwrap();
            let mut gen: i64 = 0;
            while !readers_done.load(Ordering::Acquire) && gen < 10_000 {
                w.catalog.materialize("flux", flux_patches(&w.catalog, gen));
                if gen % 3 == 0 {
                    w.catalog.build_hash_index("flux", "by_gen", "gen").unwrap();
                }
                if gen % 7 == 0 {
                    w.catalog.drop_collection("flux");
                }
                // Same bytes, new version: the CoW swap is invisible.
                w.catalog.materialize("left", writer_left.clone());
                if gen % 5 == 0 {
                    w.catalog
                        .build_ball_index("left", "by_feat", 2)
                        .expect("left always exists");
                }
                gen += 1;
                writer_rounds.store(gen as u64, Ordering::Release);
            }
        });

        // 8 reader sessions.
        let handles: Vec<_> = (0..8)
            .map(|r| {
                let shared = shared.clone();
                let reference = &reference;
                scope.spawn(move || {
                    let s = Session::ephemeral_attached(shared).unwrap();
                    // Cached joins finish in microseconds: hold the readers
                    // until the writer is demonstrably running beside them.
                    while writer_rounds.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                    for iter in 0..20 {
                        // Byte-identical join against the serial reference.
                        let pairs = s.join_collections("left", "right", 2.5).unwrap();
                        assert_eq!(
                            &pairs, reference,
                            "reader {r} iteration {iter} diverged from serial"
                        );
                        // No half-materialized state: a flux snapshot either
                        // doesn't exist or is one complete generation.
                        if let Ok(flux) = s.catalog.snapshot("flux") {
                            let gen = flux.patches[0]
                                .get_int("gen")
                                .expect("flux patches carry gen");
                            assert!(
                                flux.patches.iter().all(|p| p.get_int("gen") == Some(gen)),
                                "reader {r} saw mixed generations"
                            );
                            assert_eq!(
                                flux.len() as u64,
                                flux_len(gen),
                                "reader {r} saw a torn generation {gen}"
                            );
                        }
                    }
                    readers_done.store(true, Ordering::Release);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    assert!(
        writer_rounds.load(Ordering::Acquire) > 0,
        "the writer actually ran against the readers"
    );
    // The final state is still exactly the reference workload.
    let after = Session::ephemeral_attached(shared.clone()).unwrap();
    assert_eq!(
        after.join_collections("left", "right", 2.5).unwrap(),
        reference
    );
    // Every session detached on drop.
    drop(after);
    assert_eq!(shared.active_sessions(), 0);
}

/// Concurrent index builds and pipeline runs from multiple sessions land
/// whole collections: every output is complete and queryable afterwards.
#[test]
fn concurrent_writers_never_clobber_invisibly() {
    let shared = Arc::new(SharedCatalog::with_shards(2));
    std::thread::scope(|scope| {
        for t in 0..6u64 {
            let shared = shared.clone();
            scope.spawn(move || {
                let s = Session::ephemeral_attached(shared).unwrap();
                let name = format!("col{t}");
                let patches = feature_patches(&s.catalog, 60, 4, t * 31 + 1);
                // materialize_new: a name conflict would be a hard error,
                // so six writers on six names must all succeed.
                s.catalog.materialize_new(&name, patches).unwrap();
                s.build_ball_index(&name, "by_feat").unwrap();
            });
        }
    });
    assert_eq!(shared.names().len(), 6);
    for t in 0..6u64 {
        let snap = shared.snapshot(&format!("col{t}")).unwrap();
        assert_eq!(snap.len(), 60);
        let probe = snap.patches[0].data.features().unwrap().to_vec();
        assert!(!snap
            .lookup_similar("by_feat", &probe, 0.1)
            .unwrap()
            .is_empty());
    }
    // And a deliberate clobber via the replacing API surfaces the victim.
    let loser = shared
        .materialize("col0", vec![])
        .expect("replacement visible");
    assert_eq!(loser.len(), 60);
}
