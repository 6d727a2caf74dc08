//! Integration: batched query execution (`Session::batch`) is byte-identical
//! to serial issuance for every thread count, shard count, and device — the
//! multi-query sharing is a pure optimization, never a semantic change.

use std::sync::Arc;

use deeplens::prelude::*;
use deeplens_bench::repro::devices::{feature_matrix, Backend, GpuProfile};
use proptest::prelude::*;

fn feature_patches(n: u64, dim: usize, seed: u64) -> Vec<Patch> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            let f: Vec<f32> = (0..dim)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
                })
                .collect();
            Patch::features(PatchId(i), ImgRef::frame("t", i), f)
        })
        .collect()
}

/// A session over a fresh shared catalog with the standard test corpus:
/// three collections of distinct sizes plus a Ball-Tree index on the
/// largest.
fn corpus_session(threads: usize, shards: usize) -> Session {
    plan_corpus_session(Device::ParallelCpu(threads), shards, false)
}

/// The corpus widened so every [`JoinPlan`] is reachable: `odd` carries a
/// featureless straggler row, which forces the nested fallback wherever it
/// must be indexed. `backed` gives every collection a columnar backing,
/// which no plan reads.
fn plan_corpus_session(device: Device, shards: usize, backed: bool) -> Session {
    let catalog = Arc::new(SharedCatalog::with_shards(shards));
    let mut s = Session::ephemeral_attached(catalog).unwrap();
    s.set_device(device);
    let mut odd = feature_patches(25, 5, 55);
    odd.push(Patch::empty(PatchId(25), ImgRef::frame("t", 25)));
    s.catalog.materialize("wee", feature_patches(16, 5, 44));
    s.catalog.materialize("odd", odd);
    s.catalog.materialize("tiny", feature_patches(40, 5, 11));
    s.catalog.materialize("mid", feature_patches(130, 5, 22));
    s.catalog.materialize("big", feature_patches(400, 5, 33));
    s.build_ball_index("big", "by_feat").unwrap();
    if backed {
        for name in COLS {
            s.build_columnar(name).unwrap();
        }
    }
    s
}

const TAUS: [f32; 5] = [0.8, 1.5, 2.5, 4.0, 6.5];
const COLS: [&str; 5] = ["tiny", "mid", "big", "wee", "odd"];

fn even_id_sum(l: &Patch, r: &Patch) -> bool {
    (l.id.0 + r.id.0).is_multiple_of(2)
}

/// Decode a generated query spec into a batch member.
fn push_query(batch: &mut QueryBatch<'_>, spec: (u8, usize, usize, usize)) {
    let (kind, a, b, t) = spec;
    let tau = TAUS[t % TAUS.len()];
    match kind % 4 {
        0 => {
            batch.similarity_join(COLS[a % 5], COLS[b % 5], tau);
        }
        1 => {
            let pred: JoinPredicate = Arc::new(even_id_sum);
            batch.similarity_join_filtered(COLS[a % 5], COLS[b % 5], tau, pred);
        }
        2 => {
            batch.dedup(COLS[a % 5], tau);
        }
        _ => {
            let probe: Vec<f32> = (0..5).map(|i| ((a + b + i) % 9) as f32).collect();
            batch.index_probe("big", "by_feat", probe, tau);
        }
    }
}

/// The batch `specs` decode to, plus three fixed members that ride along so
/// every plan is reached in every case, whatever the random members pick.
fn anchored<'s>(s: &'s Session, specs: &[(u8, usize, usize, usize)]) -> QueryBatch<'s> {
    let mut batch = s.batch();
    for &spec in specs {
        push_query(&mut batch, spec);
    }
    batch.similarity_join("wee", "wee", 1.5);
    batch.similarity_join("mid", "odd", 2.5);
    batch.similarity_join("mid", "big", 1.5);
    batch
}

/// Re-materialize `big` with 2 % of its rows changed and 3 appended: its
/// `by_feat` index is carried as a delta (tombstones + side rows), not
/// rebuilt.
fn rewrite_big(s: &Session) {
    let mut rows = s.catalog.snapshot("big").unwrap().patches.clone();
    let fresh = feature_patches(11, 5, 77);
    for (k, pos) in (0..rows.len()).step_by(50).enumerate() {
        rows[pos] = fresh[k].clone();
    }
    rows.extend(fresh[8..].iter().cloned());
    let maintained = deeplens::core::catalog::index_deltas_maintained();
    s.catalog.materialize("big", rows);
    assert!(deeplens::core::catalog::index_deltas_maintained() > maintained);
}

/// One member's answer by brute force over the session's snapshots.
fn oracle(s: &Session, query: &BatchQuery) -> BatchResult {
    let rows = |name: &str| s.catalog.snapshot(name).unwrap().patches.clone();
    match query {
        BatchQuery::SimilarityJoin {
            left,
            right,
            tau,
            predicate,
        } => {
            let (l, r) = (rows(left), rows(right));
            let mut pairs = ops::similarity_join_nested(&l, &r, *tau).unwrap();
            if let Some(p) = predicate {
                pairs.retain(|&(i, j)| p(&l[i as usize], &r[j as usize]));
            }
            BatchResult::Pairs(pairs)
        }
        BatchQuery::Dedup { collection, tau } => {
            BatchResult::Clusters(ops::dedup_bruteforce(&rows(collection), *tau).unwrap())
        }
        BatchQuery::IndexProbe {
            collection,
            probe,
            tau,
            ..
        } => BatchResult::Hits(
            (0u32..)
                .zip(&rows(collection))
                .filter(|(_, p)| {
                    let f = p.data.features().unwrap();
                    let d2: f32 = f.iter().zip(probe).map(|(a, b)| (a - b) * (a - b)).sum();
                    d2 <= tau * tau
                })
                .map(|(i, _)| i)
                .collect(),
        ),
    }
}

#[test]
fn k4_compatible_batch_matches_serial_across_threads_and_shards() {
    // The acceptance shape: K >= 4 similarity queries compatible on one
    // snapshot pair (one shared tree build + probe pass), checked
    // byte-identical to serial issuance under every thread/shard shape.
    let mut reference: Option<Vec<BatchResult>> = None;
    for shards in [1usize, 16] {
        for threads in [1usize, 2, 4] {
            let s = corpus_session(threads, shards);
            let mut batch = s.batch();
            for tau in [1.0f32, 2.0, 3.5, 5.0] {
                batch.similarity_join("tiny", "big", tau);
            }
            batch.dedup("tiny", 2.0); // shares the very same probe relation
            let got = batch.run().unwrap();

            let mut serial = s.batch();
            for tau in [1.0f32, 2.0, 3.5, 5.0] {
                serial.similarity_join("tiny", "big", tau);
            }
            serial.dedup("tiny", 2.0);
            let want = serial.run_serial().unwrap();

            assert_eq!(got, want, "{threads} threads / {shards} shards");
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(
                    r, &got,
                    "results must be identical across {threads} threads / {shards} shards"
                ),
            }
        }
    }
    let r = reference.unwrap();
    assert!(
        !r[0].pairs().unwrap().is_empty(),
        "corpus must produce matches"
    );
}

#[test]
fn batch_matches_serial_on_gpu_device() {
    // The batch on the scalar reference device, which the proptest's sweep
    // does not cover; every join member must also equal the all-pairs
    // answer of Fig. 8's simulated GPU over the same snapshots.
    let mut s = corpus_session(1, 4);
    s.set_device(Device::Cpu);
    let members = [
        ("mid", "big", 1.0f32),
        ("mid", "big", 2.5),
        ("mid", "big", 4.0),
        ("mid", "big", 6.0),
        ("big", "mid", 2.0),
    ];
    let batch = || {
        let mut batch = s.batch();
        for (l, r, tau) in members {
            batch.similarity_join(l, r, tau);
        }
        batch
    };
    let got = batch().run().unwrap();
    assert_eq!(got, batch().run_serial().unwrap());
    let matrix = |name: &str| feature_matrix(&s.catalog.snapshot(name).unwrap().patches).unwrap();
    let gpu = Backend::Gpu(GpuProfile::default());
    for ((l, r, tau), result) in members.into_iter().zip(&got) {
        let want = gpu.threshold_join(&matrix(l), &matrix(r), &[tau]).remove(0);
        assert_eq!(result.pairs(), Some(&want[..]), "{l} x {r} at {tau}");
    }
    assert!(!got[1].pairs().unwrap().is_empty());
}

#[test]
fn batch_and_concurrent_sessions_compose() {
    // Batches issued from two concurrent sessions over one catalog: each
    // is one admission unit on its own thread slice, and both see the same
    // consistent snapshots.
    let catalog = Arc::new(SharedCatalog::new());
    let seed = corpus_session(4, 16);
    // Reuse the corpus by re-materializing into the shared catalog.
    for name in COLS {
        let snap = seed.catalog.snapshot(name).unwrap();
        catalog.materialize(name, snap.patches.clone());
    }
    let expected = {
        let s = Session::ephemeral_attached(catalog.clone()).unwrap();
        let mut b = s.batch();
        b.similarity_join("tiny", "big", 2.0);
        b.dedup("mid", 1.5);
        b.run_serial().unwrap()
    };
    let results: Vec<Vec<BatchResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let catalog = catalog.clone();
                scope.spawn(move || {
                    let mut s = Session::ephemeral_attached(catalog).unwrap();
                    s.set_device(Device::ParallelCpu(4));
                    let mut b = s.batch();
                    b.similarity_join("tiny", "big", 2.0);
                    b.dedup("mid", 1.5);
                    b.run().unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results {
        assert_eq!(r, &expected, "concurrent batches agree with serial");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// A `QueryBatch` of K random compatible queries (plain and filtered
    /// joins, dedups, index probes over a shared corpus) returns
    /// byte-identical results to serial issuance *and* to the brute-force
    /// oracle — across 1/2/4 worker threads and the vectorized core, 1/16
    /// catalog shards, backed and unbacked collections (the on-the-fly
    /// Ball-Tree, persisted-index and nested plans all run, and a backing
    /// changes none of them), before and after
    /// a write leaves `big`'s index delta-maintained, with every
    /// configuration agreeing on the bytes.
    #[test]
    fn random_batches_byte_identical_to_serial(
        specs in prop::collection::vec((0u8..4, 0usize..5, 0usize..5, 0usize..5), 4..9),
    ) {
        let devices = [
            Device::ParallelCpu(1),
            Device::ParallelCpu(2),
            Device::ParallelCpu(4),
            Device::Avx,
        ];
        let mut reached = Vec::new();
        let mut unbacked_plans = Vec::new();
        // One reference per phase: before and after the write to `big`.
        let mut reference: [Option<Vec<BatchResult>>; 2] = [None, None];
        for (shards, backed) in [(1usize, false), (1, true), (16, false), (16, true)] {
            for device in devices {
                let s = plan_corpus_session(device, shards, backed);
                for (phase, reference) in reference.iter_mut().enumerate() {
                    if phase == 1 {
                        rewrite_big(&s);
                    }
                    let shape =
                        format!("{device:?} / {shards} shards / backed={backed} / phase {phase}");
                    let snap = |name: &str| s.catalog.snapshot(name).unwrap();
                    // Planned as the batch plans them: with each snapshot's
                    // live index.
                    let plans: Vec<JoinPlan> = [("wee", "wee"), ("mid", "odd"), ("mid", "big")]
                        .into_iter()
                        .map(|(l, r)| JoinPlan::choose(&*snap(l), &*snap(r)).unwrap())
                        .collect();
                    // `big`'s index is probed, fresh and delta-maintained.
                    let indexed = JoinPlan::Indexed { index_left: false };
                    prop_assert_eq!(plans[2], indexed, "{}", shape);
                    if backed {
                        let unbacked = unbacked_plans
                            .iter()
                            .find(|(sh, d, p, _)| (*sh, *d, *p) == (shards, device, phase))
                            .map(|(_, _, _, plans)| plans);
                        prop_assert_eq!(
                            unbacked,
                            Some(&plans),
                            "{}: a backing moved a plan",
                            shape
                        );
                    } else {
                        unbacked_plans.push((shards, device, phase, plans.clone()));
                    }
                    reached.extend(plans);
                    let batch = anchored(&s, &specs);
                    let queries = batch.queries().to_vec();
                    let got = batch.run().unwrap();
                    let want = anchored(&s, &specs).run_serial().unwrap();

                    prop_assert_eq!(&got, &want, "{}", shape);
                    for (q, r) in queries.iter().zip(&got) {
                        prop_assert_eq!(r, &oracle(&s, q), "{} vs oracle: {:?}", shape, q);
                    }
                    match reference {
                        None => *reference = Some(got),
                        Some(r) => {
                            prop_assert_eq!(r, &got, "{} diverged from reference", shape)
                        }
                    }
                }
            }
        }
        for plan in [
            JoinPlan::BallTree { index_left: true },
            JoinPlan::Indexed { index_left: false },
            JoinPlan::Nested,
        ] {
            prop_assert!(reached.contains(&plan), "{:?} never planned", plan);
        }
    }
}
