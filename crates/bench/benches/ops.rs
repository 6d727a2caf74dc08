//! Operator-layer benchmark: thread scaling of the parallelized Ball-Tree
//! similarity join (build + probe), similarity dedup, ETL pipeline, and
//! parallel index construction.
//!
//! Unlike the criterion-style benches this harness *records* its medians:
//! it writes `BENCH_ops.json` at the workspace root so the speedups are
//! tracked across PRs (CI uploads the file as an artifact). Set
//! `BENCH_OPS_OUT` to redirect the output file, `CRITERION_QUICK=1` for a
//! smoke-sized run.

use std::sync::Arc;

use deeplens_bench::report::{self, median_secs};
use deeplens_core::etl::{FeaturizeTransformer, TileGenerator};
use deeplens_core::ops;
use deeplens_core::prelude::*;
use deeplens_index::BallTree;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn feature_patches(n: usize, dim: usize, seed: u64) -> Vec<Patch> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            let f: Vec<f32> = (0..dim)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 33) as f32 / (1u64 << 31) as f32 * 10.0
                })
                .collect();
            Patch::features(PatchId(i as u64), ImgRef::frame("b", i as u64), f)
        })
        .collect()
}

struct Record {
    name: &'static str,
    threads: usize,
    median_s: f64,
}

fn main() {
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v != "0");
    // Sizes chosen so the probe phase dominates the join (the part the
    // morsel pool shards).
    let (n_indexed, n_probe, dim, n_dedup, n_frames, n_build, reps) = if quick {
        (500, 2_000, 12, 600, 8, 6_000, 3)
    } else {
        (3_000, 20_000, 12, 3_000, 48, 60_000, 5)
    };

    let indexed = feature_patches(n_indexed, dim, 1);
    let probes = feature_patches(n_probe, dim, 2);
    let dedup_input = feature_patches(n_dedup, dim, 3);
    let frames: Vec<deeplens_codec::Image> = (0..n_frames)
        .map(|t| deeplens_codec::Image::solid(64, 64, [(t * 11) as u8, (t * 5) as u8, 77]))
        .collect();
    let build_vectors: Vec<Vec<f32>> = feature_patches(n_build, dim, 4)
        .iter()
        .map(|p| p.data.features().unwrap().to_vec())
        .collect();

    let mut records: Vec<Record> = Vec::new();
    let mut reference: Option<Vec<(u32, u32)>> = None;

    for threads in THREADS {
        let pool = WorkerPool::new(threads);

        // Ball-Tree similarity join: small indexed side, large probe side.
        let join_s = median_secs(reps, || {
            ops::similarity_join_balltree(&indexed, &probes, 2.0, &pool)
        });
        // Guard: every thread count must produce the identical answer.
        let pairs = ops::similarity_join_balltree(&indexed, &probes, 2.0, &pool);
        match &reference {
            None => reference = Some(pairs),
            Some(r) => assert_eq!(r, &pairs, "join answer diverged at {threads} threads"),
        }
        records.push(Record {
            name: "sim_join_balltree_probe",
            threads,
            median_s: join_s,
        });

        let dedup_s = median_secs(reps, || {
            ops::dedup_similarity(&dedup_input, 2.0, &pool).len()
        });
        records.push(Record {
            name: "dedup_similarity",
            threads,
            median_s: dedup_s,
        });

        let pipeline_s = median_secs(reps, || {
            let pipe = Pipeline::new(Box::new(TileGenerator { tile: 16 })).then(Box::new(
                FeaturizeTransformer {
                    label: "mean".into(),
                    dim: 3,
                    f: Box::new(|img| img.mean_color().to_vec()),
                },
            ));
            let catalog = SharedCatalog::new();
            pipe.run(
                frames.iter().enumerate().map(|(i, f)| (i as u64, f)),
                "cam",
                &catalog,
                "tiles",
                &pool,
            )
            .unwrap()
        });
        records.push(Record {
            name: "etl_pipeline_run",
            threads,
            median_s: pipeline_s,
        });

        let build_s = median_secs(reps, || {
            BallTree::from_vectors_parallel(&build_vectors, threads).len()
        });
        records.push(Record {
            name: "balltree_build",
            threads,
            median_s: build_s,
        });
    }

    // Multi-session scaling sweep: S concurrent sessions over one shared
    // catalog, each running the identical Ball-Tree join workload. The
    // `threads` column is the *session* count here; the figure of merit is
    // aggregate throughput (S × work / wall-clock), which should grow with
    // S on a multi-core host. Each session runs the join several times so
    // per-session setup (thread spawn, session dirs) doesn't dominate the
    // sample and scheduler jitter averages out.
    const JOINS_PER_SESSION: usize = 3;
    // The sweep samples are makespans of short concurrent bursts — noisier
    // than the single-threaded kernels above — so give the median more reps.
    let sweep_reps = reps.max(7);
    for sessions in [1usize, 2, 4] {
        let shared = Arc::new(SharedCatalog::new());
        shared.materialize("indexed", indexed.clone());
        shared.materialize("probes", probes.clone());
        let sweep_s = median_secs(sweep_reps, || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..sessions)
                    .map(|_| {
                        let shared = shared.clone();
                        scope.spawn(move || {
                            // Each session is a single-core (Avx) query: the
                            // scaling comes from admitting more sessions,
                            // not from intra-query parallelism.
                            let s = Session::ephemeral_attached(shared).unwrap();
                            (0..JOINS_PER_SESSION)
                                .map(|_| {
                                    s.join_collections("indexed", "probes", 2.0).unwrap().len()
                                })
                                .sum::<usize>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .sum::<usize>()
            })
        });
        records.push(Record {
            name: "multi_session_join",
            threads: sessions,
            median_s: sweep_s,
        });
    }

    // Batched-query sweep: K compatible similarity joins over one snapshot
    // pair, issued one at a time vs as one `QueryBatch`. Serial issuance
    // pays K tree builds and K probe passes; the batch pays one build and
    // one shared pass demultiplexed across members — the figure of merit is
    // aggregate throughput (K × work / wall-clock). The session is
    // single-core on purpose: the gain is algorithmic sharing, not thread
    // count, so it survives on any host shape.
    let batch_catalog = Arc::new(SharedCatalog::new());
    batch_catalog.materialize("indexed", indexed.clone());
    batch_catalog.materialize("probes", probes.clone());
    let batch_session = Session::ephemeral_attached(batch_catalog).unwrap();
    let batch_taus = |k: usize| -> Vec<f32> { (0..k).map(|i| 1.2 + 0.35 * i as f32).collect() };
    for k in [1usize, 2, 4, 8] {
        let taus = batch_taus(k);
        // Byte-identity guard: the batch must answer exactly what serial
        // issuance answers before its timing means anything.
        let mut b = batch_session.batch();
        for &t in &taus {
            b.similarity_join("indexed", "probes", t);
        }
        let got = b.run().unwrap();
        let mut b = batch_session.batch();
        for &t in &taus {
            b.similarity_join("indexed", "probes", t);
        }
        assert_eq!(
            got,
            b.run_serial().unwrap(),
            "batch answers diverged at K={k}"
        );

        let serial_s = median_secs(sweep_reps, || {
            taus.iter()
                .map(|&t| {
                    batch_session
                        .join_collections("indexed", "probes", t)
                        .unwrap()
                        .len()
                })
                .sum::<usize>()
        });
        let batched_s = median_secs(sweep_reps, || {
            let mut b = batch_session.batch();
            for &t in &taus {
                b.similarity_join("indexed", "probes", t);
            }
            b.run()
                .unwrap()
                .iter()
                .map(|r| r.pairs().unwrap().len())
                .sum::<usize>()
        });
        records.push(Record {
            name: "batched_join_serial_issue",
            threads: k,
            median_s: serial_s,
        });
        records.push(Record {
            name: "batched_join_one_batch",
            threads: k,
            median_s: batched_s,
        });
    }

    for r in &records {
        println!(
            "bench ops/{:<28} threads {:>2}   median {:>9.3} ms",
            r.name,
            r.threads,
            r.median_s * 1e3
        );
    }

    // Speedups of every kernel at the max thread count vs serial.
    let lookup = |name: &str, threads: usize| {
        records
            .iter()
            .find(|r| r.name == name && r.threads == threads)
            .map(|r| r.median_s)
            .unwrap_or(f64::NAN)
    };
    let max_t = *THREADS.last().unwrap();
    let kernels = [
        "sim_join_balltree_probe",
        "dedup_similarity",
        "etl_pipeline_run",
        "balltree_build",
    ];

    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut sections: Vec<(&str, String)> =
        vec![("bench", "\"ops\"".into()), ("quick", quick.to_string())];
    sections.push((
        "host",
        report::host_json(&[
            (
                "catalog_shards",
                deeplens_core::shared::DEFAULT_SHARDS.to_string(),
            ),
            ("max_concurrent_sessions", "4".to_string()),
        ]),
    ));
    if host_threads == 1 {
        sections.push((
            "note",
            "\"degenerate capture: 1 hardware thread, thread speedups and multi-session throughput scaling cannot exceed 1.0x — read the multi-core CI artifact for real scaling\"".into(),
        ));
    }
    sections.push((
        "config",
        report::json_object(&[
            ("n_indexed", n_indexed.to_string()),
            ("n_probe", n_probe.to_string()),
            ("dim", dim.to_string()),
            ("n_dedup", n_dedup.to_string()),
            ("n_frames", n_frames.to_string()),
            ("n_build", n_build.to_string()),
            ("reps", reps.to_string()),
            ("host_threads", host_threads.to_string()),
        ]),
    ));
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"threads\": {}, \"median_s\": {:.6}}}",
                r.name, r.threads, r.median_s
            )
        })
        .collect();
    sections.push(("results", report::json_array(&rows)));
    let speedups: Vec<(String, String)> = kernels
        .iter()
        .map(|k| {
            let s = lookup(k, 1) / lookup(k, max_t);
            println!("bench ops/speedup {k} x{max_t}: {s:.2}x");
            (format!("{k}_{max_t}t"), format!("{s:.3}"))
        })
        .collect();
    let speedup_refs: Vec<(&str, String)> = speedups
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    sections.push(("speedup_vs_serial", report::json_object(&speedup_refs)));
    // Aggregate throughput scaling of the multi-session sweep: 4 sessions
    // complete 4× the work of 1 session, so the ratio of throughputs is
    // 4 · t(1 session) / t(4 sessions). Anything > 1 means admitting
    // concurrent sessions adds real capacity.
    let scaling = 4.0 * lookup("multi_session_join", 1) / lookup("multi_session_join", 4);
    println!("bench ops/multi_session throughput scaling 1->4 sessions: {scaling:.2}x");
    sections.push((
        "multi_session_throughput_scaling_4s",
        format!("{scaling:.3}"),
    ));
    // Aggregate-throughput gain of batching K compatible joins: both sides
    // complete the same K queries, so the ratio of wall-clocks is the
    // speedup directly. The 4-member point is the acceptance figure.
    for k in [4usize, 8] {
        let speedup = lookup("batched_join_serial_issue", k) / lookup("batched_join_one_batch", k);
        println!("bench ops/batched_vs_serial speedup K={k}: {speedup:.2}x");
        sections.push(if k == 4 {
            ("batched_vs_serial_speedup_4q", format!("{speedup:.3}"))
        } else {
            ("batched_vs_serial_speedup_8q", format!("{speedup:.3}"))
        });
    }

    report::record_artifact(
        "BENCH_OPS_OUT",
        format!("{}/../../BENCH_ops.json", env!("CARGO_MANIFEST_DIR")),
        &report::bench_json(&sections),
    );
}
