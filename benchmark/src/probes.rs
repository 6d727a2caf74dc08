//! Layer probes: each layer's public entry points, called directly on
//! inputs of the shape the workloads feed them, one layer at a time. They
//! run in every traced run on the same seed-derived fixtures, so a layer
//! number means the same thing whichever workload's run reports it; what a
//! *workload* spends where comes from the span replay, not from here.
//!
//! A layer is named `crate.module`. Timings are medians over repeated
//! calls; counts and byte sizes are exact.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::api::{self, BatchQuery, CachedResult, Projection, Request, Response, ScanFilter};
use crate::gen;
use crate::stats;

/// Rows of the scan fixture: 50 chunks of the detection log.
const SCAN_FIXTURE_ROWS: usize = 50 * 1024;
/// Rows of one columnar chunk at the engine's default.
const CHUNK_ROWS: usize = 1024;

/// Median time of one call in microseconds: `samples` timed batches of
/// `inner` calls each, so calls far below a microsecond are not drowned by
/// the clock's own cost.
fn median_us(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / inner as f64
        })
        .collect();
    stats::median(&per_call)
}

/// Median of per-input timings in microseconds, one timed call per input.
fn median_us_over<I>(inputs: impl IntoIterator<Item = I>, mut f: impl FnMut(I)) -> f64 {
    let per_call: Vec<f64> = inputs
        .into_iter()
        .map(|input| {
            let start = Instant::now();
            f(input);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&per_call)
}

/// A cold read no workload run reaches, so it never finds its members in a
/// result cache.
fn fresh_read(seed: u64, n: u64) -> Vec<BatchQuery> {
    api::read_queries(&gen::cold_read(seed, 0, 1, (1 << 17) + n))
}

/// Every probe, as `(metric name, value)` in the unit the name carries.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let gallery = gen::gallery_rows(seed);
    let probes = gen::probe_rows(seed);
    let live = |payload| gen::live_rows(seed, payload);
    let catalog = |cache| {
        api::serve_catalog(
            gallery.clone(),
            probes.clone(),
            Some(live(0)),
            cache,
            &mut Duration::default(),
        )
    };
    let cached = catalog(true);
    let uncached = catalog(false);
    let cached_session = api::session(&cached);
    let uncached_session = api::session(&uncached);

    // serve.protocol — the wire form of one read, its reply, and one write.
    let queries = fresh_read(seed, 0);
    let request = Request::Batch(queries.clone());
    let reply = Response::Results(api::run_batch(&uncached_session, queries.clone()));
    let request_wire = request.encode().expect("encode a request");
    let reply_wire = reply.encode().expect("encode a reply");
    out.push((
        "serve.protocol.request_encode_us",
        median_us(30, 100, || {
            black_box(request.encode().expect("encode a request"));
        }),
    ));
    out.push((
        "serve.protocol.request_decode_us",
        median_us(30, 100, || {
            black_box(Request::decode(&request_wire).expect("decode a request"));
        }),
    ));
    out.push((
        "serve.protocol.response_encode_us",
        median_us(30, 100, || {
            black_box(reply.encode().expect("encode a reply"));
        }),
    ));
    out.push((
        "serve.protocol.response_decode_us",
        median_us(30, 100, || {
            black_box(Response::decode(&reply_wire).expect("decode a reply"));
        }),
    ));
    out.push(("serve.protocol.request_bytes", request_wire.len() as f64));
    out.push(("serve.protocol.response_bytes", reply_wire.len() as f64));
    let write = Request::Materialize {
        name: api::LIVE.into(),
        rows: live(1),
    };
    let write_wire = write.encode().expect("encode a write");
    out.push((
        "serve.protocol.write_encode_us",
        median_us(15, 1, || {
            black_box(write.encode().expect("encode a write"));
        }),
    ));
    out.push((
        "serve.protocol.write_decode_us",
        median_us(15, 1, || {
            black_box(Request::decode(&write_wire).expect("decode a write"));
        }),
    ));

    // serve.admission — one uncontended admit and release.
    let admission = api::AdmissionController::new(api::AdmissionConfig::default());
    out.push((
        "serve.admission.admit_us",
        median_us(30, 1_000, || {
            drop(black_box(
                admission.admit(1_000.0).expect("an idle controller admits"),
            ));
        }),
    ));

    // serve.server — the round trip itself, and what serving adds to a read
    // the result cache answers (the difference of two executed reads would
    // be the difference of two 10 ms numbers: noise).
    {
        let mut server =
            api::serve(cached.clone(), api::ServerConfig::default()).expect("bind a loopback port");
        let mut client = api::Client::connect(server.local_addr()).expect("connect");
        out.push((
            "serve.server.ping_rtt_us",
            median_us(200, 1, || client.ping().expect("ping")),
        ));
        let repeated = fresh_read(seed, 100);
        api::run_batch(&cached_session, repeated.clone());
        let served = median_us(200, 1, || {
            black_box(client.batch(repeated.clone()).expect("served read"));
        });
        let direct = median_us(200, 1, || {
            black_box(api::run_batch(&cached_session, repeated.clone()));
        });
        out.push(("serve.server.overhead_us", served - direct));
        drop(client);
        server.stop();
    }

    // core.shared — resolving one read's collections, and replacing `live`
    // at a 2 % delta with its index and columnar backing carried forward.
    out.push((
        "core.shared.snapshot_us",
        median_us(30, 1_000, || {
            black_box(
                cached
                    .snapshot_many(&[api::PROBES, api::GALLERY])
                    .expect("collections exist"),
            );
        }),
    ));
    let replacements: Vec<_> = (1..=12)
        .map(|p| api::feature_patches(&cached, api::LIVE, live(1 + p % (gen::LIVE_PAYLOADS - 1))))
        .collect();
    out.push((
        "core.shared.materialize_ms",
        median_us_over(replacements, |patches| {
            cached.materialize(api::LIVE, patches);
        }) / 1e3,
    ));

    // core.cache — lookup and insert of a real join result under its real
    // key.
    let join_only = vec![queries[0].clone()];
    let key = api::read_cache_keys(&cached, &join_only).remove(0);
    let value = CachedResult::Batch(
        api::run_batch(&uncached_session, join_only.clone())
            .pop()
            .expect("one member, one result"),
    );
    let cache = cached.result_cache();
    cache.insert(key.clone(), value.clone());
    out.push((
        "core.cache.get_us",
        median_us(30, 100, || {
            black_box(cache.get(&key));
        }),
    ));
    out.push((
        "core.cache.insert_us",
        median_us(30, 100, || cache.insert(key.clone(), value.clone())),
    ));

    // core.batch — a whole read with the cache off, then one member kind at
    // a time.
    let member = |n: u64, pick: fn(&BatchQuery) -> bool| -> Vec<BatchQuery> {
        fresh_read(seed, n).into_iter().filter(pick).collect()
    };
    out.push((
        "core.batch.run_ms",
        median_us_over(0..15, |n| {
            black_box(api::run_batch(&uncached_session, fresh_read(seed, 300 + n)));
        }) / 1e3,
    ));
    out.push((
        "core.batch.join_ms",
        median_us_over(0..15, |n| {
            let q = member(400 + n, |q| matches!(q, BatchQuery::SimilarityJoin { .. }));
            black_box(api::run_batch(&uncached_session, q));
        }) / 1e3,
    ));
    out.push((
        "core.batch.dedup_ms",
        median_us_over(0..15, |n| {
            let q = member(500 + n, |q| matches!(q, BatchQuery::Dedup { .. }));
            black_box(api::run_batch(&uncached_session, q));
        }) / 1e3,
    ));
    out.push((
        "core.batch.probe_us",
        median_us_over(0..30, |n| {
            let q = member(600 + n, |q| matches!(q, BatchQuery::IndexProbe { .. }));
            black_box(api::run_batch(&uncached_session, q));
        }) / gen::PROBES_PER_READ as f64,
    ));

    // core.scan and storage.columnar — the columnar backing over 50 chunks
    // of the detection log: build, pruned count, materializing scan, packed
    // scan.
    let log_patches = api::log_patches(&uncached, &gen::log_rows(seed)[..SCAN_FIXTURE_ROWS]);
    out.push((
        "storage.columnar.build_ms",
        median_us(5, 1, || {
            black_box(api::ColumnarPatches::from_patches_default(&log_patches));
        }) / 1e3,
    ));
    let columnar = api::ColumnarPatches::from_patches_default(&log_patches);
    let pool = api::WorkerPool::new(1);
    let frames = (SCAN_FIXTURE_ROWS / gen::LOG_ROWS_PER_FRAME) as u64;
    let window = |start: u64, share: u64| ScanFilter::FrameRange {
        lo: start,
        hi: start + frames / share,
    };
    let counted = columnar.scan(&window(frames / 3, 10), Projection::Count, &pool);
    out.push((
        "core.scan.count_us",
        median_us(30, 10, || {
            black_box(columnar.scan(&window(frames / 3, 10), Projection::Count, &pool));
        }),
    ));
    out.push((
        "core.scan.chunks_pruned_ratio",
        counted.stats.chunks_pruned as f64 / counted.stats.chunks_total as f64,
    ));
    let full_rows = columnar
        .scan(&window(frames / 2, 100), Projection::Full, &pool)
        .patches
        .len();
    out.push((
        "core.scan.full_us_per_row",
        median_us(30, 1, || {
            black_box(columnar.scan(&window(frames / 2, 100), Projection::Full, &pool));
        }) / full_rows as f64,
    ));
    let packed_chunks = columnar
        .scan_packed(&window(frames / 3, 10), &pool)
        .stats
        .chunks_decoded;
    out.push((
        "core.scan.packed_us_per_chunk",
        median_us(30, 1, || {
            black_box(columnar.scan_packed(&window(frames / 3, 10), &pool));
        }) / packed_chunks as f64,
    ));

    // storage.columnar — one 1 024-row chunk of each column kind the
    // workloads decode.
    let chunk_rows: Vec<Option<&[f32]>> = gallery[..CHUNK_ROWS]
        .iter()
        .map(|r| Some(r.as_slice()))
        .collect();
    let feature_chunk = api::FeatureChunk::encode(&chunk_rows);
    out.push((
        "storage.columnar.decode_packed_us",
        median_us(30, 10, || {
            black_box(feature_chunk.decode_packed());
        }),
    ));
    out.push((
        "storage.columnar.feature_bytes_per_row",
        feature_chunk.encoded_bytes() as f64 / CHUNK_ROWS as f64,
    ));
    let frame_numbers: Vec<Option<i64>> = (0..CHUNK_ROWS)
        .map(|i| Some((i / gen::LOG_ROWS_PER_FRAME) as i64))
        .collect();
    let int_chunk = api::IntChunk::encode(&frame_numbers);
    out.push((
        "storage.columnar.int_decode_us",
        median_us(30, 10, || {
            black_box(int_chunk.decode());
        }),
    ));

    // exec — the packed join kernel on one 64 × 1 024 block pair, and what
    // it costs to fan empty morsels out over the pool.
    let left_rows: Vec<Option<&[f32]>> = probes.iter().map(|r| Some(r.as_slice())).collect();
    let left = api::FeatureChunk::encode(&left_rows).decode_packed();
    let right = feature_chunk.decode_packed();
    let pairs = (gen::PROBE_ROWS * CHUNK_ROWS) as f64;
    out.push((
        "exec.packed.join_ns_per_pair",
        median_us(30, 10, || {
            black_box(api::packed_threshold_join(
                &[api::packed_block(&left)],
                &[api::packed_block(&right)],
                1.5,
                &pool,
            ));
        }) * 1e3
            / pairs,
    ));
    let machine = api::WorkerPool::new(0);
    out.push((
        "exec.pool.dispatch_us",
        median_us(100, 1, || {
            black_box(machine.run_morsels(machine.threads() * 4, 1, |_| ()));
        }),
    ));

    // index — Ball-Tree build over `gallery`, range queries against it, and
    // the same queries through a delta tree holding 2 % changed rows.
    let flat: Vec<f32> = gallery.iter().flatten().copied().collect();
    out.push((
        "index.balltree.build_ms",
        median_us(5, 1, || {
            black_box(api::BallTree::build(gen::DIM, flat.clone()));
        }) / 1e3,
    ));
    let tree = api::BallTree::build(gen::DIM, flat);
    let query_vectors: Vec<Vec<f32>> = (0..50)
        .flat_map(|n| gen::cold_read(seed, 0, 1, (1 << 17) + 700 + n).probes)
        .collect();
    tree.take_distance_evals();
    out.push((
        "index.balltree.range_query_us",
        median_us_over(&query_vectors, |q| {
            black_box(tree.range_query(q, 1.5));
        }),
    ));
    out.push((
        "index.balltree.dist_evals_per_query",
        tree.take_distance_evals() as f64 / query_vectors.len() as f64,
    ));
    let mut delta = api::DeltaBallTree::from_tree(tree);
    for (pos, row) in live(1).into_iter().take(gen::GALLERY_ROWS / 50).enumerate() {
        delta.upsert((pos * 50) as u32, row);
    }
    out.push((
        "index.delta.range_query_us",
        median_us_over(&query_vectors, |q| {
            black_box(delta.range_query(q, 1.5));
        }),
    ));

    // codec.video and core.etl — decoding one clip, one pipeline over its
    // decoded frames, and the whole three-pipeline batch.
    let clip = api::encode_clip(&gen::clip_frames(seed, 0));
    out.push((
        "codec.video.decode_ms_per_frame",
        median_us(5, 1, || {
            black_box(api::decode_video(&clip).expect("decode a clip this harness encoded"));
        }) / 1e3
            / gen::CLIP_FRAMES as f64,
    ));
    out.push((
        "codec.video.bytes_per_frame",
        clip.len() as f64 / gen::CLIP_FRAMES as f64,
    ));
    let frames = api::decode_video(&clip).expect("decode a clip this harness encoded");
    let etl_catalog = std::sync::Arc::new(api::SharedCatalog::new());
    let etl_session = api::session(&etl_catalog);
    let tile_pipeline = &api::ingest_pipelines()[0];
    out.push((
        "core.etl.pipeline_ms_per_frame",
        median_us(5, 1, || {
            api::ingest_decoded(&etl_session, tile_pipeline, &frames, api::INGEST_OUTPUTS[0]);
        }) / 1e3
            / gen::CLIP_FRAMES as f64,
    ));
    let patches = etl_catalog
        .snapshot(api::INGEST_OUTPUTS[0])
        .expect("the pipeline's output")
        .len();
    out.push((
        "core.etl.patches_per_frame",
        patches as f64 / gen::CLIP_FRAMES as f64,
    ));
    // A fresh session per call: its frame cache is empty, so the batch
    // decodes, as every operation of `ingest_video` does.
    let sessions: Vec<_> = (0..5).map(|_| api::session(&etl_catalog)).collect();
    out.push((
        "core.etl.batch_run_ms",
        median_us_over(&sessions, |session| {
            api::ingest(session, clip.clone(), false).expect("ingest batch");
        }) / 1e3,
    ));
    out
}
