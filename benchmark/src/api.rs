//! The one place the benchmark touches the engine.
//!
//! Every `deeplens::` item the harness uses is named here and nowhere else,
//! and only from the surface the roadmap keeps: `SharedCatalog`, `Session`,
//! `QueryBatch`/`BatchQuery`, `Pipeline`/`PipelineBatch`, the scan types,
//! the serve front end, `codec::video`, the Ball-Tree pair, `exec::packed`,
//! `WorkerPool` and the columnar chunks. It must never reach for `Catalog`,
//! the `ops::*` join family, the optimizer's cost triples, or the
//! `KdTree`/`LshIndex`/`HashStore`/`Wal`/`BTree` structures: those are
//! slated for removal, and a PR that removes them may not edit this
//! directory to follow.
//!
//! Besides the re-exports, the functions below turn the generator's plain
//! data into engine values and build each workload's catalog — timing the
//! engine calls only, so `setup_s` excludes the harness's own data
//! generation.

use std::sync::Arc;
use std::time::{Duration, Instant};

pub use deeplens::codec::video::decode_video;
use deeplens::codec::video::frames_decoded;
pub use deeplens::codec::Image;
pub use deeplens::core::batch::{BatchQuery, BatchResult};
pub use deeplens::core::cache::{fingerprint, CachedResult};
pub use deeplens::core::etl::Pipeline;
pub use deeplens::core::patch::Patch;
use deeplens::core::scan::rows_materialized;
pub use deeplens::core::scan::{row_scan, ColumnarPatches, Projection, ScanFilter, ScanResult};
pub use deeplens::core::session::Session;
pub use deeplens::core::shared::SharedCatalog;
pub use deeplens::exec::packed::{packed_threshold_join, PackedBlock};
pub use deeplens::exec::WorkerPool;
pub use deeplens::index::{BallTree, DeltaBallTree};
pub use deeplens::serve::{
    serve, AdmissionConfig, AdmissionController, Client, Request, Response, ServerConfig,
    ServerHandle,
};
pub use deeplens::storage::columnar::{FeatureChunk, IntChunk};

use deeplens::codec::video::{encode_video, VideoConfig};
use deeplens::core::batch::QueryBatch;
use deeplens::core::etl::{FeaturizeTransformer, TileGenerator, WholeImageGenerator};
use deeplens::core::patch::ImgRef;

use crate::gen::{self, LogRow, ReadParams, ScanBundle, Target};
use crate::workload::EngineCounters;

/// Collection and index names shared by the workloads.
pub const GALLERY: &str = "gallery";
pub const PROBES: &str = "probes";
pub const LIVE: &str = "live";
pub const LOG: &str = "log";
pub const BY_FEAT: &str = "by_feat";
pub const INGEST_OUTPUTS: [&str; 3] = ["out_0", "out_1", "out_2"];
const CLIP_SOURCE: &str = "clip";

/// Adds the time `f` takes to `clock` — how set-up separates engine calls
/// from the generator work around them.
pub fn on_clock<T>(clock: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *clock += start.elapsed();
    out
}

/// Feature patches over `rows`, ids from the catalog's allocator.
pub fn feature_patches(catalog: &SharedCatalog, source: &str, rows: Vec<Vec<f32>>) -> Vec<Patch> {
    let mut ids = catalog.reserve_patch_ids(rows.len() as u64);
    rows.into_iter()
        .enumerate()
        .map(|(i, row)| Patch::features(ids.alloc(), ImgRef::frame(source, i as u64), row))
        .collect()
}

/// Materialize `rows` under `name` with a Ball-Tree index and a columnar
/// backing, charging the engine calls to `clock`.
fn indexed_collection(
    catalog: &SharedCatalog,
    name: &str,
    rows: Vec<Vec<f32>>,
    clock: &mut Duration,
) {
    let patches = feature_patches(catalog, name, rows);
    on_clock(clock, || {
        catalog.materialize(name, patches);
        catalog
            .build_ball_index(name, BY_FEAT, 1)
            .expect("index a collection that was just materialized");
        catalog
            .build_columnar(name)
            .expect("back a collection that was just materialized");
    });
}

/// The catalog behind the served workloads: `gallery` and `probes`, plus
/// `live` when the workload writes. `cache` `false` gives the
/// cache-disabled catalog the reference path runs on.
pub fn serve_catalog(
    gallery: Vec<Vec<f32>>,
    probes: Vec<Vec<f32>>,
    live: Option<Vec<Vec<f32>>>,
    cache: bool,
    clock: &mut Duration,
) -> Arc<SharedCatalog> {
    let catalog = if cache {
        SharedCatalog::new()
    } else {
        SharedCatalog::with_shards_and_cache(SharedCatalog::new().shard_count(), 0)
    };
    indexed_collection(&catalog, GALLERY, gallery, clock);
    let probes = feature_patches(&catalog, PROBES, probes);
    on_clock(clock, || catalog.materialize(PROBES, probes));
    if let Some(live) = live {
        indexed_collection(&catalog, LIVE, live, clock);
    }
    Arc::new(catalog)
}

/// The `Batch` members of one served read.
pub fn read_queries(p: &ReadParams) -> Vec<BatchQuery> {
    let target = match p.target {
        Target::Gallery => GALLERY,
        Target::Live => LIVE,
    };
    let mut queries = vec![
        BatchQuery::SimilarityJoin {
            left: PROBES.into(),
            right: target.into(),
            tau: p.join_tau,
            predicate: None,
        },
        BatchQuery::Dedup {
            collection: PROBES.into(),
            tau: p.dedup_tau,
        },
    ];
    queries.extend(p.probes.iter().map(|probe| BatchQuery::IndexProbe {
        collection: target.into(),
        index: BY_FEAT.into(),
        probe: probe.clone(),
        tau: p.probe_tau,
    }));
    queries
}

/// A session attached to `catalog`, as each server connection opens one.
/// Its working directory lands under `TMPDIR`, which `main` points inside
/// the checkout.
pub fn session(catalog: &Arc<SharedCatalog>) -> Session {
    Session::ephemeral_attached(catalog.clone()).expect("create the session directory")
}

fn batch_of(session: &Session, queries: Vec<BatchQuery>) -> QueryBatch<'_> {
    let mut batch = session.batch();
    for q in queries {
        batch.push(q);
    }
    batch
}

/// Run `queries` in-process as one batch — what a server connection does
/// with a decoded `Batch` request.
pub fn run_batch(session: &Session, queries: Vec<BatchQuery>) -> Vec<BatchResult> {
    batch_of(session, queries)
        .run()
        .expect("batch over collections set-up built")
}

/// The reference path for [`run_batch`]: every member issued alone, in
/// order.
pub fn run_batch_serial(session: &Session, queries: Vec<BatchQuery>) -> Vec<BatchResult> {
    batch_of(session, queries)
        .run_serial()
        .expect("batch over collections set-up built")
}

/// The counters every workload reads off its catalog and the engine's
/// process-wide statics; the served workloads add what only the server
/// knows.
pub fn engine_counters(catalog: &SharedCatalog) -> EngineCounters {
    let cache = catalog.result_cache();
    EngineCounters {
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_evictions: cache.evictions(),
        rows_materialized: rows_materialized(),
        frames_decoded: frames_decoded(),
        ..EngineCounters::default()
    }
}

/// Result-cache keys of one read's members against the catalog's current
/// snapshots — what the server computes to price a request for admission.
pub fn read_cache_keys(catalog: &SharedCatalog, queries: &[BatchQuery]) -> Vec<Vec<u8>> {
    let version = |name: &str| {
        catalog
            .snapshot(name)
            .expect("collection set-up built")
            .version()
    };
    queries
        .iter()
        .filter_map(|q| match q {
            BatchQuery::SimilarityJoin {
                left, right, tau, ..
            } => fingerprint::join_key(version(left), version(right), *tau),
            BatchQuery::Dedup { collection, tau } => {
                fingerprint::dedup_key(version(collection), *tau)
            }
            BatchQuery::IndexProbe {
                collection,
                index,
                probe,
                tau,
            } => fingerprint::probe_key(version(collection), index, probe, *tau),
        })
        .collect()
}

/// Encode one generated clip as a DLV1 stream at the codec's defaults.
pub fn encode_clip(frames: &[gen::FrameRgb]) -> Vec<u8> {
    let images: Vec<Image> = frames
        .iter()
        .map(|px| {
            Image::from_rgb(gen::FRAME_EDGE, gen::FRAME_EDGE, px.clone())
                .expect("generated frames have the declared size")
        })
        .collect();
    encode_video(&images, VideoConfig::default()).expect("encode a non-empty clip")
}

fn mean_colour() -> Box<FeaturizeTransformer> {
    Box::new(FeaturizeTransformer {
        label: "mean-colour".into(),
        dim: 3,
        f: Box::new(|img| img.mean_color().to_vec()),
    })
}

/// Share of pixels in each quarter of the luma range — the "second label"
/// a tile gets besides its mean colour.
fn luma_quarters() -> Box<FeaturizeTransformer> {
    Box::new(FeaturizeTransformer {
        label: "luma-quarters".into(),
        dim: 4,
        f: Box::new(|img| {
            let mut bins = [0f32; 4];
            for px in img.data().chunks_exact(3) {
                let luma = (u32::from(px[0]) * 2 + u32::from(px[1]) * 5 + u32::from(px[2])) / 8;
                bins[(luma / 64) as usize] += 1.0;
            }
            let n = (img.data().len() / 3).max(1) as f32;
            bins.iter().map(|b| b / n).collect()
        }),
    })
}

/// The three pipelines one ingest operation runs over its clip, in output
/// order ([`INGEST_OUTPUTS`]).
pub fn ingest_pipelines() -> [Pipeline; 3] {
    let tiles = || {
        Box::new(TileGenerator {
            tile: gen::TILE_EDGE,
        })
    };
    [
        Pipeline::new(tiles()).then(mean_colour()),
        Pipeline::new(Box::new(WholeImageGenerator)).then(mean_colour()),
        Pipeline::new(tiles()).then(luma_quarters()),
    ]
}

/// One ingest operation: a `PipelineBatch` of the three pipelines over one
/// encoded clip, re-materializing the three outputs. `serial` runs the
/// reference path instead. Returns the patch count per output.
pub fn ingest(session: &Session, clip: Vec<u8>, serial: bool) -> Result<Vec<usize>, String> {
    let mut batch = session.ingest_batch();
    batch
        .add_encoded_source(CLIP_SOURCE, clip)
        .map_err(|e| e.to_string())?;
    for (pipeline, output) in ingest_pipelines().into_iter().zip(INGEST_OUTPUTS) {
        batch
            .ingest(pipeline, CLIP_SOURCE, 0..gen::CLIP_FRAMES as u64, output)
            .map_err(|e| e.to_string())?;
    }
    if serial {
        batch.run_serial()
    } else {
        batch.run()
    }
    .map_err(|e| e.to_string())
}

/// The same work as [`ingest`] over frames already decoded, one pipeline at
/// a time — the stages the traced replay times separately.
pub fn ingest_decoded(session: &Session, pipeline: &Pipeline, frames: &[Image], output: &str) {
    session
        .run_pipeline(
            pipeline,
            frames.iter().enumerate().map(|(t, f)| (t as u64, f)),
            CLIP_SOURCE,
            output,
        )
        .expect("pipeline over decoded frames");
}

/// Patches an ingest operation leaves in each output, in output order.
pub fn ingest_outputs(catalog: &SharedCatalog) -> Vec<Vec<Patch>> {
    INGEST_OUTPUTS
        .iter()
        .map(|name| {
            catalog
                .snapshot(name)
                .expect("ingest output")
                .patches
                .clone()
        })
        .collect()
}

/// Detection-log patches: `frameno`, `label` and `score` metadata over
/// 8-d features.
pub fn log_patches(catalog: &SharedCatalog, rows: &[LogRow]) -> Vec<Patch> {
    let mut ids = catalog.reserve_patch_ids(rows.len() as u64);
    rows.iter()
        .map(|r| {
            Patch::features(
                ids.alloc(),
                ImgRef::frame("cam", r.frame),
                r.features.clone(),
            )
            .with_meta("frameno", r.frame as i64)
            .with_meta("label", r.label)
            .with_meta("score", r.score)
        })
        .collect()
}

/// The four scans of one analytics operation.
pub fn bundle_scans(b: &ScanBundle) -> [(ScanFilter, Projection); 4] {
    let frames = |w: gen::Window<u64>| ScanFilter::FrameRange { lo: w.lo, hi: w.hi };
    [
        (frames(b.count_frames), Projection::Count),
        (
            ScanFilter::MetaRange {
                key: "score".into(),
                lo: b.count_scores.lo,
                hi: b.count_scores.hi,
            },
            Projection::Count,
        ),
        (frames(b.full_frames), Projection::Full),
        (frames(b.meta_frames), Projection::MetaOnly),
    ]
}

/// A packed block over one decoded feature chunk.
pub fn packed_block(features: &deeplens::storage::columnar::PackedFeatures) -> PackedBlock<'_> {
    PackedBlock::new(
        features.values(),
        features.offsets(),
        features.validity(),
        0,
    )
}
