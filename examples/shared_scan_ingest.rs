//! Shared-scan ETL: two featurization pipelines ingest one encoded video
//! with a **single decode pass** (`Session::ingest_batch`).
//!
//! 1. Render a small traffic scene and encode it as one sequential GOP
//!    (the paper's "Encoded File" — the decode-heaviest layout).
//! 2. Register the stream with an ingest batch and enqueue two pipelines:
//!    tile-level color features and frame-level features.
//! 3. Run the batch: the frame window is decoded exactly once and both
//!    pipelines fan out over the shared frames as morsels.
//! 4. Query one of the outputs to show the collections are first-class.
//!
//! Run with: `cargo run --release --example shared_scan_ingest`

use deeplens::codec::video::{encode_video, VideoConfig};
use deeplens::codec::Quality;
use deeplens::core::etl::{FeaturizeTransformer, TileGenerator, WholeImageGenerator};
use deeplens::prelude::*;
use deeplens::vision::datasets::TrafficDataset;

fn main() {
    // 1. A tiny traffic world, encoded as one sequential stream.
    let ds = TrafficDataset::generate(0.002, 11);
    let frames = ds.render_all();
    let bytes = encode_video(&frames, VideoConfig::sequential(Quality::High)).expect("encode clip");
    println!(
        "encoded {} frames of {}x{} into {} bytes (sequential GOP)",
        frames.len(),
        ds.scene.width,
        ds.scene.height,
        bytes.len()
    );

    // 2. Two pipelines over the same source: tile features + frame features.
    let session = Session::ephemeral().expect("session");
    let mut batch = session.ingest_batch();
    batch
        .add_encoded_source("traffic", bytes)
        .expect("register source");
    let window = 0..frames.len() as u64;
    batch
        .ingest(
            Pipeline::new(Box::new(TileGenerator { tile: 16 })).then(Box::new(
                FeaturizeTransformer {
                    label: "tile-color".into(),
                    dim: 3,
                    f: Box::new(|img| img.mean_color().to_vec()),
                },
            )),
            "traffic",
            window.clone(),
            "tile_feats",
        )
        .expect("enqueue tile pipeline");
    batch
        .ingest(
            Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(FeaturizeTransformer {
                label: "frame-color".into(),
                dim: 3,
                f: Box::new(|img| img.mean_color().to_vec()),
            })),
            "traffic",
            window,
            "frame_feats",
        )
        .expect("enqueue frame pipeline");

    // 3. One decode pass serves both pipelines.
    let counts = batch.run().expect("ingest batch");
    let decoded = session.catalog.counters().frames_decoded;
    println!(
        "ingested {} tile patches + {} frame patches with {} decoded frames",
        counts[0], counts[1], decoded
    );
    assert_eq!(
        decoded,
        frames.len() as u64,
        "the shared scan must decode each frame exactly once"
    );

    // 4. The outputs are ordinary indexed collections.
    session
        .catalog
        .build_ball_index("frame_feats", "by_color", 1)
        .expect("index");
    let col = session.catalog.snapshot("frame_feats").expect("snapshot");
    let probe = col.patches[0].data.features().expect("features").to_vec();
    let similar = col
        .lookup_similar("by_color", &probe, 0.05)
        .expect("indexed");
    println!(
        "frames with near-identical global color to frame 0: {} of {}",
        similar.len(),
        col.len()
    );
}
