//! Quickstart: the DeepLens workflow end-to-end on a tiny synthetic video.
//!
//! 1. Render a small traffic scene (the data source).
//! 2. Encode it as independently decodable 24-frame clips (the codec).
//! 3. Run the simulated object detector (ETL → patches).
//! 4. Materialize the patches, build an index, and run a query.
//!
//! Run with: `cargo run --example quickstart`

use deeplens::codec::video::{decode_video, encode_video, VideoConfig};
use deeplens::codec::Quality;
use deeplens::prelude::*;
use deeplens::vision::datasets::TrafficDataset;
use deeplens::vision::detector::ObjectDetector;
use deeplens::vision::features::joint_histogram;
use deeplens_exec::Device;

fn main() {
    // 1. A tiny traffic world: ~140 frames of cars and pedestrians.
    let ds = TrafficDataset::generate(0.004, 7);
    let frames = ds.render_all();
    println!(
        "rendered {} frames of {}x{}",
        frames.len(),
        ds.scene.width,
        ds.scene.height
    );

    // 2. Encoding: each clip of 24 frames is its own sequential stream, so
    //    any clip decodes without the ones before it.
    let clips: Vec<Vec<u8>> = frames
        .chunks(24)
        .map(|clip| encode_video(clip, VideoConfig::sequential(Quality::High)).expect("encode"))
        .collect();
    let encoded_bytes = clips.iter().map(|c| c.len() as u64).sum::<u64>();
    println!(
        "encoded clips: {} bytes for {} frames in {} clips ({}x smaller than raw)",
        encoded_bytes,
        frames.len(),
        clips.len(),
        frames.iter().map(|f| f.byte_size() as u64).sum::<u64>() / encoded_bytes.max(1)
    );

    // 3. ETL: decode the clips, detect objects, featurize into patches.
    let window: Vec<_> = clips
        .iter()
        .flat_map(|clip| decode_video(clip).expect("decode"))
        .enumerate()
        .map(|(t, frame)| (t as u64, frame))
        .collect();
    let session = Session::ephemeral().expect("session");
    let detector = ObjectDetector::default_on(Device::Avx);
    let mut patches = Vec::new();
    for (t, frame) in &window {
        for det in detector.detect(&ds.scene, *t, frame) {
            let crop = frame.crop(det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h);
            patches.push(
                Patch::features(
                    session.catalog.next_patch_id(),
                    ImgRef::frame("traffic", *t),
                    joint_histogram(&crop, 4),
                )
                .with_meta("label", det.label.as_str())
                .with_meta("frameno", *t as i64)
                .with_meta("score", det.score),
            );
        }
    }
    println!("detector produced {} patches", patches.len());

    // 4. Materialize, index, query: count frames with at least one vehicle.
    session.catalog.materialize("dets", patches);
    session
        .catalog
        .build_hash_index("dets", "by_label", "label")
        .expect("materialized");
    let col = session.catalog.snapshot("dets").expect("materialized");
    let mut vehicle_frames = std::collections::HashSet::new();
    for label in ["car", "truck"] {
        for pos in col
            .lookup_eq("by_label", &Value::from(label))
            .expect("indexed")
        {
            if let Some(f) = col.patches[pos as usize].get_int("frameno") {
                vehicle_frames.insert(f);
            }
        }
    }
    println!(
        "q2 answer: {} of {} frames contain a vehicle (ground truth: {})",
        vehicle_frames.len(),
        frames.len(),
        ds.frames_with_vehicle().len()
    );
}
