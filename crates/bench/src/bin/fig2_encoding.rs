//! Figure 2 — Encoding a video with a sequential codec can reduce storage
//! costs by ~50× with negligible accuracy loss at high quality, degrading as
//! quality drops.
//!
//! Reproduces: storage footprint and q2 accuracy (frames-with-vehicle F1
//! against scene ground truth) for RAW frames, per-frame JPEG, and the
//! H.264-like sequential codec at High/Medium/Low quality.

use std::collections::HashSet;

use deeplens_bench::report::{human_bytes, time, Table};
use deeplens_bench::{scale, WORLD_SEED};
use deeplens_codec::video::{decode_video, encode_video, VideoConfig};
use deeplens_codec::{encode_image, Image, Quality};
use deeplens_vision::datasets::TrafficDataset;
use deeplens_vision::detector::{DetectorConfig, ObjectDetector};

/// F1 of "frame contains a vehicle" predictions against ground truth.
fn q2_f1(ds: &TrafficDataset, frames: &[(u64, Image)], det: &ObjectDetector) -> f64 {
    let truth: HashSet<u64> = ds.frames_with_vehicle().into_iter().collect();
    let mut predicted = HashSet::new();
    for (t, img) in frames {
        let has_vehicle = det
            .detect(&ds.scene, *t, img)
            .iter()
            .any(|d| matches!(d.label.as_str(), "car" | "truck"));
        if has_vehicle {
            predicted.insert(*t);
        }
    }
    let eval: HashSet<u64> = frames.iter().map(|(t, _)| *t).collect();
    let truth_eval: HashSet<u64> = truth.intersection(&eval).copied().collect();
    let tp = predicted.intersection(&truth_eval).count() as f64;
    let precision = if predicted.is_empty() {
        1.0
    } else {
        tp / predicted.len() as f64
    };
    let recall = if truth_eval.is_empty() {
        1.0
    } else {
        tp / truth_eval.len() as f64
    };
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

fn main() {
    let ds = TrafficDataset::generate(scale(), WORLD_SEED);
    println!(
        "Fig. 2 | traffic frames: {} @ {}x{} (DEEPLENS_SCALE={})",
        ds.num_frames,
        ds.scene.width,
        ds.scene.height,
        scale()
    );
    let frames = ds.render_all();
    let raw_bytes: u64 = frames.iter().map(|f| f.byte_size() as u64).sum();
    // A detector that needs crisp pixel evidence: quantization artifacts on
    // small objects push their color signature past this threshold, which is
    // how lossy encoding translates into lost detections (Fig. 2's y-axis).
    let det = ObjectDetector::new(DetectorConfig {
        evidence_threshold: 21.0,
        ..Default::default()
    });

    // Accuracy evaluation runs on a frame subsample to keep runtimes sane.
    let eval_step = 4usize;
    let eval_ids: Vec<u64> = (0..ds.num_frames).step_by(eval_step).collect();

    let mut table = Table::new(
        "Fig. 2 — storage vs accuracy across encodings (q2, TrafficCam)",
        &["format", "bytes", "compression", "q2 F1", "encode ms"],
    );

    // RAW baseline.
    let eval: Vec<(u64, Image)> = eval_ids
        .iter()
        .map(|&t| (t, frames[t as usize].clone()))
        .collect();
    let f1 = q2_f1(&ds, &eval, &det);
    table.row(&[
        "RAW".to_string(),
        human_bytes(raw_bytes),
        "1.0x".to_string(),
        format!("{f1:.3}"),
        "-".to_string(),
    ]);

    // Per-frame JPEG (intra) at High quality.
    let ((jpeg_bytes, jpeg_eval), enc_t) = time(|| {
        let mut total = 0u64;
        let mut eval = Vec::new();
        for (t, f) in frames.iter().enumerate() {
            let enc = encode_image(f, Quality::High);
            total += enc.len() as u64;
            if t % eval_step == 0 {
                eval.push((
                    t as u64,
                    deeplens_codec::decode_image(&enc).expect("decodes"),
                ));
            }
        }
        (total, eval)
    });
    let f1 = q2_f1(&ds, &jpeg_eval, &det);
    table.row(&[
        "JPEG-High".to_string(),
        human_bytes(jpeg_bytes),
        format!("{:.1}x", raw_bytes as f64 / jpeg_bytes as f64),
        format!("{f1:.3}"),
        format!("{:.0}", enc_t.as_secs_f64() * 1e3),
    ]);

    // Sequential (H.264-like) at three qualities.
    for q in [Quality::High, Quality::Medium, Quality::Low] {
        let (stream, enc_t) = time(|| {
            encode_video(
                &frames,
                VideoConfig {
                    quality: q,
                    gop: 30,
                    fps: 24.0,
                },
            )
            .expect("encodes")
        });
        let decoded = decode_video(&stream).expect("decodes");
        let eval: Vec<(u64, Image)> = eval_ids
            .iter()
            .map(|&t| (t, decoded[t as usize].clone()))
            .collect();
        let f1 = q2_f1(&ds, &eval, &det);
        table.row(&[
            format!("H264-{}", q.label()),
            human_bytes(stream.len() as u64),
            format!("{:.1}x", raw_bytes as f64 / stream.len() as f64),
            format!("{f1:.3}"),
            format!("{:.0}", enc_t.as_secs_f64() * 1e3),
        ]);
    }

    table.emit("fig2_encoding");
    println!(
        "\nPaper shape: RAW >> encoded (~40-50x); accuracy flat at High quality, \
         degrading at Low."
    );
}
