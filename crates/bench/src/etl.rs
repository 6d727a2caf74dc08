//! Dataset → patch-collection ETL for the benchmark queries.
//!
//! These adapters wire the vision substrate (scene rendering, simulated
//! detector / OCR / depth models, featurizers) into DeepLens patch
//! collections. ETL time is reported separately from query time throughout
//! the harnesses, mirroring the paper's §7.2 separation.

use deeplens_core::prelude::*;
use deeplens_exec::Device;
use deeplens_vision::datasets::{FootballDataset, PcDataset, TrafficDataset};
use deeplens_vision::depth::DepthModel;
use deeplens_vision::detector::{DetectorConfig, ObjectDetector};
use deeplens_vision::features::{color_histogram, embed};
use deeplens_vision::ocr::OcrEngine;
use deeplens_vision::scene::BBox;

/// Feature dimension used by the image-matching queries: per-channel color
/// histograms (3 × 8 bins). The paper notes most image matching uses
/// lower-dimensional features; this is its low-dimensional case, where the
/// Ball-Tree prunes well (Fig. 7's high-dimensional case is exercised by
/// `fig7_balltree` directly).
pub const FEATURE_DIM: usize = 12;
/// Histogram bins per channel.
pub const FEATURE_BINS: usize = 4;

/// Similarity threshold for "same object" matching on color histograms.
pub const MATCH_TAU: f32 = 0.30;

/// Embedding dimension for whole-image matching (q1). Color histograms
/// cannot separate near-duplicates from same-genre images (all documents
/// are mostly white), so q1 uses structure-sensitive luma embeddings.
pub const EMBED_DIM: usize = 24;
/// Seed of the q1 embedding projection.
pub const EMBED_SEED: u64 = 0xE4BED;
/// Similarity threshold for q1 near-duplicate matching on embeddings.
///
/// Sized to cover the duplicate generator's corruption envelope: a global
/// brightness shift of `s` moves a ±1-projection embedding of a 16×16 luma
/// patch by ≈ `sqrt(EMBED_DIM) · s / 255` ≈ 0.115 at the generator's
/// maximum `|s| = 6`, and the sparse pixel noise uses `wrapping_add`, so on
/// bright images (document scans) noisy pixels wrap to near-black and add
/// up to ≈ 0.05 more. Measured planted-pair distances reach ≈ 0.16 while
/// distinct images stay above ≈ 0.25; 0.20 splits the gap.
pub const Q1_TAU: f32 = 0.20;

/// Ground-truth id key stored on detection patches (used only for scoring).
pub const GT_KEY: &str = "gt";

/// The TrafficCam corpus after ETL.
pub struct TrafficEtl {
    /// The generated world.
    pub dataset: TrafficDataset,
    /// Featurized detection patches (one per detector output).
    pub detections: Vec<Patch>,
    /// Catalog holding the materialized `traffic_dets` collection.
    pub catalog: SharedCatalog,
}

/// Run detection + featurization + depth annotation over the traffic feed.
///
/// `detector_cfg` lets harnesses raise label confusion (Table 1).
pub fn traffic_etl(
    scale: f64,
    seed: u64,
    device: Device,
    detector_cfg: DetectorConfig,
) -> TrafficEtl {
    let dataset = TrafficDataset::generate(scale, seed);
    let detector = ObjectDetector::new(detector_cfg, device);
    let depth_model = DepthModel::default_on(device);
    let catalog = SharedCatalog::new();
    let mut detections = Vec::new();

    // Frames stream through the detector in batches, as real inference
    // pipelines do — on the simulated GPU this amortizes the offload
    // overhead and parallelizes across frames (Fig. 8, ETL phase).
    const BATCH: u64 = 128;
    let mut t0 = 0u64;
    let mut depth_inputs: Vec<(deeplens_codec::Image, f64, u64, u64)> = Vec::new();
    let mut depth_targets: Vec<usize> = Vec::new();
    while t0 < dataset.num_frames {
        let t1 = (t0 + BATCH).min(dataset.num_frames);
        let frames: Vec<(u64, deeplens_codec::Image)> = (t0..t1)
            .map(|t| (t, dataset.scene.render_frame(t)))
            .collect();
        let batch_dets = detector.detect_batch(&dataset.scene, &frames);
        for ((t, frame), dets) in frames.iter().zip(batch_dets) {
            let t = *t;
            for det in dets {
                let crop = frame.crop(det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h);
                let features = color_histogram(&crop, FEATURE_BINS);
                let gt = det.object_id.map(|id| id as i64).unwrap_or(-1);
                let mut patch = Patch::features(
                    catalog.next_patch_id(),
                    ImgRef::frame("traffic", t),
                    features,
                )
                .with_meta("label", det.label.as_str())
                .with_meta("frameno", t as i64)
                .with_meta("score", det.score)
                .with_meta("x", det.bbox.x)
                .with_meta("y", det.bbox.y)
                .with_meta("w", det.bbox.w as i64)
                .with_meta("h", det.bbox.h as i64)
                .with_meta(GT_KEY, gt);
                // Depth annotation for people is deferred to a batched
                // prediction below (q6's transformer).
                if det.label == "person" {
                    if let Some(obj) = det
                        .object_id
                        .and_then(|id| dataset.scene.objects.iter().find(|o| o.id == id))
                    {
                        depth_inputs.push((crop.clone(), obj.depth, obj.id, t));
                        depth_targets.push(detections.len());
                    }
                }
                let _ = &mut patch;
                detections.push(patch);
            }
        }
        // One depth-model dispatch per frame batch (streaming inference).
        let depths = depth_model.predict_batch(&depth_inputs);
        for (pos, d) in depth_targets.drain(..).zip(depths) {
            detections[pos]
                .meta
                .insert("depth".to_string(), Value::from(d));
        }
        depth_inputs.clear();
        t0 = t1;
    }

    catalog.materialize("traffic_dets", detections.clone());
    TrafficEtl {
        dataset,
        detections,
        catalog,
    }
}

/// Traffic ETL with the default detector profile.
pub fn traffic_etl_default(scale: f64, seed: u64, device: Device) -> TrafficEtl {
    traffic_etl(scale, seed, device, DetectorConfig::default())
}

/// The PC corpus after ETL.
pub struct PcEtl {
    /// The generated corpus.
    pub dataset: PcDataset,
    /// One featurized whole-image patch per image.
    pub image_patches: Vec<Patch>,
    /// OCR string patches (children of image patches).
    pub ocr_patches: Vec<Patch>,
    /// Catalog holding `pc_images` and `pc_strings`.
    pub catalog: SharedCatalog,
}

/// Featurize every PC image and OCR every embedded string.
pub fn pc_etl(scale: f64, seed: u64, device: Device) -> PcEtl {
    let dataset = PcDataset::generate(scale, seed);
    let ocr = OcrEngine::default_on(device);
    let catalog = SharedCatalog::new();
    let mut image_patches = Vec::with_capacity(dataset.images.len());
    let mut ocr_patches = Vec::new();

    for (i, img) in dataset.images.iter().enumerate() {
        let features = embed(img, EMBED_DIM, EMBED_SEED);
        let patch = Patch::features(
            catalog.next_patch_id(),
            ImgRef::frame("pc", i as u64),
            features,
        )
        .with_meta("imgno", i as i64);
        // OCR each ground-truth string; lines are 8px tall starting at y=2.
        for (line, truth) in dataset.texts[i].iter().enumerate() {
            let region = BBox::new(0, line as i64 * 8, img.width(), 12.min(img.height()));
            if let Some(res) = ocr.recognize(img, &region, truth, (i as u64) << 16 | line as u64) {
                ocr_patches.push(
                    patch
                        .derive(catalog.next_patch_id(), PatchData::Empty)
                        .with_meta("text", res.text.as_str())
                        .with_meta("truth", res.truth.as_str())
                        .with_meta("imgno", i as i64)
                        .with_meta("line", line as i64),
                );
            }
        }
        image_patches.push(patch);
    }

    catalog.materialize("pc_images", image_patches.clone());
    catalog.materialize("pc_strings", ocr_patches.clone());
    PcEtl {
        dataset,
        image_patches,
        ocr_patches,
        catalog,
    }
}

/// The Football corpus after ETL.
pub struct FootballEtl {
    /// The generated clips.
    pub dataset: FootballDataset,
    /// Player detection patches across all clips.
    pub detections: Vec<Patch>,
    /// Jersey OCR patches (children of detections).
    pub ocr_patches: Vec<Patch>,
    /// Catalog holding `football_dets` and `football_ocr`.
    pub catalog: SharedCatalog,
}

/// Detect players in every clip and OCR their jersey numbers.
pub fn football_etl(scale: f64, seed: u64, device: Device) -> FootballEtl {
    let dataset = FootballDataset::generate(scale, seed);
    let detector = ObjectDetector::default_on(device);
    let ocr = OcrEngine::default_on(device);
    let catalog = SharedCatalog::new();
    let mut detections = Vec::new();
    let mut ocr_patches = Vec::new();

    for (ci, clip) in dataset.clips.iter().enumerate() {
        let source = format!("football/{ci}");
        for t in 0..clip.num_frames {
            let frame = clip.scene.render_frame(t);
            for det in detector.detect(&clip.scene, t, &frame) {
                let crop = frame.crop(det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h);
                let features = color_histogram(&crop, FEATURE_BINS);
                let gt = det.object_id.map(|id| id as i64).unwrap_or(-1);
                let det_patch = Patch::features(
                    catalog.next_patch_id(),
                    ImgRef::frame(source.as_str(), t),
                    features,
                )
                .with_meta("label", det.label.as_str())
                .with_meta("clip", ci as i64)
                .with_meta("frameno", t as i64)
                .with_meta("x", det.bbox.x)
                .with_meta("y", det.bbox.y)
                .with_meta("w", det.bbox.w as i64)
                .with_meta("h", det.bbox.h as i64)
                .with_meta(GT_KEY, gt);
                // OCR the jersey if the detection is a real player.
                if let Some(obj) = det
                    .object_id
                    .and_then(|id| clip.scene.objects.iter().find(|o| o.id == id))
                {
                    if let Some(truth) = &obj.text {
                        if let Some(res) = ocr.recognize(
                            &frame,
                            &det.bbox,
                            truth,
                            (ci as u64) << 32 | (t << 8) | obj.id,
                        ) {
                            ocr_patches.push(
                                det_patch
                                    .derive(catalog.next_patch_id(), PatchData::Empty)
                                    .with_meta("text", res.text.as_str())
                                    .with_meta("clip", ci as i64)
                                    .with_meta("frameno", t as i64),
                            );
                        }
                    }
                }
                detections.push(det_patch);
            }
        }
    }

    catalog.materialize("football_dets", detections.clone());
    catalog.materialize("football_ocr", ocr_patches.clone());
    FootballEtl {
        dataset,
        detections,
        ocr_patches,
        catalog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_etl_produces_featurized_detections() {
        let etl = traffic_etl_default(0.004, 3, Device::Avx);
        assert!(!etl.detections.is_empty());
        for p in &etl.detections {
            assert_eq!(p.data.features().map(<[f32]>::len), Some(FEATURE_DIM));
            assert!(p.get_str("label").is_some());
            assert!(p.bbox().is_some());
        }
        // People carry depth annotations.
        let people_with_depth = etl
            .detections
            .iter()
            .filter(|p| p.get_str("label") == Some("person"))
            .filter(|p| p.get_float("depth").is_some())
            .count();
        assert!(people_with_depth > 0, "q6 needs depth-annotated people");
        assert_eq!(
            etl.catalog.snapshot("traffic_dets").unwrap().len(),
            etl.detections.len()
        );
    }

    #[test]
    fn pc_etl_strings_and_lineage() {
        let etl = pc_etl(0.08, 5, Device::Avx);
        assert!(!etl.image_patches.is_empty());
        assert!(!etl.ocr_patches.is_empty());
        for s in &etl.ocr_patches {
            assert!(s.get_str("text").is_some());
            assert_eq!(s.parents.len(), 1, "OCR patches derive from image patches");
        }
        // The planted needle is recoverable through ground truth.
        let found = etl
            .ocr_patches
            .iter()
            .any(|p| p.get_str("truth") == Some("DEEPLENS"));
        assert!(found, "needle string must survive ETL");
    }

    #[test]
    fn football_etl_jersey_ocr() {
        let etl = football_etl(0.008, 7, Device::Avx);
        assert!(!etl.detections.is_empty());
        assert!(!etl.ocr_patches.is_empty());
        // Some OCR output should read the target jersey.
        let target_hits = etl
            .ocr_patches
            .iter()
            .filter(|p| p.get_str("text") == Some("7"))
            .count();
        assert!(
            target_hits > 0,
            "target jersey must be recognized somewhere"
        );
    }
}
