//! Simulated object detector (the SSD substitute).
//!
//! The detector does two things the real network would do:
//!
//! 1. **Burn compute on the pixels** — a convolution stack runs on the
//!    frame's luma plane through [`deeplens_exec::Executor`], so detection
//!    cost depends on the execution device exactly like real inference
//!    (paper Fig. 8, ETL phase).
//! 2. **Produce noisy detections** — ground-truth boxes from the scene are
//!    corrupted with calibrated noise: pixel-evidence-based misses (lossy
//!    encoding degrades the box's color signature → detections drop, which
//!    is what links encoding quality to accuracy in Fig. 2), random misses
//!    (recall), bounding-box jitter, label confusion, and false positives.
//!
//! Every detection keeps its ground-truth `object_id` so accuracy harnesses
//! can score recall/precision without manual annotation.

use deeplens_codec::Image;
use deeplens_exec::{Device, Executor};

use crate::scene::{BBox, ObjectClass, Scene};

/// Calibrated noise profile of the simulated detector.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Probability a visible object is detected (before pixel evidence).
    pub recall: f64,
    /// Expected false positives per frame.
    pub false_positives_per_frame: f64,
    /// Std-dev of bounding-box corner jitter in pixels.
    pub jitter_px: f64,
    /// Probability a vehicle label flips car↔truck.
    pub label_confusion: f64,
    /// Mean-color distance (0–255 scale) above which pixel evidence kills a
    /// detection. Lossy encodings push small objects over this threshold.
    pub evidence_threshold: f64,
    /// Convolution layers in the inference stand-in (compute cost knob).
    pub cost_layers: usize,
    /// Seed for deterministic noise.
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            recall: 0.95,
            false_positives_per_frame: 0.05,
            jitter_px: 1.0,
            label_confusion: 0.02,
            evidence_threshold: 60.0,
            cost_layers: 12,
            seed: 0xDE7EC7,
        }
    }
}

/// One detector output.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Predicted bounding box.
    pub bbox: BBox,
    /// Predicted label.
    pub label: String,
    /// Confidence in `[0, 1]`.
    pub score: f64,
    /// Ground-truth identity, `None` for false positives. Retained only for
    /// accuracy scoring — queries must not read it.
    pub object_id: Option<u64>,
    /// Frame number the detection came from.
    pub frame_no: u64,
}

/// Deterministic splittable hash-RNG: uniform in `[0, 1)`.
fn unit_hash(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut h = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = h.wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    h = h.wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    h ^= h >> 31;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 27;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Approximate standard normal from three uniforms (Irwin–Hall).
fn gauss_hash(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    (unit_hash(seed, a, b, c) + unit_hash(seed, a ^ 1, b, c) + unit_hash(seed, a, b ^ 1, c)) * 2.0
        - 3.0
}

/// The simulated object detector.
#[derive(Debug, Clone)]
pub struct ObjectDetector {
    cfg: DetectorConfig,
    exec: Executor,
}

impl ObjectDetector {
    /// Detector with the given noise profile, running on `device`.
    pub fn new(cfg: DetectorConfig, device: Device) -> Self {
        ObjectDetector {
            cfg,
            exec: Executor::new(device),
        }
    }

    /// Default detector on the vectorized CPU backend.
    pub fn default_on(device: Device) -> Self {
        Self::new(DetectorConfig::default(), device)
    }

    /// The configured noise profile.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Mean absolute color distance between the frame's pixels inside `bb`
    /// and the expected signature `color` — the "pixel evidence" that lossy
    /// encodings degrade.
    fn evidence_distance(frame: &Image, bb: &BBox, color: [u8; 3]) -> f64 {
        let x1 = (bb.x + 2).max(0) as u32;
        let y1 = (bb.y + 2).max(0) as u32;
        let x2 = ((bb.x + bb.w as i64 - 2).max(x1 as i64 + 1) as u32).min(frame.width());
        let y2 = ((bb.y + bb.h as i64 - 2).max(y1 as i64 + 1) as u32).min(frame.height());
        if x1 >= x2 || y1 >= y2 {
            return 255.0;
        }
        let mut acc = 0f64;
        let mut n = 0u64;
        for y in y1..y2 {
            for x in x1..x2 {
                let px = frame.get(x, y);
                // The identity stripe and jersey text perturb some pixels;
                // mean absolute deviation stays low for a clean render.
                acc += (px[0] as f64 - color[0] as f64).abs()
                    + (px[1] as f64 - color[1] as f64).abs()
                    + (px[2] as f64 - color[2] as f64).abs();
                n += 3;
            }
        }
        acc / n as f64
    }

    /// Run "inference" on `frame` (pays the device-dependent compute cost)
    /// and return noisy detections for frame `t` of `scene`.
    pub fn detect(&self, scene: &Scene, t: u64, frame: &Image) -> Vec<Detection> {
        // 1. Pay the inference cost on the actual pixels.
        let [y, _, _] = frame.to_ycbcr();
        let _activations = self.exec.conv_stack(
            &y.data,
            y.width as usize,
            y.height as usize,
            self.cfg.cost_layers,
        );
        self.outputs(scene, t, frame)
    }

    /// Batched inference over many frames of one scene: whole planes are
    /// sharded over the device's workers — how real streaming inference
    /// pipelines run. Fig. 8's simulated GPU (`repro::devices` in
    /// `deeplens-bench`) charges one launch + transfer per batch around
    /// this call (paper Fig. 8, left).
    pub fn detect_batch(&self, scene: &Scene, frames: &[(u64, Image)]) -> Vec<Vec<Detection>> {
        let planes: Vec<(Vec<f32>, usize, usize)> = frames
            .iter()
            .map(|(_, f)| {
                let [y, _, _] = f.to_ycbcr();
                (y.data, y.width as usize, y.height as usize)
            })
            .collect();
        let _activations = self.exec.conv_stack_batch(&planes, self.cfg.cost_layers);
        frames
            .iter()
            .map(|(t, f)| self.outputs(scene, *t, f))
            .collect()
    }

    /// The detection logic alone (ground truth + calibrated noise), without
    /// the inference compute cost.
    fn outputs(&self, scene: &Scene, t: u64, frame: &Image) -> Vec<Detection> {
        let mut out = Vec::new();
        for (obj, bb) in scene.visible_at(t) {
            if obj.class == ObjectClass::TextBlock {
                continue; // text is the OCR engine's job
            }
            // Pixel evidence: does the decoded frame still look like the object?
            let ev = Self::evidence_distance(frame, &bb, obj.color);
            if ev > self.cfg.evidence_threshold {
                continue; // encoding destroyed the object's signature
            }
            // Random miss (1 - recall).
            if unit_hash(self.cfg.seed, obj.id, t, 1) > self.cfg.recall {
                continue;
            }
            // Bounding-box jitter.
            let jx = (gauss_hash(self.cfg.seed, obj.id, t, 2) * self.cfg.jitter_px).round() as i64;
            let jy = (gauss_hash(self.cfg.seed, obj.id, t, 3) * self.cfg.jitter_px).round() as i64;
            let bbox = BBox::new(bb.x + jx, bb.y + jy, bb.w, bb.h);
            // Label confusion: vehicles flip car↔truck; people are sometimes
            // mistaken for bicycles (the error that makes filter pushdown
            // lose recall in the paper's Table 1).
            let mut label = obj.class.label().to_string();
            let confused = unit_hash(self.cfg.seed, obj.id, t, 4) < self.cfg.label_confusion;
            if confused {
                if obj.class.is_vehicle() {
                    label = if label == "car" {
                        "truck".into()
                    } else {
                        "car".into()
                    };
                } else if label == "person" {
                    label = "bicycle".into();
                }
            }
            let score = (1.0 - ev / 255.0) * (0.7 + 0.3 * unit_hash(self.cfg.seed, obj.id, t, 5));
            out.push(Detection {
                bbox,
                label,
                score,
                object_id: Some(obj.id),
                frame_no: t,
            });
        }
        // 3. False positives.
        if unit_hash(self.cfg.seed, t, 0, 6) < self.cfg.false_positives_per_frame {
            let fx = (unit_hash(self.cfg.seed, t, 1, 7) * (scene.width as f64 - 12.0)) as i64;
            let fy = (unit_hash(self.cfg.seed, t, 2, 8) * (scene.height as f64 - 12.0)) as i64;
            let labels = ObjectClass::all_labels();
            let label = labels[(unit_hash(self.cfg.seed, t, 3, 9) * labels.len() as f64) as usize];
            out.push(Detection {
                bbox: BBox::new(fx, fy, 10, 10),
                label: label.to_string(),
                score: 0.3,
                object_id: None,
                frame_no: t,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::TrafficDataset;

    fn tiny_traffic() -> TrafficDataset {
        TrafficDataset::generate(0.005, 21)
    }

    #[test]
    fn detections_follow_ground_truth() {
        let ds = tiny_traffic();
        let det = ObjectDetector::default_on(Device::Avx);
        let mut detected = 0usize;
        let mut truth = 0usize;
        for t in 0..ds.num_frames.min(60) {
            let frame = ds.scene.render_frame(t);
            let dets = det.detect(&ds.scene, t, &frame);
            let gt = ds.scene.visible_at(t);
            truth += gt.len();
            detected += dets.iter().filter(|d| d.object_id.is_some()).count();
            // Every true detection's box overlaps its object's box well.
            for d in &dets {
                if let Some(id) = d.object_id {
                    let (_, gt_bb) = gt
                        .iter()
                        .find(|(o, _)| o.id == id)
                        .expect("ground truth exists");
                    assert!(d.bbox.iou(gt_bb) > 0.3, "jittered box must stay close");
                }
            }
        }
        let recall = detected as f64 / truth.max(1) as f64;
        assert!(recall > 0.75, "clean-render recall {recall} too low");
        assert!(recall <= 1.0);
    }

    #[test]
    fn deterministic_across_calls() {
        let ds = tiny_traffic();
        let det = ObjectDetector::default_on(Device::Cpu);
        let frame = ds.scene.render_frame(10);
        let a = det.detect(&ds.scene, 10, &frame);
        let b = det.detect(&ds.scene, 10, &frame);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bbox, y.bbox);
            assert_eq!(x.label, y.label);
        }
    }

    #[test]
    fn degraded_pixels_reduce_detections() {
        let ds = tiny_traffic();
        let det = ObjectDetector::default_on(Device::Avx);
        // Find a frame with several objects.
        let t = (0..ds.num_frames)
            .max_by_key(|&t| ds.scene.visible_at(t).len())
            .unwrap();
        let clean = ds.scene.render_frame(t);
        let clean_count = det.detect(&ds.scene, t, &clean).len();
        // A wrecked "decode": a solid frame destroys the pixel evidence of
        // every object whose signature color is far from it.
        let wrecked = Image::solid(ds.scene.width, ds.scene.height, [0, 0, 0]);
        let wrecked_count = det
            .detect(&ds.scene, t, &wrecked)
            .iter()
            .filter(|d| d.object_id.is_some())
            .count();
        assert!(clean_count > 0);
        assert!(
            wrecked_count < clean_count,
            "destroyed evidence must lose detections ({wrecked_count} vs {clean_count})"
        );
    }

    #[test]
    fn lossy_encoding_degrades_gracefully() {
        // High-quality encode keeps detections; a brutal quality drop loses
        // some — the Fig. 2 mechanism.
        let ds = tiny_traffic();
        let det = ObjectDetector::default_on(Device::Avx);
        let mut hi_total = 0usize;
        let mut lo_total = 0usize;
        for t in (0..ds.num_frames.min(40)).step_by(5) {
            let clean = ds.scene.render_frame(t);
            let hi = deeplens_codec::decode_image(&deeplens_codec::encode_image(
                &clean,
                deeplens_codec::Quality::High,
            ))
            .unwrap();
            let lo = deeplens_codec::decode_image(&deeplens_codec::encode_image(
                &clean,
                deeplens_codec::Quality::Custom(2),
            ))
            .unwrap();
            hi_total += det
                .detect(&ds.scene, t, &hi)
                .iter()
                .filter(|d| d.object_id.is_some())
                .count();
            lo_total += det
                .detect(&ds.scene, t, &lo)
                .iter()
                .filter(|d| d.object_id.is_some())
                .count();
        }
        assert!(
            lo_total <= hi_total,
            "lower quality should never detect more ({lo_total} vs {hi_total})"
        );
    }
}
