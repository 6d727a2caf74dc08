//! # deeplens-vision
//!
//! Synthetic vision substrate for DeepLens.
//!
//! The paper evaluates on real datasets (personal-computer images, traffic
//! camera video, football clips) processed by real neural networks (SSD
//! object detection, OCR, FCRN depth prediction). Neither the data nor the
//! trained models are available here, so this crate provides the
//! reproduction-rule substitute:
//!
//! * [`scene`] — a parametric world model (objects with identity, class,
//!   trajectory, depth, and text labels) and a rasterizer that renders it to
//!   [`deeplens_codec::Image`] frames.
//! * [`datasets`] — generators for the three benchmark corpora (**PC**,
//!   **TrafficCam**, **Football**) with the paper's structure: 779 PC images
//!   with planted near-duplicates and embedded strings, a continuous traffic
//!   feed with distinct vehicle/pedestrian identities, 15 football clips
//!   with jersey numbers.
//! * [`detector`] / [`ocr`] / [`depth`] — *simulated* models: they run a
//!   real convolution stack on the pixels for a compute cost that grows with
//!   them (via [`deeplens_exec::kernels`]), then derive their outputs from scene ground
//!   truth corrupted with calibrated noise (missed detections, false
//!   positives, bounding-box jitter, character errors, depth noise).
//!   Ground-truth identities are retained on every output so the accuracy
//!   experiments (paper Fig. 2 and Table 1) can be scored without manual
//!   annotation.
//! * [`features`] — patch transformers: color histograms and random-
//!   projection embeddings used by the image-matching queries.
//! * [`rng`] — the seeded generator (SplitMix64) the corpora, the figure
//!   harnesses and the test suite draw from.

pub mod datasets;
pub mod depth;
pub mod detector;
pub mod features;
pub mod font;
pub mod ocr;
pub mod rng;
pub mod scene;

pub use detector::{Detection, DetectorConfig, ObjectDetector};
pub use scene::{BBox, ObjectClass, Scene, SceneObject};
