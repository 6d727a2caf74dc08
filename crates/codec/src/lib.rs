//! # deeplens-codec
//!
//! Image and video compression substrate for DeepLens.
//!
//! The DeepLens paper (CIDR 2019) evaluates three physical layouts for video:
//! raw frames, a fully-encoded sequential stream (H.264), and a hybrid
//! "segmented" layout of independently-encoded clips. This crate provides the
//! codec those layouts are built on, implemented from scratch:
//!
//! * [`Image`] — dense interleaved RGB raster with plane extraction and
//!   (4:2:0) chroma subsampling support.
//! * [`dct`] — 8×8 forward/inverse discrete cosine transform.
//! * [`quant`] — JPEG-style quality-scaled quantization matrices.
//! * [`bitstream`] — bit-level I/O with Exp-Golomb universal codes.
//! * [`entropy`] — zigzag scan + run-length coefficient coding.
//! * [`intra`] — still-image (I-frame / JPEG-like) codec.
//! * [`motion`] — block motion estimation and compensation.
//! * [`video`] — GOP-structured video encoder/decoder with sequential
//!   decode semantics (no random access within a GOP), plus the bounded
//!   decoded-frame cache ([`FrameCache`]) that shared ingest scans read
//!   through.
//! * [`metrics`] — MSE / PSNR for accuracy studies (paper Fig. 2).
//!
//! The codec intentionally mirrors the properties the paper's experiments
//! depend on: large compression ratios on temporally-redundant video,
//! strictly sequential decoding of inter-coded streams, and lossiness that
//! grows as the quality preset drops.
//!
//! ```
//! use deeplens_codec::{Image, video::{VideoEncoder, VideoDecoder, VideoConfig}, Quality};
//!
//! // Encode a tiny synthetic 3-frame video and decode it back.
//! let frames: Vec<Image> = (0..3)
//!     .map(|t| Image::solid(32, 32, [10 * t as u8, 128, 200]))
//!     .collect();
//! let cfg = VideoConfig { quality: Quality::High, gop: 8, ..Default::default() };
//! let mut enc = VideoEncoder::new(32, 32, cfg);
//! for f in &frames { enc.push(f).unwrap(); }
//! let stream = enc.finish();
//! let decoded: Vec<Image> = VideoDecoder::new(&stream).unwrap().collect::<Result<_, _>>().unwrap();
//! assert_eq!(decoded.len(), 3);
//! ```

pub mod bitstream;
pub mod dct;
pub mod entropy;
pub mod error;
pub mod image;
pub mod intra;
pub mod metrics;
pub mod motion;
pub mod quant;
pub mod video;

pub use error::CodecError;
pub use image::{Image, Plane};
pub use intra::{decode_image, encode_image};
pub use metrics::{mse, psnr};
pub use quant::Quality;
pub use video::{frames_decoded, stream_fingerprint, FrameCache};

/// Result alias used throughout the codec crate.
pub type Result<T> = std::result::Result<T, CodecError>;
