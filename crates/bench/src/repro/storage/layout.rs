//! Video physical layouts: Frame File, Encoded File, Segmented File.
//!
//! These are the three storage formats of the paper's §3.1, behind one
//! [`VideoStore`] trait so the Fig. 3 harness can swap layouts without
//! touching query code:
//!
//! * [`FrameFile`] — one record per frame in a B+Tree sorted by frame
//!   number; supports exact temporal filter pushdown. Frames are stored raw
//!   or individually intra-coded ("JPEG").
//! * [`EncodedFile`] — the whole video as a single sequential inter-coded
//!   stream; smallest on disk, but any access decodes from frame zero.
//! * [`SegmentedFile`] — fixed-length clips, each an independent sequential
//!   stream, keyed by start frame; coarse-grained pushdown plus most of the
//!   inter-coding win.
//!
//! [`StorageAdvisor`] implements the paper's future-work idea of picking a
//! layout from a workload description.

use std::ops::Bound;
use std::path::Path;

use deeplens_codec::video::{decode_video, encode_video, VideoConfig};
use deeplens_codec::{decode_image, encode_image, Image, Quality};

use super::btree::{keys, BTree};
use super::{Result, StorageError};

/// Per-frame storage format inside a [`FrameFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFormat {
    /// Raw interleaved RGB (the paper's "RAW" layout).
    Raw,
    /// Individually intra-coded frames (the paper's "JPEG" layout).
    Intra(Quality),
}

impl FrameFormat {
    /// Label used by the benchmark harnesses.
    pub fn label(&self) -> String {
        match self {
            FrameFormat::Raw => "RAW".into(),
            FrameFormat::Intra(q) => format!("JPEG-{}", q.label()),
        }
    }
}

/// Common interface over the three physical layouts.
pub trait VideoStore {
    /// Number of frames stored.
    fn frame_count(&self) -> u64;

    /// On-disk footprint in bytes.
    fn byte_size(&self) -> u64;

    /// Decode all frames with numbers in `[start, end)`.
    ///
    /// The work each layout performs here is exactly the paper's trade-off:
    /// Frame Files touch only the requested records, Encoded Files decode
    /// sequentially from frame zero, Segmented Files decode whole clips that
    /// overlap the range.
    fn scan_range(&mut self, start: u64, end: u64) -> Result<Vec<(u64, Image)>>;

    /// Human-readable layout label.
    fn label(&self) -> String;

    /// Number of frames the layout had to *decode* to answer the last
    /// `scan_range` (the pushdown-effectiveness metric of Fig. 3).
    fn last_decoded_frames(&self) -> u64;
}

// --------------------------------------------------------------------------
// Frame File
// --------------------------------------------------------------------------

/// One record per frame, sorted by frame number in a B+Tree.
#[derive(Debug)]
pub struct FrameFile {
    tree: BTree,
    format: FrameFormat,
    width: u32,
    height: u32,
    decoded: u64,
}

impl FrameFile {
    /// Ingest `frames` into a fresh Frame File at `path`.
    ///
    /// Raw payloads carry no shape of their own — the file header's
    /// width/height reconstructs every record — so a raw Frame File requires
    /// all frames to share the first frame's dimensions and rejects a mixed
    /// ingest with [`StorageError::DimensionMismatch`]. (Intra-coded frames
    /// embed their dimensions and may vary freely.)
    pub fn ingest<P: AsRef<Path>>(path: P, frames: &[Image], format: FrameFormat) -> Result<Self> {
        let (width, height) = frames
            .first()
            .map(|f| (f.width(), f.height()))
            .unwrap_or((0, 0));
        if format == FrameFormat::Raw {
            for (i, frame) in frames.iter().enumerate() {
                Self::check_raw_dims(width, height, frame, i as u64)?;
            }
        }
        let mut tree = BTree::create(path)?;
        for (i, frame) in frames.iter().enumerate() {
            let payload = match format {
                FrameFormat::Raw => frame.data().to_vec(),
                FrameFormat::Intra(q) => encode_image(frame, q),
            };
            tree.insert(&keys::encode_u64(i as u64), &payload)?;
        }
        tree.flush()?;
        Ok(FrameFile {
            tree,
            format,
            width,
            height,
            decoded: 0,
        })
    }

    /// Reject a raw-format frame whose shape differs from the file's fixed
    /// raster dimensions: `decode_payload` would otherwise reinterpret its
    /// bytes at the wrong stride and silently return garbage pixels.
    fn check_raw_dims(width: u32, height: u32, frame: &Image, frame_no: u64) -> Result<()> {
        if frame.width() != width || frame.height() != height {
            return Err(StorageError::DimensionMismatch {
                expected_w: width,
                expected_h: height,
                got_w: frame.width(),
                got_h: frame.height(),
                frame_no,
            });
        }
        Ok(())
    }

    /// Append one frame with the next frame number.
    ///
    /// Like [`FrameFile::ingest`], a raw-format append must match the file's
    /// fixed dimensions once any frame is stored.
    pub fn append(&mut self, frame: &Image) -> Result<u64> {
        if self.tree.is_empty() {
            self.width = frame.width();
            self.height = frame.height();
        } else if self.format == FrameFormat::Raw {
            Self::check_raw_dims(self.width, self.height, frame, self.tree.len())?;
        }
        let no = self.tree.len();
        let payload = match self.format {
            FrameFormat::Raw => frame.data().to_vec(),
            FrameFormat::Intra(q) => encode_image(frame, q),
        };
        self.tree.insert(&keys::encode_u64(no), &payload)?;
        Ok(no)
    }

    /// Fetch a single frame by number.
    pub fn get(&mut self, frame_no: u64) -> Result<Option<Image>> {
        match self.tree.get(&keys::encode_u64(frame_no))? {
            Some(bytes) => {
                self.decoded += 1;
                Ok(Some(self.decode_payload(&bytes)?))
            }
            None => Ok(None),
        }
    }

    fn decode_payload(&self, bytes: &[u8]) -> Result<Image> {
        match self.format {
            FrameFormat::Raw => {
                Image::from_rgb(self.width, self.height, bytes.to_vec()).map_err(StorageError::from)
            }
            FrameFormat::Intra(_) => decode_image(bytes).map_err(StorageError::from),
        }
    }
}

impl VideoStore for FrameFile {
    fn frame_count(&self) -> u64 {
        self.tree.len()
    }

    fn byte_size(&self) -> u64 {
        self.tree.byte_size()
    }

    fn scan_range(&mut self, start: u64, end: u64) -> Result<Vec<(u64, Image)>> {
        self.decoded = 0;
        let lo = keys::encode_u64(start);
        let hi = keys::encode_u64(end);
        let mut out = Vec::new();
        for entry in self.tree.scan(Bound::Included(&lo), Bound::Excluded(&hi))? {
            let (k, v) = entry?;
            out.push((keys::decode_u64(&k), self.decode_payload(&v)?));
            self.decoded += 1;
        }
        Ok(out)
    }

    fn label(&self) -> String {
        format!("FrameFile({})", self.format.label())
    }

    fn last_decoded_frames(&self) -> u64 {
        self.decoded
    }
}

// --------------------------------------------------------------------------
// Encoded File
// --------------------------------------------------------------------------

/// The whole video as one sequential inter-coded stream in a flat file.
#[derive(Debug)]
pub struct EncodedFile {
    bytes: Vec<u8>,
    frame_count: u64,
    decoded: u64,
}

impl EncodedFile {
    /// Encode `frames` sequentially and persist the stream to `path`.
    pub fn ingest<P: AsRef<Path>>(path: P, frames: &[Image], quality: Quality) -> Result<Self> {
        let bytes = encode_video(frames, VideoConfig::sequential(quality))?;
        std::fs::write(path.as_ref(), &bytes)?;
        Ok(EncodedFile {
            bytes,
            frame_count: frames.len() as u64,
            decoded: 0,
        })
    }

    /// Open a previously-ingested stream.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let bytes = std::fs::read(path.as_ref())?;
        let dec = deeplens_codec::video::VideoDecoder::new(&bytes)?;
        let frame_count = dec.header().frame_count as u64;
        Ok(EncodedFile {
            bytes,
            frame_count,
            decoded: 0,
        })
    }
}

impl VideoStore for EncodedFile {
    fn frame_count(&self) -> u64 {
        self.frame_count
    }

    fn byte_size(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn scan_range(&mut self, start: u64, end: u64) -> Result<Vec<(u64, Image)>> {
        // The codec is sequential: reaching frame `start` requires decoding
        // every preceding frame. This is the cost Fig. 3 measures.
        self.decoded = 0;
        // An empty or fully out-of-range request answers itself: decoding
        // the prefix would return nothing while still paying for every
        // frame below `end`.
        if start >= end || start >= self.frame_count {
            return Ok(vec![]);
        }
        let mut out = Vec::new();
        let mut dec = deeplens_codec::video::VideoDecoder::new(&self.bytes)?;
        for no in 0..end.min(self.frame_count) {
            match dec.next_frame() {
                Some(frame) => {
                    let frame = frame?;
                    self.decoded += 1;
                    if no >= start {
                        out.push((no, frame));
                    }
                }
                None => break,
            }
        }
        Ok(out)
    }

    fn label(&self) -> String {
        "EncodedFile(H264-like)".into()
    }

    fn last_decoded_frames(&self) -> u64 {
        self.decoded
    }
}

// --------------------------------------------------------------------------
// Segmented File
// --------------------------------------------------------------------------

/// Fixed-length encoded clips keyed by start frame in a B+Tree.
#[derive(Debug)]
pub struct SegmentedFile {
    tree: BTree,
    clip_len: u64,
    frame_count: u64,
    decoded: u64,
}

impl SegmentedFile {
    /// Segment `frames` into clips of `clip_len` and persist at `path`.
    ///
    /// A zero `clip_len` is rejected with [`StorageError::InvalidArgument`]:
    /// there is no zero-frame clip partitioning of a video.
    pub fn ingest<P: AsRef<Path>>(
        path: P,
        frames: &[Image],
        clip_len: u64,
        quality: Quality,
    ) -> Result<Self> {
        if clip_len == 0 {
            return Err(StorageError::InvalidArgument(
                "segmented layout clip length must be positive".to_string(),
            ));
        }
        let mut tree = BTree::create(path)?;
        for (ci, chunk) in frames.chunks(clip_len as usize).enumerate() {
            let clip = encode_video(chunk, VideoConfig::sequential(quality))?;
            tree.insert(&keys::encode_u64(ci as u64 * clip_len), &clip)?;
        }
        tree.flush()?;
        Ok(SegmentedFile {
            tree,
            clip_len,
            frame_count: frames.len() as u64,
            decoded: 0,
        })
    }

    /// Configured clip length in frames.
    pub fn clip_len(&self) -> u64 {
        self.clip_len
    }
}

impl VideoStore for SegmentedFile {
    fn frame_count(&self) -> u64 {
        self.frame_count
    }

    fn byte_size(&self) -> u64 {
        self.tree.byte_size()
    }

    fn scan_range(&mut self, start: u64, end: u64) -> Result<Vec<(u64, Image)>> {
        self.decoded = 0;
        let end = end.min(self.frame_count);
        if start >= end {
            return Ok(vec![]);
        }
        // Coarse pushdown: fetch only the clips overlapping [start, end),
        // but decode each overlapping clip in full (sequential inside).
        let first_clip = start - start % self.clip_len;
        let lo = keys::encode_u64(first_clip);
        let hi = keys::encode_u64(end);
        let mut out = Vec::new();
        for entry in self.tree.scan(Bound::Included(&lo), Bound::Excluded(&hi))? {
            let (k, clip_bytes) = entry?;
            let clip_start = keys::decode_u64(&k);
            let frames = decode_video(&clip_bytes)?;
            self.decoded += frames.len() as u64;
            for (i, frame) in frames.into_iter().enumerate() {
                let no = clip_start + i as u64;
                if no >= start && no < end {
                    out.push((no, frame));
                }
            }
        }
        Ok(out)
    }

    fn label(&self) -> String {
        format!("SegmentedFile(clip={})", self.clip_len)
    }

    fn last_decoded_frames(&self) -> u64 {
        self.decoded
    }
}

// --------------------------------------------------------------------------
// Storage advisor (paper §3, "Future Work: Storage Advisor")
// --------------------------------------------------------------------------

/// A workload description the advisor optimizes for.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    /// Total frames in the corpus.
    pub num_frames: u64,
    /// Raw bytes per frame.
    pub raw_frame_bytes: u64,
    /// Average fraction of the video a temporal-range query touches.
    pub temporal_selectivity: f64,
    /// Relative weight of storage cost vs. query latency in `[0, 1]`
    /// (1.0 = only storage matters).
    pub storage_weight: f64,
}

/// One candidate layout with its estimated costs.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutEstimate {
    /// Layout label.
    pub layout: String,
    /// Estimated on-disk footprint in bytes.
    pub storage_bytes: f64,
    /// Estimated decode work per query (arbitrary cost units).
    pub query_cost: f64,
    /// Combined weighted score (lower is better).
    pub score: f64,
}

/// Compression-ratio and decode-cost constants calibrated against this
/// crate's codec on the synthetic traffic dataset.
mod model {
    /// Intra-coded frame size relative to raw.
    pub const INTRA_RATIO: f64 = 0.08;
    /// Inter-coded (sequential) stream size relative to raw.
    pub const INTER_RATIO: f64 = 0.02;
    /// Extra I-frame cost per clip for the segmented layout.
    pub const CLIP_IFRAME_OVERHEAD: f64 = 0.06;
    /// Cost units: reading one raw frame.
    pub const READ_RAW: f64 = 1.0;
    /// Cost units: decoding one intra frame.
    pub const DECODE_INTRA: f64 = 4.0;
    /// Cost units: decoding one inter frame.
    pub const DECODE_INTER: f64 = 6.0;
}

/// The storage advisor: scores every layout for a workload.
#[derive(Debug, Default)]
pub struct StorageAdvisor;

impl StorageAdvisor {
    /// Rank all layouts for `profile` (best first). Clip length for the
    /// segmented candidate is chosen as the query span in frames.
    pub fn advise(profile: &WorkloadProfile) -> Vec<LayoutEstimate> {
        let n = profile.num_frames as f64;
        let raw = profile.raw_frame_bytes as f64;
        let sel = profile.temporal_selectivity.clamp(0.0, 1.0);
        let span = (sel * n).max(1.0);

        let candidates = [
            ("FrameFile(RAW)", n * raw, span * model::READ_RAW),
            (
                "FrameFile(JPEG)",
                n * raw * model::INTRA_RATIO,
                span * model::DECODE_INTRA,
            ),
            (
                "EncodedFile",
                n * raw * model::INTER_RATIO,
                // Expected decode length for a uniformly-placed range:
                // half the prefix plus the span itself.
                (n / 2.0 + span) * model::DECODE_INTER,
            ),
            (
                "SegmentedFile",
                n * raw * model::INTER_RATIO * (1.0 + model::CLIP_IFRAME_OVERHEAD),
                // One clip of slack on average.
                (span + span.min(n)) * model::DECODE_INTER,
            ),
        ];

        // Normalize each axis so the weights are meaningful.
        let max_storage = candidates
            .iter()
            .map(|c| c.1)
            .fold(f64::MIN, f64::max)
            .max(f64::EPSILON);
        let max_cost = candidates
            .iter()
            .map(|c| c.2)
            .fold(f64::MIN, f64::max)
            .max(f64::EPSILON);
        let w = profile.storage_weight.clamp(0.0, 1.0);

        let mut out: Vec<LayoutEstimate> = candidates
            .iter()
            .map(|(label, storage, cost)| LayoutEstimate {
                layout: (*label).to_string(),
                storage_bytes: *storage,
                query_cost: *cost,
                score: w * storage / max_storage + (1.0 - w) * cost / max_cost,
            })
            .collect();
        out.sort_by(|a, b| a.score.total_cmp(&b.score));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("deeplens-layout-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.dl", std::process::id()));
        std::fs::remove_file(&p).ok();
        p
    }

    /// Slowly-changing synthetic clip.
    fn clip(n: usize) -> Vec<Image> {
        (0..n)
            .map(|t| {
                let mut img = Image::solid(48, 32, [30, 80, 60]);
                img.fill_rect(t as i64 * 2, 8, 8, 8, [240, 200, 40]);
                img
            })
            .collect()
    }

    #[test]
    fn frame_file_raw_roundtrip_and_pushdown() {
        let frames = clip(20);
        let mut ff = FrameFile::ingest(tmpfile("ff-raw"), &frames, FrameFormat::Raw).unwrap();
        assert_eq!(ff.frame_count(), 20);
        let got = ff.scan_range(5, 9).unwrap();
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].0, 5);
        assert_eq!(got[0].1, frames[5], "raw layout is lossless");
        assert_eq!(
            ff.last_decoded_frames(),
            4,
            "exact pushdown decodes only the range"
        );
    }

    #[test]
    fn frame_file_intra_is_lossy_but_close() {
        let frames = clip(6);
        let mut ff = FrameFile::ingest(
            tmpfile("ff-jpeg"),
            &frames,
            FrameFormat::Intra(Quality::High),
        )
        .unwrap();
        let got = ff.scan_range(0, 6).unwrap();
        assert_eq!(got.len(), 6);
        for ((_, dec), orig) in got.iter().zip(&frames) {
            assert!(deeplens_codec::psnr(orig, dec) > 28.0);
        }
        assert!(ff.byte_size() > 0);
    }

    #[test]
    fn encoded_file_decodes_prefix() {
        let frames = clip(20);
        let mut ef = EncodedFile::ingest(tmpfile("ef"), &frames, Quality::High).unwrap();
        let got = ef.scan_range(15, 18).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, 15);
        // Sequential: had to decode frames 0..18.
        assert_eq!(ef.last_decoded_frames(), 18);
    }

    #[test]
    fn encoded_file_smaller_than_raw_frames() {
        let frames = clip(30);
        let raw_bytes: u64 = frames.iter().map(|f| f.byte_size() as u64).sum();
        let ef = EncodedFile::ingest(tmpfile("ef-size"), &frames, Quality::Medium).unwrap();
        assert!(
            ef.byte_size() * 4 < raw_bytes,
            "encoded {} should be far below raw {}",
            ef.byte_size(),
            raw_bytes
        );
    }

    #[test]
    fn segmented_file_coarse_pushdown() {
        let frames = clip(20);
        let mut sf = SegmentedFile::ingest(tmpfile("sf"), &frames, 5, Quality::High).unwrap();
        let got = sf.scan_range(7, 9).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 7);
        // Only the clip [5, 10) is decoded: 5 frames, not 9 and not 20.
        assert_eq!(sf.last_decoded_frames(), 5);
    }

    #[test]
    fn segmented_range_spanning_clips() {
        let frames = clip(20);
        let mut sf = SegmentedFile::ingest(tmpfile("sf-span"), &frames, 4, Quality::High).unwrap();
        let got = sf.scan_range(3, 13).unwrap();
        assert_eq!(got.len(), 10);
        let nos: Vec<u64> = got.iter().map(|(n, _)| *n).collect();
        assert_eq!(nos, (3..13).collect::<Vec<_>>());
        // Clips [0,4) [4,8) [8,12) [12,16) → 16 frames decoded.
        assert_eq!(sf.last_decoded_frames(), 16);
    }

    #[test]
    fn empty_range_is_empty() {
        let frames = clip(8);
        let mut sf = SegmentedFile::ingest(tmpfile("sf-empty"), &frames, 4, Quality::High).unwrap();
        assert!(sf.scan_range(5, 5).unwrap().is_empty());
        assert!(sf.scan_range(100, 200).unwrap().is_empty());
    }

    #[test]
    fn raw_frame_file_rejects_mixed_dimension_ingest() {
        // Regression: decode_payload reconstructs every raw record with the
        // *first* frame's width/height, so a mixed-dimension ingest used to
        // round-trip silently into garbage pixels.
        let frames = vec![
            Image::solid(48, 32, [10, 20, 30]),
            Image::solid(24, 16, [40, 50, 60]),
        ];
        let err = FrameFile::ingest(tmpfile("ff-mixed"), &frames, FrameFormat::Raw).unwrap_err();
        match err {
            StorageError::DimensionMismatch {
                expected_w: 48,
                expected_h: 32,
                got_w: 24,
                got_h: 16,
                frame_no: 1,
            } => {}
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
        // Intra-coded frames embed their own dimensions: mixed shapes are
        // legitimate there and must keep working.
        let mut ff = FrameFile::ingest(
            tmpfile("ff-mixed-jpeg"),
            &frames,
            FrameFormat::Intra(Quality::High),
        )
        .unwrap();
        let got = ff.scan_range(0, 2).unwrap();
        assert_eq!(got[0].1.width(), 48);
        assert_eq!(got[1].1.width(), 24);
    }

    #[test]
    fn raw_frame_file_rejects_mixed_dimension_append() {
        let frames = clip(3);
        let mut ff = FrameFile::ingest(tmpfile("ff-app"), &frames, FrameFormat::Raw).unwrap();
        let odd = Image::solid(12, 12, [1, 2, 3]);
        assert!(matches!(
            ff.append(&odd),
            Err(StorageError::DimensionMismatch { frame_no: 3, .. })
        ));
        assert_eq!(ff.frame_count(), 3, "rejected append stores nothing");
        // A matching frame still appends, and the file stays lossless.
        let ok = Image::solid(48, 32, [7, 8, 9]);
        assert_eq!(ff.append(&ok).unwrap(), 3);
        assert_eq!(ff.get(3).unwrap().unwrap(), ok);
    }

    #[test]
    fn segmented_zero_clip_len_is_an_error_not_a_panic() {
        // Regression: this used to assert! and take the process down — the
        // TileGenerator tile==0 bug class (PR 2), reappearing in storage.
        let frames = clip(4);
        let err = SegmentedFile::ingest(tmpfile("sf-zero"), &frames, 0, Quality::High).unwrap_err();
        assert!(matches!(err, StorageError::InvalidArgument(_)), "{err:?}");
    }

    #[test]
    fn encoded_out_of_range_scan_decodes_nothing() {
        // Regression: scan_range(start >= frame_count) used to decode the
        // whole prefix 0..end just to return an empty vec.
        let frames = clip(20);
        let mut ef = EncodedFile::ingest(tmpfile("ef-oor"), &frames, Quality::High).unwrap();
        assert!(ef.scan_range(100, 200).unwrap().is_empty());
        assert_eq!(ef.last_decoded_frames(), 0, "no prefix decode");
        assert!(ef.scan_range(20, 25).unwrap().is_empty());
        assert_eq!(ef.last_decoded_frames(), 0);
        // Empty ranges inside the file decode nothing either.
        assert!(ef.scan_range(5, 5).unwrap().is_empty());
        assert_eq!(ef.last_decoded_frames(), 0);
        // And a real scan still works afterwards.
        let got = ef.scan_range(15, 18).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(ef.last_decoded_frames(), 18);
    }

    #[test]
    fn advisor_prefers_encoded_for_storage() {
        let profile = WorkloadProfile {
            num_frames: 30_000,
            raw_frame_bytes: 6_000_000,
            temporal_selectivity: 0.5,
            storage_weight: 1.0,
        };
        let ranked = StorageAdvisor::advise(&profile);
        assert!(ranked[0].layout.contains("Encoded") || ranked[0].layout.contains("Segmented"));
        assert!(ranked[0].storage_bytes < ranked.last().unwrap().storage_bytes);
    }

    #[test]
    fn advisor_prefers_frame_file_for_point_queries() {
        let profile = WorkloadProfile {
            num_frames: 30_000,
            raw_frame_bytes: 6_000_000,
            temporal_selectivity: 0.001,
            storage_weight: 0.0,
        };
        let ranked = StorageAdvisor::advise(&profile);
        assert!(
            ranked[0].layout.contains("FrameFile"),
            "latency-only point queries favor frame files, got {}",
            ranked[0].layout
        );
    }

    #[test]
    fn advisor_balances_with_segmented() {
        let profile = WorkloadProfile {
            num_frames: 30_000,
            raw_frame_bytes: 6_000_000,
            temporal_selectivity: 0.01,
            storage_weight: 0.6,
        };
        let ranked = StorageAdvisor::advise(&profile);
        // With mixed weights the hybrid should beat the pure encoded layout.
        let seg_pos = ranked
            .iter()
            .position(|e| e.layout.contains("Segmented"))
            .unwrap();
        let enc_pos = ranked
            .iter()
            .position(|e| e.layout == "EncodedFile")
            .unwrap();
        assert!(
            seg_pos < enc_pos,
            "segmented should outrank encoded: {ranked:?}"
        );
    }
}
