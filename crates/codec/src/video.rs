//! GOP-structured video container with sequential decode semantics.
//!
//! An encoded video is a header followed by length-prefixed frame packets.
//! I-frames are intra-coded (see [`crate::intra`]); P-frames carry one motion
//! vector per 16×16 macroblock plus DCT-coded residuals. Decoding a P-frame
//! requires the reconstruction of its predecessor, so — exactly as with the
//! H.264 streams in the paper — random access is only possible at I-frame
//! boundaries, and the "Encoded File" layout (one I-frame at the start)
//! forces a full sequential scan.
//!
//! The encoder predicts each P-frame from its own reconstruction of the
//! previous frame, made by the same `decode_frame_payload` the decoder runs.
//! That is the byte-identity contract of every decode kernel (entropy,
//! inverse DCT, motion compensation, reconstruction, colour conversion): a
//! kernel may be rewritten for speed only if it computes each sample with
//! the same floating-point operations in the same order, because a
//! different rounding would change both the decoded frames and, through the
//! encoder's prediction, the encoded bytes. The unit tests check each
//! kernel against a per-sample reference, whole streams against a
//! reference decode, and pin the encoded bytes of a fixed clip.
//!
//! Header fields are checked before they size anything: dimensions are
//! capped at 2^24 pixels, and `frame_count` at the number of 5-byte packets
//! the remaining bytes could hold.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bitstream::{BitReader, BitWriter};
use crate::error::CodecError;
use crate::image::{check_frame_dimensions, Image, Plane};
use crate::intra::{decode_plane, decode_planes, encode_plane, encode_planes};
use crate::motion::{self, MotionVector, MB};
use crate::quant::{Quality, QuantTables};

/// Magic number prefixing encoded video streams ("DLV1").
pub const VIDEO_MAGIC: u32 = 0x444C_5631;

/// Smallest frame packet: a kind byte and a `u32` payload length. A header
/// whose `frame_count` packets of this size would not fit in the bytes
/// after it is rejected before any frame is decoded.
const MIN_PACKET_BYTES: usize = 5;

/// Process-wide count of frame packets reconstructed by [`VideoDecoder`]
/// (the encoder's own reconstruction loop is not counted — it is encode
/// work, not scan work). Monotonic; read it before and after an operation
/// to measure how much decode work the operation actually paid.
static FRAMES_DECODED: AtomicU64 = AtomicU64::new(0);

/// Total frames decoded by every [`VideoDecoder`] in this process so far.
///
/// Process-global, so every catalog and every test in the process moves
/// it. Only the benchmark's `codec.video.frames_decoded_per_op` metric
/// reads it; engine code and tests read the decodes of one catalog from
/// that catalog's counter registry (`SharedCatalog::counters` in
/// `deeplens-core`), or of one cache from [`FrameCache::decoded`].
pub fn frames_decoded() -> u64 {
    FRAMES_DECODED.load(Ordering::Relaxed)
}

/// Frame packet kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Intra-coded frame: decodable standalone.
    Intra,
    /// Predicted frame: requires the previous frame's reconstruction.
    Predicted,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Intra => 0,
            FrameKind::Predicted => 1,
        }
    }

    fn from_byte(b: u8) -> crate::Result<Self> {
        match b {
            0 => Ok(FrameKind::Intra),
            1 => Ok(FrameKind::Predicted),
            other => Err(CodecError::CorruptStream(format!(
                "unknown frame kind {other}"
            ))),
        }
    }
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoConfig {
    /// Lossy quality preset applied to all frames.
    pub quality: Quality,
    /// Distance between I-frames; `1` means intra-only, [`u32::MAX`] means a
    /// single leading I-frame (pure sequential stream).
    pub gop: u32,
    /// Nominal frames per second (metadata only).
    pub fps: f32,
}

impl Default for VideoConfig {
    fn default() -> Self {
        VideoConfig {
            quality: Quality::High,
            gop: 30,
            fps: 30.0,
        }
    }
}

impl VideoConfig {
    /// A configuration emulating a fully-sequential encoded stream (the
    /// paper's "Encoded File"): one I-frame, everything else predicted.
    pub fn sequential(quality: Quality) -> Self {
        VideoConfig {
            quality,
            gop: u32::MAX,
            fps: 30.0,
        }
    }
}

/// Parsed stream header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoHeader {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Quality factor frames were encoded with.
    pub quality: Quality,
    /// Configured GOP length.
    pub gop: u32,
    /// Nominal frames per second.
    pub fps: f32,
    /// Number of frame packets in the stream.
    pub frame_count: u32,
}

// ---- little-endian byte helpers for the container framing ----

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// The `N` bytes at `*pos`, advancing past them.
fn get_bytes<const N: usize>(buf: &[u8], pos: &mut usize) -> crate::Result<[u8; N]> {
    let bytes = buf
        .get(*pos..)
        .and_then(<[u8]>::first_chunk::<N>)
        .ok_or(CodecError::UnexpectedEof)?;
    *pos += N;
    Ok(*bytes)
}

fn get_u32(buf: &[u8], pos: &mut usize) -> crate::Result<u32> {
    get_bytes(buf, pos).map(u32::from_le_bytes)
}

fn get_u16(buf: &[u8], pos: &mut usize) -> crate::Result<u16> {
    get_bytes(buf, pos).map(u16::from_le_bytes)
}

/// Decode one frame payload against an optional reference, returning the
/// reconstructed YCbCr planes (chroma at half resolution).
///
/// Shared by the decoder and by the encoder's reconstruction loop so both
/// sides stay bit-exact and prediction never drifts.
fn decode_frame_payload(
    kind: FrameKind,
    payload: &[u8],
    width: u32,
    height: u32,
    tables: &QuantTables,
    reference: Option<&[Plane; 3]>,
) -> crate::Result<[Plane; 3]> {
    let cw = width.div_ceil(2);
    let ch = height.div_ceil(2);
    let mut r = BitReader::new(payload);
    match kind {
        FrameKind::Intra => {
            let img = decode_planes(width, height, tables, &mut r)?;
            let [y, cb, cr] = img.to_ycbcr();
            Ok([y, cb.downsample2(), cr.downsample2()])
        }
        FrameKind::Predicted => {
            let reference = reference
                .ok_or_else(|| CodecError::CorruptStream("P-frame without reference".into()))?;
            let mb_cols = (width as usize).div_ceil(MB);
            let mb_rows = (height as usize).div_ceil(MB);
            let mut vectors = Vec::with_capacity(mb_cols * mb_rows);
            for _ in 0..mb_cols * mb_rows {
                let dx = r.get_se()?;
                let dy = r.get_se()?;
                vectors.push(MotionVector { dx, dy });
            }
            let res_y = decode_plane(width, height, &tables.luma, 0.0, &mut r)?;
            let res_cb = decode_plane(cw, ch, &tables.chroma, 0.0, &mut r)?;
            let res_cr = decode_plane(cw, ch, &tables.chroma, 0.0, &mut r)?;
            let mut y = motion::compensate(&reference[0], width, height, &vectors, mb_cols, 1);
            let mut cb = motion::compensate(&reference[1], cw, ch, &vectors, mb_cols, 2);
            let mut cr = motion::compensate(&reference[2], cw, ch, &vectors, mb_cols, 2);
            motion::reconstruct(&mut y, &res_y);
            motion::reconstruct(&mut cb, &res_cb);
            motion::reconstruct(&mut cr, &res_cr);
            Ok([y, cb, cr])
        }
    }
}

/// Streaming video encoder.
#[derive(Debug)]
pub struct VideoEncoder {
    width: u32,
    height: u32,
    cfg: VideoConfig,
    tables: QuantTables,
    frames_since_i: u32,
    /// Reconstructed previous frame (what the decoder will see).
    reference: Option<[Plane; 3]>,
    packets: Vec<(FrameKind, Vec<u8>)>,
}

impl VideoEncoder {
    /// Create an encoder for frames of the given dimensions.
    pub fn new(width: u32, height: u32, cfg: VideoConfig) -> Self {
        VideoEncoder {
            width,
            height,
            tables: QuantTables::for_quality(cfg.quality),
            cfg,
            frames_since_i: 0,
            reference: None,
            packets: Vec::new(),
        }
    }

    /// Append a frame to the stream.
    pub fn push(&mut self, frame: &Image) -> crate::Result<()> {
        if (frame.width(), frame.height()) != (self.width, self.height) {
            return Err(CodecError::DimensionMismatch {
                expected: (self.width, self.height),
                actual: (frame.width(), frame.height()),
            });
        }
        // A P-frame predicts from the previous reconstruction; the first
        // frame and every `gop`-th one after an I-frame are intra-coded.
        let predict_from = match &self.reference {
            Some(reference) if self.frames_since_i < self.cfg.gop => Some(reference),
            _ => None,
        };
        let (kind, payload) = match predict_from {
            None => {
                let mut w = BitWriter::new();
                encode_planes(frame, &self.tables, &mut w);
                self.frames_since_i = 1;
                (FrameKind::Intra, w.finish())
            }
            Some(reference) => {
                let [cur_y, cur_cb, cur_cr] = frame.to_ycbcr();
                let cur_cb = cur_cb.downsample2();
                let cur_cr = cur_cr.downsample2();
                let cw = self.width.div_ceil(2);
                let ch = self.height.div_ceil(2);
                let mb_cols = (self.width as usize).div_ceil(MB);
                let mb_rows = (self.height as usize).div_ceil(MB);

                let mut w = BitWriter::new();
                let mut vectors = Vec::with_capacity(mb_cols * mb_rows);
                for by in 0..mb_rows {
                    for bx in 0..mb_cols {
                        let v = motion::estimate(&cur_y, &reference[0], bx, by);
                        w.put_se(v.dx);
                        w.put_se(v.dy);
                        vectors.push(v);
                    }
                }
                let pred_y = motion::compensate(
                    &reference[0],
                    self.width,
                    self.height,
                    &vectors,
                    mb_cols,
                    1,
                );
                let pred_cb = motion::compensate(&reference[1], cw, ch, &vectors, mb_cols, 2);
                let pred_cr = motion::compensate(&reference[2], cw, ch, &vectors, mb_cols, 2);
                encode_plane(
                    &motion::residual(&cur_y, &pred_y),
                    &self.tables.luma,
                    0.0,
                    &mut w,
                );
                encode_plane(
                    &motion::residual(&cur_cb, &pred_cb),
                    &self.tables.chroma,
                    0.0,
                    &mut w,
                );
                encode_plane(
                    &motion::residual(&cur_cr, &pred_cr),
                    &self.tables.chroma,
                    0.0,
                    &mut w,
                );
                self.frames_since_i += 1;
                (FrameKind::Predicted, w.finish())
            }
        };
        // Reconstruct exactly as the decoder will, so prediction never drifts.
        let recon = decode_frame_payload(
            kind,
            &payload,
            self.width,
            self.height,
            &self.tables,
            self.reference.as_ref(),
        )?;
        self.reference = Some(recon);
        self.packets.push((kind, payload));
        Ok(())
    }

    /// Number of frames pushed so far.
    pub fn frame_count(&self) -> usize {
        self.packets.len()
    }

    /// Serialize the container.
    pub fn finish(self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, VIDEO_MAGIC);
        put_u16(&mut buf, self.width as u16);
        put_u16(&mut buf, self.height as u16);
        buf.push(self.cfg.quality.factor());
        put_u32(&mut buf, self.cfg.gop);
        put_u16(
            &mut buf,
            (self.cfg.fps * 100.0).round().clamp(0.0, 65535.0) as u16,
        );
        put_u32(&mut buf, self.packets.len() as u32);
        for (kind, payload) in &self.packets {
            buf.push(kind.to_byte());
            put_u32(&mut buf, payload.len() as u32);
            buf.extend_from_slice(payload);
        }
        buf
    }
}

/// Streaming, strictly-sequential video decoder.
#[derive(Debug)]
pub struct VideoDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    header: VideoHeader,
    tables: QuantTables,
    reference: Option<[Plane; 3]>,
    decoded: u32,
}

impl<'a> VideoDecoder<'a> {
    /// Parse the header and position the decoder at the first frame.
    pub fn new(bytes: &'a [u8]) -> crate::Result<Self> {
        let mut pos = 0usize;
        let magic = get_u32(bytes, &mut pos)?;
        if magic != VIDEO_MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let width = get_u16(bytes, &mut pos)? as u32;
        let height = get_u16(bytes, &mut pos)? as u32;
        check_frame_dimensions(width, height, "video")?;
        let [qf] = get_bytes(bytes, &mut pos)?;
        let gop = get_u32(bytes, &mut pos)?;
        let fps = get_u16(bytes, &mut pos)? as f32 / 100.0;
        let frame_count = get_u32(bytes, &mut pos)?;
        let can_frame = (bytes.len() - pos) / MIN_PACKET_BYTES;
        if frame_count as usize > can_frame {
            return Err(CodecError::InvalidHeader(format!(
                "frame count {frame_count} exceeds the {can_frame} packets \
                 {} remaining bytes can hold",
                bytes.len() - pos
            )));
        }
        let quality = Quality::Custom(qf);
        Ok(VideoDecoder {
            bytes,
            pos,
            header: VideoHeader {
                width,
                height,
                quality,
                gop,
                fps,
                frame_count,
            },
            tables: QuantTables::for_quality(quality),
            reference: None,
            decoded: 0,
        })
    }

    /// Stream header.
    pub fn header(&self) -> &VideoHeader {
        &self.header
    }

    /// Frames remaining to decode.
    pub fn remaining(&self) -> u32 {
        self.header.frame_count - self.decoded
    }

    /// Decode the next frame, or `None` at end of stream.
    // Not an Iterator impl: decoding borrows the reader mutably and callers
    // need the struct's other accessors (`remaining`) between frames.
    #[allow(clippy::should_implement_trait)]
    pub fn next_frame(&mut self) -> Option<crate::Result<Image>> {
        if self.decoded >= self.header.frame_count {
            return None;
        }
        Some(self.decode_one())
    }

    fn decode_one(&mut self) -> crate::Result<Image> {
        let [kind] = get_bytes(self.bytes, &mut self.pos)?;
        let kind = FrameKind::from_byte(kind)?;
        let len = get_u32(self.bytes, &mut self.pos)? as usize;
        let payload = self
            .bytes
            .get(self.pos..)
            .and_then(|rest| rest.get(..len))
            .ok_or(CodecError::UnexpectedEof)?;
        self.pos += len;
        let planes = decode_frame_payload(
            kind,
            payload,
            self.header.width,
            self.header.height,
            &self.tables,
            self.reference.as_ref(),
        )?;
        let [y, cb, cr] = &planes;
        let img = Image::from_ycbcr420(y, cb, cr);
        self.reference = Some(planes);
        self.decoded += 1;
        FRAMES_DECODED.fetch_add(1, Ordering::Relaxed);
        Ok(img)
    }
}

impl Iterator for VideoDecoder<'_> {
    type Item = crate::Result<Image>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_frame()
    }
}

/// Convenience: encode a whole slice of frames.
pub fn encode_video(frames: &[Image], cfg: VideoConfig) -> crate::Result<Vec<u8>> {
    let (w, h) = match frames.first() {
        Some(f) => (f.width(), f.height()),
        None => return Err(CodecError::InvalidHeader("empty frame list".into())),
    };
    let mut enc = VideoEncoder::new(w, h, cfg);
    for f in frames {
        enc.push(f)?;
    }
    Ok(enc.finish())
}

/// Convenience: decode a whole stream into memory.
pub fn decode_video(bytes: &[u8]) -> crate::Result<Vec<Image>> {
    VideoDecoder::new(bytes)?.collect()
}

/// Stable content fingerprint of an encoded stream: FNV-1a over the
/// stream's length followed by its bytes. The decoded-frame cache keys
/// entries on this rather than on a caller-supplied name, so two sources
/// that happen to share a name but carry different bytes do not alias each
/// other's frames. (A 64-bit content hash, not a cryptographic digest —
/// length mixing rules out same-prefix truncations, but callers needing
/// adversarial collision resistance should key on identity themselves.)
pub fn stream_fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in (bytes.len() as u64)
        .to_le_bytes()
        .iter()
        .chain(bytes.iter())
    {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct CacheEntry {
    img: Arc<Image>,
    last_used: u64,
}

/// A bounded cache of decoded frames, keyed by
/// `(stream fingerprint, frame number)`.
///
/// Inter-coded streams force sequential decoding — reconstructing frame `n`
/// requires frames `0..n` — so decode cost is the dominant, *repeated* cost
/// of running several featurization passes over one video. The cache lets a
/// shared-scan engine pay that cost once: [`FrameCache::scan_frames`]
/// returns every requested frame as a shared [`Arc<Image>`] handle,
/// serving it from the cache when a previous scan already decoded it and
/// decoding (then caching) otherwise.
///
/// The cache is **bounded** at `capacity` frames with LRU eviction; a scan
/// longer than the capacity still returns complete handles, but only its
/// most recent `capacity` frames stay resident for later scans. `capacity == 0` disables retention entirely
/// (every scan decodes).
///
/// Not internally synchronized: callers that share one cache across
/// threads wrap it in a lock (the session layer does).
pub struct FrameCache {
    capacity: usize,
    entries: HashMap<(u64, u64), CacheEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
    decoded: u64,
}

impl std::fmt::Debug for FrameCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FrameCache({}/{} frames, {} hits, {} misses)",
            self.entries.len(),
            self.capacity,
            self.hits,
            self.misses
        )
    }
}

impl FrameCache {
    /// An empty cache retaining at most `capacity` decoded frames.
    pub fn new(capacity: usize) -> Self {
        FrameCache {
            capacity,
            entries: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            decoded: 0,
        }
    }

    /// Maximum number of resident frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of frames currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no frames.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Frames this cache has decoded across every
    /// [`FrameCache::scan_frames`] call — the decode work its scans
    /// actually paid, unperturbed by unrelated decoders. A shared-scan
    /// ingest batch adds this count's growth to its catalog's counters.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Fetch one cached frame, refreshing its recency.
    pub fn get(&mut self, stream: u64, frame_no: u64) -> Option<Arc<Image>> {
        self.clock += 1;
        match self.entries.get_mut(&(stream, frame_no)) {
            Some(e) => {
                e.last_used = self.clock;
                self.hits += 1;
                Some(e.img.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a decoded frame, evicting the least-recently-used entry when
    /// the cache is full. A zero-capacity cache stores nothing.
    pub fn insert(&mut self, stream: u64, frame_no: u64, img: Arc<Image>) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&(stream, frame_no)) {
            // Linear victim scan on purpose: at sane capacities (hundreds of
            // frames) one pass over the keys costs ~0.01% of decoding the
            // frame being inserted, which an ordered side-index would spend
            // its own upkeep to save.
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            (stream, frame_no),
            CacheEntry {
                img,
                last_used: self.clock,
            },
        );
    }

    /// Decode (or fetch) exactly the frames in `needed` (sorted ascending,
    /// unique) from the encoded stream `bytes`, returning `(frame_no,
    /// frame)` pairs in that order.
    ///
    /// When every needed frame is resident the scan costs zero decodes.
    /// Otherwise the stream is decoded sequentially from its start through
    /// the last **missing** frame — inter-coded frames need their full
    /// reference chain, so a partial hit still pays one prefix scan, but a
    /// resident suffix is served straight from cache without re-decoding.
    /// Only missing needed frames touch the LRU: gap frames between sparse
    /// windows are dropped as the decoder moves past them, and frames that
    /// are already resident keep their original entries (and `Arc`s), so a
    /// scan can never displace the residents it is about to return. Either
    /// way the stream is decoded **at most once** per call.
    pub fn scan_frames(
        &mut self,
        bytes: &[u8],
        needed: &[u64],
    ) -> crate::Result<Vec<(u64, Arc<Image>)>> {
        debug_assert!(needed.windows(2).all(|w| w[0] < w[1]), "sorted + unique");
        let Some(&last) = needed.last() else {
            return Ok(Vec::new());
        };
        let stream = stream_fingerprint(bytes);
        // Serve entirely from cache when possible.
        let cached: Vec<Option<Arc<Image>>> = needed.iter().map(|&t| self.get(stream, t)).collect();
        if cached.iter().all(Option::is_some) {
            return Ok(needed
                .iter()
                .copied()
                .zip(cached.into_iter().flatten())
                .collect());
        }
        let mut decoder = VideoDecoder::new(bytes)?;
        let available = u64::from(decoder.header().frame_count);
        if last >= available {
            return Err(CodecError::InvalidHeader(format!(
                "frame {last} exceeds stream length {available}"
            )));
        }
        // Walk `needed` in order, decoding forward to each miss: the
        // decoder stops at the last missing frame.
        let mut next = 0u64;
        let mut out = Vec::with_capacity(needed.len());
        for (&t, hit) in needed.iter().zip(cached) {
            let img = match hit {
                Some(img) => img,
                None => loop {
                    let frame = decoder.next_frame().ok_or(CodecError::UnexpectedEof)??;
                    self.decoded += 1;
                    next += 1;
                    if next > t {
                        let img = Arc::new(frame);
                        self.insert(stream, t, img.clone());
                        break img;
                    }
                },
            };
            out.push((t, img));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::psnr;

    /// Synthetic moving-square clip: strong temporal redundancy.
    fn moving_square(n: usize, w: u32, h: u32) -> Vec<Image> {
        (0..n)
            .map(|t| {
                let mut img = Image::solid(w, h, [40, 60, 80]);
                img.fill_rect(2 + t as i64 * 2, 4, 10, 10, [220, 40, 40]);
                img
            })
            .collect()
    }

    /// Textured frames with a moving square: every macroblock has detail,
    /// and the texture scrolls so P-frames carry real motion vectors.
    fn textured_clip(n: usize, w: u32, h: u32) -> Vec<Image> {
        (0..n as u32)
            .map(|t| {
                let mut img = Image::new(w, h);
                for y in 0..h {
                    for x in 0..w {
                        let (u, v) = (x + 3 * t, y + t);
                        img.set(
                            x,
                            y,
                            [
                                ((u * 13 + v * 7) % 251) as u8,
                                ((u * 5 + v * 11) % 241) as u8,
                                (((u ^ v) * 3) % 256) as u8,
                            ],
                        );
                    }
                }
                img.fill_rect(4 + 2 * t as i64, 6 + t as i64, 12, 9, [230, 40, 60]);
                img
            })
            .collect()
    }

    /// One frame payload through the per-sample reference kernels.
    fn reference_payload(
        kind: FrameKind,
        payload: &[u8],
        (width, height): (u32, u32),
        tables: &QuantTables,
        reference: Option<&[Plane; 3]>,
    ) -> [Plane; 3] {
        use crate::intra::reference::{decode_plane, decode_planes};
        let (cw, ch) = (width.div_ceil(2), height.div_ceil(2));
        let mut r = BitReader::new(payload);
        match kind {
            FrameKind::Intra => {
                let [y, cb, cr] = decode_planes(width, height, tables, &mut r)
                    .unwrap()
                    .to_ycbcr();
                [y, cb.downsample2(), cr.downsample2()]
            }
            FrameKind::Predicted => {
                let reference = reference.unwrap();
                let mb_cols = (width as usize).div_ceil(MB);
                let vectors: Vec<MotionVector> = (0..mb_cols * (height as usize).div_ceil(MB))
                    .map(|_| MotionVector {
                        dx: r.get_se_bitwise().unwrap(),
                        dy: r.get_se_bitwise().unwrap(),
                    })
                    .collect();
                let res_y = decode_plane(width, height, &tables.luma, 0.0, &mut r).unwrap();
                let res_cb = decode_plane(cw, ch, &tables.chroma, 0.0, &mut r).unwrap();
                let res_cr = decode_plane(cw, ch, &tables.chroma, 0.0, &mut r).unwrap();
                let predict = |plane: &Plane, w, h, scale| {
                    motion::reference::compensate(plane, w, h, &vectors, mb_cols, scale)
                };
                [
                    motion::reference::reconstruct(
                        &predict(&reference[0], width, height, 1),
                        &res_y,
                    ),
                    motion::reference::reconstruct(&predict(&reference[1], cw, ch, 2), &res_cb),
                    motion::reference::reconstruct(&predict(&reference[2], cw, ch, 2), &res_cr),
                ]
            }
        }
    }

    /// Decode a whole stream with every kernel replaced by its per-sample
    /// reference (container parsing is shared with [`VideoDecoder`]).
    fn reference_decode(bytes: &[u8]) -> Vec<Image> {
        let dec = VideoDecoder::new(bytes).unwrap();
        let dims = (dec.header.width, dec.header.height);
        let mut pos = dec.pos;
        let mut reference: Option<[Plane; 3]> = None;
        (0..dec.header.frame_count)
            .map(|_| {
                let [kind] = get_bytes(bytes, &mut pos).unwrap();
                let len = get_u32(bytes, &mut pos).unwrap() as usize;
                let payload = &bytes[pos..pos + len];
                pos += len;
                let kind = FrameKind::from_byte(kind).unwrap();
                let planes =
                    reference_payload(kind, payload, dims, &dec.tables, reference.as_ref());
                let img =
                    crate::image::reference::from_ycbcr420(&planes[0], &planes[1], &planes[2]);
                reference = Some(planes);
                img
            })
            .collect()
    }

    #[test]
    fn decode_is_byte_identical_to_the_reference_kernels() {
        let gops = [
            VideoConfig {
                gop: 1,
                ..Default::default()
            },
            VideoConfig::default(),
            VideoConfig::sequential(Quality::Medium),
        ];
        for (w, h) in [(96, 96), (37, 23), (17, 33), (1, 1)] {
            let frames = textured_clip(8, w, h);
            for cfg in gops {
                let bytes = encode_video(&frames, cfg).unwrap();
                let decoded = decode_video(&bytes).unwrap();
                assert_eq!(decoded, reference_decode(&bytes), "{w}x{h} gop {}", cfg.gop);
            }
        }
    }

    #[test]
    fn encoded_and_decoded_bytes_are_pinned() {
        // FNV-1a (`stream_fingerprint`) of the encoded stream and of the
        // concatenated decoded RGB frames, recorded before the decode
        // kernels were rewritten: a kernel that rounds any sample
        // differently changes both.
        let cases = [
            (
                96,
                96,
                VideoConfig::default(),
                0xba1f_6b22_681f_cc6c,
                0xecb9_8419_60c0_77d9,
            ),
            (
                37,
                23,
                VideoConfig::sequential(Quality::Medium),
                0xc971_8023_5706_e765,
                0xd85c_2b72_467e_b747,
            ),
            (
                17,
                33,
                VideoConfig {
                    quality: Quality::Low,
                    gop: 1,
                    fps: 30.0,
                },
                0xd136_45c0_0ee5_bf84,
                0x0ee1_5057_0214_6012,
            ),
            (
                1,
                1,
                VideoConfig {
                    gop: 3,
                    ..Default::default()
                },
                0x4463_43a8_8c03_79e2,
                0x3945_fa41_0d71_ff7b,
            ),
        ];
        for (w, h, cfg, stream, frames) in cases {
            let bytes = encode_video(&textured_clip(8, w, h), cfg).unwrap();
            let rgb: Vec<u8> = decode_video(&bytes)
                .unwrap()
                .iter()
                .flat_map(|f| f.data().to_vec())
                .collect();
            assert_eq!(stream_fingerprint(&bytes), stream, "{w}x{h} stream");
            assert_eq!(stream_fingerprint(&rgb), frames, "{w}x{h} frames");
        }
    }

    #[test]
    fn truncated_and_bit_flipped_streams_never_panic() {
        let frames = textured_clip(6, 24, 20);
        let bytes = encode_video(
            &frames,
            VideoConfig {
                gop: 4,
                ..Default::default()
            },
        )
        .unwrap();
        // Every prefix: a header error, a decode error, or (the whole
        // stream) every frame.
        for end in 0..bytes.len() {
            assert!(
                decode_video(&bytes[..end]).is_err(),
                "prefix of {end} bytes"
            );
        }
        // Every single-bit flip decodes to frames or an error.
        let mut flipped = bytes.clone();
        let mut errors = 0;
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            errors += usize::from(decode_video(&flipped).is_err());
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(errors > 0);
    }

    #[test]
    fn header_that_its_bytes_cannot_back_is_rejected() {
        let bytes = encode_video(&moving_square(3, 16, 16), VideoConfig::default()).unwrap();
        // frame_count sits at bytes 15..19.
        let mut lying = bytes.clone();
        lying[15..19].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = VideoDecoder::new(&lying).unwrap_err();
        assert!(
            matches!(&err, CodecError::InvalidHeader(m) if m.contains("frame count")),
            "{err:?}"
        );
        // Exactly as many 5-byte packets as the tail holds is accepted.
        let mut tail = bytes[..19].to_vec();
        tail.extend([0u8; 10]);
        tail[15..19].copy_from_slice(&2u32.to_le_bytes());
        assert!(VideoDecoder::new(&tail).is_ok());
        tail[15..19].copy_from_slice(&3u32.to_le_bytes());
        assert!(VideoDecoder::new(&tail).is_err());

        let mut huge = bytes;
        huge[4..8].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF]);
        let err = VideoDecoder::new(&huge).unwrap_err();
        assert!(
            matches!(&err, CodecError::InvalidHeader(m) if m.contains("MAX_FRAME_PIXELS")),
            "{err:?}"
        );
    }

    #[test]
    fn roundtrip_preserves_frame_count_and_quality() {
        let frames = moving_square(8, 48, 32);
        let bytes = encode_video(&frames, VideoConfig::default()).unwrap();
        let decoded = decode_video(&bytes).unwrap();
        assert_eq!(decoded.len(), frames.len());
        for (orig, dec) in frames.iter().zip(&decoded) {
            assert!(psnr(orig, dec) > 28.0, "frame PSNR too low");
        }
    }

    #[test]
    fn sequential_config_emits_single_i_frame() {
        let frames = moving_square(6, 32, 32);
        let mut enc = VideoEncoder::new(32, 32, VideoConfig::sequential(Quality::Medium));
        for f in &frames {
            enc.push(f).unwrap();
        }
        let kinds: Vec<FrameKind> = enc.packets.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds[0], FrameKind::Intra);
        assert!(kinds[1..].iter().all(|k| *k == FrameKind::Predicted));
    }

    #[test]
    fn gop_inserts_periodic_i_frames() {
        let frames = moving_square(7, 32, 32);
        let mut enc = VideoEncoder::new(
            32,
            32,
            VideoConfig {
                gop: 3,
                ..Default::default()
            },
        );
        for f in &frames {
            enc.push(f).unwrap();
        }
        let kinds: Vec<FrameKind> = enc.packets.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                FrameKind::Intra,
                FrameKind::Predicted,
                FrameKind::Predicted,
                FrameKind::Intra,
                FrameKind::Predicted,
                FrameKind::Predicted,
                FrameKind::Intra,
            ]
        );
    }

    #[test]
    fn inter_coding_compresses_static_content() {
        // A static but textured scene: intra frames pay for the texture every
        // time, P-frames only code the (near-zero) temporal residual.
        let mut textured = Image::new(64, 48);
        for y in 0..48u32 {
            for x in 0..64u32 {
                let v = ((x * 13 + y * 7) % 97) as u8;
                textured.set(x, y, [v.wrapping_mul(2), v, 255 - v]);
            }
        }
        let frames: Vec<Image> = (0..10).map(|_| textured.clone()).collect();
        let seq = encode_video(&frames, VideoConfig::sequential(Quality::Medium)).unwrap();
        let intra_only = encode_video(
            &frames,
            VideoConfig {
                gop: 1,
                quality: Quality::Medium,
                fps: 30.0,
            },
        )
        .unwrap();
        assert!(
            (seq.len() as f64) < intra_only.len() as f64 * 0.5,
            "sequential ({}) should be <50% of intra-only ({})",
            seq.len(),
            intra_only.len()
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut enc = VideoEncoder::new(32, 32, VideoConfig::default());
        let bad = Image::new(16, 16);
        assert!(matches!(
            enc.push(&bad),
            Err(CodecError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_video_rejected() {
        assert!(encode_video(&[], VideoConfig::default()).is_err());
    }

    #[test]
    fn header_fields_roundtrip() {
        let frames = moving_square(3, 32, 32);
        let cfg = VideoConfig {
            quality: Quality::Custom(73),
            gop: 5,
            fps: 24.0,
        };
        let bytes = encode_video(&frames, cfg).unwrap();
        let dec = VideoDecoder::new(&bytes).unwrap();
        let h = dec.header();
        assert_eq!(h.width, 32);
        assert_eq!(h.height, 32);
        assert_eq!(h.quality.factor(), 73);
        assert_eq!(h.gop, 5);
        assert!((h.fps - 24.0).abs() < 0.01);
        assert_eq!(h.frame_count, 3);
    }

    #[test]
    fn truncated_container_detected() {
        let frames = moving_square(4, 32, 32);
        let bytes = encode_video(&frames, VideoConfig::default()).unwrap();
        let mut dec = VideoDecoder::new(&bytes[..bytes.len() - 10]).unwrap();
        let mut saw_err = false;
        for f in &mut dec {
            if f.is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err, "truncation must surface as an error");
    }

    #[test]
    fn bad_magic_video() {
        let frames = moving_square(2, 16, 16);
        let mut bytes = encode_video(&frames, VideoConfig::default()).unwrap();
        bytes[0] = 0;
        assert!(matches!(
            VideoDecoder::new(&bytes),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn decode_counter_tracks_decoded_frames() {
        let frames = moving_square(5, 32, 32);
        let bytes = encode_video(&frames, VideoConfig::default()).unwrap();
        let before = frames_decoded();
        decode_video(&bytes).unwrap();
        // Other tests in this process may decode concurrently, so the
        // global counter can only be bounded from below here; exact
        // decode-once assertions go through `FrameCache::decoded`.
        assert!(frames_decoded() - before >= 5);
    }

    #[test]
    fn frame_cache_scans_a_stream_at_most_once() {
        let frames = moving_square(8, 32, 32);
        let bytes = encode_video(&frames, VideoConfig::sequential(Quality::High)).unwrap();
        let mut cache = FrameCache::new(32);

        let window = cache.scan_frames(&bytes, &[2, 3, 4, 5, 6]).unwrap();
        assert_eq!(
            window.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![2, 3, 4, 5, 6]
        );
        // Sequential stream: the reference chain forces a prefix decode,
        // but exactly one.
        assert_eq!(cache.decoded(), 7);

        // A second overlapping scan inside the window is pure cache.
        let again = cache.scan_frames(&bytes, &[3, 4, 5]).unwrap();
        assert_eq!(cache.decoded(), 7, "no further decode work");
        for ((t, img), (t2, img2)) in window[1..4].iter().zip(&again) {
            assert_eq!(t, t2);
            assert!(Arc::ptr_eq(img, img2), "same decoded frame is shared");
        }
        assert!(cache.hits() > 0);
    }

    #[test]
    fn frame_cache_is_bounded_with_lru_eviction() {
        let frames = moving_square(6, 16, 16);
        let bytes = encode_video(&frames, VideoConfig::default()).unwrap();
        let mut cache = FrameCache::new(3);
        let all: Vec<u64> = (0..6).collect();
        cache.scan_frames(&bytes, &all).unwrap();
        assert_eq!(cache.len(), 3, "capacity bounds residency");
        let stream = stream_fingerprint(&bytes);
        // The most recent frames survive; the oldest were evicted.
        assert!(cache.get(stream, 5).is_some());
        assert!(cache.get(stream, 0).is_none());
        // Zero capacity stores nothing but still scans correctly.
        let mut none = FrameCache::new(0);
        assert_eq!(none.scan_frames(&bytes, &all).unwrap().len(), 6);
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn frame_cache_keys_on_stream_bytes_not_names() {
        let a = encode_video(&moving_square(4, 16, 16), VideoConfig::default()).unwrap();
        let mut other_frames = moving_square(4, 16, 16);
        other_frames[2].fill_rect(1, 1, 4, 4, [0, 255, 0]);
        let b = encode_video(&other_frames, VideoConfig::default()).unwrap();
        assert_ne!(stream_fingerprint(&a), stream_fingerprint(&b));
        let mut cache = FrameCache::new(16);
        let fa = cache.scan_frames(&a, &[2]).unwrap();
        let fb = cache.scan_frames(&b, &[2]).unwrap();
        assert!(!Arc::ptr_eq(&fa[0].1, &fb[0].1), "streams never alias");
    }

    #[test]
    fn frame_cache_window_bounds_checked() {
        let frames = moving_square(4, 16, 16);
        let bytes = encode_video(&frames, VideoConfig::default()).unwrap();
        let mut cache = FrameCache::new(8);
        let overrun: Vec<u64> = (2..9).collect();
        assert!(cache.scan_frames(&bytes, &overrun).is_err());
        assert!(cache.scan_frames(&[1, 2, 3], &[0]).is_err());
        // An empty request decodes nothing and validates nothing: the
        // overrun of an empty window (9..9 of a 4-frame stream) is the
        // batch planner's check, made on the header before any scan.
        assert!(cache.scan_frames(&bytes, &[]).unwrap().is_empty());
        assert_eq!(cache.decoded(), 0);
    }

    #[test]
    fn frame_cache_scan_frames_retains_only_needed() {
        let frames = moving_square(8, 16, 16);
        let bytes = encode_video(&frames, VideoConfig::sequential(Quality::High)).unwrap();
        let mut cache = FrameCache::new(32);
        // Sparse needed set: the reference chain forces decoding 0..=6, but
        // only the two needed frames are retained or returned.
        let got = cache.scan_frames(&bytes, &[1, 6]).unwrap();
        assert_eq!(got.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![1, 6]);
        assert_eq!(cache.decoded(), 7, "prefix decoded once");
        assert_eq!(cache.len(), 2, "gap frames are not retained");
        // Fully resident: zero further decodes.
        cache.scan_frames(&bytes, &[1, 6]).unwrap();
        assert_eq!(cache.decoded(), 7);
        // Out-of-range needed frame errors; empty set is a no-op.
        assert!(cache.scan_frames(&bytes, &[3, 11]).is_err());
        assert!(cache.scan_frames(&bytes, &[]).unwrap().is_empty());
    }

    #[test]
    fn frame_cache_disjoint_windows_never_displace_requested_residents() {
        let frames = moving_square(12, 16, 16);
        let bytes = encode_video(&frames, VideoConfig::sequential(Quality::High)).unwrap();
        // Capacity holds exactly the two requested windows and nothing
        // more: if the gap frames 4..8 touched the LRU, the first window
        // would be evicted before the second scan returned.
        let mut cache = FrameCache::new(8);
        cache.scan_frames(&bytes, &[0, 1, 2, 3]).unwrap();
        assert_eq!(cache.decoded(), 4);
        cache.scan_frames(&bytes, &[8, 9, 10, 11]).unwrap();
        assert_eq!(cache.decoded(), 16, "reference chain re-decoded once");
        let stream = stream_fingerprint(&bytes);
        for t in (0..4).chain(8..12) {
            assert!(
                cache.get(stream, t).is_some(),
                "requested frame {t} was displaced"
            );
        }
        assert_eq!(cache.len(), 8, "gap frames never entered the cache");
        // Decode-counter regression: re-scanning the two disjoint windows
        // together is pure cache.
        let union: Vec<u64> = (0..4).chain(8..12).collect();
        let got = cache.scan_frames(&bytes, &union).unwrap();
        assert_eq!(got.iter().map(|(t, _)| *t).collect::<Vec<_>>(), union);
        assert_eq!(cache.decoded(), 16, "disjoint-window rescan costs zero");
    }

    #[test]
    fn frame_cache_partial_hit_stops_at_last_missing_frame() {
        let frames = moving_square(8, 16, 16);
        let bytes = encode_video(&frames, VideoConfig::sequential(Quality::High)).unwrap();
        let mut cache = FrameCache::new(32);
        let first = cache.scan_frames(&bytes, &[1, 6]).unwrap();
        assert_eq!(cache.decoded(), 7);
        // Frame 0 is the only miss, so the prefix decode stops right
        // after it instead of re-decoding through the resident frame 6.
        let second = cache.scan_frames(&bytes, &[0, 1, 6]).unwrap();
        assert_eq!(
            second.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![0, 1, 6]
        );
        assert_eq!(cache.decoded(), 8, "resident suffix served from cache");
        // Resident frames keep their original entries: the rescan hands
        // back the very same decoded rasters, not fresh duplicates.
        assert!(Arc::ptr_eq(&first[0].1, &second[1].1));
        assert!(Arc::ptr_eq(&first[1].1, &second[2].1));
    }
}
