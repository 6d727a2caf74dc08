//! Dense raster images and single-channel planes.
//!
//! [`Image`] is the interchange type of the whole DeepLens stack: the vision
//! substrate renders scenes into it, the codec compresses it, and the core
//! patch model crops sub-rectangles out of it.

use crate::error::CodecError;

/// An 8-bit interleaved RGB image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: u32,
    height: u32,
    /// Interleaved RGB, row-major, `3 * width * height` bytes.
    data: Vec<u8>,
}

impl Image {
    /// Create a black image of the given dimensions.
    pub fn new(width: u32, height: u32) -> Self {
        Image {
            width,
            height,
            data: vec![0; (width * height * 3) as usize],
        }
    }

    /// Create an image filled with a single RGB color.
    pub fn solid(width: u32, height: u32, rgb: [u8; 3]) -> Self {
        let mut data = Vec::with_capacity((width * height * 3) as usize);
        for _ in 0..width * height {
            data.extend_from_slice(&rgb);
        }
        Image {
            width,
            height,
            data,
        }
    }

    /// Build an image from raw interleaved RGB bytes.
    ///
    /// Returns an error when the buffer length does not match the dimensions.
    pub fn from_rgb(width: u32, height: u32, data: Vec<u8>) -> crate::Result<Self> {
        if data.len() != (width * height * 3) as usize {
            return Err(CodecError::InvalidHeader(format!(
                "rgb buffer of {} bytes does not match {}x{}",
                data.len(),
                width,
                height
            )));
        }
        Ok(Image {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw interleaved RGB bytes.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the raw interleaved RGB bytes.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Number of bytes this image occupies uncompressed.
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.data.len()
    }

    /// Get the pixel at `(x, y)`. Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> [u8; 3] {
        debug_assert!(x < self.width && y < self.height);
        let i = ((y * self.width + x) * 3) as usize;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Set the pixel at `(x, y)`; out-of-bounds writes are ignored so
    /// rasterizers can draw shapes that overlap the frame border.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, rgb: [u8; 3]) {
        if x >= self.width || y >= self.height {
            return;
        }
        let i = ((y * self.width + x) * 3) as usize;
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// Fill an axis-aligned rectangle, clipping against the image bounds.
    pub fn fill_rect(&mut self, x0: i64, y0: i64, w: u32, h: u32, rgb: [u8; 3]) {
        let x_start = x0.max(0) as u32;
        let y_start = y0.max(0) as u32;
        let x_end = ((x0 + w as i64).max(0) as u64).min(self.width as u64) as u32;
        let y_end = ((y0 + h as i64).max(0) as u64).min(self.height as u64) as u32;
        for y in y_start..y_end {
            for x in x_start..x_end {
                self.set(x, y, rgb);
            }
        }
    }

    /// Crop a sub-rectangle, clipping to bounds. Returns a 1x1 black image if
    /// the rectangle lies entirely outside the frame.
    pub fn crop(&self, x0: i64, y0: i64, w: u32, h: u32) -> Image {
        let x_start = x0.max(0).min(self.width as i64 - 1) as u32;
        let y_start = y0.max(0).min(self.height as i64 - 1) as u32;
        let x_end = ((x0 + w as i64).max(x_start as i64 + 1) as u64).min(self.width as u64) as u32;
        let y_end = ((y0 + h as i64).max(y_start as i64 + 1) as u64).min(self.height as u64) as u32;
        let cw = x_end - x_start;
        let ch = y_end - y_start;
        let mut out = Image::new(cw, ch);
        for y in 0..ch {
            let src = (((y_start + y) * self.width + x_start) * 3) as usize;
            let dst = (y * cw * 3) as usize;
            out.data[dst..dst + (cw * 3) as usize]
                .copy_from_slice(&self.data[src..src + (cw * 3) as usize]);
        }
        out
    }

    /// Nearest-neighbour resize to a fixed resolution (used to emulate the
    /// fixed input resolution of neural networks, paper §4.2).
    pub fn resize(&self, nw: u32, nh: u32) -> Image {
        assert!(nw > 0 && nh > 0, "resize target must be non-empty");
        let mut out = Image::new(nw, nh);
        for y in 0..nh {
            let sy = (y as u64 * self.height as u64 / nh as u64) as u32;
            for x in 0..nw {
                let sx = (x as u64 * self.width as u64 / nw as u64) as u32;
                out.set(x, y, self.get(sx, sy));
            }
        }
        out
    }

    /// Split into Y, Cb, Cr planes (BT.601 full-range).
    pub fn to_ycbcr(&self) -> [Plane; 3] {
        let n = (self.width * self.height) as usize;
        let mut y_p = Vec::with_capacity(n);
        let mut cb_p = Vec::with_capacity(n);
        let mut cr_p = Vec::with_capacity(n);
        for px in self.data.chunks_exact(3) {
            let (r, g, b) = (px[0] as f32, px[1] as f32, px[2] as f32);
            y_p.push(0.299 * r + 0.587 * g + 0.114 * b);
            cb_p.push(128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b);
            cr_p.push(128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b);
        }
        [
            Plane {
                width: self.width,
                height: self.height,
                data: y_p,
            },
            Plane {
                width: self.width,
                height: self.height,
                data: cb_p,
            },
            Plane {
                width: self.width,
                height: self.height,
                data: cr_p,
            },
        ]
    }

    /// Reassemble an RGB image from a full-resolution Y plane and 4:2:0
    /// Cb, Cr planes (`⌈w/2⌉ × ⌈h/2⌉`): pixel `(x, y)` takes its chroma
    /// from sample `(x/2, y/2)`, as a nearest-neighbour upsample would give
    /// it.
    ///
    /// A chroma sample's four products (`1.402·cr`, `0.344136·cb`,
    /// `0.714136·cr`, `1.772·cb`) are formed once for the four pixels that
    /// share it; each pixel then computes `r = y + 1.402·cr`,
    /// `g = (y − 0.344136·cb) − 0.714136·cr` and `b = y + 1.772·cb` with
    /// exactly the operations of a per-pixel conversion. A row is converted
    /// into an interleaved `f32` buffer first and rounded to bytes in a
    /// second, branch-free pass ([`clamp_u8`]) that the compiler vectorizes.
    pub(crate) fn from_ycbcr420(y: &Plane, cb: &Plane, cr: &Plane) -> Image {
        let (w, h) = (y.width as usize, y.height as usize);
        let cw = w.div_ceil(2);
        debug_assert!([cb, cr]
            .iter()
            .all(|p| p.width as usize == cw && p.height as usize == h.div_ceil(2)));
        let mut data = vec![0u8; w * h * 3];
        // Per chroma column of the current chroma row: the four products.
        let mut products = vec![[0f32; 4]; cw];
        // The current row's r, g, b before rounding.
        let mut unrounded = vec![0f32; 3 * w];
        // `max(1)`: a zero-width image has no rows to convert.
        let rows = y
            .data
            .chunks_exact(w.max(1))
            .zip(data.chunks_exact_mut(3 * w.max(1)));
        for (row, (y_row, rgb_row)) in rows.enumerate() {
            if row % 2 == 0 {
                let chroma = (row / 2) * cw..(row / 2 + 1) * cw;
                let (cb_row, cr_row) = (&cb.data[chroma.clone()], &cr.data[chroma]);
                for ((p, &cb), &cr) in products.iter_mut().zip(cb_row).zip(cr_row) {
                    let (cb, cr) = (cb - 128.0, cr - 128.0);
                    *p = [1.402 * cr, 0.344_136 * cb, 0.714_136 * cr, 1.772 * cb];
                }
            }
            let pairs = unrounded.chunks_exact_mut(6).zip(y_row.chunks_exact(2));
            for ((rgb2, y2), p) in pairs.zip(&products) {
                rgb2.copy_from_slice(&[
                    y2[0] + p[0],
                    y2[0] - p[1] - p[2],
                    y2[0] + p[3],
                    y2[1] + p[0],
                    y2[1] - p[1] - p[2],
                    y2[1] + p[3],
                ]);
            }
            // An odd width leaves one pixel on the last chroma column.
            if w % 2 == 1 {
                let (y, p) = (y_row[w - 1], products[cw - 1]);
                unrounded[3 * w - 3..].copy_from_slice(&[y + p[0], y - p[1] - p[2], y + p[3]]);
            }
            for (byte, &v) in rgb_row.iter_mut().zip(&unrounded) {
                *byte = clamp_u8(v);
            }
        }
        Image {
            width: y.width,
            height: y.height,
            data,
        }
    }

    /// Mean color of the whole image, as f32 RGB.
    ///
    /// Each channel is summed in `u64` and converted once. That is the
    /// `f64` running sum exactly: every partial sum of bytes is an integer
    /// below 2⁵³, which an `f64` holds without rounding.
    pub fn mean_color(&self) -> [f32; 3] {
        let mut acc = [0u64; 3];
        for px in self.data.chunks_exact(3) {
            acc[0] += u64::from(px[0]);
            acc[1] += u64::from(px[1]);
            acc[2] += u64::from(px[2]);
        }
        let n = (self.width * self.height).max(1) as f64;
        acc.map(|sum| (sum as f64 / n) as f32)
    }
}

/// 2²³: adding it to an `f32` in `[0, 2²³)` rounds the sum to an integer,
/// ties to even, and leaves that integer in the low mantissa bits.
const ROUNDING_BIAS: f32 = 8_388_608.0;

/// Round half away from zero into `0..=255`, equal to
/// `v.round().clamp(0.0, 255.0) as u8` for every `f32` (NaN → 0, ±∞ → 255 / 0),
/// with no branch and no `roundf` call, so a loop of it vectorizes on the
/// baseline x86-64 target.
///
/// After the two selects `v ∈ [-0, 255]`. `v + 2²³` rounds to the nearest
/// integer `r` with ties to even, and its low byte is `r`; `v − r` is exact
/// (Sterbenz), so it equals `0.5` exactly on the ties that went down to an
/// even `r ≤ 254`, which round half away from zero takes up by one.
#[inline]
fn clamp_u8(v: f32) -> u8 {
    let v = if v >= 0.0 { v } else { 0.0 };
    let v = if v <= 255.0 { v } else { 255.0 };
    let biased = v + ROUNDING_BIAS;
    let r = biased - ROUNDING_BIAS;
    (biased.to_bits() as u8) + u8::from(v - r == 0.5)
}

/// Largest `width × height` (4096 × 4096) a decoder accepts from a stream
/// header. Decoding a frame holds about twenty bytes per pixel (residual,
/// prediction and reference planes in `f32`, and the RGB raster), sized by
/// the header before the first block is read.
pub(crate) const MAX_FRAME_PIXELS: u64 = 1 << 24;

/// Reject stream-header dimensions a decoder must not allocate for: a zero
/// side, or more than [`MAX_FRAME_PIXELS`] pixels. `what` names the format
/// in the error ("video", "image").
pub(crate) fn check_frame_dimensions(width: u32, height: u32, what: &str) -> crate::Result<()> {
    if width == 0 || height == 0 {
        return Err(CodecError::InvalidHeader(format!("zero {what} dimension")));
    }
    if u64::from(width) * u64::from(height) > MAX_FRAME_PIXELS {
        return Err(CodecError::InvalidHeader(format!(
            "{width}x{height} {what} frame exceeds MAX_FRAME_PIXELS ({MAX_FRAME_PIXELS})"
        )));
    }
    Ok(())
}

/// A single-channel floating-point plane.
#[derive(Debug, Clone, PartialEq)]
pub struct Plane {
    /// Plane width in samples.
    pub width: u32,
    /// Plane height in samples.
    pub height: u32,
    /// Row-major samples.
    pub data: Vec<f32>,
}

impl Plane {
    /// Create a zero-filled plane.
    pub fn new(width: u32, height: u32) -> Self {
        Plane {
            width,
            height,
            data: vec![0.0; (width * height) as usize],
        }
    }

    /// Sample at `(x, y)`, clamping coordinates to the border (the DCT tiler
    /// uses this to pad edge blocks).
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> f32 {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.data[(cy * self.width + cx) as usize]
    }

    /// Set the sample at `(x, y)`; out-of-bounds writes are ignored.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: f32) {
        if x < self.width && y < self.height {
            self.data[(y * self.width + x) as usize] = v;
        }
    }

    /// 2×2 box-filter downsample (chroma subsampling). Dimensions round up.
    pub fn downsample2(&self) -> Plane {
        let nw = self.width.div_ceil(2);
        let nh = self.height.div_ceil(2);
        let mut out = Plane::new(nw, nh);
        for y in 0..nh {
            for x in 0..nw {
                let mut acc = 0.0;
                for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                    acc += self.get_clamped((x * 2 + dx) as i64, (y * 2 + dy) as i64);
                }
                out.set(x, y, acc / 4.0);
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod reference {
    use super::{Image, Plane};

    /// The per-pixel nearest-neighbour 2× upsample the 4:2:0 conversion
    /// replaced.
    pub(crate) fn upsample2(p: &Plane, tw: u32, th: u32) -> Plane {
        let mut out = Plane::new(tw, th);
        for y in 0..th {
            for x in 0..tw {
                out.set(x, y, p.get_clamped((x / 2) as i64, (y / 2) as i64));
            }
        }
        out
    }

    /// `f32::round`-based clamp [`super::clamp_u8`] must equal.
    pub(crate) fn clamp_u8(v: f32) -> u8 {
        v.round().clamp(0.0, 255.0) as u8
    }

    /// The per-pixel conversion from three full-resolution planes that
    /// [`Image::from_ycbcr420`] must match byte for byte after a
    /// [`upsample2`] of its chroma.
    pub(crate) fn from_ycbcr(planes: &[Plane; 3]) -> Image {
        let (w, h) = (planes[0].width, planes[0].height);
        let mut data = Vec::with_capacity((w * h * 3) as usize);
        for i in 0..(w * h) as usize {
            let y = planes[0].data[i];
            let cb = planes[1].data[i] - 128.0;
            let cr = planes[2].data[i] - 128.0;
            let r = y + 1.402 * cr;
            let g = y - 0.344_136 * cb - 0.714_136 * cr;
            let b = y + 1.772 * cb;
            data.push(clamp_u8(r));
            data.push(clamp_u8(g));
            data.push(clamp_u8(b));
        }
        Image {
            width: w,
            height: h,
            data,
        }
    }

    /// The per-pixel `f64` running sums [`Image::mean_color`] must equal
    /// bit for bit.
    pub(crate) fn mean_color(img: &Image) -> [f32; 3] {
        let mut acc = [0f64; 3];
        for px in img.data.chunks_exact(3) {
            acc[0] += px[0] as f64;
            acc[1] += px[1] as f64;
            acc[2] += px[2] as f64;
        }
        let n = (img.width * img.height).max(1) as f64;
        [
            (acc[0] / n) as f32,
            (acc[1] / n) as f32,
            (acc[2] / n) as f32,
        ]
    }

    /// Reference for a decoded frame: upsample the chroma, then convert.
    pub(crate) fn from_ycbcr420(y: &Plane, cb: &Plane, cr: &Plane) -> Image {
        let (w, h) = (y.width, y.height);
        from_ycbcr(&[y.clone(), upsample2(cb, w, h), upsample2(cr, w, h)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;

    #[test]
    fn clamp_u8_equals_round_clamp_for_every_kind_of_f32() {
        let mut rng = Rng::new(0xC1A);
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            0.499_999_97,
            0.5,
            254.499_98,
            254.5,
            255.0,
            255.5,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        // Every half step across the range and beyond it with its two
        // neighbouring floats (the ties and near-ties the rounding must
        // tell apart), then random bit patterns (NaN payloads, subnormals,
        // huge magnitudes) and random values near the byte range.
        let halves = (-1024..1024).flat_map(|k| {
            let half = k as f32 / 2.0;
            [half.next_down(), half, half.next_up()]
        });
        let bits: Vec<f32> = (0..200_000)
            .map(|_| f32::from_bits(rng.next_u64() as u32))
            .collect();
        let near: Vec<f32> = (0..200_000).map(|_| rng.f32_in(-8.0, 264.0)).collect();
        for v in specials.into_iter().chain(halves).chain(bits).chain(near) {
            assert_eq!(
                clamp_u8(v),
                reference::clamp_u8(v),
                "{v} ({:#x})",
                v.to_bits()
            );
        }
    }

    #[test]
    fn from_ycbcr420_matches_upsample_then_convert() {
        let mut rng = Rng::new(0x420);
        for case in 0..10_000 {
            let (w, h) = (1 + rng.below(19) as u32, 1 + rng.below(13) as u32);
            let mut sample = || match case % 4 {
                // Decoded planes: in range, with exact .5 boundaries.
                0 => rng.below(511) as f32 / 2.0,
                1 => rng.f32_in(-40.0, 300.0),
                2 => rng.f32_in(0.0, 255.0),
                _ => [f32::NAN, f32::INFINITY, -1e9, 127.5, rng.f32_in(0.0, 255.0)]
                    [rng.below(5) as usize],
            };
            let mut plane = |pw: u32, ph: u32| Plane {
                width: pw,
                height: ph,
                data: (0..pw * ph).map(|_| sample()).collect(),
            };
            let y = plane(w, h);
            let cb = plane(w.div_ceil(2), h.div_ceil(2));
            let cr = plane(w.div_ceil(2), h.div_ceil(2));
            assert_eq!(
                Image::from_ycbcr420(&y, &cb, &cr),
                reference::from_ycbcr420(&y, &cb, &cr),
                "{w}x{h}"
            );
        }
    }

    #[test]
    fn solid_roundtrips_pixels() {
        let img = Image::solid(4, 3, [1, 2, 3]);
        assert_eq!(img.get(0, 0), [1, 2, 3]);
        assert_eq!(img.get(3, 2), [1, 2, 3]);
        assert_eq!(img.byte_size(), 36);
    }

    #[test]
    fn from_rgb_validates_length() {
        assert!(Image::from_rgb(2, 2, vec![0; 12]).is_ok());
        assert!(Image::from_rgb(2, 2, vec![0; 11]).is_err());
    }

    #[test]
    fn fill_rect_clips() {
        let mut img = Image::new(4, 4);
        img.fill_rect(-2, -2, 4, 4, [255, 0, 0]);
        assert_eq!(img.get(0, 0), [255, 0, 0]);
        assert_eq!(img.get(1, 1), [255, 0, 0]);
        assert_eq!(img.get(2, 2), [0, 0, 0]);
    }

    #[test]
    fn crop_respects_bounds() {
        let mut img = Image::new(8, 8);
        img.fill_rect(2, 2, 2, 2, [9, 9, 9]);
        let c = img.crop(2, 2, 2, 2);
        assert_eq!(c.width(), 2);
        assert_eq!(c.height(), 2);
        assert_eq!(c.get(0, 0), [9, 9, 9]);

        // Fully out-of-bounds crop degrades to a tiny clipped image.
        let c2 = img.crop(100, 100, 4, 4);
        assert!(c2.width() >= 1 && c2.height() >= 1);
    }

    #[test]
    fn ycbcr_roundtrip_is_near_lossless() {
        // Constant 2×2 blocks, so 4:2:0 subsampling loses nothing.
        let mut img = Image::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                let (bx, by) = (x / 2 * 2, y / 2 * 2);
                img.set(
                    x,
                    y,
                    [(bx * 16) as u8, (by * 16) as u8, ((bx + by) * 8) as u8],
                );
            }
        }
        let [y, cb, cr] = img.to_ycbcr();
        let back = Image::from_ycbcr420(&y, &cb.downsample2(), &cr.downsample2());
        for (a, b) in img.data().iter().zip(back.data()) {
            assert!(
                (*a as i32 - *b as i32).abs() <= 2,
                "channel drift too large"
            );
        }
    }

    #[test]
    fn resize_preserves_solid_color() {
        let img = Image::solid(10, 10, [7, 8, 9]);
        let r = img.resize(3, 5);
        assert_eq!(r.width(), 3);
        assert_eq!(r.height(), 5);
        assert_eq!(r.get(2, 4), [7, 8, 9]);
    }

    #[test]
    fn downsample_rounds_dimensions_up() {
        let p = Plane::new(5, 7);
        let d = p.downsample2();
        assert_eq!((d.width, d.height), (3, 4));
    }

    #[test]
    fn mean_color_equals_the_f64_running_sums() {
        let mut rng = Rng::new(0x3EA7);
        for _ in 0..500 {
            let (w, h) = (rng.below(70) as u32, rng.below(70) as u32);
            let data = (0..w * h * 3).map(|_| rng.below(256) as u8).collect();
            let img = Image::from_rgb(w, h, data).unwrap();
            let (fast, slow) = (img.mean_color(), reference::mean_color(&img));
            assert_eq!(fast.map(f32::to_bits), slow.map(f32::to_bits), "{w}x{h}");
        }
        // The largest sums: every byte 255, over a 1024 × 1024 image.
        let white = Image::solid(1024, 1024, [255; 3]);
        assert_eq!(white.mean_color(), reference::mean_color(&white));
        assert_eq!(white.mean_color(), [255.0; 3]);
    }

    #[test]
    fn mean_color_of_solid() {
        let img = Image::solid(6, 6, [10, 20, 30]);
        let m = img.mean_color();
        assert!((m[0] - 10.0).abs() < 1e-3);
        assert!((m[1] - 20.0).abs() < 1e-3);
        assert!((m[2] - 30.0).abs() < 1e-3);
    }
}
