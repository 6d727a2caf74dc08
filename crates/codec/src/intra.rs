//! Still-image (intra / JPEG-like) codec.
//!
//! RGB → YCbCr with 4:2:0 chroma subsampling, 8×8 block DCT, quality-scaled
//! quantization, and run-length + Exp-Golomb entropy coding. This is both the
//! standalone image codec (the paper's "JPEG" layout) and the I-frame coder
//! of the [`crate::video`] module.
//!
//! `decode_plane` and `decode_planes` are also the first half of the
//! video encoder's reconstruction loop, so every kernel on this path (the
//! Exp-Golomb reader, the inverse DCT, the row-wise plane writes, the 4:2:0
//! colour conversion) must compute each sample with the same floating-point
//! operations in the same order as the stream's encoder did. A faster
//! kernel here is only correct if decoded frames *and* encoded bytes stay
//! byte-identical; each one is checked bit for bit against its per-sample
//! reference in the unit tests.

use crate::bitstream::{BitReader, BitWriter};
use crate::dct::{self, BLOCK};
use crate::entropy::{BlockDecoder, BlockEncoder};
use crate::error::CodecError;
use crate::image::{check_frame_dimensions, Image, Plane};
use crate::quant::{dequantize, quantize, Quality, QuantTables};

/// Magic number prefixing standalone encoded images.
pub const IMAGE_MAGIC: u32 = 0x444C_4931; // "DLI1"

/// Encode a single plane into the writer: all blocks, row-major block order.
///
/// `shift` is subtracted from every sample before the transform (128 for the
/// level shift of intra planes, 0 for residual planes that are already
/// centred on zero).
pub(crate) fn encode_plane(
    plane: &Plane,
    table: &[u16; BLOCK * BLOCK],
    shift: f32,
    w: &mut BitWriter,
) {
    let bw = (plane.width as usize).div_ceil(BLOCK);
    let bh = (plane.height as usize).div_ceil(BLOCK);
    let mut enc = BlockEncoder::new();
    let mut block = [0f32; BLOCK * BLOCK];
    let mut coef = [0f32; BLOCK * BLOCK];
    for by in 0..bh {
        for bx in 0..bw {
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    block[y * BLOCK + x] =
                        plane.get_clamped((bx * BLOCK + x) as i64, (by * BLOCK + y) as i64) - shift;
                }
            }
            dct::forward(&block, &mut coef);
            let levels = quantize(&coef, table);
            enc.encode(&levels, w);
        }
    }
}

/// Decode a plane written by [`encode_plane`].
///
/// A block whose levels are all zero dequantizes to `+0.0` coefficients,
/// and the inverse DCT of those is `+0.0` in every sample, so such a block
/// writes `0.0 + shift` without running either.
pub(crate) fn decode_plane(
    width: u32,
    height: u32,
    table: &[u16; BLOCK * BLOCK],
    shift: f32,
    r: &mut BitReader<'_>,
) -> crate::Result<Plane> {
    let (w, h) = (width as usize, height as usize);
    let mut plane = Plane::new(width, height);
    let mut dec = BlockDecoder::new();
    let mut pixels = [0f32; BLOCK * BLOCK];
    for y0 in (0..h).step_by(BLOCK) {
        for x0 in (0..w).step_by(BLOCK) {
            let levels = dec.decode(r)?;
            // Edge blocks are clipped at the right and bottom borders.
            let cols = BLOCK.min(w - x0);
            let rows = plane.data[y0 * w..].chunks_mut(w).take(BLOCK);
            if levels.iter().all(|&l| l == 0) {
                for dst in rows {
                    dst[x0..x0 + cols].fill(0.0 + shift);
                }
                continue;
            }
            dct::inverse(&dequantize(&levels, table), &mut pixels);
            for (dst, src) in rows.zip(pixels.chunks_exact(BLOCK)) {
                for (d, &p) in dst[x0..x0 + cols].iter_mut().zip(src) {
                    *d = p + shift;
                }
            }
        }
    }
    Ok(plane)
}

/// Encode the three YCbCr planes of an image (4:2:0) into a writer.
///
/// Shared between the standalone image format and video I-frames.
pub(crate) fn encode_planes(img: &Image, tables: &QuantTables, w: &mut BitWriter) {
    let [y, cb, cr] = img.to_ycbcr();
    let cb = cb.downsample2();
    let cr = cr.downsample2();
    encode_plane(&y, &tables.luma, 128.0, w);
    encode_plane(&cb, &tables.chroma, 128.0, w);
    encode_plane(&cr, &tables.chroma, 128.0, w);
}

/// Decode planes written by [`encode_planes`] back into an RGB image.
pub(crate) fn decode_planes(
    width: u32,
    height: u32,
    tables: &QuantTables,
    r: &mut BitReader<'_>,
) -> crate::Result<Image> {
    let cw = width.div_ceil(2);
    let ch = height.div_ceil(2);
    let y = decode_plane(width, height, &tables.luma, 128.0, r)?;
    let cb = decode_plane(cw, ch, &tables.chroma, 128.0, r)?;
    let cr = decode_plane(cw, ch, &tables.chroma, 128.0, r)?;
    Ok(Image::from_ycbcr420(&y, &cb, &cr))
}

/// Encode an image to a standalone byte buffer (magic + header + bitstream).
pub fn encode_image(img: &Image, quality: Quality) -> Vec<u8> {
    let tables = QuantTables::for_quality(quality);
    let mut w = BitWriter::new();
    w.put_bits(IMAGE_MAGIC, 32);
    w.put_bits(img.width(), 16);
    w.put_bits(img.height(), 16);
    w.put_bits(quality.factor() as u32, 8);
    encode_planes(img, &tables, &mut w);
    w.finish()
}

/// Decode a buffer produced by [`encode_image`].
pub fn decode_image(bytes: &[u8]) -> crate::Result<Image> {
    let mut r = BitReader::new(bytes);
    let magic = r.get_bits(32)?;
    if magic != IMAGE_MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let width = r.get_bits(16)?;
    let height = r.get_bits(16)?;
    check_frame_dimensions(width, height, "image")?;
    let qf = r.get_bits(8)? as u8;
    let tables = QuantTables::for_quality(Quality::Custom(qf));
    decode_planes(width, height, &tables, &mut r)
}

#[cfg(test)]
pub(crate) mod reference {
    use super::{BitReader, Image, Plane, QuantTables, BLOCK};
    use crate::quant::dequantize;

    /// [`super::decode_plane`] over the reference kernels: the bit-loop
    /// entropy decoder, the dense inverse DCT and one `Plane::set` per
    /// sample.
    pub(crate) fn decode_plane(
        width: u32,
        height: u32,
        table: &[u16; BLOCK * BLOCK],
        shift: f32,
        r: &mut BitReader<'_>,
    ) -> crate::Result<Plane> {
        let mut plane = Plane::new(width, height);
        let mut dc_pred = 0;
        let mut pixels = [0f32; BLOCK * BLOCK];
        for by in 0..(height as usize).div_ceil(BLOCK) {
            for bx in 0..(width as usize).div_ceil(BLOCK) {
                let levels = crate::entropy::reference::decode_block(&mut dc_pred, r)?;
                crate::dct::reference::inverse(&dequantize(&levels, table), &mut pixels);
                for y in 0..BLOCK {
                    for x in 0..BLOCK {
                        plane.set(
                            (bx * BLOCK + x) as u32,
                            (by * BLOCK + y) as u32,
                            pixels[y * BLOCK + x] + shift,
                        );
                    }
                }
            }
        }
        Ok(plane)
    }

    /// [`super::decode_planes`] over the reference kernels.
    pub(crate) fn decode_planes(
        width: u32,
        height: u32,
        tables: &QuantTables,
        r: &mut BitReader<'_>,
    ) -> crate::Result<Image> {
        let (cw, ch) = (width.div_ceil(2), height.div_ceil(2));
        let y = decode_plane(width, height, &tables.luma, 128.0, r)?;
        let cb = decode_plane(cw, ch, &tables.chroma, 128.0, r)?;
        let cr = decode_plane(cw, ch, &tables.chroma, 128.0, r)?;
        Ok(crate::image::reference::from_ycbcr420(&y, &cb, &cr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::psnr;

    fn gradient_image(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(
                    x,
                    y,
                    [(x * 255 / w.max(1)) as u8, (y * 255 / h.max(1)) as u8, 120],
                );
            }
        }
        img
    }

    /// Planes of all-zero, DC-only and dense blocks in random order, edge
    /// blocks included: the zero-block path writes the bits the reference
    /// decode's dequantize and inverse DCT produce, at both shifts.
    #[test]
    fn decode_plane_matches_the_reference_on_zero_dc_only_and_dense_blocks() {
        let mut rng = crate::test_rng::Rng::new(0x2E50);
        let tables = QuantTables::for_quality(Quality::High);
        for _ in 0..400 {
            let (w, h) = (1 + rng.below(40) as u32, 1 + rng.below(40) as u32);
            let mut enc = BlockEncoder::new();
            let mut bits = BitWriter::new();
            for _ in 0..w.div_ceil(8) * h.div_ceil(8) {
                let mut levels = [0i32; BLOCK * BLOCK];
                match rng.below(3) {
                    0 => {}
                    1 => levels[0] = rng.below(41) as i32 - 20,
                    _ => {
                        for l in &mut levels {
                            if rng.below(3) == 0 {
                                *l = rng.below(61) as i32 - 30;
                            }
                        }
                    }
                }
                enc.encode(&levels, &mut bits);
            }
            let bytes = bits.finish();
            for (table, shift) in [(&tables.luma, 128.0), (&tables.chroma, 0.0)] {
                let decode = |reference: bool| {
                    let r = &mut BitReader::new(&bytes);
                    let plane = if reference {
                        super::reference::decode_plane(w, h, table, shift, r)
                    } else {
                        decode_plane(w, h, table, shift, r)
                    };
                    let plane = plane.unwrap();
                    plane.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(decode(false), decode(true), "{w}x{h} shift {shift}");
            }
        }
    }

    #[test]
    fn solid_image_is_tiny_and_exactish() {
        let img = Image::solid(64, 64, [200, 30, 90]);
        let bytes = encode_image(&img, Quality::High);
        assert!(
            bytes.len() < img.byte_size() / 20,
            "solid image should compress > 20x"
        );
        let back = decode_image(&bytes).unwrap();
        assert!(psnr(&img, &back) > 35.0);
    }

    #[test]
    fn gradient_roundtrip_quality_ordering() {
        let img = gradient_image(96, 64);
        let hi = decode_image(&encode_image(&img, Quality::High)).unwrap();
        let lo = decode_image(&encode_image(&img, Quality::Low)).unwrap();
        let p_hi = psnr(&img, &hi);
        let p_lo = psnr(&img, &lo);
        assert!(
            p_hi > p_lo,
            "high quality must beat low quality ({p_hi} vs {p_lo})"
        );
        assert!(p_hi > 30.0, "high quality PSNR too low: {p_hi}");
    }

    #[test]
    fn lower_quality_smaller_output() {
        let img = gradient_image(96, 64);
        let hi = encode_image(&img, Quality::High);
        let lo = encode_image(&img, Quality::Low);
        assert!(lo.len() < hi.len());
    }

    #[test]
    fn non_multiple_of_block_dimensions() {
        let img = gradient_image(37, 23);
        let back = decode_image(&encode_image(&img, Quality::High)).unwrap();
        assert_eq!(back.width(), 37);
        assert_eq!(back.height(), 23);
        assert!(psnr(&img, &back) > 28.0);
    }

    #[test]
    fn bad_magic_rejected() {
        let img = Image::solid(16, 16, [1, 2, 3]);
        let mut bytes = encode_image(&img, Quality::Medium);
        bytes[0] ^= 0xFF;
        assert!(matches!(decode_image(&bytes), Err(CodecError::BadMagic(_))));
    }

    #[test]
    fn truncated_stream_rejected() {
        let img = gradient_image(32, 32);
        let bytes = encode_image(&img, Quality::Medium);
        let res = decode_image(&bytes[..bytes.len() / 2]);
        assert!(res.is_err());
    }

    #[test]
    fn oversized_image_header_rejected() {
        let mut w = BitWriter::new();
        w.put_bits(IMAGE_MAGIC, 32);
        w.put_bits(65_535, 16);
        w.put_bits(65_535, 16);
        w.put_bits(90, 8);
        let err = decode_image(&w.finish());
        assert!(
            matches!(&err, Err(CodecError::InvalidHeader(m)) if m.contains("MAX_FRAME_PIXELS")),
            "{err:?}"
        );
    }

    #[test]
    fn one_pixel_image() {
        let img = Image::solid(1, 1, [77, 66, 55]);
        let back = decode_image(&encode_image(&img, Quality::High)).unwrap();
        assert_eq!(back.width(), 1);
        assert_eq!(back.height(), 1);
        let px = back.get(0, 0);
        for (got, want) in px.iter().zip(img.get(0, 0)) {
            assert!((*got as i32 - want as i32).abs() < 30);
        }
    }
}
