//! Simulated optical character recognition.
//!
//! Like the detector, the OCR engine pays real convolution cost on the
//! pixels, then derives its output from ground truth corrupted with a
//! character error rate that grows when the pixel evidence (text contrast
//! inside the region) is degraded by lossy encoding.

use deeplens_codec::Image;
use deeplens_exec::kernels::conv_stack_vectorized;

use crate::scene::BBox;

/// Noise profile for the simulated OCR engine.
#[derive(Debug, Clone, Copy)]
pub struct OcrConfig {
    /// Base probability each character is misread on clean pixels.
    pub char_error_rate: f64,
    /// Luma contrast below which recognition fails entirely (0–255 scale).
    pub min_contrast: f64,
    /// Convolution layers in the recognition stand-in.
    pub cost_layers: usize,
    /// Seed for deterministic corruption.
    pub seed: u64,
}

impl Default for OcrConfig {
    fn default() -> Self {
        OcrConfig {
            char_error_rate: 0.02,
            min_contrast: 12.0,
            cost_layers: 3,
            seed: 0x0C12,
        }
    }
}

/// One recognized string with its source region.
#[derive(Debug, Clone, PartialEq)]
pub struct OcrResult {
    /// Region the text was read from.
    pub bbox: BBox,
    /// Recognized (possibly corrupted) text.
    pub text: String,
    /// Ground-truth text, retained for accuracy scoring only.
    pub truth: String,
}

/// Deterministic unit-interval hash (same family as the detector's).
fn unit_hash(seed: u64, a: u64, b: u64) -> f64 {
    let mut h = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = h.wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    h ^= h >> 31;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 27;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The simulated OCR engine.
#[derive(Debug, Clone, Default)]
pub struct OcrEngine {
    cfg: OcrConfig,
}

impl OcrEngine {
    /// Engine with an explicit profile.
    pub fn new(cfg: OcrConfig) -> Self {
        OcrEngine { cfg }
    }

    /// Luma range inside a region — the contrast signal lossy encoding kills.
    fn region_contrast(img: &Image, bb: &BBox) -> f64 {
        let x1 = bb.x.max(0) as u32;
        let y1 = bb.y.max(0) as u32;
        let x2 = ((bb.x + bb.w as i64).max(x1 as i64 + 1) as u32).min(img.width());
        let y2 = ((bb.y + bb.h as i64).max(y1 as i64 + 1) as u32).min(img.height());
        let (mut lo, mut hi) = (255f64, 0f64);
        for y in y1..y2 {
            for x in x1..x2 {
                let px = img.get(x, y);
                let luma = 0.299 * px[0] as f64 + 0.587 * px[1] as f64 + 0.114 * px[2] as f64;
                lo = lo.min(luma);
                hi = hi.max(luma);
            }
        }
        (hi - lo).max(0.0)
    }

    /// Recognize the text in `region` of `img`, where `truth` is the string
    /// the scene actually rendered there. `instance` disambiguates repeated
    /// recognitions for deterministic-but-independent corruption.
    pub fn recognize(
        &self,
        img: &Image,
        region: &BBox,
        truth: &str,
        instance: u64,
    ) -> Option<OcrResult> {
        // Pay the recognition compute on the cropped pixels.
        let crop = img.crop(region.x, region.y, region.w, region.h);
        let [y, _, _] = crop.to_ycbcr();
        let _ = conv_stack_vectorized(
            &y.data,
            y.width as usize,
            y.height as usize,
            self.cfg.cost_layers,
        );

        let contrast = Self::region_contrast(img, region);
        if contrast < self.cfg.min_contrast {
            return None; // text wiped out by compression / wrong region
        }
        // Error rate rises as contrast decays toward the failure floor.
        let contrast_penalty = (60.0 - contrast).max(0.0) / 60.0 * 0.3;
        let err = (self.cfg.char_error_rate + contrast_penalty).min(0.9);
        let text: String = truth
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if unit_hash(self.cfg.seed, instance, i as u64) < err {
                    // Deterministic substitution.
                    let sub = (unit_hash(self.cfg.seed, instance ^ 0xFF, i as u64) * 26.0) as u8;
                    (b'A' + sub.min(25)) as char
                } else {
                    c
                }
            })
            .collect();
        Some(OcrResult {
            bbox: *region,
            text,
            truth: truth.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::font;

    fn text_image(text: &str) -> (Image, BBox) {
        let mut img = Image::solid(96, 32, [245, 245, 240]);
        font::draw_text(&mut img, text, 4, 8, 2, [20, 20, 25]);
        let bb = BBox::new(
            2,
            6,
            font::text_width(text, 2) + 6,
            font::text_height(2) + 6,
        );
        (img, bb)
    }

    #[test]
    fn clean_text_reads_mostly_correctly() {
        let (img, bb) = text_image("HELLO");
        let ocr = OcrEngine::new(OcrConfig {
            char_error_rate: 0.0,
            ..Default::default()
        });
        let res = ocr.recognize(&img, &bb, "HELLO", 0).unwrap();
        assert_eq!(res.text, "HELLO");
        assert_eq!(res.truth, "HELLO");
    }

    #[test]
    fn zero_contrast_region_fails() {
        let img = Image::solid(96, 32, [128, 128, 128]);
        let ocr = OcrEngine::default();
        let bb = BBox::new(4, 4, 40, 16);
        assert!(ocr.recognize(&img, &bb, "HELLO", 0).is_none());
    }

    #[test]
    fn corruption_is_deterministic() {
        let (img, bb) = text_image("DEEPLENS");
        let ocr = OcrEngine::new(OcrConfig {
            char_error_rate: 0.5,
            ..Default::default()
        });
        let a = ocr.recognize(&img, &bb, "DEEPLENS", 3).unwrap();
        let b = ocr.recognize(&img, &bb, "DEEPLENS", 3).unwrap();
        assert_eq!(a.text, b.text);
        // Different instances corrupt differently (with high probability).
        let c = ocr.recognize(&img, &bb, "DEEPLENS", 4).unwrap();
        assert_eq!(c.truth, a.truth);
    }

    #[test]
    fn heavy_compression_increases_errors() {
        let (img, bb) = text_image("QUICKBROWNFOX");
        let lossy = deeplens_codec::decode_image(&deeplens_codec::encode_image(
            &img,
            deeplens_codec::Quality::Custom(2),
        ))
        .unwrap();
        let ocr = OcrEngine::new(OcrConfig {
            char_error_rate: 0.01,
            ..Default::default()
        });
        let clean_errs = {
            let r = ocr.recognize(&img, &bb, "QUICKBROWNFOX", 0).unwrap();
            r.text
                .chars()
                .zip(r.truth.chars())
                .filter(|(a, b)| a != b)
                .count()
        };
        // The lossy region either fails outright or errs at least as much.
        match ocr.recognize(&lossy, &bb, "QUICKBROWNFOX", 0) {
            None => {}
            Some(r) => {
                let errs = r
                    .text
                    .chars()
                    .zip(r.truth.chars())
                    .filter(|(a, b)| a != b)
                    .count();
                assert!(errs >= clean_errs, "lossy {errs} vs clean {clean_errs}");
            }
        }
    }
}
