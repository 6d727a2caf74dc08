//! Zigzag scan and run-length coefficient coding.
//!
//! Quantized 8×8 blocks are serialized as: signed Exp-Golomb DC delta
//! (differential against the previous block of the same plane), then
//! `(run-of-zeros, level)` pairs over the zigzagged AC coefficients, closed
//! by an end-of-block marker.

use crate::bitstream::{BitReader, BitWriter};
use crate::dct::BLOCK;
use crate::error::CodecError;

/// Zigzag scan order for an 8×8 block (JPEG order).
pub const ZIGZAG: [usize; BLOCK * BLOCK] = [
    0, 1, 8, 16, 9, 2, 3, 10, //
    17, 24, 32, 25, 18, 11, 4, 5, //
    12, 19, 26, 33, 40, 48, 41, 34, //
    27, 20, 13, 6, 7, 14, 21, 28, //
    35, 42, 49, 56, 57, 50, 43, 36, //
    29, 22, 15, 23, 30, 37, 44, 51, //
    58, 59, 52, 45, 38, 31, 39, 46, //
    53, 60, 61, 54, 47, 55, 62, 63,
];

/// Stateful block coder: tracks the DC predictor for differential coding.
#[derive(Debug, Default)]
pub struct BlockEncoder {
    dc_pred: i32,
}

impl BlockEncoder {
    /// Create a coder with a zero DC predictor (start of plane).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset the DC predictor (slice/plane boundary).
    pub fn reset(&mut self) {
        self.dc_pred = 0;
    }

    /// Encode one quantized block into the bit writer.
    pub fn encode(&mut self, levels: &[i32; BLOCK * BLOCK], w: &mut BitWriter) {
        // DC: differential, signed Exp-Golomb.
        let dc = levels[0];
        w.put_se(dc - self.dc_pred);
        self.dc_pred = dc;

        // AC: (run, level) pairs in zigzag order. run is ue, level is se != 0.
        let mut run = 0u32;
        for &zz in ZIGZAG.iter().skip(1) {
            let v = levels[zz];
            if v == 0 {
                run += 1;
            } else {
                w.put_ue(run);
                w.put_se(v);
                run = 0;
            }
        }
        // End-of-block: run == 63 can never follow a coefficient, so a
        // sentinel run of 63 paired with level 0 terminates the block.
        w.put_ue(63);
        w.put_se(0);
    }
}

/// Stateful block decoder mirroring [`BlockEncoder`].
#[derive(Debug, Default)]
pub struct BlockDecoder {
    dc_pred: i32,
}

impl BlockDecoder {
    /// Create a decoder with a zero DC predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset the DC predictor (slice/plane boundary).
    pub fn reset(&mut self) {
        self.dc_pred = 0;
    }

    /// Decode one block from the bit reader.
    pub fn decode(&mut self, r: &mut BitReader<'_>) -> crate::Result<[i32; BLOCK * BLOCK]> {
        let mut levels = [0i32; BLOCK * BLOCK];
        let delta = r.get_se()?;
        self.dc_pred = self
            .dc_pred
            .checked_add(delta)
            .ok_or_else(|| CodecError::CorruptStream("DC predictor overflows i32".into()))?;
        levels[0] = self.dc_pred;

        let mut pos = 1usize; // position in zigzag order
        loop {
            let run = r.get_ue()? as usize;
            let level = r.get_se()?;
            if run == 63 && level == 0 {
                break; // end of block
            }
            pos += run;
            if pos >= BLOCK * BLOCK {
                return Err(CodecError::CorruptStream(format!(
                    "AC run overflows block: pos {pos}"
                )));
            }
            if level == 0 {
                return Err(CodecError::CorruptStream("zero AC level".into()));
            }
            levels[ZIGZAG[pos]] = level;
            pos += 1;
        }
        Ok(levels)
    }
}

#[cfg(test)]
pub(crate) mod reference {
    use super::{BitReader, CodecError, BLOCK, ZIGZAG};

    /// [`super::BlockDecoder::decode`] over the bit-loop Exp-Golomb reader,
    /// for the reference decode.
    pub(crate) fn decode_block(
        dc_pred: &mut i32,
        r: &mut BitReader<'_>,
    ) -> crate::Result<[i32; BLOCK * BLOCK]> {
        let mut levels = [0i32; BLOCK * BLOCK];
        *dc_pred = dc_pred
            .checked_add(r.get_se_bitwise()?)
            .ok_or_else(|| CodecError::CorruptStream("DC predictor overflows i32".into()))?;
        levels[0] = *dc_pred;
        let mut pos = 1usize;
        loop {
            let run = r.get_ue_bitwise()? as usize;
            let level = r.get_se_bitwise()?;
            if run == 63 && level == 0 {
                return Ok(levels);
            }
            pos += run;
            if pos >= BLOCK * BLOCK || level == 0 {
                return Err(CodecError::CorruptStream("bad AC run or level".into()));
            }
            levels[ZIGZAG[pos]] = level;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i], "duplicate zigzag index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zigzag_first_entries() {
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
    }

    fn roundtrip_blocks(blocks: &[[i32; 64]]) {
        let mut w = BitWriter::new();
        let mut enc = BlockEncoder::new();
        for b in blocks {
            enc.encode(b, &mut w);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut dec = BlockDecoder::new();
        for b in blocks {
            let d = dec.decode(&mut r).unwrap();
            assert_eq!(&d, b);
        }
    }

    #[test]
    fn empty_block_roundtrip() {
        roundtrip_blocks(&[[0i32; 64]]);
    }

    #[test]
    fn dc_only_sequence_roundtrip() {
        let mut blocks = vec![];
        for dc in [5i32, 7, 3, -10, 0, 100] {
            let mut b = [0i32; 64];
            b[0] = dc;
            blocks.push(b);
        }
        roundtrip_blocks(&blocks);
    }

    #[test]
    fn dense_block_roundtrip() {
        let mut b = [0i32; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as i32 % 7) - 3; // includes zeros interleaved with values
        }
        roundtrip_blocks(&[b]);
    }

    #[test]
    fn trailing_coefficient_roundtrip() {
        // Nonzero value at the very last zigzag position.
        let mut b = [0i32; 64];
        b[ZIGZAG[63]] = -4;
        b[0] = 9;
        roundtrip_blocks(&[b]);
    }

    #[test]
    fn corrupt_stream_detected() {
        // A stream of all 1-bits decodes ue=0 forever -> run 0 level 0 -> error.
        let bytes = [0xFFu8; 4];
        let mut r = BitReader::new(&bytes);
        let mut dec = BlockDecoder::new();
        assert!(dec.decode(&mut r).is_err());
    }

    #[test]
    fn hostile_dc_deltas_are_corrupt_not_wrapped() {
        // Two blocks whose DC delta is ue(u32::MAX): an se of +2^31.
        let mut w = BitWriter::new();
        for _ in 0..2 {
            w.put_ue(u32::MAX);
            w.put_ue(63);
            w.put_se(0);
        }
        let bytes = w.finish();
        let mut dec = BlockDecoder::new();
        let err = dec.decode(&mut BitReader::new(&bytes));
        assert!(matches!(err, Err(CodecError::CorruptStream(_))), "{err:?}");

        // Two in-range deltas of i32::MAX (the encoder reset between
        // them, the decoder did not): their sum leaves i32.
        let mut w = BitWriter::new();
        let mut enc = BlockEncoder::new();
        let mut big = [0i32; 64];
        big[0] = i32::MAX;
        enc.encode(&big, &mut w);
        enc.reset();
        enc.encode(&big, &mut w);
        let bytes = w.finish();
        let mut dec = BlockDecoder::new();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap()[0], i32::MAX);
        let err = dec.decode(&mut r);
        assert!(matches!(err, Err(CodecError::CorruptStream(_))), "{err:?}");
    }

    #[test]
    fn dc_predictor_reset() {
        let mut b1 = [0i32; 64];
        b1[0] = 50;
        let mut w = BitWriter::new();
        let mut enc = BlockEncoder::new();
        enc.encode(&b1, &mut w);
        enc.reset();
        enc.encode(&b1, &mut w); // encodes delta 50 again after reset
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut dec = BlockDecoder::new();
        assert_eq!(dec.decode(&mut r).unwrap()[0], 50);
        dec.reset();
        assert_eq!(dec.decode(&mut r).unwrap()[0], 50);
    }
}
