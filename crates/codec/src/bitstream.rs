//! Bit-level I/O and Exp-Golomb universal codes.
//!
//! The entropy layer writes MSB-first into a byte vector. Exp-Golomb codes
//! are the variable-length integer codes used by H.264 for headers, motion
//! vectors, and (in our simplified codec) coefficient levels.
//!
//! A code that does not fit its integer type (a `ue` above `u32::MAX`, a
//! `se` outside `i32`) is a [`CodecError::CorruptStream`], never a wrapped
//! value.

use crate::error::CodecError;

/// MSB-first bit writer over a growable byte buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits currently accumulated in `cur` (0..8).
    nbits: u8,
    cur: u8,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.cur = (self.cur << 1) | bit as u8;
        self.nbits += 1;
        if self.nbits == 8 {
            self.buf.push(self.cur);
            self.cur = 0;
            self.nbits = 0;
        }
    }

    /// Append the low `n` bits of `v`, MSB first. `n` must be ≤ 32.
    #[inline]
    pub fn put_bits(&mut self, v: u32, n: u8) {
        debug_assert!(n <= 32);
        for i in (0..n).rev() {
            self.put_bit((v >> i) & 1 == 1);
        }
    }

    /// Unsigned Exp-Golomb code: `v` is encoded as `leading_zeros(v+1)` zero
    /// bits followed by the binary representation of `v + 1`.
    pub fn put_ue(&mut self, v: u32) {
        let x = v as u64 + 1;
        let nbits = 64 - x.leading_zeros() as u8; // length of x in bits
        for _ in 0..nbits - 1 {
            self.put_bit(false);
        }
        for i in (0..nbits).rev() {
            self.put_bit((x >> i) & 1 == 1);
        }
    }

    /// Signed Exp-Golomb code (zigzag mapping: 0, 1, -1, 2, -2, ...).
    pub fn put_se(&mut self, v: i32) {
        let mapped = if v <= 0 {
            (-(v as i64) * 2) as u32
        } else {
            (v as u32) * 2 - 1
        };
        self.put_ue(mapped);
    }

    /// Flush the final partial byte (zero-padded) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.cur <<= 8 - self.nbits;
            self.buf.push(self.cur);
        }
        self.buf
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next bit position.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Read one bit.
    #[inline]
    pub fn get_bit(&mut self) -> crate::Result<bool> {
        let byte = self.pos / 8;
        if byte >= self.buf.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let bit = 7 - (self.pos % 8);
        self.pos += 1;
        Ok((self.buf[byte] >> bit) & 1 == 1)
    }

    /// Read `n` bits MSB-first into the low bits of the result.
    #[inline]
    pub fn get_bits(&mut self, n: u8) -> crate::Result<u32> {
        debug_assert!(n <= 32);
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.get_bit()? as u32;
        }
        Ok(v)
    }

    /// Decode an unsigned Exp-Golomb code.
    ///
    /// Reads the whole code out of one 64-bit window when 8 bytes remain
    /// and the code fits in it; near the end of the buffer, and for codes
    /// with more than 28 leading zeros, it falls back to the bit loop. Both
    /// paths return the same value, or the same error, on every input.
    #[inline]
    pub fn get_ue(&mut self) -> crate::Result<u32> {
        let byte = self.pos / 8;
        if let Some(bytes) = self.buf.get(byte..).and_then(<[u8]>::first_chunk::<8>) {
            // At least 57 valid bits: the code `zeros` + 1 + `zeros` fits
            // whenever `zeros` ≤ 28.
            let window = u64::from_be_bytes(*bytes) << (self.pos % 8);
            let zeros = window.leading_zeros();
            if zeros <= MAX_WINDOW_ZEROS {
                let len = 2 * zeros + 1;
                self.pos += len as usize;
                // `zeros` ≤ 28, so the code is below 2^29.
                return Ok((window >> (64 - len)) as u32 - 1);
            }
        }
        self.get_ue_bitwise()
    }

    /// The bit-at-a-time Exp-Golomb decoder [`BitReader::get_ue`] falls
    /// back to, and the reference its window path is tested against.
    pub(crate) fn get_ue_bitwise(&mut self) -> crate::Result<u32> {
        let mut zeros = 0u8;
        while !self.get_bit()? {
            zeros += 1;
            if zeros > 32 {
                return Err(CodecError::CorruptStream(
                    "exp-golomb prefix too long".into(),
                ));
            }
        }
        let rest = self.get_bits(zeros)?;
        let x = (1u64 << zeros) | rest as u64;
        u32::try_from(x - 1)
            .map_err(|_| CodecError::CorruptStream("exp-golomb code exceeds u32".into()))
    }

    /// Decode a signed Exp-Golomb code.
    pub fn get_se(&mut self) -> crate::Result<i32> {
        let v = self.get_ue()?;
        if v % 2 == 0 {
            // v / 2 ≤ i32::MAX.
            Ok(-((v / 2) as i32))
        } else {
            i32::try_from(v / 2 + 1)
                .map_err(|_| CodecError::CorruptStream("signed exp-golomb code exceeds i32".into()))
        }
    }
}

/// Longest zero prefix [`BitReader::get_ue`] decodes from its 64-bit
/// window: a window shifted by up to 7 bits holds 57 valid bits, and a code
/// with `z` leading zeros is `2z + 1` bits long.
const MAX_WINDOW_ZEROS: u32 = 28;

#[cfg(test)]
impl BitReader<'_> {
    /// [`BitReader::get_se`] over the bit loop alone: the reader of the
    /// reference decode the video tests compare whole streams against.
    pub(crate) fn get_se_bitwise(&mut self) -> crate::Result<i32> {
        let v = self.get_ue_bitwise()?;
        if v % 2 == 0 {
            Ok(-((v / 2) as i32))
        } else {
            i32::try_from(v / 2 + 1)
                .map_err(|_| CodecError::CorruptStream("signed exp-golomb code exceeds i32".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bits(0xABCD, 16);
        w.put_bit(true);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(4).unwrap(), 0b1011);
        assert_eq!(r.get_bits(16).unwrap(), 0xABCD);
        assert!(r.get_bit().unwrap());
    }

    #[test]
    fn ue_small_values() {
        // Classic table: 0->1, 1->010, 2->011, 3->00100 ...
        let mut w = BitWriter::new();
        for v in 0..10 {
            w.put_ue(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in 0..10 {
            assert_eq!(r.get_ue().unwrap(), v);
        }
    }

    #[test]
    fn ue_large_values() {
        let vals = [255u32, 1024, 65535, 1 << 20, u32::MAX / 4];
        let mut w = BitWriter::new();
        for &v in &vals {
            w.put_ue(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.get_ue().unwrap(), v);
        }
    }

    #[test]
    fn se_roundtrip() {
        let vals = [0i32, 1, -1, 2, -2, 100, -100, 30000, -30000];
        let mut w = BitWriter::new();
        for &v in &vals {
            w.put_se(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.get_se().unwrap(), v);
        }
    }

    #[test]
    fn windowed_ue_matches_the_bit_loop_on_random_streams() {
        let mut rng = crate::test_rng::Rng::new(0xB175);
        let mut fast_codes = 0;
        for _ in 0..20_000 {
            // Mostly-zero bytes make long prefixes, codes that straddle the
            // window and truncations mid-prefix all common.
            let len = rng.below(25) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| match rng.below(4) {
                    0 | 1 => 0,
                    2 => 1 << rng.below(8),
                    _ => rng.next_u64() as u8,
                })
                .collect();
            let start = rng.below(len as u64 * 8 + 1) as usize;
            let mut fast = BitReader {
                buf: &bytes,
                pos: start,
            };
            let mut slow = BitReader {
                buf: &bytes,
                pos: start,
            };
            loop {
                let windowed = fast.buf.len() >= fast.pos / 8 + 8;
                let (a, b) = (fast.get_ue(), slow.get_ue_bitwise());
                assert_eq!(a, b, "{bytes:02x?} from bit {start}");
                if a.is_err() {
                    break;
                }
                assert_eq!(fast.pos, slow.pos);
                fast_codes += usize::from(windowed);
            }
        }
        assert!(
            fast_codes > 10_000,
            "the window path ran {fast_codes} times"
        );
    }

    #[test]
    fn ue_codes_past_u32_are_corrupt_in_both_paths() {
        // 8 trailing zero bytes put every start offset in window range.
        for shift in 0..8u8 {
            let stream = |code: &dyn Fn(&mut BitWriter)| {
                let mut w = BitWriter::new();
                w.put_bits(0, shift);
                code(&mut w);
                w.put_bits(0, 32);
                w.put_bits(0, 32);
                w.finish()
            };
            let decode = |bytes: &[u8]| {
                let mut r = BitReader::new(bytes);
                r.get_bits(shift).unwrap();
                let mut s = BitReader::new(bytes);
                s.get_bits(shift).unwrap();
                let (a, b) = (r.get_ue(), s.get_ue_bitwise());
                assert_eq!(a, b);
                a
            };
            assert_eq!(decode(&stream(&|w| w.put_ue(u32::MAX))), Ok(u32::MAX));
            // 32 zeros and a suffix above zero: 2^32 + 1 - 1 does not fit.
            let over = stream(&|w| {
                w.put_bits(0, 32);
                w.put_bits(1, 1);
                w.put_bits(1, 32);
            });
            assert!(matches!(decode(&over), Err(CodecError::CorruptStream(_))));
            let long_prefix = stream(&|w| {
                w.put_bits(0, 32);
                w.put_bits(0, 1);
                w.put_bits(1, 1);
            });
            assert_eq!(
                decode(&long_prefix),
                Err(CodecError::CorruptStream(
                    "exp-golomb prefix too long".into()
                ))
            );
        }
        let mut r = BitReader::new(&[0, 0]);
        assert_eq!(r.get_ue(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn se_codes_outside_i32_are_corrupt() {
        let mut w = BitWriter::new();
        w.put_se(i32::MAX);
        w.put_se(-i32::MAX);
        w.put_ue(u32::MAX); // would be +2^31
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_se(), Ok(i32::MAX));
        assert_eq!(r.get_se(), Ok(-i32::MAX));
        assert!(matches!(r.get_se(), Err(CodecError::CorruptStream(_))));
    }

    #[test]
    fn eof_detection() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.get_bit(), Err(CodecError::UnexpectedEof));
        let mut r2 = BitReader::new(&[0xFF]);
        assert_eq!(r2.get_bits(8).unwrap(), 0xFF);
        assert!(r2.get_bit().is_err());
    }

    #[test]
    fn finish_pads_written_bits_to_whole_bytes() {
        for (fields, bytes) in [(0, 0), (1, 1), (2, 2)] {
            let mut w = BitWriter::new();
            for _ in 0..fields {
                w.put_bits(0, 5);
            }
            assert_eq!(w.finish().len(), bytes, "{} bits", fields * 5);
        }
    }
}
