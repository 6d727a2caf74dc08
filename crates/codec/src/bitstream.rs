//! Bit-level I/O and Exp-Golomb universal codes.
//!
//! The entropy layer writes MSB-first into a byte vector. Exp-Golomb codes
//! are the variable-length integer codes used by H.264 for headers, motion
//! vectors, and (in our simplified codec) coefficient levels.

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
    pub fn get_ue(&mut self) -> crate::Result<u32> {
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
        Ok((x - 1) as u32)
    }

    /// Decode a signed Exp-Golomb code.
    pub fn get_se(&mut self) -> crate::Result<i32> {
        let v = self.get_ue()? as i64;
        Ok(if v % 2 == 0 {
            -(v / 2) as i32
        } else {
            ((v + 1) / 2) as i32
        })
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
