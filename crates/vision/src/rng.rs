//! The one seeded generator: SplitMix64.
//!
//! The synthetic corpora ([`crate::datasets`]) draw from it, and so do the
//! figure harnesses and the test suite's generators. Every caller seeds it
//! explicitly and needs only a deterministic, well-mixed stream, never
//! cryptographic strength. [`SplitMix64::seeded`] and the range methods
//! keep the streams the corpora were first drawn with, bit for bit
//! (`tests/stream_pin.rs` pins them).

/// The golden-ratio increment of each draw.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose state is `state`: its first draw mixes
    /// `state + GAMMA`.
    pub fn from_state(state: u64) -> Self {
        SplitMix64(state)
    }

    /// A generator for `seed`: state `seed ^ GAMMA` with one draw
    /// discarded, so that nearby seeds diverge from the first draw.
    pub fn seeded(seed: u64) -> Self {
        let mut g = SplitMix64(seed ^ GAMMA);
        g.next_u64();
        g
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[0, n)`, by modulo (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An integer in `[lo, hi)` (`lo < hi`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add(self.below(hi.abs_diff(lo)) as i64)
    }

    /// A float in `[0, 1)` from 53 bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A float in `[0, 1)` from 24 bits.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// A float in `[lo, hi)` (`lo < hi`); a draw that rounds onto `hi` is
    /// pulled back to `hi - (hi - lo)·ε`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let v = lo + self.unit() * (hi - lo);
        if v >= hi {
            lo.max(hi - (hi - lo) * f64::EPSILON)
        } else {
            v
        }
    }

    /// [`range_f64`](Self::range_f64) in `f32` arithmetic: the 53-bit unit
    /// is rounded to `f32` before scaling.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let v = lo + self.unit() as f32 * (hi - lo);
        if v >= hi {
            lo.max(hi - (hi - lo) * f32::EPSILON)
        } else {
            v
        }
    }

    /// `true` with probability `p` (`0 <= p <= 1`).
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds_and_cover_their_span() {
        let mut g = SplitMix64::seeded(1);
        let mut seen = [false; 13];
        for _ in 0..10_000 {
            let i = g.range(-6, 7);
            seen[(i + 6) as usize] = true;
            assert!((0.25..3.0).contains(&g.range_f32(0.25, 3.0)));
            assert!((-0.9..0.9).contains(&g.range_f64(-0.9, 0.9)));
        }
        assert!(seen.iter().all(|&s| s), "every value of -6..7 drawn");
        assert!(!(0..100).any(|_| g.chance(0.0)));
        assert!((0..100).all(|_| g.chance(1.0)));
    }
}
