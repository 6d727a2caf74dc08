//! Order statistics and the result checksum. Everything here is plain
//! arithmetic over `f64` samples; no engine type appears.

/// Nearest-rank percentile of an ascending-sorted, non-empty sample:
/// the smallest value with at least `pct` percent of the sample at or
/// below it.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty sample: the mean of the two middle values for an
/// even count, so the median of segment values does not favour either
/// neighbour.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile of the ladder 99.99 / 99.9 / 99 / 95 / 90 that
/// still has at least ten samples beyond it, or `None` when even p90 does
/// not (fewer than 100 samples). A tail read off fewer than ten samples is
/// one slow request, not a percentile.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10 000) — whole numbers, so a
    // sample count sitting exactly on a step lands on the right side of it.
    [
        (99.99, 1),
        (99.9, 10),
        (99.0, 100),
        (95.0, 500),
        (90.0, 1_000),
    ]
    .into_iter()
    .find(|(_, beyond_per_10k)| samples * beyond_per_10k >= 10 * 10_000)
    .map(|(pct, _)| pct)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the acceptance rule compares against a metric's bound.
/// Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
/// default exclusive method), so the self-check and the driver agree.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        // Exclusive method: position k(n+1)/4 on the 1-based sorted sample,
        // clamped to the ends, linearly interpolated.
        let n = v.len();
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quantile(3) - quantile(1)) / median(&v)
}

/// FNV-1a, the checksum printed per workload: a run-to-run fingerprint of
/// the deterministic replies, not a defence against anything.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 5.0);
        assert_eq!(percentile_sorted(&v, 90.0), 9.0);
        assert_eq!(percentile_sorted(&v, 91.0), 10.0);
        assert_eq!(percentile_sorted(&v, 100.0), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 5.0, 4.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
