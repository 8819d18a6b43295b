//! Exact order statistics over raw samples.
//!
//! Latencies are kept as raw nanosecond samples and ranked exactly: no
//! bucketing, so sub-microsecond differences stay visible.

/// Nearest-rank `q`-quantile of `samples` (sorted in place): the
/// smallest sample with at least `q·len` samples at or below it.
/// `None` for an empty slice.
pub fn nearest_rank(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Median of nanosecond samples, in nanoseconds (0 when empty).
pub fn median_ns(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&s| s as f64).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive 64-bit digest of a stream of words, used to compare
/// the outputs of sibling units bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest(u64);

impl Digest {
    /// Folds one value into the digest.
    pub fn add(&mut self, v: u64) {
        self.0 = mix(self.0 ^ v, 0xD1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let mut s = vec![9, 1, 5, 3, 7, 2, 8, 4, 6, 10];
        assert_eq!(nearest_rank(&mut s, 0.5), Some(5));
        assert_eq!(nearest_rank(&mut s, 0.99), Some(10));
        assert_eq!(nearest_rank(&mut s, 0.1), Some(1));
        assert_eq!(nearest_rank(&mut [], 0.5), None);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
