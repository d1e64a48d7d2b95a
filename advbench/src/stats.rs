//! Order statistics over raw samples and a stable results digest.
//!
//! Every percentile the benchmark reports comes from [`quantile`] over the
//! full, sorted list of raw samples — never from a bucketed histogram — so
//! a reported p99 is an observed latency, not a bucket edge.

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample `x`
/// such that at least `q · n` samples are `<= x`. `q` is clamped to
/// `[0, 1]`; `q = 0` gives the minimum.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Sorts a copy of `samples` ascending (NaN-free input assumed; NaNs sort
/// last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `samples` (the mean of the two middle values for even
/// counts).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a over a byte stream: the results digest. Feeding the same
/// values in the same order gives the same digest on every host.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Absorbs an `f64` by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    /// Absorbs a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(&(s.len() as u64).to_le_bytes())
            .bytes(s.as_bytes())
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: the benchmark's own seeded generator for workload inputs
/// (request mix, pool indices). Small, fast and identical everywhere.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The defining property, checked by brute force: the smallest sample
    /// with at least `q·n` samples at or below it.
    fn exact_quantile(samples: &[f64], q: f64) -> f64 {
        let need = (q * samples.len() as f64).ceil().max(1.0) as usize;
        let mut candidates: Vec<f64> = samples
            .iter()
            .copied()
            .filter(|&x| samples.iter().filter(|&&y| y <= x).count() >= need)
            .collect();
        candidates.sort_by(|a, b| a.total_cmp(b));
        candidates[0]
    }

    #[test]
    fn quantiles_match_an_exact_sort() {
        let mut rng = SplitMix64::new(42);
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
            let samples: Vec<f64> = (0..n).map(|_| (rng.unit() * 50.0).floor()).collect();
            let s = sorted(&samples);
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(quantile(&s, q), exact_quantile(&samples, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_samples_above() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.99), 990.0);
        assert_eq!(s.iter().filter(|&&x| x > quantile(&s, 0.99)).count(), 10);
        assert_eq!(quantile(&s, 0.5), 500.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        a.str("x").f64(1.0);
        let mut b = Digest::default();
        b.f64(1.0).str("x");
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.str("x").f64(1.0);
        assert_eq!(a.hex(), c.hex());
    }
}
