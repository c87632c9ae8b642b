//! Small numeric helpers: medians, nearest-rank percentiles, a log-linear
//! latency histogram and the FNV-1a digest used for `sim_digest` (the
//! simulator's own FNV-1a helper is private to `cdf-sim`).

/// Median of `xs` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over a string.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sub-buckets per power of two: values are kept to within 1/16 (6.25%).
const SUB: u32 = 16;
const SUB_BITS: u32 = 4;
const BUCKETS: usize = (2 * SUB + (64 - SUB_BITS - 1) * SUB) as usize;

/// A log-linear histogram of nanosecond durations: exact below 32 ns,
/// 16 sub-buckets per power of two above. Merging is bucket-wise addition,
/// so per-thread histograms combine exactly.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < 2 * SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // >= 5
        let sub = ((v >> (e - SUB_BITS)) as u32) & (SUB - 1);
        (2 * SUB + (e - SUB_BITS - 1) * SUB + sub) as usize
    }

    /// The smallest value that falls in bucket `b`.
    fn lower_bound(b: usize) -> u64 {
        let b = b as u32;
        if b < 2 * SUB {
            return b as u64;
        }
        let e = (b - 2 * SUB) / SUB + SUB_BITS + 1;
        let sub = (b - 2 * SUB) % SUB;
        (1u64 << e) | ((sub as u64) << (e - SUB_BITS))
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile, reported as the lower bound of its bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower_bound(b);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_down_within_a_sixteenth() {
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 12_345, 1 << 40, u64::MAX] {
            let lo = Histogram::lower_bound(Histogram::bucket(v));
            assert!(lo <= v, "{v}: {lo}");
            assert!((v - lo) as f64 <= v as f64 / 16.0, "{v}: {lo}");
        }
        assert!(Histogram::bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_follow_nearest_rank() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        assert!((480..=500).contains(&p50), "{p50}");
        assert!(h.quantile(0.999) >= 940);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
