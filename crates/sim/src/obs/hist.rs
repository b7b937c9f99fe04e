//! Zero-dependency fixed-bucket (log2) latency histogram.
//!
//! Bucket 0 holds the value 0; bucket `k` (for `k >= 1`) holds values in
//! `[2^(k-1), 2^k - 1]`, with the last bucket's upper bound saturating at
//! `u64::MAX`. 65 buckets therefore cover the full `u64` range, so
//! recording can never overflow a bucket index. The representation is a
//! plain counter array: merging two histograms is element-wise addition,
//! which makes merge associative and commutative and conserves counts —
//! the invariants the property suite (`tests/obs_properties.rs`) pins.

/// Number of buckets: value 0, plus one bucket per power-of-two range.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed latency histogram with exact count/sum/min/max.
///
/// # Example
/// ```
/// use mcgpu_sim::obs::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [10, 20, 400] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 3);
/// assert!(h.percentile(0.5) >= 20);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    /// Exact sum of recorded values (u128: cannot overflow even with
    /// `u64::MAX` values at full count).
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index `value` falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive `(low, high)` value range of bucket `i`.
    ///
    /// # Panics
    /// Panics if `i >= HIST_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HIST_BUCKETS);
        if i == 0 {
            (0, 0)
        } else if i == HIST_BUCKETS - 1 {
            (1u64 << (i - 1), u64::MAX)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merge `other` into `self` (element-wise bucket addition).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// `(bucket index, count)` pairs for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Serialize the histogram into a checkpoint payload.
    pub fn save(&self, e: &mut mcgpu_types::Enc) {
        for &c in &self.counts {
            e.put_u64(c);
        }
        e.put_u64(self.count);
        e.put_u128(self.sum);
        e.put_u64(self.min);
        e.put_u64(self.max);
    }

    /// Deserialize a histogram saved by [`LatencyHistogram::save`].
    ///
    /// # Errors
    /// Returns a decode error on truncated or malformed input.
    pub fn load(d: &mut mcgpu_types::Dec<'_>) -> mcgpu_types::CkptResult<Self> {
        let mut counts = [0u64; HIST_BUCKETS];
        for c in &mut counts {
            *c = d.get_u64()?;
        }
        Ok(LatencyHistogram {
            counts,
            count: d.get_u64()?,
            sum: d.get_u128()?,
            min: d.get_u64()?,
            max: d.get_u64()?,
        })
    }

    /// The `p`-quantile as the upper bound of the bucket containing the
    /// `ceil(p * count)`-th smallest recorded value (`p` clamped to
    /// `[0, 1]`; 0 when empty). Bucket upper bounds make the result
    /// deterministic and monotone in `p`, at the cost of rounding up to a
    /// power-of-two boundary — the right trade for a regression metric.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bounds(i).1;
            }
        }
        // Unreachable: the buckets sum to `count` and rank <= count.
        Self::bucket_bounds(HIST_BUCKETS - 1).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_covers_the_edges() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = LatencyHistogram::bucket_bounds(i);
            assert_eq!(LatencyHistogram::bucket_of(lo), i);
            assert_eq!(LatencyHistogram::bucket_of(hi), i);
        }
    }

    #[test]
    fn record_tracks_exact_aggregates() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(7);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 7 + u64::MAX as u128);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert!(!h.is_empty());
    }

    #[test]
    fn empty_histogram_is_neutral() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        let mut m = LatencyHistogram::new();
        m.record(5);
        let before = m.clone();
        m.merge(&h);
        assert_eq!(m, before, "merging an empty histogram is the identity");
    }

    #[test]
    fn percentile_walks_buckets() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1000);
        assert_eq!(h.percentile(0.5), 1);
        assert_eq!(h.percentile(0.99), 1);
        // The single large value occupies the last rank.
        assert!(h.percentile(1.0) >= 1000);
    }
}
