//! A log-bucketed latency histogram over atomic buckets.
//!
//! The bucket layout is HdrHistogram-style: values below [`SUB`] are
//! recorded exactly; every power-of-two octave above that is split into
//! [`SUB`] linear sub-buckets. Recording is a handful of relaxed atomic
//! ops; quantiles are computed from a snapshot of the bucket counts and
//! under-report by strictly less than `1/SUB` relative error (3.125%
//! with `SUB = 32`), because a bucket's reported value is its lower
//! bound and its width is at most `1/SUB` of that bound.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// log2 of the sub-bucket count per octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave; also the size of the exact low range.
const SUB: usize = 1 << SUB_BITS;
/// Octaves `[2^e, 2^{e+1})` for `e` in `SUB_BITS..=63`.
const OCTAVES: usize = 64 - SUB_BITS as usize;
/// Total bucket count (covers all of `u64`).
const BUCKETS: usize = SUB + OCTAVES * SUB;

/// A mergeable, lock-free histogram of `u64` samples (typically µs).
///
/// [`Histogram::record`] is three `fetch_add`s and a `fetch_max`;
/// [`Histogram::snapshot`] reads the buckets once and answers
/// arbitrary quantiles with relative error `< 1/32` (values below 32
/// are exact, and `max` is always exact).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index for `v`: exact below `SUB`, then
    /// `SUB + octave·SUB + offset` with linear offsets of width
    /// `2^(exp−SUB_BITS)` inside the octave `[2^exp, 2^{exp+1})`.
    #[inline]
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros();
            let offset = ((v - (1u64 << exp)) >> (exp - SUB_BITS)) as usize;
            SUB + (exp - SUB_BITS) as usize * SUB + offset
        }
    }

    /// The lower bound (reported value) of bucket `i` — the inverse of
    /// [`Histogram::index`] up to bucket width.
    fn bucket_low(i: usize) -> u64 {
        if i < SUB {
            i as u64
        } else {
            let octave = (i - SUB) / SUB;
            let exp = octave as u32 + SUB_BITS;
            let offset = ((i - SUB) % SUB) as u64;
            (1u64 << exp) + (offset << (exp - SUB_BITS))
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Fold another histogram into this one (bucket-wise addition;
    /// `max` takes the larger).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Relaxed);
            if n > 0 {
                mine.fetch_add(n, Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Relaxed), Relaxed);
        self.sum.fetch_add(other.sum.load(Relaxed), Relaxed);
        self.max.fetch_max(other.max.load(Relaxed), Relaxed);
    }

    /// A point-in-time copy of the non-empty buckets plus the exact
    /// count / sum / max. Concurrent recording keeps going; the
    /// snapshot is consistent enough for monitoring, not a barrier.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut nonzero = Vec::new();
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Relaxed);
            if n > 0 {
                nonzero.push((Self::bucket_low(i), n));
            }
        }
        // Quantiles walk the buckets; anchor them to the bucketed total
        // so a sample that raced `count` but not its bucket (or vice
        // versa) cannot push a rank past the last bucket.
        let count = nonzero.iter().map(|&(_, n)| n).sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
            nonzero,
        }
    }

    /// Record every sample of a slice (convenience for summarizing).
    pub fn record_all(&self, samples: &[u64]) {
        for &v in samples {
            self.record(v);
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A point-in-time read of a [`Histogram`]: exact count / sum / max
/// plus the non-empty buckets, enough to answer arbitrary quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples covered by the bucket counts below.
    pub count: u64,
    /// Exact sum of all recorded samples.
    pub sum: u64,
    /// Exact maximum recorded sample (0 when empty).
    pub max: u64,
    /// `(bucket lower bound, count)` for every non-empty bucket,
    /// ascending.
    nonzero: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// An empty snapshot (the zero histogram).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            nonzero: Vec::new(),
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`): the lower bound
    /// of the bucket holding the `ceil(q·count)`-th smallest sample.
    /// Under-reports by `< 1/32` relative error; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for &(low, n) in &self.nonzero {
            seen += n;
            if seen >= rank {
                return low;
            }
        }
        self.max
    }

    /// Median (nearest-rank).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exact nearest-rank quantile over a sorted sample vector —
    /// the reference the histogram is allowed to deviate from by
    /// `< 1/32` relative.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        h.record_all(&[10, 20, 30, 31, 5]);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 96);
        assert_eq!(s.max, 31);
        assert_eq!(s.p50(), 20);
        assert_eq!(s.quantile(1.0), 31);
        assert_eq!(s.quantile(0.0), 5);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, HistogramSnapshot::empty());
    }

    #[test]
    fn bucket_low_inverts_index_on_boundaries() {
        for v in [0u64, 1, 31, 32, 63, 64, 100, 127, 128, 1 << 20, u64::MAX] {
            let i = Histogram::index(v);
            let low = Histogram::bucket_low(i);
            assert!(low <= v, "low {low} > v {v}");
            assert_eq!(Histogram::index(low), i, "v {v}");
            // Bucket width bound: v − low < max(1, v/32) rounded up.
            assert!(v - low <= v / 32, "v {v} low {low}");
        }
    }

    #[test]
    fn merge_adds_counts_and_keeps_max() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_all(&[1, 2, 3]);
        b.record_all(&[1000, 4]);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.max, 1000);
        assert_eq!(
            s.quantile(1.0),
            Histogram::bucket_low(Histogram::index(1000))
        );
    }

    #[test]
    fn concurrent_recording_loses_no_samples() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 8u64;
        let per = 20_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..per {
                        h.record(t * 1_000 + (i % 97));
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, threads * per, "histogram count == recordings");
        assert_eq!(h.count(), threads * per);
    }

    proptest! {
        /// Histogram quantiles match exact sorted-sample quantiles
        /// within the documented `1/32` relative-error bound, for any
        /// sample set and any quantile.
        #[test]
        fn quantiles_within_relative_error_bound(
            mut samples in proptest::collection::vec(0u64..1_000_000_000, 1..200),
            q in 0.0f64..1.0,
        ) {
            let h = Histogram::new();
            h.record_all(&samples);
            samples.sort_unstable();
            let exact = exact_quantile(&samples, q);
            let approx = h.snapshot().quantile(q);
            prop_assert!(approx <= exact, "approx {approx} > exact {exact}");
            prop_assert!(
                exact - approx <= exact / 32,
                "error {} above bound {} (exact {exact})",
                exact - approx, exact / 32,
            );
        }

        /// Sum and max are exact regardless of bucketing.
        #[test]
        fn sum_and_max_are_exact(
            samples in proptest::collection::vec(0u64..1_000_000, 0..100),
        ) {
            let h = Histogram::new();
            h.record_all(&samples);
            let s = h.snapshot();
            prop_assert_eq!(s.sum, samples.iter().sum::<u64>());
            prop_assert_eq!(s.max, samples.iter().copied().max().unwrap_or(0));
            prop_assert_eq!(s.count, samples.len() as u64);
        }
    }
}
