//! Sample statistics: the median, and the percentile rule.
//!
//! A tail percentile is reported only when at least [`BEYOND`] samples lie
//! beyond it, so `p95` needs 200 samples and `p99` needs 1000. Asking for
//! a percentile the sample cannot support returns `None` — the caller
//! reports an error instead of a number that would not repeat.

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Percentiles are written per mille so the support rule is integer
/// arithmetic: `P95` is 950.
pub const P50: usize = 500;
pub const P95: usize = 950;
pub const P99: usize = 990;

/// Does a sample of `n` support percentile `p` (per mille)? The median
/// needs [`BEYOND`] samples on each side.
pub fn supports(n: usize, p: usize) -> bool {
    n * (1000 - p) / 1000 >= BEYOND && n * p / 1000 >= BEYOND
}

/// Nearest-rank percentile `p` (per mille) of `samples`, or `None` when
/// the sample is too small to support it.
pub fn percentile(samples: &[u64], p: usize) -> Option<u64> {
    if !supports(samples.len(), p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len()).div_ceil(1000);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Percentile of nanosecond samples, in microseconds.
pub fn percentile_us(samples_ns: &[u64], p: usize) -> Option<f64> {
    percentile(samples_ns, p).map(|ns| ns as f64 / 1e3)
}

/// Plain median of any sample (no support rule): used for per-layer span
/// times and for repeated set-up, where even three samples are reported.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Interquartile range over the median, the quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's measure of
/// run-to-run spread). `None` below four values or at a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let middle = median(&sorted)?;
    (middle != 0.0).then(|| (quartile(3) - quartile(1)) / middle.abs())
}

/// Median of nanosecond samples, in microseconds; 0 for an empty sample
/// (a per-layer metric that does not apply reads 0).
pub fn median_us(samples_ns: &[u64]) -> f64 {
    let values: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    median(&values).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_is_refused_below_200_samples() {
        let samples: Vec<u64> = (0..199).collect();
        assert_eq!(percentile(&samples, P95), None);
        let samples: Vec<u64> = (0..200).collect();
        assert_eq!(percentile(&samples, P95), Some(189));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        let highest = |n| [P50, P95, P99].into_iter().rev().find(|&p| supports(n, p));
        assert_eq!(highest(19), None);
        assert_eq!(highest(20), Some(P50));
        assert_eq!(highest(199), Some(P50));
        assert_eq!(highest(200), Some(P95));
        assert_eq!(highest(999), Some(P95));
        assert_eq!(highest(1000), Some(P99));
    }

    #[test]
    fn median_needs_ten_on_each_side() {
        assert_eq!(percentile(&[1; 19], P50), None);
        let samples: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&samples, P50), Some(11));
    }

    #[test]
    fn spread_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 19], n=4) == [10.25, 11.5, 17.25]
        let got = spread(&[10.0, 12.0, 11.0, 19.0]).unwrap();
        assert!((got - 7.0 / 11.5).abs() < 1e-12, "{got}");
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn plain_median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_us(&[]), 0.0);
    }
}
