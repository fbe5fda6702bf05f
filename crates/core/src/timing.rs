//! Timing helpers: warmup + median-of-N measurement.
//!
//! Per the perf-book guidance, single wall-clock samples of sub-millisecond
//! queries are noisy; every reported query time in SOFOS is the median of
//! `reps` runs after one warmup run.
//!
//! Summary statistics ([`TimeSummary`]) are computed through the same
//! [`sofos_telemetry::Histogram`] the engine's metrics layer records into,
//! so a bench summary and a metrics-snapshot quantile agree on the same
//! bucketing (exact below 32 µs, < 1/32 relative error above). Count, sum,
//! mean, and max stay exact.

use sofos_telemetry::Histogram;
use std::time::Instant;

/// Run `f` once for warmup, then `reps` timed runs; returns the median
/// duration in microseconds and the last result.
pub fn measure_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (u64, T) {
    let reps = reps.max(1);
    let mut result = f(); // warmup
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        result = f();
        samples.push(start.elapsed().as_micros() as u64);
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], result)
}

/// Time a single execution in microseconds.
pub fn measure_once<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_micros() as u64, result)
}

/// Summary statistics over a set of per-query times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSummary {
    /// Total of all samples (µs).
    pub total_us: u64,
    /// Mean (µs).
    pub mean_us: f64,
    /// Median (µs).
    pub median_us: u64,
    /// 95th percentile (µs).
    pub p95_us: u64,
    /// Maximum (µs).
    pub max_us: u64,
}

impl TimeSummary {
    /// Summarize a sample vector (empty ⇒ all zeros).
    ///
    /// Quantiles are nearest-rank over the telemetry histogram's buckets,
    /// so they match what a [`sofos_telemetry::MetricsSnapshot`] reports
    /// for the same samples.
    pub fn from_samples(samples: &[u64]) -> TimeSummary {
        let hist = Histogram::new();
        hist.record_all(samples);
        TimeSummary::from_histogram(&hist.snapshot())
    }

    /// Summarize an already-recorded histogram snapshot (e.g. the serve
    /// latency histogram out of an engine's metrics snapshot).
    pub fn from_histogram(snapshot: &sofos_telemetry::HistogramSnapshot) -> TimeSummary {
        TimeSummary {
            total_us: snapshot.sum,
            mean_us: snapshot.mean(),
            median_us: snapshot.p50(),
            p95_us: snapshot.p95(),
            max_us: snapshot.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_measure_returns_result() {
        let (us, value) = measure_median(3, || 21 * 2);
        assert_eq!(value, 42);
        // Trivial closures run in far under a second.
        assert!(us < 1_000_000);
    }

    #[test]
    fn measure_once_times() {
        let (us, v) = measure_once(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(us >= 1_500, "slept 2ms, measured {us}µs");
    }

    #[test]
    fn summary_statistics() {
        let s = TimeSummary::from_samples(&[10, 20, 30, 40, 100]);
        assert_eq!(s.total_us, 200);
        assert_eq!(s.mean_us, 40.0);
        assert_eq!(s.median_us, 30);
        assert_eq!(s.max_us, 100);
        assert_eq!(s.p95_us, 100);
    }

    #[test]
    fn summary_of_empty() {
        let s = TimeSummary::from_samples(&[]);
        assert_eq!(s.total_us, 0);
        assert_eq!(s.median_us, 0);
    }

    #[test]
    fn reps_zero_is_clamped() {
        let (_, v) = measure_median(0, || 1);
        assert_eq!(v, 1);
    }
}
