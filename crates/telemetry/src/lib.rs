//! Lock-free metrics and event tracing for the SOFOS engine.
//!
//! SOFOS's thesis is making the costs of materialized-view selection
//! visible — query cost, maintenance cost, staleness. This crate is the
//! runtime half of that argument: a dependency-free observability layer
//! cheap enough to leave on in the serve path.
//!
//! Three primitives, one registry, one export surface:
//!
//! - [`Counter`] and [`Gauge`] — single relaxed atomics.
//! - [`Histogram`] — a log-bucketed (HdrHistogram-style) latency
//!   histogram over atomic buckets: recording is three `fetch_add`s and
//!   a `fetch_max`, quantiles carry a documented relative error bound
//!   of < 1/32 (see [`Histogram`]), and histograms merge.
//! - [`EventRing`] — a fixed-capacity ring of recent [`Event`]s (slow
//!   queries, flushes, epoch publishes, re-selections, maintenance
//!   errors), timestamped by the caller so the engine's injected clock
//!   stays the single time source.
//! - [`Registry`] — named metrics with static label sets. Registration
//!   (get-or-create) takes a lock; recording through the returned
//!   `Arc` never does.
//! - [`MetricsSnapshot`] — a point-in-time read of everything, rendered
//!   in the Prometheus text exposition format
//!   ([`MetricsSnapshot::to_prometheus_text`]).
//! - [`Json`] — a minimal hand-rolled JSON value (writer *and* parser),
//!   hosted here because this is the one dependency-free crate that the
//!   bench reports, the HTTP server, and the load harness can all share.
//!
//! The intended front door is [`MetricsHandle`]: one cloneable handle
//! owning the registry and the event ring, shared between the engine,
//! its backends, and whoever wants to read the numbers.

mod events;
mod export;
mod histogram;
pub mod json;
mod registry;

pub use events::{Event, EventKind, EventRing};
pub use export::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
pub use histogram::{Histogram, HistogramSnapshot};
pub use json::Json;
pub use registry::Registry;

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// A monotonically increasing counter: one relaxed atomic.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A last-write-wins gauge: one relaxed atomic.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// The shared front door: registry + event ring + recording policy.
///
/// Cloning is cheap (one `Arc`); every clone sees the same metrics. A
/// handle built with [`MetricsHandle::disabled`] tells instrumented
/// call sites (via [`MetricsHandle::is_enabled`]) to skip recording.
#[derive(Debug, Clone)]
pub struct MetricsHandle {
    inner: Arc<HandleInner>,
}

#[derive(Debug)]
struct HandleInner {
    registry: Registry,
    events: EventRing,
    enabled: bool,
}

/// Default capacity of the recent-events ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Default slow-query threshold (µs) above which the serve path records
/// a [`EventKind::SlowQuery`] event.
pub const DEFAULT_SLOW_QUERY_US: u64 = 10_000;

impl MetricsHandle {
    /// An enabled handle with default event capacity and slow-query
    /// threshold.
    pub fn new() -> MetricsHandle {
        MetricsHandle {
            inner: Arc::new(HandleInner {
                registry: Registry::new(),
                events: EventRing::new(DEFAULT_EVENT_CAPACITY),
                enabled: true,
            }),
        }
    }

    /// A handle whose call sites should record nothing. The registry
    /// still exists (snapshots render empty), so the API surface is
    /// identical either way.
    pub fn disabled() -> MetricsHandle {
        MetricsHandle {
            inner: Arc::new(HandleInner {
                registry: Registry::new(),
                events: EventRing::new(0),
                enabled: false,
            }),
        }
    }

    /// Whether instrumented call sites should record.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Serve latencies above this (µs) get a [`EventKind::SlowQuery`]
    /// event: [`DEFAULT_SLOW_QUERY_US`], or `u64::MAX` for a disabled
    /// handle.
    pub fn slow_query_threshold_us(&self) -> u64 {
        if self.inner.enabled {
            DEFAULT_SLOW_QUERY_US
        } else {
            u64::MAX
        }
    }

    /// The metric registry (get-or-create named instruments).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Get-or-create a counter. See [`Registry::counter`].
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.inner.registry.counter(name, help, labels)
    }

    /// Get-or-create a gauge. See [`Registry::gauge`].
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.inner.registry.gauge(name, help, labels)
    }

    /// Get-or-create a histogram. See [`Registry::histogram`].
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.inner.registry.histogram(name, help, labels)
    }

    /// Record an event at `at_ms`. The timestamp is caller-supplied so
    /// the engine's injected clock stays the single time source (tests
    /// drive it manually). No-op when disabled.
    pub fn event(&self, at_ms: u64, kind: EventKind, detail: impl Into<String>) {
        if self.is_enabled() {
            self.inner.events.push(at_ms, kind, detail.into());
        }
    }

    /// The recent-events ring.
    pub fn events(&self) -> &EventRing {
        &self.inner.events
    }

    /// A point-in-time snapshot of every metric and recent event.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::capture(&self.inner.registry, &self.inner.events)
    }
}

impl Default for MetricsHandle {
    fn default() -> MetricsHandle {
        MetricsHandle::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn handle_shares_instruments_across_clones() {
        let m = MetricsHandle::new();
        let c1 = m.counter("sofos_test_total", "test", &[("k", "v")]);
        let c2 = m.clone().counter("sofos_test_total", "test", &[("k", "v")]);
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3);
        assert!(m.is_enabled());
    }

    #[test]
    fn disabled_handle_skips_events() {
        let m = MetricsHandle::disabled();
        assert!(!m.is_enabled());
        m.event(5, EventKind::Flush, "ignored");
        assert!(m.events().recent().is_empty());
        assert_eq!(m.slow_query_threshold_us(), u64::MAX);
    }

    #[test]
    fn concurrent_counting_loses_nothing() {
        let m = MetricsHandle::new();
        let c = m.counter("sofos_threads_total", "test", &[]);
        let threads = 8;
        let per = 10_000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..per {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per);
    }
}
