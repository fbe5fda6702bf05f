//! The engine's metric instruments — the bridge between the
//! [`crate::engine::Engine`] and [`sofos_telemetry`].
//!
//! One [`EngineInstruments`] per engine, pre-registering every named
//! instrument at construction so the hot serve path records through
//! cached `Arc`s (a few relaxed atomic ops) and
//! never touches the registry lock. Per-view route counters are the one
//! dynamic set: they are created on a view's first routing and cached in
//! a small map behind a short mutex.
//!
//! Every recording method early-outs on a disabled
//! [`MetricsHandle`] (see [`MetricsHandle::disabled`]), so an
//! uninstrumented engine pays one branch per call site.
//!
//! Metric names (all labelled `backend="epoch"`, [`BACKEND_LABEL`]; the
//! engine has one backend, but dashboards and the claim benchmark look
//! gauges up by that label):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `sofos_serve_latency_us{route}` | histogram | end-to-end query latency, split view-hit vs fallback |
//! | `sofos_freshness_lag` | histogram | the [`Freshness::lag`] tag of every served answer |
//! | `sofos_route_total{route,view}` | counter | per-view hits and base-graph fallbacks |
//! | `sofos_pending_depth` | gauge | buffered row-delta batches in the [`crate::policy::PendingLog`] |
//! | `sofos_pending_cap_evictions_total` | counter | pending-log entries dropped by cap enforcement |
//! | `sofos_buffered_updates` | gauge | bounded-policy update batches awaiting flush |
//! | `sofos_flushes_total` / `sofos_flushed_batches_total` | counter | flush passes / batches they drained |
//! | `sofos_epochs_published` / `_retired` / `_live` | gauge | the epoch store's snapshot lifecycle |
//! | `sofos_pipeline_{serial,parallel_work}_us_total` | counter | maintenance split: serial spine vs per-view planning |
//! | `sofos_maintenance_errors_total` | counter | failed maintenance / repair passes |
//! | `sofos_reselections_total` | counter | adaptive catalog swaps (see [`crate::adaptive`]) |
//! | `sofos_reselect_duration_us` | histogram | end-to-end re-selection pass overhead (sizing + selection + swap) |
//! | `sofos_select_moves_total` | counter | local-search moves tried by anytime re-selection passes |
//! | `sofos_select_restarts_total` | counter | local-search restarts performed by anytime re-selection passes |
//! | `sofos_index_bytes` | gauge | estimated bytes held by bitmap posting lists across all graphs |
//! | `sofos_index_posting_lists` | gauge | live posting lists (per-predicate + per-(predicate, value)) |
//! | `sofos_index_updates_total` | counter | incremental posting-list maintenance operations |
//! | `sofos_persisted_epoch` | gauge | newest epoch covered by the durable log |
//! | `sofos_persist_log_bytes` | gauge | bytes appended to the epoch log since boot |
//! | `sofos_persist_fsyncs` | gauge | fsync calls issued by the persistence layer |
//! | `sofos_persist_snapshots` | gauge | full snapshots written since boot |

use crate::policy::Freshness;
use sofos_cube::ViewMask;
use sofos_maintain::PipelineTelemetry;
use sofos_rdf::FxHashMap;
use sofos_store::{PersistStats, PostingStats};
use sofos_telemetry::{Counter, EventKind, Gauge, Histogram, MetricsHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The value of every instrument's `backend` label.
pub(crate) const BACKEND_LABEL: &str = "epoch";

/// Pre-registered instruments for one engine (see module docs).
pub(crate) struct EngineInstruments {
    handle: MetricsHandle,
    serve_view_us: Arc<Histogram>,
    serve_fallback_us: Arc<Histogram>,
    freshness_lag: Arc<Histogram>,
    route_fallback: Arc<Counter>,
    route_views: Mutex<FxHashMap<u64, Arc<Counter>>>,
    pending_depth: Arc<Gauge>,
    pending_cap_evictions: Arc<Counter>,
    buffered_updates: Arc<Gauge>,
    flushes: Arc<Counter>,
    flushed_batches: Arc<Counter>,
    epochs_published: Arc<Gauge>,
    epochs_retired: Arc<Gauge>,
    epochs_live: Arc<Gauge>,
    pipeline_serial_us: Arc<Counter>,
    pipeline_parallel_work_us: Arc<Counter>,
    maintenance_errors: Arc<Counter>,
    index_bytes: Arc<Gauge>,
    index_posting_lists: Arc<Gauge>,
    index_updates: Arc<Counter>,
    /// Last posting-list update total pushed to `index_updates` — the
    /// store-side totals sum per-graph counters that can shrink when a
    /// graph is dropped or replaced, so the counter advances by the
    /// saturating diff.
    index_updates_reported: AtomicU64,
    persisted_epoch: Arc<Gauge>,
    persist_log_bytes: Arc<Gauge>,
    persist_fsyncs: Arc<Gauge>,
    persist_snapshots: Arc<Gauge>,
}

impl EngineInstruments {
    /// Register the engine's instrument set on `handle`.
    pub(crate) fn new(handle: MetricsHandle) -> EngineInstruments {
        // The adaptive layer's instruments are unlabelled (the Reselector
        // works through the public Engine surface), but
        // they are pre-registered here so a `/metrics` scrape exposes
        // them before the first re-selection ever runs.
        register_reselection_instruments(&handle);
        let backend = BACKEND_LABEL;
        let b = [("backend", backend)];
        let serve_help = "End-to-end serve latency (µs)";
        EngineInstruments {
            serve_view_us: handle.histogram(
                "sofos_serve_latency_us",
                serve_help,
                &[("backend", backend), ("route", "view")],
            ),
            serve_fallback_us: handle.histogram(
                "sofos_serve_latency_us",
                serve_help,
                &[("backend", backend), ("route", "fallback")],
            ),
            freshness_lag: handle.histogram(
                "sofos_freshness_lag",
                "Freshness lag tag of served answers (buffered batches behind latest)",
                &b,
            ),
            route_fallback: handle.counter(
                "sofos_route_total",
                "Queries routed per destination",
                &[("backend", backend), ("route", "fallback")],
            ),
            route_views: Mutex::new(FxHashMap::default()),
            pending_depth: handle.gauge(
                "sofos_pending_depth",
                "Buffered row-delta batches awaiting deferred maintenance",
                &b,
            ),
            pending_cap_evictions: handle.counter(
                "sofos_pending_cap_evictions_total",
                "Pending-log entries dropped by cap enforcement",
                &b,
            ),
            buffered_updates: handle.gauge(
                "sofos_buffered_updates",
                "Bounded-policy update batches buffered and not yet flushed",
                &b,
            ),
            flushes: handle.counter("sofos_flushes_total", "Flush passes", &b),
            flushed_batches: handle.counter(
                "sofos_flushed_batches_total",
                "Buffered update batches drained by flushes",
                &b,
            ),
            epochs_published: handle.gauge(
                "sofos_epochs_published",
                "Epoch snapshots published since construction",
                &b,
            ),
            epochs_retired: handle.gauge(
                "sofos_epochs_retired",
                "Epoch snapshots fully retired (no pins, superseded)",
                &b,
            ),
            epochs_live: handle.gauge(
                "sofos_epochs_live",
                "Epoch snapshots currently retained (published - retired)",
                &b,
            ),
            pipeline_serial_us: handle.counter(
                "sofos_pipeline_serial_us_total",
                "Maintenance: serial spine wall time (µs)",
                &b,
            ),
            pipeline_parallel_work_us: handle.counter(
                "sofos_pipeline_parallel_work_us_total",
                "Maintenance: summed per-view planning time (µs)",
                &b,
            ),
            maintenance_errors: handle.counter(
                "sofos_maintenance_errors_total",
                "Failed maintenance or repair passes",
                &b,
            ),
            index_bytes: handle.gauge(
                "sofos_index_bytes",
                "Estimated bytes held by bitmap posting lists across all graphs",
                &b,
            ),
            index_posting_lists: handle.gauge(
                "sofos_index_posting_lists",
                "Live posting lists (per-predicate plus per-(predicate, value))",
                &b,
            ),
            index_updates: handle.counter(
                "sofos_index_updates_total",
                "Incremental posting-list maintenance operations",
                &b,
            ),
            index_updates_reported: AtomicU64::new(0),
            persisted_epoch: handle.gauge(
                "sofos_persisted_epoch",
                "Newest epoch covered by the durable log",
                &b,
            ),
            persist_log_bytes: handle.gauge(
                "sofos_persist_log_bytes",
                "Bytes appended to the epoch log since boot",
                &b,
            ),
            persist_fsyncs: handle.gauge(
                "sofos_persist_fsyncs",
                "Fsync calls issued by the persistence layer",
                &b,
            ),
            persist_snapshots: handle.gauge(
                "sofos_persist_snapshots",
                "Full snapshots written since boot",
                &b,
            ),
            handle,
        }
    }

    /// The handle every instrument records into.
    pub(crate) fn handle(&self) -> &MetricsHandle {
        &self.handle
    }

    /// One served answer: latency split by route, the freshness-lag tag,
    /// per-view routing counts, and a slow-query event past the handle's
    /// threshold.
    pub(crate) fn record_serve(
        &self,
        route: Option<ViewMask>,
        latency_us: u64,
        freshness: &Freshness,
        now_ms: u64,
    ) {
        if !self.handle.is_enabled() {
            return;
        }
        match route {
            Some(view) => {
                self.serve_view_us.record(latency_us);
                self.route_counter(view).inc();
            }
            None => {
                self.serve_fallback_us.record(latency_us);
                self.route_fallback.inc();
            }
        }
        self.freshness_lag.record(freshness.lag);
        if latency_us > self.handle.slow_query_threshold_us() {
            let dest = match route {
                Some(view) => format!("view {:#x}", view.0),
                None => "base graph".to_string(),
            };
            self.handle.event(
                now_ms,
                EventKind::SlowQuery,
                format!("{} µs via {dest} (lag {})", latency_us, freshness.lag),
            );
        }
    }

    fn route_counter(&self, view: ViewMask) -> Arc<Counter> {
        let mut cached = self.route_views.lock().expect("route counters poisoned");
        Arc::clone(cached.entry(view.0).or_insert_with(|| {
            self.handle.counter(
                "sofos_route_total",
                "Queries routed per destination",
                &[
                    ("backend", BACKEND_LABEL),
                    ("route", "view"),
                    ("view", &format!("{:#x}", view.0)),
                ],
            )
        }))
    }

    /// Pending-log movement: current depth plus entries evicted by cap
    /// enforcement since the last call.
    pub(crate) fn record_pending(&self, depth: usize, evicted: usize) {
        if !self.handle.is_enabled() {
            return;
        }
        self.pending_depth.set(depth as u64);
        if evicted > 0 {
            self.pending_cap_evictions.add(evicted as u64);
        }
    }

    /// Bounded-policy buffer depth (batches awaiting the next flush).
    pub(crate) fn record_buffered(&self, buffered: usize) {
        if self.handle.is_enabled() {
            self.buffered_updates.set(buffered as u64);
        }
    }

    /// One flush pass that drained `batches` buffered batches.
    pub(crate) fn record_flush(&self, batches: usize, now_ms: u64, detail: impl Into<String>) {
        if !self.handle.is_enabled() {
            return;
        }
        self.flushes.inc();
        self.flushed_batches.add(batches as u64);
        self.buffered_updates.set(0);
        self.handle.event(now_ms, EventKind::Flush, detail);
    }

    /// The epoch store's snapshot lifecycle after a publish (or pin
    /// drop): published / retired / live counts.
    pub(crate) fn record_epoch_lifecycle(&self, published: u64, retired: u64, live: u64) {
        if !self.handle.is_enabled() {
            return;
        }
        self.epochs_published.set(published);
        self.epochs_retired.set(retired);
        self.epochs_live.set(live);
    }

    /// An epoch-publish event (the batched flush publishing `epoch`).
    pub(crate) fn record_epoch_publish(&self, epoch: u64, now_ms: u64) {
        self.handle.event(
            now_ms,
            EventKind::EpochPublish,
            format!("epoch {epoch} published"),
        );
    }

    /// Fold one pipeline split (an apply or a maintenance pass) into the
    /// phase-timing counters.
    pub(crate) fn record_pipeline(&self, telemetry: &PipelineTelemetry) {
        if !self.handle.is_enabled() {
            return;
        }
        self.pipeline_serial_us.add(telemetry.serial_us);
        self.pipeline_parallel_work_us
            .add(telemetry.parallel_work_us);
    }

    /// The persistence layer's cumulative counters (durable engines only).
    pub(crate) fn record_persist(&self, stats: &PersistStats) {
        if !self.handle.is_enabled() {
            return;
        }
        self.persisted_epoch.set(stats.persisted_epoch);
        self.persist_log_bytes.set(stats.log_bytes);
        self.persist_fsyncs.set(stats.fsyncs);
        self.persist_snapshots.set(stats.snapshots);
    }

    /// Whether the underlying handle records anything — callers gate
    /// stat *computation* (not just recording) on this when gathering
    /// the inputs has a cost of its own.
    pub(crate) fn enabled(&self) -> bool {
        self.handle.is_enabled()
    }

    /// The dataset's aggregated posting-list footprint. The update total
    /// is pushed as a monotone counter via a saturating diff against the
    /// last reported value (per-graph counters vanish with their graph,
    /// so the raw sum is not monotone).
    pub(crate) fn record_index(&self, stats: &PostingStats) {
        if !self.handle.is_enabled() {
            return;
        }
        self.index_bytes.set(stats.bytes as u64);
        self.index_posting_lists.set(stats.posting_lists as u64);
        let last = self
            .index_updates_reported
            .swap(stats.updates, Ordering::Relaxed);
        self.index_updates.add(stats.updates.saturating_sub(last));
    }

    /// A failed maintenance or repair pass.
    pub(crate) fn record_maintenance_error(&self, now_ms: u64, detail: impl Into<String>) {
        if !self.handle.is_enabled() {
            return;
        }
        self.maintenance_errors.inc();
        self.handle
            .event(now_ms, EventKind::MaintenanceError, detail);
    }
}

/// The adaptive layer's instrument set: `(reselections, duration
/// histogram, moves, restarts)`. Get-or-create by (name, labels), so the
/// pre-registration in [`EngineInstruments::new`] and the record path in
/// [`record_reselection`] resolve to the same instruments.
type ReselectionInstruments = (Arc<Counter>, Arc<Histogram>, Arc<Counter>, Arc<Counter>);

fn register_reselection_instruments(handle: &MetricsHandle) -> ReselectionInstruments {
    (
        handle.counter(
            "sofos_reselections_total",
            "Adaptive catalog re-selections applied",
            &[],
        ),
        handle.histogram(
            "sofos_reselect_duration_us",
            "Re-selection pass overhead (sizing + selection + swap, µs)",
            &[],
        ),
        handle.counter(
            "sofos_select_moves_total",
            "Local-search moves tried by anytime re-selection passes",
            &[],
        ),
        handle.counter(
            "sofos_select_restarts_total",
            "Local-search restarts performed by anytime re-selection passes",
            &[],
        ),
    )
}

/// Record one adaptive re-selection on `handle` (called by
/// [`crate::adaptive::Reselector`], which works through the public
/// [`crate::engine::Engine`] surface rather than the engine's
/// instruments). `moves` / `restarts` are zero for greedy passes and the
/// [`sofos_select::SearchReport`] counts for anytime passes.
pub(crate) fn record_reselection(
    handle: &MetricsHandle,
    now_ms: u64,
    duration_us: u64,
    moves: u64,
    restarts: u64,
    detail: impl Into<String>,
) {
    if !handle.is_enabled() {
        return;
    }
    let (reselections, duration, select_moves, select_restarts) =
        register_reselection_instruments(handle);
    reselections.inc();
    duration.record(duration_us);
    select_moves.add(moves);
    select_restarts.add(restarts);
    handle.event(now_ms, EventKind::Reselection, detail);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_register_and_record() {
        let handle = MetricsHandle::new();
        let m = EngineInstruments::new(handle.clone());
        m.record_serve(Some(ViewMask(3)), 120, &Freshness::fresh(1), 5);
        m.record_serve(None, 40, &Freshness::fresh(1), 6);
        m.record_pending(4, 2);
        m.record_flush(3, 7, "drained 3");
        let snap = handle.snapshot();
        assert_eq!(
            snap.counter_value(
                "sofos_route_total",
                &[("backend", "epoch"), ("route", "fallback")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter_value(
                "sofos_route_total",
                &[("backend", "epoch"), ("route", "view"), ("view", "0x3")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.gauge_value("sofos_pending_depth", &[("backend", "epoch")]),
            Some(4)
        );
        assert_eq!(
            snap.counter_value("sofos_pending_cap_evictions_total", &[("backend", "epoch")]),
            Some(2)
        );
        assert_eq!(snap.events.len(), 1, "flush event recorded");
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let handle = MetricsHandle::disabled();
        let m = EngineInstruments::new(handle.clone());
        m.record_serve(Some(ViewMask(1)), 1_000_000, &Freshness::fresh(0), 1);
        m.record_flush(5, 2, "ignored");
        let snap = handle.snapshot();
        assert_eq!(
            snap.counter_value("sofos_flushes_total", &[("backend", "epoch")]),
            Some(0)
        );
        assert!(snap.events.is_empty());
    }
}
