//! The serial backend: one mutable dataset, queries and updates
//! serialized.
//!
//! This is the paper's single-node regime (and the `e9_concurrency`
//! baseline): the backend owns the expanded dataset outright, so every
//! maintenance batch stalls every query for its full duration. All policy
//! behaviour comes from [`crate::policy`]; the state stamp the pending
//! log runs on is the applied-update-batch count.
//!
//! [`SerialState`] is the actual implementation; [`SerialBackend`] wraps
//! it in a mutex to provide the `&self` [`ServingBackend`] surface.

use super::{Route, ServingBackend, SessionAnswer, ViewChurn};
use crate::metrics::EngineInstruments;
use crate::policy::{Clock, FlushMeter, Freshness, PendingLog, ProfileWindows, StalenessPolicy};
use crate::timing::measure_once;
use sofos_cost::UpdateRates;
use sofos_cube::{Facet, ViewMask};
use sofos_maintain::{Maintainer, MaintenanceReport, PipelineTelemetry, RowDelta};
use sofos_materialize::{drop_view, materialize_view};
use sofos_rdf::FxHashMap;
use sofos_rewrite::{analyze_query, best_view, rewrite_query};
use sofos_select::WorkloadProfile;
use sofos_sparql::{Evaluator, Query, SparqlError};
use sofos_store::{ChangeSet, Dataset, Delta};
use std::sync::{Arc, Mutex};

/// The serial serving state machine (see module docs).
pub(crate) struct SerialState {
    dataset: Dataset,
    facet: Facet,
    maintainer: Maintainer,
    views: Vec<(ViewMask, usize)>,
    policy: StalenessPolicy,
    clock: Arc<dyn Clock>,
    /// Buffered row deltas under the lazy/bounded policies, stamped with
    /// the update-batch count that produced them.
    pending: PendingLog,
    /// Bounded policy: one entry per update batch since the last flush
    /// (drives the scheduled cadence and the wall-clock serve check).
    meter: FlushMeter,
    /// Accumulated maintenance log.
    log: MaintenanceReport,
    /// Sliding demand/rate/churn windows for the adaptive layer.
    windows: ProfileWindows,
    update_batches: usize,
    view_hits: usize,
    fallbacks: usize,
    /// Pre-registered telemetry instruments (serve latency, freshness
    /// lag, flush/pending accounting).
    metrics: EngineInstruments,
}

impl SerialState {
    pub(crate) fn new(
        dataset: Dataset,
        facet: Facet,
        views: Vec<(ViewMask, usize)>,
        policy: StalenessPolicy,
        clock: Arc<dyn Clock>,
        metrics: EngineInstruments,
    ) -> SerialState {
        SerialState {
            maintainer: Maintainer::new(&facet),
            dataset,
            facet,
            views,
            policy,
            clock,
            pending: PendingLog::default(),
            meter: FlushMeter::default(),
            log: MaintenanceReport::default(),
            windows: ProfileWindows::default(),
            update_batches: 0,
            view_hits: 0,
            fallbacks: 0,
            metrics,
        }
    }

    /// The current state stamp: applied update batches.
    fn stamp(&self) -> u64 {
        self.update_batches as u64
    }

    /// Apply an update batch under the staleness policy. Base changes
    /// always land immediately (the serial backend has no snapshot to
    /// serve stale base reads from); view upkeep follows the policy.
    pub(crate) fn update(&mut self, delta: Delta) -> Result<ChangeSet, SparqlError> {
        self.update_batches += 1;
        self.windows.observe_batch(&delta);
        match self.policy {
            StalenessPolicy::Invalidate => {
                for &(mask, _) in &self.views {
                    drop_view(&mut self.dataset, &self.facet, mask);
                }
                self.views.clear();
                self.pending.clear();
                Ok(self.dataset.apply(delta))
            }
            StalenessPolicy::Eager => {
                let outcome = self.maintainer.apply(&mut self.dataset, delta);
                if let Some(rows) = &outcome.rows {
                    self.windows.observe_churn(rows);
                }
                match self.maintainer.maintain(
                    &mut self.dataset,
                    outcome.rows.as_ref(),
                    &mut self.views,
                ) {
                    Ok(maintained) => {
                        self.log.absorb(maintained.report);
                        Ok(outcome.changes)
                    }
                    Err(e) => {
                        // The base delta is applied but no view was
                        // patched (planning is all-or-nothing): demand a
                        // full refresh of every view so no query serves
                        // stale state tagged fresh — mirroring the epoch
                        // backend's eager error path.
                        let stamp = self.stamp();
                        self.pending.demand_refresh_all(&self.views, stamp);
                        self.metrics.record_maintenance_error(
                            self.clock.now_ms(),
                            format!("eager maintenance failed: {e}"),
                        );
                        Err(e)
                    }
                }
            }
            StalenessPolicy::LazyOnHit => {
                let outcome = self.maintainer.apply(&mut self.dataset, delta);
                self.buffer_rows(outcome.rows);
                Ok(outcome.changes)
            }
            StalenessPolicy::Bounded { .. } => {
                // View upkeep is deferred and batched: every view consumes
                // its merged backlog in one pass per flush, so N buffered
                // batches cost one group-patching pass instead of N.
                let outcome = self.maintainer.apply(&mut self.dataset, delta);
                self.buffer_rows(outcome.rows);
                let buffered = self.meter.enqueue(self.clock.now_ms());
                self.metrics.record_buffered(buffered);
                if self.meter.cadence_due(self.policy) {
                    self.flush_views()?;
                }
                Ok(outcome.changes)
            }
        }
    }

    /// Buffer an update's row delta for deferred (lazy/bounded) repair.
    fn buffer_rows(&mut self, rows: Option<RowDelta>) {
        let stamp = self.stamp();
        match rows {
            Some(rows) if rows.is_empty() => {}
            Some(rows) => {
                self.windows.observe_churn(&rows);
                self.pending.push(stamp, self.clock.now_ms(), rows);
                let evicted = self.pending.enforce_cap(&self.views, stamp);
                self.metrics.record_pending(self.pending.len(), evicted);
            }
            None => {
                // Unusable delta: every view must fully refresh; buffered
                // rows are superseded.
                self.pending.demand_refresh_all(&self.views, stamp);
                self.metrics.record_pending(self.pending.len(), 0);
            }
        }
    }

    /// Bring every view up to date in one batched pass (the bounded
    /// policy's flush; also callable directly to drain the backend).
    /// Returns the total maintenance time (µs).
    pub(crate) fn flush_views(&mut self) -> Result<u64, SparqlError> {
        let batches = self.meter.buffered();
        let masks: Vec<ViewMask> = self.views.iter().map(|(m, _)| *m).collect();
        let mut total_us = 0;
        for mask in masks {
            total_us += self.sync_view(mask)?;
        }
        self.meter.clear();
        self.metrics.record_flush(
            batches,
            self.clock.now_ms(),
            format!("drained {batches} batches in {total_us} µs"),
        );
        self.metrics.record_pending(self.pending.len(), 0);
        Ok(total_us)
    }

    /// Update batches buffered since the last bounded flush.
    pub(crate) fn batches_since_flush(&self) -> usize {
        self.meter.buffered()
    }

    /// Answer one query, routing through the rewriter; under the lazy
    /// policy a stale routed-to view is repaired first (and the repair's
    /// cost reported on the answer); under the bounded policy an
    /// in-budget view is served as-is and *tagged*. Analyzable queries
    /// feed the sliding workload profile whether or not a view covers
    /// them.
    pub(crate) fn query(&mut self, query: &Query) -> Result<SessionAnswer, SparqlError> {
        let start = std::time::Instant::now();
        let result = self.query_inner(query);
        if let Ok(answer) = &result {
            let route = match answer.route {
                Route::View(view) => Some(view),
                Route::BaseGraph => None,
            };
            self.metrics.record_serve(
                route,
                start.elapsed().as_micros() as u64,
                &answer.freshness,
                self.clock.now_ms(),
            );
        }
        result
    }

    fn query_inner(&mut self, query: &Query) -> Result<SessionAnswer, SparqlError> {
        let planned = match analyze_query(&self.facet, query) {
            Ok(analysis) => {
                self.windows.observe_demand(analysis.required);
                best_view(&self.views, analysis.required)
                    .map(|view| (view, rewrite_query(&self.facet, &analysis, view)))
            }
            Err(_) => None,
        };
        let stamp = self.stamp();
        match planned {
            Some((view, rewritten)) => {
                // Bounded serving: a view within both the batch-lag and
                // wall-clock budgets is served as-is and *tagged*; past
                // either budget it is repaired first, exactly like a lazy
                // hit.
                let (maintenance_us, freshness) = match self.policy {
                    StalenessPolicy::Bounded { .. } => {
                        let lag = self.pending.lag_of(view);
                        let time_lag = self.pending.time_lag_of(view, self.clock.now_ms());
                        if !self.policy.within_budget(lag, time_lag) {
                            (self.sync_view(view)?, Freshness::fresh(stamp))
                        } else {
                            (0, Freshness { lag, epoch: stamp })
                        }
                    }
                    _ => (self.sync_view(view)?, Freshness::fresh(stamp)),
                };
                self.view_hits += 1;
                let results = Evaluator::new(&self.dataset).evaluate(&rewritten)?;
                Ok(SessionAnswer {
                    route: Route::View(view),
                    results,
                    maintenance_us,
                    freshness,
                })
            }
            None => {
                self.fallbacks += 1;
                let results = Evaluator::new(&self.dataset).evaluate(query)?;
                // The serial backend's base graph is always current.
                Ok(SessionAnswer {
                    route: Route::BaseGraph,
                    results,
                    maintenance_us: 0,
                    freshness: Freshness::fresh(stamp),
                })
            }
        }
    }

    /// Bring one view up to date if deferred maintenance left it stale.
    fn sync_view(&mut self, view: ViewMask) -> Result<u64, SparqlError> {
        let refresh = self.pending.needs_refresh(view);
        let pending = self.pending.backlog(view);
        let stamp = self.stamp();
        if !refresh && pending.as_ref().is_none_or(RowDelta::is_empty) {
            // Net-zero backlog: consuming it needs no maintenance.
            self.pending.consume(view, stamp, true, &self.views);
            return Ok(0);
        }
        let entry = self
            .views
            .iter_mut()
            .find(|(mask, _)| *mask == view)
            .expect("routed view is in the catalog");
        let rows = if refresh { None } else { pending.as_ref() };
        let result = self
            .maintainer
            .maintain_view(&mut self.dataset, rows, entry);
        // The backlog is consumed either way. Planning is all-or-nothing
        // (an errored pass wrote nothing), but the view is still stale
        // and the error may be deterministic — demanding a full refresh
        // on the next hit keeps a poisoned backlog from wedging the view
        // in an error-retry loop while the pending log grows.
        self.pending
            .consume(view, stamp, result.is_ok(), &self.views);
        if let Err(e) = &result {
            self.metrics.record_maintenance_error(
                self.clock.now_ms(),
                format!("view {:#x} repair failed: {e}", view.0),
            );
        }
        let cost = result?;
        let us = cost.wall_us;
        self.log.per_view.push(cost);
        self.log.total_us += us;
        Ok(us)
    }

    /// Replace the materialized set with `target`, transactionally.
    ///
    /// Views in `target` not yet in the catalog are materialized *first*;
    /// if any materialization fails, the already-written new view graphs
    /// are dropped and the catalog is left exactly as it was. Only once
    /// every new view exists are the retired ones dropped and the catalog
    /// swapped. Kept views carry their maintenance state (cursors,
    /// pending backlog) across the swap; new views are fresh as of now.
    pub(crate) fn swap_views(&mut self, target: &[ViewMask]) -> Result<ViewChurn, SparqlError> {
        let current: Vec<ViewMask> = self.views.iter().map(|(m, _)| *m).collect();
        let plan = super::plan_swap(&current, target);

        // Phase 1: materialize every incoming view; roll back on failure.
        let mut materialized: Vec<(ViewMask, usize)> = Vec::with_capacity(plan.added.len());
        let (materialize_us, result) = measure_once(|| {
            for &mask in &plan.added {
                match materialize_view(&mut self.dataset, &self.facet, mask) {
                    Ok(view) => materialized.push((mask, view.stats.rows)),
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        });
        if let Err(e) = result {
            for &(mask, _) in &materialized {
                drop_view(&mut self.dataset, &self.facet, mask);
            }
            return Err(e);
        }

        // Phase 2: retire outgoing views and install the new catalog in
        // `target` order (kept entries keep their live row counts).
        let (drop_us, ()) = measure_once(|| {
            for &mask in &plan.retired {
                drop_view(&mut self.dataset, &self.facet, mask);
                self.pending.forget(mask);
            }
        });
        let stamp = self.stamp();
        self.views = super::rebuild_catalog(target, &self.views, &materialized);
        for &(mask, _) in &materialized {
            // Materialized from the current base graph: nothing pending.
            self.pending.mark_fresh(mask, stamp);
        }
        self.pending.compact(&self.views);

        Ok(ViewChurn {
            added: plan.added,
            retired: plan.retired,
            kept: plan.kept,
            materialize_us,
            drop_us,
        })
    }

    // -- accessors ---------------------------------------------------------

    pub(crate) fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    pub(crate) fn views(&self) -> &[(ViewMask, usize)] {
        &self.views
    }

    pub(crate) fn policy(&self) -> StalenessPolicy {
        self.policy
    }

    pub(crate) fn maintenance(&self) -> &MaintenanceReport {
        &self.log
    }

    pub(crate) fn routing_counts(&self) -> (usize, usize) {
        (self.view_hits, self.fallbacks)
    }

    pub(crate) fn update_batches(&self) -> usize {
        self.update_batches
    }

    pub(crate) fn stale_views(&self) -> usize {
        self.pending.stale_count(&self.views, u64::MAX)
    }

    pub(crate) fn window_profile(&self) -> WorkloadProfile {
        self.windows.window_profile()
    }

    pub(crate) fn observed_rates(&self) -> UpdateRates {
        self.windows
            .observed_rates((self.facet.dim_count() + 1) as f64)
    }

    pub(crate) fn churn_profile(&self) -> FxHashMap<u64, f64> {
        self.windows.churn_profile()
    }
}

/// The `&self` wrapper the [`crate::engine::Engine`] serves through: a
/// mutex around [`SerialState`], so callers serialize exactly like the
/// pre-epoch architecture.
pub(crate) struct SerialBackend {
    state: Mutex<SerialState>,
}

impl SerialBackend {
    pub(crate) fn new(
        dataset: Dataset,
        facet: Facet,
        views: Vec<(ViewMask, usize)>,
        policy: StalenessPolicy,
        clock: Arc<dyn Clock>,
        metrics: EngineInstruments,
    ) -> SerialBackend {
        SerialBackend {
            state: Mutex::new(SerialState::new(
                dataset, facet, views, policy, clock, metrics,
            )),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SerialState> {
        self.state.lock().expect("serial state lock poisoned")
    }
}

impl ServingBackend for SerialBackend {
    fn update(&self, delta: Delta) -> Result<(), SparqlError> {
        self.lock().update(delta).map(|_| ())
    }

    fn query(&self, query: &Query) -> Result<SessionAnswer, SparqlError> {
        self.lock().query(query)
    }

    fn swap_views(&self, target: &[ViewMask]) -> Result<ViewChurn, SparqlError> {
        self.lock().swap_views(target)
    }

    fn flush(&self) -> Result<u64, SparqlError> {
        self.lock().flush_views()
    }

    fn snapshot(&self) -> Dataset {
        self.lock().dataset().clone()
    }

    fn views(&self) -> Vec<(ViewMask, usize)> {
        self.lock().views().to_vec()
    }

    fn policy(&self) -> StalenessPolicy {
        self.lock().policy()
    }

    fn maintenance(&self) -> MaintenanceReport {
        self.lock().maintenance().clone()
    }

    fn routing_counts(&self) -> (usize, usize) {
        self.lock().routing_counts()
    }

    fn update_batches(&self) -> usize {
        self.lock().update_batches()
    }

    fn stale_views(&self) -> usize {
        self.lock().stale_views()
    }

    fn buffered_updates(&self) -> usize {
        self.lock().batches_since_flush()
    }

    fn epoch(&self) -> u64 {
        self.lock().update_batches() as u64
    }

    fn window_profile(&self) -> WorkloadProfile {
        self.lock().window_profile()
    }

    fn observed_rates(&self) -> UpdateRates {
        self.lock().observed_rates()
    }

    fn churn_profile(&self) -> FxHashMap<u64, f64> {
        self.lock().churn_profile()
    }

    fn pipeline_telemetry(&self) -> Option<PipelineTelemetry> {
        None
    }

    fn now_ms(&self) -> u64 {
        self.lock().clock.now_ms()
    }

    fn backend_name(&self) -> &'static str {
        "serial"
    }
}
