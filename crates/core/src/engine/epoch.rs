//! The engine's write and read paths over the epoch store.
//!
//! * **queries** pin an immutable epoch [`sofos_store::Snapshot`] and
//!   evaluate against it — they never wait for a writer, only for the
//!   pointer swap of a publish and a short catalog-routing lock;
//! * **updates** run inside a write transaction: the delta is applied
//!   with its binding scans ([`sofos_maintain::Maintainer::apply`]), every
//!   view's patch is planned and then applied on the writer's master
//!   ([`sofos_maintain::Maintainer::maintain`]), and the whole batch
//!   becomes visible atomically at publish;
//! * the **staleness policies** are the [`crate::policy`] state machines
//!   expressed over epochs. *Eager* maintains inside the update
//!   transaction. *Lazy* publishes the base change immediately and
//!   buffers the row delta stamped with its epoch; a view is repaired on
//!   its next hit by replaying exactly the epochs it missed. *Invalidate*
//!   drops the catalog inside the update transaction. *Bounded* buffers
//!   whole deltas writer-side and flushes on cadence — and the serve path
//!   enforces both the epoch-lag and wall-clock budgets, flushing **one
//!   buffered batch at a time** when a read finds itself over budget, so
//!   the maintenance work a single read can absorb is bounded (the
//!   check–flush–recheck loop under the serving lock still guarantees the
//!   bound holds against racing updates).
//!
//! Lock discipline (in acquisition order): write transaction → writer
//! side (maintenance engine) → serving state (catalog routing). The
//! serving lock is held only for catalog reads/installs and the O(1)
//! publish swap — never across maintenance, materialization, snapshot
//! cloning, or query evaluation.

use super::{Engine, Route, SessionAnswer, ViewChurn};
use crate::policy::{FlushMeter, Freshness, PendingLog, ProfileWindows, StalenessPolicy};
use crate::timing::measure_once;
use sofos_cost::UpdateRates;
use sofos_cube::{Facet, ViewMask};
use sofos_maintain::{ApplyOutcome, Maintainer, MaintenanceReport, PipelineTelemetry, RowDelta};
use sofos_materialize::{drop_view, materialize_view, MaterializedView};
use sofos_rdf::{FxHashMap, FxHashSet};
use sofos_rewrite::{analyze_query, best_view, rewrite_query};
use sofos_select::WorkloadProfile;
use sofos_sparql::{Evaluator, Query, SparqlError};
use sofos_store::{Dataset, Delta, PinnedSnapshot, WriteTxn};

/// Routing and staleness state shared between readers and the writer.
/// Guarded by a mutex that is only ever held briefly (see module docs).
pub(super) struct ServingState {
    /// The live catalog: mask + row count, in selection order.
    views: Vec<(ViewMask, usize)>,
    /// Buffered row deltas under the lazy policy, stamped with the epoch
    /// that published them.
    pending: PendingLog,
    /// Bounded policy: one entry (enqueue timestamp) per update batch
    /// buffered by the writer and not yet published — the lag every read
    /// serves under (and is tagged with) until the next flush.
    meter: FlushMeter,
    /// Sliding demand/rate/churn windows for the adaptive layer.
    windows: ProfileWindows,
    view_hits: usize,
    fallbacks: usize,
    update_batches: usize,
}

impl ServingState {
    pub(super) fn new(views: Vec<(ViewMask, usize)>) -> ServingState {
        ServingState {
            views,
            pending: PendingLog::default(),
            meter: FlushMeter::default(),
            windows: ProfileWindows::default(),
            view_hits: 0,
            fallbacks: 0,
            update_batches: 0,
        }
    }
}

/// Writer-only state (the maintenance engine and its telemetry). Guarded
/// by its own mutex, always acquired while holding the store's write
/// transaction, so it never contends with readers.
pub(super) struct WriterSide {
    maintainer: Maintainer,
    log: MaintenanceReport,
    /// Accumulated split (serial spine vs. planning work) across every
    /// apply and maintenance pass.
    telemetry: PipelineTelemetry,
    /// Bounded policy only: deltas awaiting the next batched flush.
    buffered: Vec<Delta>,
}

impl WriterSide {
    pub(super) fn new(facet: &Facet) -> WriterSide {
        WriterSide {
            maintainer: Maintainer::new(facet),
            log: MaintenanceReport::default(),
            telemetry: PipelineTelemetry::default(),
            buffered: Vec::new(),
        }
    }
}

/// The set difference behind a transactional catalog swap.
struct SwapPlan {
    added: Vec<ViewMask>,
    retired: Vec<ViewMask>,
    kept: Vec<ViewMask>,
}

fn plan_swap(current: &[ViewMask], target: &[ViewMask]) -> SwapPlan {
    debug_assert!(
        target.iter().map(|m| m.0).collect::<FxHashSet<_>>().len() == target.len(),
        "swap_views target must not contain duplicates: {target:?}"
    );
    let current_set: FxHashSet<u64> = current.iter().map(|m| m.0).collect();
    let wanted: FxHashSet<u64> = target.iter().map(|m| m.0).collect();
    SwapPlan {
        added: target
            .iter()
            .copied()
            .filter(|m| !current_set.contains(&m.0))
            .collect(),
        retired: current
            .iter()
            .copied()
            .filter(|m| !wanted.contains(&m.0))
            .collect(),
        kept: target
            .iter()
            .copied()
            .filter(|m| current_set.contains(&m.0))
            .collect(),
    }
}

/// Rebuild the catalog in `target` order: kept entries carry their live
/// row counts from `old`, added ones take their freshly-`materialized`
/// counts.
fn rebuild_catalog(
    target: &[ViewMask],
    old: &[(ViewMask, usize)],
    materialized: &[(ViewMask, usize)],
) -> Vec<(ViewMask, usize)> {
    let old_catalog: FxHashMap<u64, usize> = old.iter().map(|(m, rows)| (m.0, *rows)).collect();
    target
        .iter()
        .map(|&mask| {
            let rows = old_catalog.get(&mask.0).copied().unwrap_or_else(|| {
                materialized
                    .iter()
                    .find(|(m, _)| *m == mask)
                    .map_or(0, |(_, rows)| *rows)
            });
            (mask, rows)
        })
        .collect()
}

impl Engine {
    /// [`Maintainer::apply`] one delta to the writer's master, counting
    /// its wall time as serial pipeline work in the writer's telemetry
    /// and the metric instruments.
    fn apply(&self, writer: &mut WriterSide, dataset: &mut Dataset, delta: Delta) -> ApplyOutcome {
        let (serial_us, outcome) = measure_once(|| writer.maintainer.apply(dataset, delta));
        let split = PipelineTelemetry {
            serial_us,
            ..PipelineTelemetry::default()
        };
        writer.telemetry.merge(&split);
        self.metrics.record_pipeline(&split);
        outcome
    }

    /// Refresh the epoch-lifecycle gauges (and, on a durable store, the
    /// persistence gauges) from the store's accounting.
    fn note_store(&self) {
        self.metrics.record_epoch_lifecycle(
            self.store.published_snapshots(),
            self.store.retired_snapshots(),
            self.store.live_snapshots(),
        );
        if let Some(persister) = self.store.persister() {
            self.metrics.record_persist(&persister.stats());
        }
        if self.metrics.enabled() {
            // Pinning just to read footprint is fine here: the gauges are
            // only refreshed when telemetry is on, and a pin is an Arc
            // clone plus registry bookkeeping.
            let snapshot = self.store.pin();
            self.metrics
                .record_index(&snapshot.dataset().posting_stats());
        }
    }

    /// The catalog as `(mask bits, rows)` pairs for the epoch log.
    /// `None` on an in-memory store, so `Durability::None` publishes pay
    /// nothing — and log records only carry an explicit catalog when the
    /// view set actually changed (other records carry it forward).
    fn durable_catalog(&self, views: &[(ViewMask, usize)]) -> Option<Vec<(u64, u64)>> {
        self.store
            .persister()
            .map(|_| views.iter().map(|&(m, rows)| (m.0, rows as u64)).collect())
    }

    fn lock_serving(&self) -> std::sync::MutexGuard<'_, ServingState> {
        self.serving.lock().expect("serving lock poisoned")
    }

    fn lock_writer(&self) -> std::sync::MutexGuard<'_, WriterSide> {
        self.writer.lock().expect("writer lock poisoned")
    }

    /// Apply an update batch under the engine's staleness policy. The
    /// batch becomes visible to readers atomically at publish; readers
    /// keep answering from the previous epoch until then.
    pub fn update(&self, delta: Delta) -> Result<(), SparqlError> {
        let result = self.update_inner(delta);
        self.note_store();
        result
    }

    fn update_inner(&self, delta: Delta) -> Result<(), SparqlError> {
        let mut txn = self.store.begin();
        let mut writer = self.lock_writer();
        {
            let mut state = self.lock_serving();
            state.update_batches += 1;
            state.windows.observe_batch(&delta);
        }
        // Invariant for every branch below: the serving lock is held
        // *across* the catalog change and the publish, so a reader can
        // never pair the new catalog with the old epoch (or vice versa).
        match self.policy {
            StalenessPolicy::Invalidate => {
                let views: Vec<ViewMask> = {
                    let state = self.lock_serving();
                    state.views.iter().map(|(m, _)| *m).collect()
                };
                for mask in views {
                    drop_view(txn.dataset(), &self.facet, mask);
                }
                let changes = txn.dataset().apply(delta);
                txn.touch_changes(&changes);
                let catalog = self.durable_catalog(&[]);
                let prepared = txn.prepare();
                let mut state = self.lock_serving();
                state.views.clear();
                state.pending.clear();
                prepared.publish_with_catalog(catalog.as_deref());
                Ok(())
            }
            StalenessPolicy::Eager => {
                let applied = self.apply(&mut writer, txn.dataset(), delta);
                // The catalog's masks cannot change concurrently — every
                // view mutator holds the write transaction — so working on
                // a clone and installing it back is race-free.
                let mut views = self.lock_serving().views.clone();
                let rows = applied.rows.as_ref();
                let result = writer.maintainer.maintain(txn.dataset(), rows, &mut views);
                txn.touch_changes(&applied.changes);
                // Snapshot construction (the clone) happens before the
                // serving lock; readers only ever wait for the swap.
                match result {
                    Ok(outcome) => {
                        writer.telemetry.merge(&outcome.telemetry);
                        self.metrics.record_pipeline(&outcome.telemetry);
                        writer.log.absorb(outcome.report);
                        let catalog = self.durable_catalog(&views);
                        let prepared = txn.prepare();
                        let mut state = self.lock_serving();
                        if let Some(rows) = &applied.rows {
                            state.windows.observe_churn(rows);
                        }
                        state.views = views;
                        prepared.publish_with_catalog(catalog.as_deref());
                        Ok(())
                    }
                    Err(e) => {
                        // The base delta is applied but no view was
                        // patched (planning is all-or-nothing);
                        // abandoning the transaction would leave the
                        // master diverged from the published epoch
                        // forever. Publish the batch instead and demand a
                        // full refresh of every (now stale) view —
                        // needs-refresh bars queries from routing to any
                        // of them before repair, under every policy.
                        let catalog = self.durable_catalog(&views);
                        let prepared = txn.prepare();
                        let mut guard = self.lock_serving();
                        let state = &mut *guard;
                        state.views = views;
                        let epoch = prepared.publish_with_catalog(catalog.as_deref());
                        state.pending.demand_refresh_all(&state.views, epoch);
                        drop(guard);
                        self.metrics.record_maintenance_error(
                            self.clock.now_ms(),
                            format!("eager maintenance failed at epoch {epoch}: {e}"),
                        );
                        Err(e)
                    }
                }
            }
            StalenessPolicy::Bounded { .. } => {
                writer.buffered.push(delta);
                // Publish the new lag to readers *before* deciding to
                // flush: a racing reader must either see the full buffer
                // count (and spin on the budget check until the flush
                // publishes) or serve a tag that includes this delta —
                // never an undercounted lag.
                let buffered = {
                    let mut state = self.lock_serving();
                    state.meter.enqueue(self.clock.now_ms());
                    state.meter.buffered()
                };
                self.metrics.record_buffered(buffered);
                if buffered >= self.policy.flush_cadence().unwrap_or(1) {
                    // Scheduled cadence flush: drain the whole buffer into
                    // one batched epoch (the update path can afford it —
                    // it IS the maintenance path).
                    self.flush_batch(txn, &mut writer, buffered)
                } else {
                    // Dropped without publish: nothing was mutated, the
                    // delta only joined the writer-side buffer.
                    drop(txn);
                    Ok(())
                }
            }
            StalenessPolicy::LazyOnHit => {
                let applied = self.apply(&mut writer, txn.dataset(), delta);
                txn.touch_changes(&applied.changes);
                let prepared = txn.prepare();
                let mut guard = self.lock_serving();
                let state = &mut *guard;
                let epoch = prepared.publish();
                match applied.rows {
                    Some(rows) if rows.is_empty() => {}
                    Some(rows) => {
                        state.windows.observe_churn(&rows);
                        state.pending.push(epoch, rows);
                        let evicted = state.pending.enforce_cap(&state.views, epoch);
                        self.metrics.record_pending(state.pending.len(), evicted);
                    }
                    None => {
                        // Non-star facet: buffered deltas cannot repair
                        // anything; every view needs a full refresh.
                        state.pending.demand_refresh_all(&state.views, epoch);
                        self.metrics.record_pending(state.pending.len(), 0);
                    }
                }
                Ok(())
            }
        }
    }

    /// Drain deferred maintenance; returns the maintenance µs spent.
    ///
    /// The bounded policy's buffered updates are applied inside one write
    /// transaction, every view is maintained in one pass over the
    /// *merged* row delta, and the whole batch is published as a single
    /// epoch; then every lazily-stale view is repaired.
    pub fn flush(&self) -> Result<u64, SparqlError> {
        let (us, result) = measure_once(|| {
            self.flush_upto(usize::MAX)?;
            let stale: Vec<ViewMask> = {
                let state = self.lock_serving();
                state
                    .views
                    .iter()
                    .map(|(mask, _)| *mask)
                    .filter(|&mask| state.pending.stale_at(mask, u64::MAX))
                    .collect()
            };
            for view in stale {
                self.repair_view(view)?;
            }
            Ok(())
        });
        self.note_store();
        result.map(|()| us)
    }

    /// Flush at most `limit` of the oldest buffered updates (oldest
    /// first) as one batched epoch. The serve path uses `limit = 1` so a
    /// read that trips the staleness budget absorbs one batch of
    /// maintenance, not the whole backlog.
    fn flush_upto(&self, limit: usize) -> Result<(), SparqlError> {
        let txn = self.store.begin();
        let mut writer = self.lock_writer();
        if writer.buffered.is_empty() {
            return Ok(());
        }
        let take = writer.buffered.len().min(limit.max(1));
        self.flush_batch(txn, &mut writer, take)
    }

    /// The batched-epoch flush of the `take` oldest buffered deltas
    /// (writer lock held, transaction open).
    fn flush_batch(
        &self,
        mut txn: WriteTxn<'_>,
        writer: &mut WriterSide,
        take: usize,
    ) -> Result<(), SparqlError> {
        let deltas: Vec<Delta> = writer.buffered.drain(..take).collect();
        // Merge the per-delta row deltas: N batches collapse into one
        // group-patching pass (intra-batch churn cancels for free).
        let mut merged: Option<RowDelta> = Some(RowDelta::default());
        for delta in deltas {
            let applied = self.apply(writer, txn.dataset(), delta);
            txn.touch_changes(&applied.changes);
            match applied.rows {
                Some(rows) => {
                    if let Some(m) = merged.as_mut() {
                        m.merge(&rows);
                    }
                }
                // Non-star facet: merged deltas cannot repair anything.
                None => merged = None,
            }
        }
        let mut views = self.lock_serving().views.clone();
        let result = writer
            .maintainer
            .maintain(txn.dataset(), merged.as_ref(), &mut views);
        match result {
            Ok(outcome) => {
                writer.telemetry.merge(&outcome.telemetry);
                self.metrics.record_pipeline(&outcome.telemetry);
                writer.log.absorb(outcome.report);
                let catalog = self.durable_catalog(&views);
                let prepared = txn.prepare();
                let mut state = self.lock_serving();
                if let Some(rows) = merged.as_ref().filter(|rows| !rows.is_empty()) {
                    state.windows.observe_churn(rows);
                }
                state.views = views;
                state.meter.drain(take);
                let buffered = state.meter.buffered();
                let epoch = prepared.publish_with_catalog(catalog.as_deref());
                drop(state);
                let now = self.clock.now_ms();
                self.metrics.record_flush(
                    take,
                    now,
                    format!("drained {take} batches -> epoch {epoch}"),
                );
                self.metrics.record_buffered(buffered);
                self.metrics.record_epoch_publish(epoch, now);
                Ok(())
            }
            Err(e) => {
                // Base deltas are applied, views were left unpatched
                // (all-or-nothing planning): publish the base batch and
                // demand a full refresh of every view.
                let prepared = txn.prepare();
                let mut guard = self.lock_serving();
                let state = &mut *guard;
                let epoch = prepared.publish();
                state.meter.drain(take);
                state.pending.demand_refresh_all(&state.views, epoch);
                let buffered = state.meter.buffered();
                drop(guard);
                let now = self.clock.now_ms();
                self.metrics.record_flush(
                    take,
                    now,
                    format!("drained {take} batches -> epoch {epoch}"),
                );
                self.metrics.record_buffered(buffered);
                self.metrics.record_maintenance_error(
                    now,
                    format!("batched flush maintenance failed at epoch {epoch}: {e}"),
                );
                Err(e)
            }
        }
    }

    /// Answer one query from a pinned snapshot. Under the lazy policy a
    /// stale routed-to view is repaired (and the next epoch published)
    /// first. Under the bounded policy the answer is served from the
    /// standing epoch and *tagged* with its lag — unless the lag exceeds
    /// the epoch or wall-clock budget, in which case buffered batches are
    /// flushed (one per check, so the work one read absorbs is bounded)
    /// before serving. The repair/flush cost is reported on the answer.
    pub fn query(&self, query: &Query) -> Result<SessionAnswer, SparqlError> {
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
        self.note_store();
        result
    }

    fn query_inner(&self, query: &Query) -> Result<SessionAnswer, SparqlError> {
        let Ok(analysis) = analyze_query(&self.facet, query) else {
            let (snapshot, freshness, flush_us) = self.pin_within_bound()?;
            self.lock_serving().fallbacks += 1;
            let results = Evaluator::new(snapshot.dataset()).evaluate(query)?;
            return Ok(SessionAnswer {
                route: Route::BaseGraph,
                results,
                maintenance_us: flush_us,
                freshness,
            });
        };

        // Route against the catalog and pin an epoch under one short
        // lock, so the staleness decision, the freshness tag, and the
        // snapshot agree.
        let mut demand_recorded = false;
        let mut flush_us = 0u64;
        let (planned, snapshot, freshness) = loop {
            {
                let mut state = self.lock_serving();
                if !demand_recorded {
                    state.windows.observe_demand(analysis.required);
                    demand_recorded = true;
                }
                let lag = state.meter.buffered() as u64;
                let time_lag = state.meter.time_lag_ms(self.clock.now_ms());
                if self.policy.within_budget(lag, time_lag) {
                    let snapshot = self.store.pin();
                    let freshness = Self::freshness_of(&snapshot, lag);
                    let planned = best_view(&state.views, analysis.required).map(|view| {
                        // Needs-refresh gates every policy (a failed
                        // maintenance pass demands repair too); the
                        // epoch-replay staleness check is lazy-only.
                        let stale = state.pending.needs_refresh(view)
                            || (self.policy == StalenessPolicy::LazyOnHit
                                && state.pending.stale_at(view, snapshot.epoch()));
                        (view, stale)
                    });
                    match planned {
                        Some(_) => state.view_hits += 1,
                        None => state.fallbacks += 1,
                    }
                    break (planned, snapshot, freshness);
                }
            }
            // Past the staleness budget: flush ONE buffered batch, then
            // re-check (a racing update may have buffered more batches in
            // between — and another reader may already have flushed for
            // us). Capping the per-iteration work keeps a single read's
            // tail latency bounded by one batch of maintenance.
            let (us, result) = measure_once(|| self.flush_upto(1));
            result?;
            flush_us += us;
        };

        match planned {
            None => {
                let results = Evaluator::new(snapshot.dataset()).evaluate(query)?;
                Ok(SessionAnswer {
                    route: Route::BaseGraph,
                    results,
                    maintenance_us: flush_us,
                    freshness,
                })
            }
            Some((view, stale)) => {
                let rewritten = rewrite_query(&self.facet, &analysis, view);
                let (snapshot, maintenance_us, freshness) = if stale {
                    match self.repair_view(view)? {
                        Some((snapshot, us)) => {
                            let freshness = Self::freshness_of(&snapshot, freshness.lag);
                            (snapshot, flush_us + us, freshness)
                        }
                        None => {
                            // The view was swapped out while we waited for
                            // the writer: it is no longer answerable.
                            // Re-route to the base graph on a fresh pin.
                            let snapshot = {
                                let mut state = self.lock_serving();
                                state.view_hits -= 1;
                                state.fallbacks += 1;
                                self.store.pin()
                            };
                            let freshness = Self::freshness_of(&snapshot, freshness.lag);
                            let results = Evaluator::new(snapshot.dataset()).evaluate(query)?;
                            return Ok(SessionAnswer {
                                route: Route::BaseGraph,
                                results,
                                maintenance_us: flush_us,
                                freshness,
                            });
                        }
                    }
                } else {
                    (snapshot, flush_us, freshness)
                };
                let results = Evaluator::new(snapshot.dataset()).evaluate(&rewritten)?;
                Ok(SessionAnswer {
                    route: Route::View(view),
                    results,
                    maintenance_us,
                    freshness,
                })
            }
        }
    }

    /// The freshness tag of one pinned snapshot: the buffered-batch lag
    /// plus the snapshot's epoch.
    fn freshness_of(snapshot: &PinnedSnapshot, lag: u64) -> Freshness {
        Freshness {
            lag,
            epoch: snapshot.epoch(),
        }
    }

    /// Pin a snapshot whose lag respects the staleness budgets (flushing
    /// one batch per check as needed), returning it with its freshness
    /// tag and the flush time this read absorbed.
    fn pin_within_bound(&self) -> Result<(PinnedSnapshot, Freshness, u64), SparqlError> {
        let mut flush_us = 0u64;
        loop {
            {
                let state = self.lock_serving();
                let lag = state.meter.buffered() as u64;
                let time_lag = state.meter.time_lag_ms(self.clock.now_ms());
                if self.policy.within_budget(lag, time_lag) {
                    let snapshot = self.store.pin();
                    let freshness = Self::freshness_of(&snapshot, lag);
                    return Ok((snapshot, freshness, flush_us));
                }
            }
            let (us, result) = measure_once(|| self.flush_upto(1));
            result?;
            flush_us += us;
        }
    }

    /// Bring one lazily-stale view up to date: replay the epochs it
    /// missed against the writer's master and publish the repair.
    ///
    /// Returns the snapshot the caller must evaluate against — pinned
    /// under the serving lock at an epoch where the view is provably
    /// fresh. Re-pinning *outside* that lock would race a concurrent
    /// lazy update publishing a newer epoch whose pending rows the view
    /// lacks. `None` means the view left the catalog while we waited for
    /// the writer lock and the caller must re-route.
    fn repair_view(&self, view: ViewMask) -> Result<Option<(PinnedSnapshot, u64)>, SparqlError> {
        let mut txn = self.store.begin();
        let mut writer = self.lock_writer();
        // Re-check under the transaction: another hit may have repaired
        // the view (or a swap retired it) while we waited for the lock.
        let (refresh, backlog, mut entry) = {
            let state = self.lock_serving();
            let Some(entry) = state.views.iter().find(|(mask, _)| *mask == view) else {
                return Ok(None); // swapped out while we waited
            };
            let refresh = state.pending.needs_refresh(view);
            if !refresh && !state.pending.stale_at(view, u64::MAX) {
                // Repaired by a racing hit: serve from the epoch that
                // freshness was just decided against.
                return Ok(Some((self.store.pin(), 0)));
            }
            let backlog = state.pending.backlog(view).unwrap_or_default();
            (refresh, backlog, *entry)
        };
        let rows = if refresh { None } else { Some(&backlog) };
        let result = writer
            .maintainer
            .maintain_view(txn.dataset(), rows, &mut entry);
        // The backlog is consumed either way (see PendingLog::consume's
        // poisoned-backlog rationale). The serving lock is held across
        // publish so no reader can route to the view before its cursor
        // reflects the repair epoch.
        let prepared = txn.prepare();
        let mut guard = self.lock_serving();
        let state = &mut *guard;
        let epoch = prepared.publish();
        if result.is_ok() {
            if let Some(slot) = state.views.iter_mut().find(|(mask, _)| *mask == view) {
                *slot = entry;
            }
        }
        state
            .pending
            .consume(view, epoch, result.is_ok(), &state.views);
        self.metrics.record_pending(state.pending.len(), 0);
        let snapshot = self.store.pin();
        drop(guard);
        if let Err(e) = &result {
            self.metrics.record_maintenance_error(
                self.clock.now_ms(),
                format!("view {:#x} repair failed: {e}", view.0),
            );
        }
        let cost = result?;
        let us = cost.wall_us;
        writer.log.per_view.push(cost);
        writer.log.total_us += us;
        Ok(Some((snapshot, us)))
    }

    /// Replace the materialized set with `target`, transactionally.
    ///
    /// Incoming views are materialized *first* on the writer's master; if
    /// any materialization fails, the half-written view graphs are
    /// dropped, **no epoch is published**, and the catalog is untouched —
    /// concurrent readers keep answering from the old selection and never
    /// observe the aborted swap. Only once every new view exists are the
    /// retired ones dropped, the catalog installed, and the whole swap
    /// published as one epoch.
    pub fn swap_views(&self, target: &[ViewMask]) -> Result<ViewChurn, SparqlError> {
        let result = self.swap_views_with(target, materialize_view);
        self.note_store();
        result
    }

    /// [`Engine::swap_views`] with an injectable materializer —
    /// the test seam for forcing a mid-swap failure (the real evaluator
    /// is total over generated view queries, so materialization failures
    /// cannot be provoked from data alone).
    fn swap_views_with(
        &self,
        target: &[ViewMask],
        mut materialize: impl FnMut(
            &mut Dataset,
            &Facet,
            ViewMask,
        ) -> Result<MaterializedView, SparqlError>,
    ) -> Result<ViewChurn, SparqlError> {
        let mut txn = self.store.begin();
        let current: Vec<ViewMask> = {
            let state = self.lock_serving();
            state.views.iter().map(|(m, _)| *m).collect()
        };
        let plan = plan_swap(&current, target);

        // Phase 1: materialize every incoming view on the master. On
        // failure, undo and abort without publishing.
        let mut materialized: Vec<(ViewMask, usize)> = Vec::with_capacity(plan.added.len());
        let (materialize_us, result) = measure_once(|| {
            for &mask in &plan.added {
                match materialize(txn.dataset(), &self.facet, mask) {
                    Ok(view) => materialized.push((mask, view.stats.rows)),
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        });
        if let Err(e) = result {
            for &(mask, _) in &materialized {
                drop_view(txn.dataset(), &self.facet, mask);
            }
            // Dropping the transaction without publish: readers never saw
            // any of this, and the master is back to the published state.
            return Err(e);
        }

        // Phase 2: retire outgoing views, install the catalog, publish —
        // all under the serving lock, so readers atomically move from
        // (old catalog, old epoch) to (new catalog, new epoch).
        let (drop_us, ()) = measure_once(|| {
            for &mask in &plan.retired {
                drop_view(txn.dataset(), &self.facet, mask);
            }
        });
        {
            let prepared = txn.prepare();
            let mut guard = self.lock_serving();
            let state = &mut *guard;
            state.views = rebuild_catalog(target, &state.views, &materialized);
            for &mask in &plan.retired {
                state.pending.forget(mask);
            }
            let catalog = self.durable_catalog(&state.views);
            let epoch = prepared.publish_with_catalog(catalog.as_deref());
            for &(mask, _) in &materialized {
                // Materialized from the current master: nothing pending.
                state.pending.mark_fresh(mask, epoch);
            }
            state.pending.compact(&state.views);
        }

        Ok(ViewChurn {
            added: plan.added,
            retired: plan.retired,
            kept: plan.kept,
            materialize_us,
            drop_us,
        })
    }

    /// A consistent point-in-time copy of the served dataset (cheap:
    /// datasets clone by `Arc`-sharing index runs).
    pub fn snapshot(&self) -> Dataset {
        self.store.pin().dataset().clone()
    }

    /// The live catalog (mask + row count, in selection order).
    pub fn views(&self) -> Vec<(ViewMask, usize)> {
        self.lock_serving().views.clone()
    }

    /// Accumulated maintenance log.
    pub fn maintenance(&self) -> MaintenanceReport {
        self.lock_writer().log.clone()
    }

    /// `(view hits, base-graph fallbacks)` so far.
    pub fn routing_counts(&self) -> (usize, usize) {
        let state = self.lock_serving();
        (state.view_hits, state.fallbacks)
    }

    /// Update batches accepted so far.
    pub fn update_batches(&self) -> usize {
        self.lock_serving().update_batches
    }

    /// Views currently stale (deferred repairs pending).
    pub fn stale_views(&self) -> usize {
        let epoch = self.store.epoch();
        let state = self.lock_serving();
        state.pending.stale_count(&state.views, epoch)
    }

    /// Bounded policy: update batches buffered and not yet flushed.
    pub fn buffered_updates(&self) -> usize {
        self.lock_serving().meter.buffered()
    }

    /// The newest published epoch.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// The sliding workload profile (recently demanded masks).
    pub fn window_profile(&self) -> WorkloadProfile {
        self.lock_serving().windows.window_profile()
    }

    /// Observed update pressure over the sliding batch window.
    pub fn observed_rates(&self) -> UpdateRates {
        self.lock_serving()
            .windows
            .observed_rates((self.facet.dim_count() + 1) as f64)
    }

    /// The sliding per-group churn distribution.
    pub fn churn_profile(&self) -> FxHashMap<u64, f64> {
        self.lock_serving().windows.churn_profile()
    }

    /// The writer's accumulated pipeline split (serial spine vs.
    /// per-view planning). Always `Some`; the `Option` stays because the
    /// claim benchmark chains `.and_then(..)` on it.
    pub fn pipeline_telemetry(&self) -> Option<PipelineTelemetry> {
        Some(self.lock_writer().telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::offline::{run_offline, SizedLattice};
    use crate::validate::results_equivalent;
    use sofos_cost::CostModelKind;
    use sofos_cube::AggOp;
    use sofos_rdf::Term;
    use sofos_workload::{synthetic, GeneratedQuery};

    fn setup(policy: StalenessPolicy) -> (Engine, Vec<GeneratedQuery>) {
        let g = synthetic::generate(&synthetic::Config {
            observations: 120,
            agg: AggOp::Avg,
            ..synthetic::Config::default()
        });
        let facet = g.facets[0].clone();
        let mut ds = g.dataset;
        let sized = SizedLattice::compute(&ds, &facet).unwrap();
        let profile = WorkloadProfile::uniform(&sized.lattice);
        let offline = run_offline(
            &mut ds,
            &sized,
            &profile,
            CostModelKind::AggValues,
            &EngineConfig::default(),
        )
        .unwrap();
        let workload = sofos_workload::generate_workload(
            &ds,
            &facet,
            &sofos_workload::WorkloadConfig {
                num_queries: 10,
                ..Default::default()
            },
        );
        let engine = Engine::builder()
            .dataset(ds)
            .facet(facet)
            .catalog(offline.view_catalog())
            .staleness(policy)
            .build()
            .unwrap();
        (engine, workload)
    }

    fn session_delta(batch: usize) -> Delta {
        use sofos_workload::synthetic::NS;
        let mut delta = Delta::new();
        for i in 0..3usize {
            let node = Term::blank(format!("u{batch}_{i}"));
            for d in 0..3usize {
                delta.insert(
                    node.clone(),
                    Term::iri(format!("{NS}dim{d}")),
                    Term::iri(format!("{NS}v{d}_{}", (batch + i + d) % 3)),
                );
            }
            delta.insert(
                node,
                Term::iri(format!("{NS}measure")),
                Term::literal_int(100 + (batch * 7 + i) as i64),
            );
        }
        delta
    }

    fn assert_answers_match_base(engine: &Engine, workload: &[GeneratedQuery]) {
        for q in workload {
            let answer = engine.query(&q.query).expect("query runs");
            let snapshot = engine.store.pin();
            let reference = Evaluator::new(snapshot.dataset())
                .evaluate(&q.query)
                .expect("base evaluation runs");
            assert!(
                results_equivalent(&answer.results, &reference),
                "epoch answer diverged from base graph for {}",
                q.text
            );
        }
    }

    #[test]
    fn invalidate_drops_catalog_atomically() {
        let (engine, workload) = setup(StalenessPolicy::Invalidate);
        assert!(!engine.views().is_empty());
        let pinned = engine.store.pin();
        engine.update(session_delta(0)).unwrap();
        assert!(engine.views().is_empty());
        assert!(
            !pinned.dataset().graph_names().is_empty(),
            "the pre-update pin still holds every view graph"
        );
        assert!(
            engine.store.pin().dataset().graph_names().is_empty(),
            "new pins see no view graphs"
        );
        assert_answers_match_base(&engine, &workload);
        let (hits, fallbacks) = engine.routing_counts();
        assert_eq!(hits, 0);
        assert_eq!(fallbacks, workload.len());
    }

    #[test]
    fn lazy_repairs_publish_epochs_beyond_the_updates() {
        let (engine, workload) = setup(StalenessPolicy::LazyOnHit);
        engine.update(session_delta(0)).unwrap();
        engine.update(session_delta(1)).unwrap();
        assert_eq!(engine.epoch(), 2, "one epoch per lazy update");
        assert_answers_match_base(&engine, &workload);
        // Repairs published new epochs beyond the two update batches.
        assert!(engine.epoch() > 2);
    }

    #[test]
    fn swap_views_rolls_back_on_mid_swap_failure() {
        let (engine, workload) = setup(StalenessPolicy::Eager);
        let before = engine.views();
        let before_masks: Vec<ViewMask> = before.iter().map(|(m, _)| *m).collect();
        assert!(!before_masks.contains(&ViewMask::APEX));
        let epoch_before = engine.epoch();
        let graphs_before = engine.store.pin().dataset().graph_names().len();

        // Target keeps the existing catalog and adds two views; the
        // injected materializer succeeds on the first addition and fails
        // on the second — a genuine mid-swap abort.
        let dims = engine.facet().dim_count();
        let mut target = before_masks.clone();
        let added_ok = (1..(1u64 << dims))
            .map(ViewMask)
            .find(|m| !before_masks.contains(m))
            .expect("the default budget leaves lattice views unmaterialized");
        target.push(added_ok);
        target.push(ViewMask::APEX);

        let mut calls = 0usize;
        let err = engine
            .swap_views_with(&target, |dataset, facet, mask| {
                calls += 1;
                if calls == 2 {
                    return Err(SparqlError::Eval("injected mid-swap failure".into()));
                }
                materialize_view(dataset, facet, mask)
            })
            .expect_err("second materialization fails");
        assert!(matches!(err, SparqlError::Eval(_)));
        assert_eq!(calls, 2, "first view materialized, second aborted");

        // Rollback: catalog untouched, no epoch published, the
        // successfully-materialized view graph is gone again.
        assert_eq!(engine.views(), before);
        assert_eq!(engine.epoch(), epoch_before);
        assert_eq!(
            engine.store.pin().dataset().graph_names().len(),
            graphs_before
        );
        assert_answers_match_base(&engine, &workload);

        // The same swap with the real materializer succeeds and publishes.
        let churn = engine.swap_views(&target).expect("real swap succeeds");
        assert_eq!(churn.added.len(), 2);
        assert_eq!(engine.epoch(), epoch_before + 1);
        assert_answers_match_base(&engine, &workload);
    }

    #[test]
    fn swap_views_churn_matches_serial_semantics() {
        let (engine, workload) = setup(StalenessPolicy::LazyOnHit);
        engine.update(session_delta(0)).unwrap();
        let before: Vec<ViewMask> = engine.views().iter().map(|(m, _)| *m).collect();
        let kept = before[0];
        let churn = engine.swap_views(&[kept, ViewMask::APEX]).unwrap();
        assert_eq!(churn.kept, vec![kept]);
        assert_eq!(churn.added, vec![ViewMask::APEX]);
        assert_eq!(churn.retired.len(), before.len() - 1);
        engine.update(session_delta(1)).unwrap();
        assert_answers_match_base(&engine, &workload);
    }
}
