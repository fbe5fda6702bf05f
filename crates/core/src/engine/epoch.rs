//! The engine's write and read paths over the epoch store.
//!
//! * **queries** pin an immutable epoch [`sofos_store::Snapshot`] and
//!   evaluate against it — they never wait for a writer, only for the
//!   pointer swap of a publish and a short catalog-routing lock;
//! * **updates** run inside a write transaction: the delta is applied
//!   with its binding scans ([`sofos_maintain::Maintainer::apply`]), every
//!   view's patch is planned and then applied on the writer's master
//!   ([`sofos_maintain::Maintainer::maintain`]), and the whole batch
//!   becomes visible atomically at publish. Every publishing write runs
//!   one function for this (`flush_batch`: apply, one maintenance pass
//!   over the merged row delta, one epoch); a lazy repair runs the same
//!   pass over the one view it repairs. A pass lands in the maintenance
//!   log and the pipeline telemetry once `Engine::commit` has logged its
//!   epoch, never before;
//! * the **staleness policies** are the [`crate::policy`] state machines
//!   expressed over epochs, and an update takes one of two arms. *Lazy*
//!   publishes the base change immediately and buffers the row delta
//!   stamped with its epoch; a view is repaired on its next hit by
//!   replaying exactly the epochs it missed. Every other policy is
//!   *buffered* with a flush cadence (1 under eager): an update below the
//!   cadence only joins the writer-side buffer, and the one that reaches
//!   it publishes the buffer and its own delta as one epoch. That delta is
//!   never counted as buffered, so readers never wait on it. The serve
//!   path enforces both the epoch-lag and wall-clock budgets, flushing
//!   **one buffered batch at a time** when a read finds itself over
//!   budget, so the maintenance work a single read can absorb is bounded
//!   (the check–flush–recheck loop under the serving lock still
//!   guarantees the bound holds against racing updates).
//!
//! Lock discipline (in acquisition order): write transaction → writer
//! side (maintenance engine) → serving state (catalog routing). The
//! serving lock is held only for catalog reads/installs and the O(1)
//! publish swap — never across maintenance, materialization, snapshot
//! cloning, log I/O, a snapshot free, or query evaluation. Every publish
//! goes through `Engine::commit`: log before the serving lock, swap
//! under it, reclaim after it.
//!
//! A failed log append turns the engine read-only: the failing write and
//! every later one return [`SparqlError::Storage`], while queries keep
//! answering the last published epoch (a stale view they cannot repair
//! falls back to the base graph; buffered bounded-policy batches, which
//! can no longer publish, are dropped as a crash would drop them).

use super::{catalog_pairs, Engine, Route, SessionAnswer, ViewChurn};
use crate::metrics::UpdateStage;
use crate::policy::{FlushMeter, Freshness, PendingLog, ProfileWindows};
use crate::timing::measure_once;
use sofos_cost::UpdateRates;
use sofos_cube::{Facet, ViewMask};
use sofos_maintain::{
    ApplyOutcome, Maintainer, MaintenanceReport, PipelineOutcome, PipelineTelemetry, RowDelta,
};
use sofos_materialize::{drop_view, materialize_views, MaterializedView};
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
    /// Sliding demand and update-rate windows for the adaptive layer.
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
    /// [`Maintainer::apply`] one delta to the writer's master, adding
    /// its wall time to `pass` as serial pipeline work (folded by
    /// [`Engine::absorb`] once the epoch is logged).
    fn apply(
        &self,
        writer: &mut WriterSide,
        dataset: &mut Dataset,
        delta: Delta,
        pass: &mut PipelineOutcome,
    ) -> ApplyOutcome {
        let (serial_us, outcome) = measure_once(|| writer.maintainer.apply(dataset, delta));
        self.metrics.record_stage(UpdateStage::Apply, serial_us);
        pass.telemetry.serial_us += serial_us;
        outcome
    }

    /// Refresh the epoch-lifecycle gauges (and, on a durable store, the
    /// persistence gauges) from the store's accounting. Computes nothing
    /// when metrics are off.
    fn note_store(&self) {
        if !self.metrics.enabled() {
            return;
        }
        // Retired first: `published` only grows, so the difference never
        // underflows.
        let retired = self.store.retired_snapshots();
        let published = self.store.published_snapshots();
        self.metrics.record_epoch_lifecycle(
            published,
            retired,
            published - retired,
            self.store.awaiting_reclaim(),
        );
        if let Some(persister) = self.store.persister() {
            self.metrics.record_persist(&persister.stats());
        }
        let snapshot = self.store.pin();
        self.metrics
            .record_index(&snapshot.dataset().posting_stats());
        self.metrics
            .record_unmerged(snapshot.dataset().unmerged_entries());
    }

    /// Publish `txn` as the next epoch in the store's three steps, and
    /// return what `install` returns.
    ///
    /// 1. *Log*, before the serving lock: prepare the snapshot and append
    ///    plus fsync its log record with `catalog` (computed by the
    ///    caller, also before the lock — every catalog mutator holds the
    ///    write transaction, so it cannot change in between).
    /// 2. *Swap*, under the serving lock: the pointer swap, then
    ///    `install` does the catalog / meter / pending bookkeeping with
    ///    the new epoch, so readers move from (old catalog, old epoch) to
    ///    (new catalog, new epoch) atomically.
    /// 3. *Reclaim*, after the serving lock, still under the write
    ///    transaction: the cadence snapshot if one is due, then the free
    ///    of every superseded snapshot no reader holds.
    ///
    /// A log failure returns [`SparqlError::Storage`] with nothing
    /// published, `install` not run and the master reset to the published
    /// snapshot; the engine is read-only from then on.
    fn commit<R>(
        &self,
        txn: WriteTxn<'_>,
        catalog: Option<Vec<(u64, u64)>>,
        install: impl FnOnce(&mut ServingState, u64) -> R,
    ) -> Result<R, SparqlError> {
        let prepared = self
            .metrics
            .time_stage(UpdateStage::Prepare, || txn.prepare());
        let logged = self
            .metrics
            .time_stage(UpdateStage::Log, || prepared.log(catalog.as_deref()))
            .map_err(|e| SparqlError::Storage(e.to_string()))?;
        let (published, installed) = {
            let mut state = self.lock_serving();
            self.metrics.time_stage(UpdateStage::Swap, || {
                let published = logged.publish();
                let installed = install(&mut state, published.epoch());
                (published, installed)
            })
        };
        self.metrics
            .time_stage(UpdateStage::Reclaim, || published.reclaim());
        Ok(installed)
    }

    /// `Err` once a failed log append has made the store read-only.
    fn refuse_writes(&self) -> Result<(), SparqlError> {
        match self.store.persister().and_then(|p| p.failure()) {
            Some(cause) => Err(SparqlError::Storage(format!(
                "store is read-only after a failed epoch-log append: {cause}"
            ))),
            None => Ok(()),
        }
    }

    /// Drop `batches` buffered bounded-policy batches from the flush
    /// meter: they were taken off the writer's buffer and can never
    /// publish (the store is read-only).
    fn discard_buffered(&self, batches: usize) {
        let buffered = {
            let mut state = self.lock_serving();
            state.meter.drain(batches);
            state.meter.buffered()
        };
        self.metrics.record_buffered(buffered);
    }

    /// A flush or repair that a *read* triggers fails on storage only
    /// once the store is read-only; the read then serves the last
    /// published epoch instead of failing.
    fn tolerate_read_only(result: Result<(), SparqlError>) -> Result<(), SparqlError> {
        match result {
            Err(SparqlError::Storage(_)) => Ok(()),
            other => other,
        }
    }

    /// The catalog as `(mask bits, rows)` pairs for the epoch log.
    /// `None` on an in-memory store, so `Durability::None` publishes pay
    /// nothing — and log records only carry an explicit catalog when the
    /// view set actually changed (other records carry it forward).
    fn durable_catalog(&self, views: &[(ViewMask, usize)]) -> Option<Vec<(u64, u64)>> {
        self.store.persister().map(|_| catalog_pairs(views))
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
    ///
    /// A batch writes the default graph only: G+'s named graphs hold the
    /// engine's views, which only maintenance writes (and recovery
    /// rebuilds from the base graph). A batch with a named-graph op is
    /// refused with [`SparqlError::Plan`] before any lock is taken, so
    /// nothing of it is applied or logged.
    pub fn update(&self, delta: Delta) -> Result<(), SparqlError> {
        if delta.ops().any(|op| op.graph.is_some()) {
            return Err(SparqlError::Plan(
                "updates write the default graph only: named graphs hold the views".to_string(),
            ));
        }
        let result = self.update_inner(delta);
        self.note_store();
        result
    }

    fn update_inner(&self, delta: Delta) -> Result<(), SparqlError> {
        let (inserted, deleted) = ProfileWindows::batch_counts(&delta);
        let mut txn = self.store.begin();
        self.refuse_writes()?;
        let mut writer = self.lock_writer();
        {
            let mut state = self.lock_serving();
            state.update_batches += 1;
            state.windows.observe_batch(inserted, deleted);
        }
        // Invariant for both arms: the catalog change and the swap happen
        // under one serving-lock hold (`Engine::commit`), so a reader can
        // never pair the new catalog with the old epoch (or vice versa).
        match self.policy.flush_cadence() {
            Some(cadence) => {
                let take = writer.buffered.len();
                if take + 1 >= cadence {
                    // The cadence is reached: the buffered batches and
                    // this delta publish as one epoch. The delta is never
                    // enqueued, so a racing reader's lag counts only
                    // batches that earlier calls left buffered, and no
                    // reader waits on this write.
                    return self.flush_batch(txn, &mut writer, take, Some(delta));
                }
                // Below the cadence: the delta joins the writer-side
                // buffer, and dropping `txn` publishes nothing.
                writer.buffered.push(delta);
                let buffered = {
                    let mut state = self.lock_serving();
                    state.meter.enqueue(self.clock.now_ms());
                    state.meter.buffered()
                };
                debug_assert_eq!(buffered, writer.buffered.len(), "meter mirrors the buffer");
                self.metrics.record_buffered(buffered);
                Ok(())
            }
            None => {
                let mut pass = PipelineOutcome::default();
                let applied = self.apply(&mut writer, txn.dataset(), delta, &mut pass);
                txn.touch_changes(&applied.changes);
                self.commit(txn, None, |state, epoch| match applied.rows {
                    Some(rows) if rows.is_empty() => {}
                    Some(rows) => {
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
                })?;
                self.absorb(&mut writer, pass);
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
        if let Err(e) = self.refuse_writes() {
            let dropped = std::mem::take(&mut writer.buffered).len();
            self.discard_buffered(dropped);
            return Err(e);
        }
        let take = writer.buffered.len().min(limit.max(1));
        self.flush_batch(txn, &mut writer, take, None)
    }

    /// Publish the `take` oldest buffered deltas, followed by `incoming`
    /// (the calling update's own delta, which is never buffered), as one
    /// epoch (writer lock held, transaction open): apply them to the
    /// writer's master, maintain every view in one pass over their merged
    /// row delta, publish. Only an epoch that publishes a buffered batch
    /// (`take > 0`) records a flush.
    ///
    /// On a maintenance error the base deltas are applied but no view was
    /// patched (planning is all-or-nothing); abandoning the transaction
    /// would leave the master diverged from the published epoch forever.
    /// The batch is published instead, a full refresh of every (now
    /// stale) view demanded — needs-refresh bars queries from routing to
    /// any of them before repair, under every policy — and the error
    /// returned.
    fn flush_batch(
        &self,
        mut txn: WriteTxn<'_>,
        writer: &mut WriterSide,
        take: usize,
        incoming: Option<Delta>,
    ) -> Result<(), SparqlError> {
        let deltas: Vec<Delta> = writer.buffered.drain(..take).chain(incoming).collect();
        let (batches, remaining) = (deltas.len(), writer.buffered.len());
        // N deltas collapse into one group-patching pass (intra-batch
        // churn cancels for free). A facet's deltas all carry a row delta
        // or none does, so the first one's is taken as it is.
        let mut pass = PipelineOutcome::default();
        let mut rows: Option<RowDelta> = None;
        for delta in deltas {
            let applied = self.apply(writer, txn.dataset(), delta, &mut pass);
            txn.touch_changes(&applied.changes);
            rows = match (rows, applied.rows) {
                (Some(mut merged), Some(next)) => {
                    merged.merge(&next);
                    Some(merged)
                }
                (_, next) => next,
            };
        }
        // The catalog's masks cannot change concurrently — every view
        // mutator holds the write transaction — so working on a clone
        // and installing it back is race-free.
        let mut views = self.lock_serving().views.clone();
        let result = self.metrics.time_stage(UpdateStage::Maintain, || {
            writer
                .maintainer
                .maintain(txn.dataset(), rows.as_ref(), &mut views)
        });
        let maintained = result.map(|outcome| {
            pass.telemetry.merge(&outcome.telemetry);
            pass.report = outcome.report;
        });
        let catalog = self.durable_catalog(&views);
        let committed = self.commit(txn, catalog, |state, epoch| {
            state.views = views;
            if maintained.is_err() {
                state.pending.demand_refresh_all(&state.views, epoch);
            }
            state.meter.drain(take);
            debug_assert_eq!(
                state.meter.buffered(),
                remaining,
                "meter mirrors the buffer"
            );
            epoch
        });
        let epoch = match committed {
            Ok(epoch) => epoch,
            Err(e) => {
                // Nothing published and the store is read-only: the
                // drained batches are lost, as a crash before this flush
                // would lose them.
                self.discard_buffered(take);
                return Err(e);
            }
        };
        self.absorb(writer, pass);
        let now = self.clock.now_ms();
        if take > 0 {
            self.metrics.record_flush(
                batches,
                now,
                format!("drained {batches} batches -> epoch {epoch}"),
            );
            self.metrics.record_buffered(remaining);
        }
        match &maintained {
            Ok(()) if take > 0 => self.metrics.record_epoch_publish(epoch, now),
            Ok(()) => {}
            Err(e) => self
                .metrics
                .record_maintenance_error(now, format!("maintenance failed at epoch {epoch}: {e}")),
        }
        maintained
    }

    /// Fold one published pass into the writer's log and telemetry and
    /// the metric instruments. Runs only after `commit` logged the
    /// epoch: a pass whose append failed was thrown away with it.
    fn absorb(&self, writer: &mut WriterSide, pass: PipelineOutcome) -> u64 {
        let us = pass.report.total_us;
        writer.telemetry.merge(&pass.telemetry);
        self.metrics.record_pipeline(&pass.telemetry);
        writer.log.absorb(pass.report);
        us
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
        let analysis = analyze_query(&self.facet, query).ok();
        let (snapshot, lag, flush_us, planned) = self.pin_within_budget(|state, epoch| {
            let planned = analysis.as_ref().and_then(|analysis| {
                state.windows.observe_demand(analysis.required);
                best_view(&state.views, analysis.required)
            });
            match planned {
                Some(_) => state.view_hits += 1,
                None => state.fallbacks += 1,
            }
            // Only a lazy update buffers pending rows, and a failed
            // maintenance pass demands a refresh under every policy:
            // `stale_at` covers both.
            planned.map(|view| (view, state.pending.stale_at(view, epoch)))
        })?;
        let (Some(analysis), Some((view, stale))) = (&analysis, planned) else {
            return Self::answer(Route::BaseGraph, query, &snapshot, lag, flush_us);
        };
        let rewritten = rewrite_query(&self.facet, analysis, view);
        if !stale {
            return Self::answer(Route::View(view), &rewritten, &snapshot, lag, flush_us);
        }
        match self.repair_view(view) {
            Ok(Some((snapshot, us))) => {
                Self::answer(Route::View(view), &rewritten, &snapshot, lag, flush_us + us)
            }
            Ok(None) | Err(SparqlError::Storage(_)) => {
                // The view was swapped out while we waited for the
                // writer, or the store is read-only and cannot publish
                // its repair: it is not answerable. Re-route to the base
                // graph on a fresh pin.
                let snapshot = {
                    let mut state = self.lock_serving();
                    state.view_hits -= 1;
                    state.fallbacks += 1;
                    self.store.pin()
                };
                Self::answer(Route::BaseGraph, query, &snapshot, lag, flush_us)
            }
            Err(e) => Err(e),
        }
    }

    /// Evaluate `query` on `snapshot`, tagged with the buffered-batch
    /// `lag` and the snapshot's epoch.
    fn answer(
        route: Route,
        query: &Query,
        snapshot: &PinnedSnapshot,
        lag: u64,
        maintenance_us: u64,
    ) -> Result<SessionAnswer, SparqlError> {
        Ok(SessionAnswer {
            route,
            results: Evaluator::new(snapshot.dataset()).evaluate(query)?,
            maintenance_us,
            freshness: Freshness {
                lag,
                epoch: snapshot.epoch(),
            },
        })
    }

    /// Pin a snapshot whose lag respects the staleness budgets and run
    /// `route` on the serving state and the pinned epoch in the same lock
    /// hold, so the routing decision, the lag and the snapshot agree.
    /// Returns the snapshot, its lag, the flush µs this read absorbed and
    /// what `route` returned.
    ///
    /// Past a budget, the read flushes ONE buffered batch and re-checks (a
    /// racing update may have buffered more batches in between, and
    /// another reader may already have flushed for us). Capping the
    /// per-iteration work keeps a single read's tail latency bounded by
    /// one batch of maintenance.
    fn pin_within_budget<R>(
        &self,
        route: impl FnOnce(&mut ServingState, u64) -> R,
    ) -> Result<(PinnedSnapshot, u64, u64, R), SparqlError> {
        let mut flush_us = 0u64;
        loop {
            {
                let mut state = self.lock_serving();
                let lag = state.meter.buffered() as u64;
                let time_lag = state.meter.time_lag_ms(self.clock.now_ms());
                if self.policy.within_budget(lag, time_lag) {
                    let snapshot = self.store.pin();
                    let routed = route(&mut state, snapshot.epoch());
                    return Ok((snapshot, lag, flush_us, routed));
                }
            }
            let (us, result) = measure_once(|| self.flush_upto(1));
            Self::tolerate_read_only(result)?;
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
        self.refuse_writes()?;
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
        let result = self.metrics.time_stage(UpdateStage::Maintain, || {
            writer
                .maintainer
                .maintain(txn.dataset(), rows, std::slice::from_mut(&mut entry))
        });
        // The backlog is consumed either way (see PendingLog::consume's
        // poisoned-backlog rationale). The cursor moves in the same
        // serving-lock hold as the swap, so no reader can route to the
        // view before its cursor reflects the repair epoch.
        let snapshot = self.commit(txn, None, |state, epoch| {
            if result.is_ok() {
                if let Some(slot) = state.views.iter_mut().find(|(mask, _)| *mask == view) {
                    *slot = entry;
                }
            }
            state
                .pending
                .consume(view, epoch, result.is_ok(), &state.views);
            self.metrics.record_pending(state.pending.len(), 0);
            self.store.pin()
        })?;
        let result = result.map(|outcome| self.absorb(&mut writer, outcome));
        if let Err(e) = &result {
            self.metrics.record_maintenance_error(
                self.clock.now_ms(),
                format!("view {:#x} repair failed: {e}", view.0),
            );
        }
        Ok(Some((snapshot, result?)))
    }

    /// Replace the materialized set with `target`, transactionally.
    ///
    /// Incoming views are materialized *first* on the writer's master, in
    /// one [`materialize_views`] call that writes nothing unless every
    /// view evaluates; a graph already holding an incoming view's name
    /// is replaced. If materialization fails, **no epoch is published**
    /// and the catalog is untouched — concurrent readers keep answering
    /// from the old selection and never observe the aborted swap. Only
    /// once every new view exists are the retired ones dropped, the
    /// catalog installed, and the whole swap published as one epoch.
    pub fn swap_views(&self, target: &[ViewMask]) -> Result<ViewChurn, SparqlError> {
        let result = self.swap_views_with(target, materialize_views);
        self.note_store();
        result
    }

    /// [`Engine::swap_views`] with an injectable materializer of the
    /// added views — the test seam for forcing a failed swap (the real
    /// evaluator is total over generated view queries, so materialization
    /// failures cannot be provoked from data alone). Like
    /// [`materialize_views`], a materializer that fails must write
    /// nothing.
    fn swap_views_with(
        &self,
        target: &[ViewMask],
        materialize: impl FnOnce(
            &mut Dataset,
            &Facet,
            &[ViewMask],
        ) -> Result<Vec<MaterializedView>, SparqlError>,
    ) -> Result<ViewChurn, SparqlError> {
        let mut txn = self.store.begin();
        self.refuse_writes()?;
        let current: Vec<ViewMask> = {
            let state = self.lock_serving();
            state.views.iter().map(|(m, _)| *m).collect()
        };
        let plan = plan_swap(&current, target);

        // Phase 1: materialize every incoming view on the master. On
        // failure nothing was written: abort without publishing.
        let (materialize_us, views) =
            measure_once(|| materialize(txn.dataset(), &self.facet, &plan.added));
        let views = views?;
        let materialized: Vec<(ViewMask, usize)> = plan
            .added
            .iter()
            .zip(&views)
            .map(|(&mask, view)| (mask, view.stats.rows))
            .collect();

        // Phase 2: retire outgoing views, then publish with the new
        // catalog installed in the swap's serving-lock hold, so readers
        // atomically move from (old catalog, old epoch) to (new catalog,
        // new epoch). A failed log leaves the master reset to the
        // published state, the catalog untouched.
        let (drop_us, ()) = measure_once(|| {
            for &mask in &plan.retired {
                drop_view(txn.dataset(), &self.facet, mask);
            }
        });
        let views = rebuild_catalog(target, &self.lock_serving().views, &materialized);
        let catalog = self.durable_catalog(&views);
        self.commit(txn, catalog, |state, epoch| {
            state.views = views;
            for &mask in &plan.retired {
                state.pending.forget(mask);
            }
            for &(mask, _) in &materialized {
                // Materialized from the current master: nothing pending.
                state.pending.mark_fresh(mask, epoch);
            }
            state.pending.compact(&state.views);
        })?;

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
    use crate::policy::StalenessPolicy;
    use crate::validate::results_equivalent;
    use sofos_cost::CostModelKind;
    use sofos_cube::AggOp;
    use sofos_maintain::MaintenanceStrategy;
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
    fn empty_swap_drops_catalog_atomically() {
        let (engine, workload) = setup(StalenessPolicy::Eager);
        assert!(!engine.views().is_empty());
        let pinned = engine.store.pin();
        engine.swap_views(&[]).unwrap();
        engine.update(session_delta(0)).unwrap();
        assert!(engine.views().is_empty());
        assert!(
            !pinned.dataset().graph_names().is_empty(),
            "the pre-swap pin still holds every view graph"
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
    fn lazy_repairs_reach_the_pipeline_telemetry() {
        // A FILTER makes the facet a non-star: an update demands a full
        // refresh, which the next hit on the view runs as a repair.
        let g = synthetic::generate(&synthetic::Config {
            observations: 120,
            agg: AggOp::Avg,
            ..synthetic::Config::default()
        });
        let mut facet = g.facets[0].clone();
        facet
            .pattern
            .elements
            .push(sofos_sparql::PatternElement::Filter(
                sofos_sparql::Expr::int(1),
            ));
        let mut ds = g.dataset;
        let views = materialize_views(&mut ds, &facet, &[ViewMask::APEX]).unwrap();
        let engine = Engine::builder()
            .dataset(ds)
            .facet(facet.clone())
            .catalog(vec![(ViewMask::APEX, views[0].stats.rows)])
            .staleness(StalenessPolicy::LazyOnHit)
            .build()
            .unwrap();
        engine.update(session_delta(0)).unwrap();
        assert_eq!(engine.stale_views(), 1);

        let counters = || {
            let snapshot = engine.metrics().snapshot();
            ["serial", "parallel_work"].map(|part| {
                let name = format!("sofos_pipeline_{part}_us_total");
                let value = snapshot.counter_value(&name, &[("backend", "epoch")]);
                value.expect("registered at build")
            })
        };
        let before = (engine.pipeline_telemetry().unwrap(), counters());
        let query = sofos_cube::facet_query(&facet, ViewMask::APEX, facet.agg, Vec::new());
        let answer = engine.query(&query).unwrap();
        assert_eq!(answer.route, Route::View(ViewMask::APEX));
        assert_eq!(engine.stale_views(), 0, "the hit repaired the view");
        let after = (engine.pipeline_telemetry().unwrap(), counters());

        let repair = engine.maintenance();
        assert_eq!(repair.per_view.len(), 1);
        assert_eq!(
            repair.per_view[0].strategy,
            MaintenanceStrategy::FullRefresh
        );
        assert_eq!(answer.maintenance_us, repair.total_us);
        assert!(after.0.parallel_work_us > before.0.parallel_work_us);
        assert!(after.1[1] > before.1[1], "{:?} -> {:?}", before.1, after.1);
        assert_eq!(
            after.1[0] - before.1[0],
            after.0.serial_us - before.0.serial_us,
            "the counters move with the writer's telemetry"
        );
    }

    #[test]
    fn swap_views_publishes_nothing_when_materialization_fails() {
        let (engine, workload) = setup(StalenessPolicy::Eager);
        let before = engine.views();
        let before_masks: Vec<ViewMask> = before.iter().map(|(m, _)| *m).collect();
        assert!(!before_masks.contains(&ViewMask::APEX));
        let epoch_before = engine.epoch();
        let graphs_before = engine.store.pin().dataset().graph_names().len();

        // Target keeps the existing catalog and adds two views; the
        // injected materializer is handed both and fails, writing nothing
        // (the contract `materialize_views` keeps on `Err`).
        let dims = engine.facet().dim_count();
        let mut target = before_masks.clone();
        let added_ok = (1..(1u64 << dims))
            .map(ViewMask)
            .find(|m| !before_masks.contains(m))
            .expect("the default budget leaves lattice views unmaterialized");
        target.push(added_ok);
        target.push(ViewMask::APEX);

        let mut handed = Vec::new();
        let err = engine
            .swap_views_with(&target, |_, _, masks| {
                handed = masks.to_vec();
                Err(SparqlError::Eval("injected materialization failure".into()))
            })
            .expect_err("materialization fails");
        assert!(matches!(err, SparqlError::Eval(_)));
        assert_eq!(handed, vec![added_ok, ViewMask::APEX], "the added views");

        // Abort: catalog untouched, no epoch published, no view graph
        // added.
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
    fn swapping_in_an_uncataloged_view_replaces_its_graph() {
        // `G+` holds the apex view's graph, but the catalog leaves it out:
        // the update does not maintain it, so it goes stale.
        let g = synthetic::generate(&synthetic::Config {
            observations: 120,
            agg: AggOp::Avg,
            ..synthetic::Config::default()
        });
        let facet = g.facets[0].clone();
        let mut ds = g.dataset;
        materialize_views(&mut ds, &facet, &[ViewMask::APEX]).unwrap();
        let engine = Engine::builder()
            .dataset(ds)
            .facet(facet.clone())
            .build()
            .unwrap();
        engine.update(session_delta(0)).unwrap();

        engine.swap_views(&[ViewMask::APEX]).unwrap();
        let query = sofos_cube::facet_query(&facet, ViewMask::APEX, facet.agg, Vec::new());
        let answer = engine.query(&query).unwrap();
        assert_eq!(answer.route, Route::View(ViewMask::APEX));
        let reference = Evaluator::new(engine.store.pin().dataset())
            .evaluate(&query)
            .unwrap();
        assert!(
            results_equivalent(&answer.results, &reference),
            "view answered {:?}, base graph {:?}",
            answer.results.rows,
            reference.rows
        );
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
