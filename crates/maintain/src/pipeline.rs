//! The maintenance pass: read-only patch *planning* for every view, then
//! patch *application*. [`Maintainer::maintain`] is the only pass: eager
//! writes and bounded flushes hand it the whole catalog, a lazy repair
//! hands it one view.
//!
//! * **Phase 1 — plan (read-only).** The pass first decides, once,
//!   whether the row delta admits counting (a star facet, every measure
//!   numeric). Views counting cannot patch are evaluated with **one**
//!   `evaluate_views` call and planned as a full refresh; every other
//!   view's patch is computed against the already-updated base graph:
//!   the row delta is grouped by the view's mask, observation nodes are
//!   located, patch vs. re-evaluation is decided, and the exact triple
//!   writes are emitted as a `ViewPatch` — without touching any view
//!   graph.
//! * **Phase 2 — apply (cheap).** Patches are applied in catalog order:
//!   pure mechanical triple writes — no query evaluation, no group
//!   lookups. Callers batching several deltas apply them all inside one
//!   [`sofos_store::WriteTxn`], merge their row deltas, and publish the
//!   whole pass as **one** epoch.
//!
//! Invariants (property-tested in `tests/maintenance.rs`):
//!
//! 1. **Batching is exact.** One [`Maintainer::maintain`] over a batch's
//!    merged row delta leaves the view graphs identical (up to blank
//!    labels) to one pass per delta.
//! 2. **Plan independence.** Group keys are disjoint per view and views
//!    own disjoint graphs, so no plan reads state another plan writes.
//!    Re-evaluations read only the *base* graph (plus the group's own
//!    observation), which phase 1 never mutates.
//! 3. **All-or-nothing planning.** A planning error surfaces before any
//!    write is applied: a failed pass leaves every view graph exactly as
//!    it was.
//!
//! The [`PipelineTelemetry`] on every outcome records how the pass split
//! into serial and planning work.

use crate::engine::{RowDelta, ViewIds};
use crate::{Maintainer, MaintenanceCost, MaintenanceReport, MaintenanceStrategy};
use sofos_cube::ViewMask;
use sofos_materialize::evaluate_views;
use sofos_rdf::{Term, TermId};
use sofos_sparql::{QueryResults, SparqlError};
use sofos_store::Dataset;
use std::time::Instant;

/// A view-graph subject referenced by a planned write: an existing
/// observation node, or a blank node the patch mints at apply time
/// (index into [`ViewPatch::fresh`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum NodeRef {
    Existing(TermId),
    Fresh(usize),
}

/// A planned object value: an already-interned term, or a term (typically
/// a freshly-computed aggregate literal) interned at apply time.
#[derive(Debug, Clone)]
pub(crate) enum ObjectRef {
    Existing(TermId),
    New(Term),
}

/// One planned view-graph write.
#[derive(Debug, Clone)]
pub(crate) enum PatchOp {
    /// Remove an existing encoded triple.
    Remove([TermId; 3]),
    /// Insert a triple (subject/object may need interning at apply time).
    Insert {
        node: NodeRef,
        pred: TermId,
        object: ObjectRef,
    },
    /// Replace the whole view graph with the re-evaluated view query's
    /// rows, written by [`sofos_materialize::load_view`] — the
    /// full-refresh regime, planned read-only like everything else.
    Replace { results: QueryResults },
}

/// One view's fully-planned maintenance: the exact writes phase 2 will
/// apply, plus the cost accounting phase 1 already knows.
pub(crate) struct ViewPatch {
    pub(crate) view: ViewMask,
    pub(crate) graph: TermId,
    /// Blank labels minted by planning; interned on apply.
    pub(crate) fresh: Vec<String>,
    pub(crate) ops: Vec<PatchOp>,
    /// Planned cost; `wall_us` holds the planning wall until apply adds
    /// its own share.
    pub(crate) cost: MaintenanceCost,
    /// The view's catalog row count after the patch.
    pub(crate) rows: usize,
    /// The maintainer's fresh-label counter after this plan.
    pub(crate) fresh_end: u64,
}

impl ViewPatch {
    pub(crate) fn noop(view: ViewMask, graph: TermId, fresh_end: u64, rows: usize) -> ViewPatch {
        ViewPatch {
            view,
            graph,
            fresh: Vec::new(),
            ops: Vec::new(),
            cost: MaintenanceCost::noop(view),
            rows,
            fresh_end,
        }
    }
}

/// Scratch state one view plan accumulates into.
pub(crate) struct PatchBuilder {
    pub(crate) ops: Vec<PatchOp>,
    pub(crate) fresh: Vec<String>,
    pub(crate) cost: MaintenanceCost,
    pub(crate) next_fresh: u64,
}

impl PatchBuilder {
    pub(crate) fn new(view: ViewMask, fresh_start: u64) -> PatchBuilder {
        PatchBuilder {
            ops: Vec::new(),
            fresh: Vec::new(),
            cost: MaintenanceCost {
                view,
                strategy: MaintenanceStrategy::Counting,
                triples_touched: 0,
                groups_patched: 0,
                groups_reevaluated: 0,
                rows_inserted: 0,
                rows_retracted: 0,
                wall_us: 0,
            },
            next_fresh: fresh_start,
        }
    }

    pub(crate) fn into_patch(self, graph: TermId, rows: usize) -> ViewPatch {
        ViewPatch {
            view: self.cost.view,
            graph,
            fresh: self.fresh,
            ops: self.ops,
            cost: self.cost,
            rows,
            fresh_end: self.next_fresh,
        }
    }
}

/// How a maintenance pass split between the serial spine and the
/// per-view planning work, in microseconds of work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineTelemetry {
    /// Work on the write path proper: interning prologues, the store
    /// mutation with its pre/post binding scans ([`Maintainer::apply`]),
    /// and patch application.
    pub serial_us: u64,
    /// Summed per-view planning work: read-only and independent per
    /// view, the only part of a pass that could run in parallel.
    pub parallel_work_us: u64,
}

impl PipelineTelemetry {
    /// Fold another pass's split into this one (accumulating a session
    /// total).
    pub fn merge(&mut self, other: &PipelineTelemetry) {
        self.serial_us += other.serial_us;
        self.parallel_work_us += other.parallel_work_us;
    }

    /// The measured serial fraction of maintenance work (the Amdahl
    /// floor). `None` until any work has been recorded.
    pub fn serial_fraction(&self) -> Option<f64> {
        let total = self.serial_us + self.parallel_work_us;
        if total == 0 {
            return None;
        }
        Some(self.serial_us as f64 / total as f64)
    }
}

/// Result of one [`Maintainer::maintain`] pass.
#[derive(Default)]
pub struct PipelineOutcome {
    /// Per-view costs, in catalog order.
    pub report: MaintenanceReport,
    /// How the pass split between serial and planning work.
    pub telemetry: PipelineTelemetry,
}

impl Maintainer {
    /// Maintain `views` against a row delta, updating each catalog
    /// entry's row count in place. `rows = None` forces a full refresh
    /// (non-star facets, or a caller that lost the delta).
    ///
    /// Whether the delta admits counting is decided once per pass. When
    /// it does not, every view is refreshed; when it does, only the views
    /// whose graph is missing are, and none if the delta is empty. The
    /// refreshed views are evaluated with one `evaluate_views` call, so a
    /// refresh writes what `materialize_views` would write. Counting
    /// plans every other view.
    ///
    /// Plans every view's patch read-only, then applies the patches in
    /// catalog order. A planning error surfaces before any write: on
    /// `Err` every view graph and catalog entry is untouched.
    pub fn maintain(
        &mut self,
        dataset: &mut Dataset,
        rows: Option<&RowDelta>,
        views: &mut [(ViewMask, usize)],
    ) -> Result<PipelineOutcome, SparqlError> {
        let pass_start = Instant::now();

        // Interning and posting-list registration need the writer's
        // dictionary, so they run before the read-only planning.
        let ids: Vec<ViewIds> = views
            .iter()
            .map(|&(mask, _)| ViewIds::prepare(dataset, self.facet(), mask))
            .collect();
        let mut serial_us = pass_start.elapsed().as_micros() as u64;

        // Phase 1: plan every patch against the unchanged dataset.
        // Whether counting applies is decided once for the pass. A view
        // it cannot patch — every view when it does not apply, else one
        // whose graph is missing — is refreshed; an empty delta writes
        // nothing. The refreshed views are evaluated at once, as
        // `materialize_views` does, and each one's wall carries an equal
        // share of that evaluation.
        let counted = rows.and_then(|rows| self.countable_rows(dataset, rows));
        let refresh = |ids: &ViewIds| match &counted {
            None => true,
            Some(rows) => !rows.is_empty() && dataset.graph(Some(ids.graph)).is_none(),
        };
        let start = Instant::now();
        let masks: Vec<ViewMask> = ids
            .iter()
            .filter(|ids| refresh(ids))
            .map(|ids| ids.mask)
            .collect();
        let mut refreshed = evaluate_views(dataset, self.facet(), &masks)?.into_iter();
        let shared_us = start.elapsed().as_micros() as u64;
        let n = masks.len() as u64;
        let fresh_start = self.fresh_counter();
        let mut parallel_work_us = 0;
        let mut patches = Vec::with_capacity(views.len());
        for (&(mask, catalog_rows), ids) in views.iter().zip(&ids) {
            let start = Instant::now();
            let mut share = 0;
            let mut patch = if refresh(ids) {
                let k = n - refreshed.len() as u64;
                share = shared_us / n + u64::from(k < shared_us % n);
                let results = refreshed.next().expect("one evaluation per refreshed view");
                self.plan_full_refresh(dataset, ids, catalog_rows, fresh_start, results)
            } else {
                match counted.as_deref() {
                    Some(rows) if !rows.is_empty() => {
                        self.plan_counting(dataset, rows, ids, catalog_rows, fresh_start)?
                    }
                    _ => ViewPatch::noop(mask, ids.graph, fresh_start, catalog_rows),
                }
            };
            patch.cost.wall_us = start.elapsed().as_micros() as u64 + share;
            parallel_work_us += patch.cost.wall_us;
            patches.push(patch);
        }

        // Phase 2: apply, in catalog order.
        let apply_start = Instant::now();
        let mut report = MaintenanceReport::default();
        for (patch, entry) in patches.into_iter().zip(views.iter_mut()) {
            report
                .per_view
                .push(self.commit_patch(dataset, patch, entry));
        }
        serial_us += apply_start.elapsed().as_micros() as u64;
        report.total_us = pass_start.elapsed().as_micros() as u64;

        Ok(PipelineOutcome {
            report,
            telemetry: PipelineTelemetry {
                serial_us,
                parallel_work_us,
            },
        })
    }
}
