//! The two-phase maintenance pipeline: parallel read-only patch
//! *planning*, serial batched patch *application*.
//!
//! The serial engine interleaves the expensive and the cheap halves of a
//! maintenance pass: locating observation nodes, grouping delta rows, and
//! re-evaluating non-invertible groups (all read-only, all view-local) run
//! on the same thread as the handful of triple writes they decide on. The
//! pipeline splits them:
//!
//! * **Phase 1 — plan (parallel, read-only).** Every catalog view's patch
//!   is computed against the already-updated base graph: the row delta is
//!   grouped by the view's mask, observation nodes are located, patch vs.
//!   re-evaluation is decided, and the exact triple writes are emitted as
//!   a [`ViewPatch`] — without touching any view graph. Plans for
//!   different views share nothing but the immutable dataset, so they run
//!   on a scoped thread pool (round-robin by catalog index, so the
//!   assignment is deterministic).
//! * **Phase 2 — apply (serial, cheap).** Patches are applied in catalog
//!   order: pure mechanical triple writes — no query evaluation, no group
//!   lookups — so the store's single-writer section shrinks to the part
//!   that genuinely needs it. Callers batching several deltas apply them
//!   all inside one [`sofos_store::WriteTxn`] and publish the whole pass
//!   as **one** epoch.
//!
//! Invariants (property-tested in `tests/maintenance.rs`):
//!
//! 1. **Bit-equality.** [`Maintainer::maintain_pipelined`] produces view
//!    graphs identical (up to blank labels) to the serial
//!    [`Maintainer::maintain`] — both run the same planning core
//!    (`plan_view`), the serial path just applies each plan immediately.
//! 2. **Plan independence.** Group keys are disjoint per view and views
//!    own disjoint graphs, so no plan reads state another plan writes.
//!    Re-evaluations read only the *base* graph (plus the group's own
//!    observation), which phase 1 never mutates.
//! 3. **All-or-nothing planning.** A planning error surfaces before any
//!    write is applied: a failed pipelined pass leaves every view graph
//!    exactly as it was (the serial path cannot offer this — it may have
//!    half-patched earlier views).
//!
//! The [`PipelineTelemetry`] on every outcome records how the pass split
//! into serial and parallelizable work.

use crate::engine::{RowDelta, ViewIds};
use crate::{Maintainer, MaintenanceCost, MaintenanceReport, MaintenanceStrategy};
use sofos_cube::ViewMask;
use sofos_rdf::{Graph, Term, TermId};
use sofos_sparql::SparqlError;
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
    /// Drop the whole view graph and load the encoded replacement — the
    /// full-refresh regime, planned read-only like everything else.
    Replace { encoded: Graph },
}

/// One view's fully-planned maintenance: the exact writes phase 2 will
/// apply, plus the cost accounting phase 1 already knows.
pub struct ViewPatch {
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

    /// The planned view.
    pub fn view(&self) -> ViewMask {
        self.view
    }

    /// Planned writes (0 for a no-op patch).
    pub fn planned_ops(&self) -> usize {
        self.ops.len()
    }

    /// The planned cost (apply time not yet included).
    pub fn cost(&self) -> &MaintenanceCost {
        &self.cost
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

/// How a pipelined pass split between the serial spine and the work that
/// ran (or could run) on the thread pool. All figures are microseconds of
/// *work*, except `parallel_wall_us` which is the end-to-end wall of the
/// parallel phases — compare the two to see the achieved speedup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineTelemetry {
    /// Work that must run single-threaded: interning prologues, the store
    /// mutation with its pre/post binding scans ([`Maintainer::apply`]),
    /// and patch application.
    pub serial_us: u64,
    /// Summed per-view planning work — the numerator Amdahl divides by
    /// `p`.
    pub parallel_work_us: u64,
    /// End-to-end wall of the parallel phases.
    pub parallel_wall_us: u64,
}

impl PipelineTelemetry {
    /// Fold another pass's split into this one (accumulating a session
    /// total).
    pub fn merge(&mut self, other: &PipelineTelemetry) {
        self.serial_us += other.serial_us;
        self.parallel_work_us += other.parallel_work_us;
        self.parallel_wall_us += other.parallel_wall_us;
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

/// Result of one [`Maintainer::maintain_pipelined`] pass.
pub struct PipelineOutcome {
    /// Per-view costs, exactly as the serial engine would report them.
    pub report: MaintenanceReport,
    /// How the pass split between serial and parallel work.
    pub telemetry: PipelineTelemetry,
}

impl Maintainer {
    /// The two-phase pipeline over a whole catalog: plan every view's
    /// patch read-only on a scoped pool of `threads` workers, then apply
    /// the patches serially in catalog order.
    ///
    /// Produces the same [`MaintenanceReport`] and the same view graphs as
    /// the serial [`Maintainer::maintain`] (property-tested). Unlike the
    /// serial path, a planning error aborts *before* any write: the view
    /// graphs are untouched on `Err`.
    pub fn maintain_pipelined(
        &mut self,
        dataset: &mut Dataset,
        rows: Option<&RowDelta>,
        views: &mut [(ViewMask, usize)],
        threads: usize,
    ) -> Result<PipelineOutcome, SparqlError> {
        let pass_start = Instant::now();

        // Serial prologue: interning and posting-list registration need
        // the writer's dictionary.
        let serial_start = Instant::now();
        let ids: Vec<ViewIds> = views
            .iter()
            .map(|&(mask, _)| ViewIds::prepare(dataset, self.facet(), mask))
            .collect();
        let mut serial_us = serial_start.elapsed().as_micros() as u64;

        // Phase 1: plan all patches against the immutable dataset.
        let plan_start = Instant::now();
        let planned = self.plan_all(dataset, rows, views, &ids, threads);
        let parallel_wall_us = plan_start.elapsed().as_micros() as u64;
        let parallel_work_us = planned.iter().map(|(_, work)| work).sum();
        let patches: Vec<ViewPatch> = planned
            .into_iter()
            .map(|(patch, _)| patch)
            .collect::<Result<_, _>>()?;

        // Phase 2: apply serially, in catalog order.
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
                parallel_wall_us,
            },
        })
    }

    /// Plan every view's patch, each timed, distributing views over at
    /// most `threads` workers (round-robin by catalog index).
    #[allow(clippy::type_complexity)]
    fn plan_all(
        &self,
        dataset: &Dataset,
        rows: Option<&RowDelta>,
        views: &[(ViewMask, usize)],
        ids: &[ViewIds],
        threads: usize,
    ) -> Vec<(Result<ViewPatch, SparqlError>, u64)> {
        let fresh_start = self.fresh_counter();
        parallel_indexed(views.len(), threads, |index| {
            let start = Instant::now();
            let patch = self.plan_view(dataset, rows, views[index], &ids[index], fresh_start);
            (patch, start.elapsed().as_micros() as u64)
        })
    }
}

/// Run `task(0..n)` on at most `threads` scoped workers, round-robin by
/// index (deterministic assignment), returning results in index order.
/// With one worker (or one item) the tasks run inline — the degenerate
/// configuration is the serial loop.
fn parallel_indexed<T: Send>(n: usize, threads: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(task).collect();
    }
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(n, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let task = &task;
            handles.push(scope.spawn(move || {
                let mut partial: Vec<(usize, T)> = Vec::new();
                let mut index = worker;
                while index < n {
                    partial.push((index, task(index)));
                    index += workers;
                }
                partial
            }));
        }
        for handle in handles {
            for (index, value) in handle.join().expect("pipeline worker panicked") {
                results[index] = Some(value);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}
