//! # sofos-maintain — incremental view maintenance for a living `G+`
//!
//! SOFOS (§3) materializes views once over a frozen graph; the paper's
//! central tension — view *benefit* vs. *maintenance cost* — is only half
//! exercisable while the store is read-only. This crate adds the missing
//! half: when the base graph changes through the store's transactional
//! delta API ([`sofos_store::Dataset::apply`]), the [`Maintainer`]
//! propagates the net [`sofos_store::ChangeSet`] into every materialized
//! view graph *without* re-evaluating the views, and reports what each
//! view's upkeep actually cost ([`MaintenanceCost`]) so the cost models
//! can finally price staleness against refresh.
//!
//! ## The counting algorithm, on RDF-encoded views
//!
//! A facet whose pattern `P` is a *star* (every triple pattern
//! `?o <p_i> ?v_i` around one subject variable — all SOFOS facets are
//! shaped like this) admits exact delta bindings: the subjects touched by
//! a batch are known, so the batch's effect on `P`'s bindings is
//! `rows_after(touched) − rows_before(touched)` as a multiset
//! ([`RowDelta`]). Per view, those delta rows are grouped by the view's
//! dimension mask and patched in place:
//!
//! * **SUM / COUNT / AVG** groups are patched arithmetically from the
//!   delta (AVG via its stored SUM+COUNT components); a group whose count
//!   reaches zero is retracted (its observation node's triples are
//!   removed);
//! * **MIN / MAX** groups are patched on pure inserts (compare against the
//!   stored extremum) but fall back to *per-group re-evaluation* on any
//!   delete — the classic non-invertibility of extrema; re-evaluation
//!   reuses the SPARQL evaluator with the group's key pinned by FILTERs,
//!   so patched literals are canonically identical to re-materialization;
//! * groups that appear for the first time get a fresh observation node;
//! * an update that only touches dimensions outside a view's mask nets
//!   out to zero component change and writes nothing.
//!
//! Facets whose pattern is not a star (or whose measures are not numeric)
//! degrade to [`MaintenanceStrategy::FullRefresh`]: drop + re-materialize,
//! with the cost reported honestly — which is itself a data point the
//! selection experiments want.

mod engine;
mod pipeline;
mod star;

pub use engine::{ApplyOutcome, Maintainer, RowDelta};
pub use pipeline::{PipelineOutcome, PipelineTelemetry};
pub use star::StarPattern;

use sofos_cube::ViewMask;
use std::fmt;

/// How a view was brought up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceStrategy {
    /// Counting algorithm: groups patched in place from delta bindings.
    Counting,
    /// Dropped and re-materialized from the base graph.
    FullRefresh,
    /// Nothing to do (empty delta for this view).
    Noop,
}

impl fmt::Display for MaintenanceStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MaintenanceStrategy::Counting => "counting",
            MaintenanceStrategy::FullRefresh => "full-refresh",
            MaintenanceStrategy::Noop => "noop",
        })
    }
}

/// What maintaining one view cost — the per-view term the cost models
/// need to price staleness vs. refresh.
#[derive(Debug, Clone)]
pub struct MaintenanceCost {
    /// The maintained view.
    pub view: ViewMask,
    /// Strategy used.
    pub strategy: MaintenanceStrategy,
    /// View-graph triples written or removed.
    pub triples_touched: usize,
    /// Groups patched arithmetically in place.
    pub groups_patched: usize,
    /// Groups recomputed from the base graph (MIN/MAX deletes, SUM
    /// emptiness checks, consistency repairs).
    pub groups_reevaluated: usize,
    /// Observation rows added to the view.
    pub rows_inserted: usize,
    /// Observation rows retracted from the view.
    pub rows_retracted: usize,
    /// Wall time of this view's maintenance (µs).
    pub wall_us: u64,
}

impl MaintenanceCost {
    fn noop(view: ViewMask) -> MaintenanceCost {
        MaintenanceCost {
            view,
            strategy: MaintenanceStrategy::Noop,
            triples_touched: 0,
            groups_patched: 0,
            groups_reevaluated: 0,
            rows_inserted: 0,
            rows_retracted: 0,
            wall_us: 0,
        }
    }
}

/// Aggregate outcome of one maintenance pass over a set of views.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// Per-view costs, in catalog order.
    pub per_view: Vec<MaintenanceCost>,
    /// Total wall time (µs) across the pass.
    pub total_us: u64,
}

impl MaintenanceReport {
    /// Total view-graph triples touched across views.
    pub fn triples_touched(&self) -> usize {
        self.per_view.iter().map(|c| c.triples_touched).sum()
    }

    /// Total per-group re-evaluations across views.
    pub fn reevaluations(&self) -> usize {
        self.per_view.iter().map(|c| c.groups_reevaluated).sum()
    }

    /// Merge another report into this one (accumulating a session log).
    pub fn absorb(&mut self, other: MaintenanceReport) {
        self.total_us += other.total_us;
        self.per_view.extend(other.per_view);
    }
}
