//! Maintenance cost models: pricing view *upkeep* alongside query benefit.
//!
//! The six [`crate::CostModel`]s price what a view saves at query time; on a
//! living graph every materialized view also *costs* — each update batch
//! either patches its groups in place (the counting algorithm) or forces a
//! full refresh. A [`MaintenanceCostModel`] predicts that per-round upkeep
//! from the sized lattice ([`crate::CostContext`]) plus the observed
//! update-stream pressure ([`UpdateRates`]), so the selector can optimize
//! the Goasdoué-style combined objective
//! `query_cost + λ · maintenance_cost` instead of the frozen-graph one.
//!
//! Two estimators are provided:
//!
//! * [`TouchedGroupsMaintenance`] — analytic: expected distinct groups a
//!   batch touches (a balls-into-bins bound over the view's rows), patch
//!   width from the facet's encoding, per-group re-evaluation for
//!   non-invertible aggregates (MIN/MAX deletes), and a full-refresh
//!   regime for facets the counting algorithm cannot maintain;
//! * [`FixedMaintenance`] — explicit per-view costs (the maintenance
//!   analogue of [`crate::UserDefinedCost`]; also the test harness's lever
//!   for forcing churn onto a specific view).

use crate::context::CostContext;
use sofos_cube::{AggOp, ViewMask};
use sofos_maintain::StarPattern;
use sofos_rdf::FxHashMap;

/// Observed (or anticipated) update pressure, per round of the workload.
///
/// A "round" is whatever unit the caller amortizes over — one update batch
/// in the adaptive experiments. Rates are observation-level operations
/// (whole stars inserted/deleted), matching the update-stream generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateRates {
    /// Observations inserted per round.
    pub inserts_per_round: f64,
    /// Observations deleted per round.
    pub deletes_per_round: f64,
}

impl UpdateRates {
    /// A frozen graph: no updates, all maintenance costs vanish.
    pub const FROZEN: UpdateRates = UpdateRates {
        inserts_per_round: 0.0,
        deletes_per_round: 0.0,
    };

    /// Rates from per-round insert/delete counts.
    pub fn new(inserts_per_round: f64, deletes_per_round: f64) -> UpdateRates {
        UpdateRates {
            inserts_per_round: inserts_per_round.max(0.0),
            deletes_per_round: deletes_per_round.max(0.0),
        }
    }

    /// Total operations per round.
    pub fn ops_per_round(&self) -> f64 {
        self.inserts_per_round + self.deletes_per_round
    }

    /// Fraction of operations that are deletes (0 on a frozen graph).
    pub fn delete_fraction(&self) -> f64 {
        let ops = self.ops_per_round();
        if ops > 0.0 {
            self.deletes_per_round / ops
        } else {
            0.0
        }
    }

    /// True when no updates are expected.
    pub fn is_frozen(&self) -> bool {
        self.ops_per_round() == 0.0
    }
}

/// A model `M : V(F) × rates → R+` predicting the per-round cost of keeping
/// one view fresh. Units are the model's own (abstract triple-write work
/// for the analytic model); the selector's λ bridges them to the
/// query-cost scale.
pub trait MaintenanceCostModel: Send + Sync {
    /// Short stable name, used in reports.
    fn name(&self) -> &'static str;

    /// Predicted per-round upkeep of `view` under `rates`. Must return
    /// `0.0` when `rates` is frozen (no updates ⇒ no upkeep).
    fn maintenance_cost(&self, ctx: &CostContext<'_>, view: ViewMask, rates: &UpdateRates) -> f64;
}

/// Expected number of *distinct* groups of a `rows`-group view touched by
/// `ops` group-mapped operations: `rows · (1 − (1 − 1/rows)^ops)`, the
/// standard balls-into-bins occupancy bound. Tends to `ops` for huge views
/// (every op hits its own group) and saturates at `rows` for tiny ones
/// (the apex is touched once per batch, not once per op).
pub(crate) fn expected_touched_groups(rows: usize, ops: f64) -> f64 {
    if ops <= 0.0 {
        return 0.0;
    }
    if rows == 0 {
        // Every op lands in a fresh group.
        return ops;
    }
    let r = rows as f64;
    r * (1.0 - (1.0 - 1.0 / r).powf(ops))
}

/// Per-round analytic feature estimates for one view — the quantities the
/// maintenance engine reports after the fact
/// ([`sofos_maintain::MaintenanceCost`]), predicted before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MaintenanceFeatures {
    /// Expected view-graph triples written or removed per round.
    pub triples_touched: f64,
    /// Expected per-group re-evaluations per round (MIN/MAX deletes, or
    /// every group under the full-refresh regime).
    pub groups_reevaluated: f64,
}

/// Analytic per-view maintenance features from the sized lattice.
///
/// Views the context cannot size are priced pessimistically (`INFINITY`
/// triples), matching how the query-cost models treat them.
pub(crate) fn maintenance_features(
    ctx: &CostContext<'_>,
    view: ViewMask,
    rates: &UpdateRates,
) -> MaintenanceFeatures {
    let ops = rates.ops_per_round();
    if ops <= 0.0 {
        return MaintenanceFeatures {
            triples_touched: 0.0,
            groups_reevaluated: 0.0,
        };
    }
    let Some(stats) = ctx.stats(view) else {
        return MaintenanceFeatures {
            triples_touched: f64::INFINITY,
            groups_reevaluated: f64::INFINITY,
        };
    };
    // Triples one encoded observation (group row) carries: rdf:type + one
    // triple per grouped dimension + one per aggregate component.
    let row_width = (1 + view.dim_count() as usize + ctx.facet.agg.components().len()) as f64;

    if StarPattern::detect(ctx.facet).is_none() {
        // The counting algorithm cannot maintain this facet: every round
        // drops and re-materializes the whole view graph.
        return MaintenanceFeatures {
            triples_touched: 2.0 * stats.triples as f64,
            groups_reevaluated: stats.rows as f64,
        };
    }

    let touched = expected_touched_groups(stats.rows, ops);
    // Deletes against MIN/MAX groups are not invertible: each touched
    // group re-evaluates from the base graph, scanning roughly its share
    // of the facet's bindings (finest-view rows / this view's rows).
    let reevals = match ctx.facet.agg {
        AggOp::Min | AggOp::Max => touched * rates.delete_fraction(),
        _ => 0.0,
    };
    MaintenanceFeatures {
        triples_touched: touched * row_width,
        groups_reevaluated: reevals,
    }
}

/// Analytic maintenance model: expected touched groups × patch width, plus
/// re-evaluation work for non-invertible aggregates, in abstract
/// triple-write units (comparable to [`crate::TriplesCost`]'s scale).
#[derive(Debug, Clone, Copy, Default)]
pub struct TouchedGroupsMaintenance;

impl TouchedGroupsMaintenance {
    /// What one per-group re-evaluation costs relative to one triple
    /// write: the group's expected share of the facet's base bindings.
    fn reeval_unit(ctx: &CostContext<'_>, view: ViewMask) -> f64 {
        let base_rows = ctx
            .stats(ViewMask::full(ctx.facet.dim_count()))
            .map_or(0, |s| s.rows)
            .max(1) as f64;
        let rows = ctx.stats(view).map_or(1, |s| s.rows).max(1) as f64;
        (base_rows / rows).max(1.0)
    }
}

impl MaintenanceCostModel for TouchedGroupsMaintenance {
    fn name(&self) -> &'static str {
        "touched-groups"
    }

    fn maintenance_cost(&self, ctx: &CostContext<'_>, view: ViewMask, rates: &UpdateRates) -> f64 {
        let features = maintenance_features(ctx, view, rates);
        if !features.triples_touched.is_finite() {
            return f64::INFINITY;
        }
        features.triples_touched + features.groups_reevaluated * Self::reeval_unit(ctx, view)
    }
}

/// Explicit per-view maintenance costs (per operation): the maintenance
/// analogue of [`crate::UserDefinedCost`]. The per-round cost scales with
/// the update rate, so a frozen graph still costs nothing.
#[derive(Debug, Clone, Default)]
pub struct FixedMaintenance {
    costs: FxHashMap<ViewMask, f64>,
    default: f64,
}

impl FixedMaintenance {
    /// Build from explicit `(view, per-op cost)` pairs; unlisted views get
    /// `default`.
    pub fn new(pairs: impl IntoIterator<Item = (ViewMask, f64)>, default: f64) -> FixedMaintenance {
        FixedMaintenance {
            costs: pairs.into_iter().collect(),
            default,
        }
    }
}

impl MaintenanceCostModel for FixedMaintenance {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn maintenance_cost(&self, _ctx: &CostContext<'_>, view: ViewMask, rates: &UpdateRates) -> f64 {
        self.costs.get(&view).copied().unwrap_or(self.default) * rates.ops_per_round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::size_lattice;
    use sofos_cube::{Dimension, Facet, Lattice};
    use sofos_rdf::Term;
    use sofos_sparql::{GroupPattern, PatternTerm, TriplePattern};
    use sofos_store::{Dataset, GraphStats};

    fn setup(agg: AggOp) -> (Dataset, Facet) {
        let mut ds = Dataset::new();
        let a = Term::iri("http://e/a");
        let b = Term::iri("http://e/b");
        let m = Term::iri("http://e/m");
        for i in 0..24 {
            let obs = Term::blank(format!("o{i}"));
            ds.insert(None, &obs, &a, &Term::iri(format!("http://e/A{}", i % 4)));
            ds.insert(None, &obs, &b, &Term::iri(format!("http://e/B{}", i % 3)));
            ds.insert(None, &obs, &m, &Term::literal_int(i));
        }
        let pattern = GroupPattern::triples(vec![
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri("http://e/a"),
                PatternTerm::var("a"),
            ),
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri("http://e/b"),
                PatternTerm::var("b"),
            ),
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri("http://e/m"),
                PatternTerm::var("m"),
            ),
        ]);
        let facet = Facet::new(
            "t",
            vec![Dimension::new("a"), Dimension::new("b")],
            pattern,
            "m",
            agg,
        )
        .unwrap();
        (ds, facet)
    }

    fn with_ctx<R>(agg: AggOp, f: impl FnOnce(&CostContext<'_>) -> R) -> R {
        let (ds, facet) = setup(agg);
        let lattice = Lattice::new(facet.clone());
        let sized = size_lattice(&ds, &lattice).unwrap();
        let base = GraphStats::compute(ds.default_graph());
        let ctx = CostContext {
            facet: &facet,
            view_stats: &sized,
            base: &base,
        };
        f(&ctx)
    }

    #[test]
    fn frozen_rates_cost_nothing() {
        with_ctx(AggOp::Sum, |ctx| {
            for model in [
                &TouchedGroupsMaintenance as &dyn MaintenanceCostModel,
                &FixedMaintenance::new([], 1.0),
            ] {
                for view in [ViewMask::APEX, ViewMask::full(2)] {
                    assert_eq!(
                        model.maintenance_cost(ctx, view, &UpdateRates::FROZEN),
                        0.0,
                        "{} on a frozen graph",
                        model.name()
                    );
                }
            }
        });
    }

    #[test]
    fn occupancy_bound_shape() {
        assert_eq!(expected_touched_groups(10, 0.0), 0.0);
        // One op touches exactly one group.
        assert!((expected_touched_groups(10, 1.0) - 1.0).abs() < 1e-9);
        // Many ops saturate at the group count.
        assert!(expected_touched_groups(3, 1000.0) <= 3.0 + 1e-9);
        assert!(expected_touched_groups(3, 1000.0) > 2.99);
        // An empty view: every op opens a group.
        assert_eq!(expected_touched_groups(0, 5.0), 5.0);
    }

    #[test]
    fn finer_views_cost_more_to_maintain() {
        with_ctx(AggOp::Sum, |ctx| {
            let rates = UpdateRates::new(4.0, 2.0);
            let model = TouchedGroupsMaintenance;
            let apex = model.maintenance_cost(ctx, ViewMask::APEX, &rates);
            let base = model.maintenance_cost(ctx, ViewMask::full(2), &rates);
            assert!(
                apex < base,
                "apex upkeep {apex} should undercut base upkeep {base}"
            );
        });
    }

    #[test]
    fn deletes_make_minmax_views_expensive() {
        let rates_ins = UpdateRates::new(6.0, 0.0);
        let rates_del = UpdateRates::new(3.0, 3.0);
        let sum_cost = with_ctx(AggOp::Sum, |ctx| {
            TouchedGroupsMaintenance.maintenance_cost(ctx, ViewMask::full(2), &rates_del)
        });
        let (min_ins, min_del) = with_ctx(AggOp::Min, |ctx| {
            (
                TouchedGroupsMaintenance.maintenance_cost(ctx, ViewMask::full(2), &rates_ins),
                TouchedGroupsMaintenance.maintenance_cost(ctx, ViewMask::full(2), &rates_del),
            )
        });
        assert!(
            min_del > min_ins,
            "deletes trigger MIN re-evaluation: {min_del} vs {min_ins}"
        );
        assert!(
            min_del > sum_cost,
            "MIN upkeep under deletes exceeds SUM's: {min_del} vs {sum_cost}"
        );
    }

    #[test]
    fn unsized_views_are_unpriceable() {
        with_ctx(AggOp::Sum, |ctx| {
            let rates = UpdateRates::new(1.0, 1.0);
            assert!(TouchedGroupsMaintenance
                .maintenance_cost(ctx, ViewMask(0b10000), &rates)
                .is_infinite());
        });
    }

    #[test]
    fn fixed_maintenance_scales_with_rates() {
        with_ctx(AggOp::Sum, |ctx| {
            let hot = ViewMask::full(2);
            let model = FixedMaintenance::new([(hot, 10.0)], 1.0);
            let rates = UpdateRates::new(2.0, 1.0);
            assert_eq!(model.maintenance_cost(ctx, hot, &rates), 30.0);
            assert_eq!(model.maintenance_cost(ctx, ViewMask::APEX, &rates), 3.0);
            assert_eq!(model.maintenance_cost(ctx, hot, &UpdateRates::FROZEN), 0.0);
        });
    }
}
