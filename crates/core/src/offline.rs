//! The offline module: lattice sizing, cost-model construction, view
//! selection, and materialization (Figure 2 ①).

use crate::config::EngineConfig;
use crate::timing::{measure_median, measure_once};
use sofos_cost::{
    build_static_model, CostContext, CostModel, CostModelKind, LearnedCostModel, UserDefinedCost,
};
use sofos_cube::{view_query, Facet, Lattice, ViewMask};
use sofos_materialize::{materialize_views, MaterializedView, ViewStats};
use sofos_rdf::FxHashMap;
use sofos_select::{greedy_select, Budget, Objective, SelectionOutcome, WorkloadProfile};
use sofos_sparql::{Evaluator, SparqlError};
use sofos_store::{Dataset, GraphStats};

/// The sized lattice: per-view stats plus base-graph statistics.
#[derive(Debug, Clone)]
pub struct SizedLattice {
    /// The lattice itself.
    pub lattice: Lattice,
    /// Per-view sizing (rows/triples/nodes/bytes).
    pub stats: FxHashMap<ViewMask, ViewStats>,
    /// Base-graph statistics at sizing time.
    pub base_stats: GraphStats,
    /// Wall time of the whole sizing pass (µs).
    pub sizing_us: u64,
}

impl SizedLattice {
    /// Size every view of the facet's lattice with
    /// [`sofos_cost::size_lattice`] (demo step "Exploration of the Full
    /// Lattice"): one evaluation of the base view, the rest rolled up.
    pub fn compute(dataset: &Dataset, facet: &Facet) -> Result<SizedLattice, SparqlError> {
        let lattice = Lattice::new(facet.clone());
        let (sizing_us, stats) = measure_once(|| sofos_cost::size_lattice(dataset, &lattice));
        Ok(SizedLattice {
            stats: stats?,
            lattice,
            base_stats: GraphStats::compute(dataset.default_graph()),
            sizing_us,
        })
    }

    /// A cost context over this sizing.
    pub fn context(&self) -> CostContext<'_> {
        CostContext {
            facet: self.lattice.facet(),
            view_stats: &self.stats,
            base: &self.base_stats,
        }
    }

    /// Incremental re-sizing: a copy of this sizing with every per-view
    /// estimate (rows, triples, nodes, bytes) scaled by the base graph's
    /// growth since this sizing was computed, anchored on `live`
    /// statistics.
    ///
    /// Costs O(2^d) multiplications instead of an evaluation of the base
    /// view. The scaling is uniform: it tracks the graph's *size*, and
    /// relies on roughly shape-preserving growth for the per-view ratios
    /// (which is what selection ranks by). Recompute from scratch when the
    /// value distribution itself shifts. A sizing of an empty graph has no
    /// shape to scale and is returned unscaled; recompute it instead.
    pub fn refreshed(&self, live: &GraphStats) -> SizedLattice {
        let growth = if self.base_stats.triples > 0 {
            live.triples as f64 / self.base_stats.triples as f64
        } else {
            1.0
        };
        let scale = |n: usize| -> usize { (n as f64 * growth).round() as usize };
        let stats = self
            .stats
            .iter()
            .map(|(&mask, s)| {
                (
                    mask,
                    ViewStats {
                        facet_id: s.facet_id.clone(),
                        mask: s.mask,
                        rows: scale(s.rows),
                        triples: scale(s.triples),
                        nodes: scale(s.nodes),
                        bytes: scale(s.bytes),
                    },
                )
            })
            .collect();
        SizedLattice {
            lattice: self.lattice.clone(),
            stats,
            base_stats: live.clone(),
            sizing_us: self.sizing_us,
        }
    }
}

/// The measured evaluation time (µs) of every view query of `lattice`,
/// in lattice order: the learned model's training targets.
///
/// Each view query runs through the [`Evaluator`], the same join sizing,
/// materialization and serving run (a star facet's block takes its star
/// join), so the targets are "query evaluation time": what a query over
/// the base graph costs the engine that answers it.
pub fn time_view_queries(
    dataset: &Dataset,
    lattice: &Lattice,
) -> Result<Vec<(ViewMask, f64)>, SparqlError> {
    let evaluator = Evaluator::new(dataset);
    lattice
        .views()
        .map(|mask| {
            let (us, results) =
                measure_once(|| evaluator.evaluate(&view_query(lattice.facet(), mask)));
            results.map(|_| (mask, us as f64))
        })
        .collect()
}

/// Result of the offline phase for one cost model.
#[derive(Debug)]
pub struct OfflineOutcome {
    /// Cost model name.
    pub model: String,
    /// Selection result (views + estimated costs).
    pub selection: SelectionOutcome,
    /// Learned-model training history (per-epoch MSE), if applicable.
    pub training_history: Option<Vec<f64>>,
    /// Wall time of model preparation/training (µs).
    pub training_us: u64,
    /// Wall time of the selection algorithm (µs).
    pub selection_us: u64,
    /// Wall time of materialization (µs).
    pub materialization_us: u64,
    /// The materialized views (stats + graph IRIs).
    pub materialized: Vec<MaterializedView>,
    /// Dataset bytes before materialization.
    pub base_bytes: usize,
    /// Dataset bytes after materialization.
    pub expanded_bytes: usize,
}

impl OfflineOutcome {
    /// `expanded / base` — the demo's "space amplification".
    pub fn storage_amplification(&self) -> f64 {
        if self.base_bytes == 0 {
            return 1.0;
        }
        self.expanded_bytes as f64 / self.base_bytes as f64
    }

    /// Selected masks paired with their materialized row counts, the shape
    /// the rewriter's `best_view` expects.
    pub fn view_catalog(&self) -> Vec<(ViewMask, usize)> {
        self.materialized
            .iter()
            .map(|v| (v.stats.mask, v.stats.rows))
            .collect()
    }
}

/// A cost model, the learned model's training history, and the wall time
/// of preparing it (µs; timing the view queries plus training for
/// `Learned`, 0 otherwise).
pub type BuiltModel = (Box<dyn CostModel>, Option<Vec<f64>>, u64);

/// Build the cost model for a kind; `Learned` times every view query
/// over `dataset` ([`time_view_queries`]) and trains on those times,
/// `UserDefined` prefers the configured views (or the finest `k` as a
/// default naive user).
pub fn build_model(
    kind: CostModelKind,
    sized: &SizedLattice,
    dataset: &Dataset,
    config: &EngineConfig,
) -> Result<BuiltModel, SparqlError> {
    Ok(match kind {
        CostModelKind::Learned => {
            let ctx = sized.context();
            let mut model = LearnedCostModel::new(sized.lattice.facet(), config.seed);
            let (training_us, history) = measure_once(|| {
                let samples = time_view_queries(dataset, &sized.lattice)?;
                Ok::<_, SparqlError>(model.fit(&ctx, &samples, config.train))
            });
            (Box::new(model), Some(history?), training_us)
        }
        CostModelKind::UserDefined => {
            let views = if config.user_views.is_empty() {
                default_user_views(&sized.lattice, config.budget)
            } else {
                config.user_views.clone()
            };
            (Box::new(UserDefinedCost::preferring(views)), None, 0)
        }
        other => {
            let model = build_static_model(other, config.seed)
                .expect("static kinds are Random/Triples/AggValues/Nodes");
            (model, None, 0)
        }
    })
}

/// The "naive user" default: pick the finest views first (highest level,
/// then larger mask) up to the view budget.
fn default_user_views(lattice: &Lattice, budget: Budget) -> Vec<ViewMask> {
    let k = match budget {
        Budget::Views(k) => k,
        Budget::Bytes(_) => lattice.num_views() as usize,
    };
    let mut views: Vec<ViewMask> = lattice.views().collect();
    views.sort_by_key(|v| (std::cmp::Reverse(v.dim_count()), std::cmp::Reverse(v.0)));
    views.truncate(k);
    views
}

/// Run the full offline phase for one cost model: build → select →
/// materialize into `dataset` (which becomes `G+`).
pub fn run_offline(
    dataset: &mut Dataset,
    sized: &SizedLattice,
    profile: &WorkloadProfile,
    kind: CostModelKind,
    config: &EngineConfig,
) -> Result<OfflineOutcome, SparqlError> {
    let (model, training_history, training_us) = build_model(kind, sized, dataset, config)?;
    let ctx = sized.context();
    let objective = Objective::query_only(model.as_ref());

    let (selection_us, selection) = measure_median(1, || {
        greedy_select(&ctx, &sized.lattice, &objective, profile, config.budget)
    });

    let base_bytes = dataset.estimated_bytes();
    let facet = sized.lattice.facet().clone();
    let (materialization_us, materialized) =
        measure_once(|| materialize_views(dataset, &facet, &selection.selected));
    let materialized = materialized?;
    let expanded_bytes = dataset.estimated_bytes();

    Ok(OfflineOutcome {
        model: kind.name().to_string(),
        selection,
        training_history,
        training_us,
        selection_us,
        materialization_us,
        materialized,
        base_bytes,
        expanded_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofos_workload::dbpedia;

    fn setup() -> (Dataset, Facet) {
        let g = dbpedia::generate(&dbpedia::Config {
            countries: 10,
            years: 3,
            ..dbpedia::Config::default()
        });
        (g.dataset, g.facets[0].clone())
    }

    #[test]
    fn sizing_covers_lattice_and_times_views() {
        let (ds, facet) = setup();
        let sized = SizedLattice::compute(&ds, &facet).unwrap();
        assert_eq!(sized.stats.len() as u64, sized.lattice.num_views());
        assert!(sized.sizing_us > 0);
        assert!(sized.base_stats.triples > 0);
        assert_eq!(
            sized.stats,
            sofos_cost::size_lattice(&ds, &sized.lattice).unwrap(),
            "one sizing function"
        );
    }

    #[test]
    fn view_query_timings_cover_the_lattice() {
        let (ds, facet) = setup();
        let lattice = Lattice::new(facet);
        let timings = time_view_queries(&ds, &lattice).unwrap();
        let masks: Vec<ViewMask> = timings.iter().map(|&(mask, _)| mask).collect();
        assert_eq!(masks, lattice.views().collect::<Vec<_>>(), "one per view");
        assert!(timings.iter().all(|&(_, us)| us.is_finite() && us >= 0.0));
        assert!(timings.iter().map(|&(_, us)| us).sum::<f64>() > 0.0);
    }

    #[test]
    fn sizing_refresh_scales_with_live_growth() {
        let (ds, facet) = setup();
        let sized = SizedLattice::compute(&ds, &facet).unwrap();

        // Simulate the base graph doubling since the sizing was cached.
        let mut live = sized.base_stats.clone();
        live.triples *= 2;
        let refreshed = sized.refreshed(&live);
        assert_eq!(refreshed.base_stats.triples, live.triples);
        for (mask, stats) in &sized.stats {
            let scaled = &refreshed.stats[mask];
            assert_eq!(scaled.rows, stats.rows * 2, "{mask}");
            assert_eq!(scaled.triples, stats.triples * 2, "{mask}");
            assert_eq!(scaled.bytes, stats.bytes * 2, "{mask}");
        }

        // No growth = identical estimates; shrinkage scales down.
        let same = sized.refreshed(&sized.base_stats);
        assert_eq!(same.stats, sized.stats);
        let mut shrunk = sized.base_stats.clone();
        shrunk.triples /= 2;
        let smaller = sized.refreshed(&shrunk);
        let base = sized.lattice.base();
        assert!(smaller.stats[&base].rows < sized.stats[&base].rows);
    }

    #[test]
    fn offline_with_each_static_model() {
        let (ds, facet) = setup();
        let sized = SizedLattice::compute(&ds, &facet).unwrap();
        let profile = WorkloadProfile::uniform(&sized.lattice);
        let config = EngineConfig::default();
        for kind in [
            CostModelKind::Random,
            CostModelKind::Triples,
            CostModelKind::AggValues,
            CostModelKind::Nodes,
            CostModelKind::UserDefined,
        ] {
            let mut expanded = ds.clone();
            let outcome = run_offline(&mut expanded, &sized, &profile, kind, &config).unwrap();
            assert_eq!(outcome.selection.selected.len(), 4, "{kind}");
            assert_eq!(outcome.materialized.len(), 4);
            assert!(outcome.expanded_bytes > outcome.base_bytes);
            assert!(outcome.storage_amplification() > 1.0);
            assert_eq!(expanded.graph_names().len(), 4, "one graph per view");
        }
    }

    #[test]
    fn learned_model_trains_during_offline() {
        let (ds, facet) = setup();
        let sized = SizedLattice::compute(&ds, &facet).unwrap();
        let profile = WorkloadProfile::uniform(&sized.lattice);
        let mut config = EngineConfig::default();
        config.train.epochs = 30; // keep the test fast
        let mut expanded = ds.clone();
        let outcome = run_offline(
            &mut expanded,
            &sized,
            &profile,
            CostModelKind::Learned,
            &config,
        )
        .unwrap();
        let history = outcome.training_history.expect("learned model trains");
        assert_eq!(history.len(), 30);
        assert!(outcome.training_us > 0);
    }

    #[test]
    fn user_defined_defaults_to_finest_views() {
        let (ds, facet) = setup();
        let sized = SizedLattice::compute(&ds, &facet).unwrap();
        let views = default_user_views(&sized.lattice, Budget::Views(3));
        assert_eq!(views.len(), 3);
        assert_eq!(views[0], sized.lattice.base(), "finest first");
        assert!(views[1].dim_count() >= views[2].dim_count());
    }

    #[test]
    fn view_catalog_matches_materialization() {
        let (ds, facet) = setup();
        let sized = SizedLattice::compute(&ds, &facet).unwrap();
        let profile = WorkloadProfile::uniform(&sized.lattice);
        let config = EngineConfig::default();
        let mut expanded = ds.clone();
        let outcome = run_offline(
            &mut expanded,
            &sized,
            &profile,
            CostModelKind::Triples,
            &config,
        )
        .unwrap();
        let catalog = outcome.view_catalog();
        assert_eq!(catalog.len(), outcome.selection.selected.len());
        for ((mask, rows), view) in catalog.iter().zip(&outcome.materialized) {
            assert_eq!(*mask, view.stats.mask);
            assert_eq!(*rows, view.stats.rows);
        }
    }
}
