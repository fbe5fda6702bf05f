//! The cost-model comparison runner: the heart of the SOFOS demonstration.
//!
//! For each requested cost model the runner: clones the base dataset,
//! executes the offline phase (select + materialize), serves the *same*
//! workload through an [`Engine`] over the expanded graph (the online
//! module, Figure 2 ②), and tabulates the trade-off between query time and
//! space amplification — §4's "Exploring Cost Models" station.

use crate::config::EngineConfig;
use crate::engine::{Engine, Route};
use crate::offline::{run_offline, SizedLattice};
use crate::report::{ComparisonReport, ModelRow};
use crate::timing::{measure_median, TimeSummary};
use crate::validate::results_equivalent;
use sofos_cost::CostModelKind;
use sofos_cube::{Facet, ViewMask};
use sofos_select::{Budget, WorkloadProfile};
use sofos_sparql::{Evaluator, SparqlError};
use sofos_store::Dataset;
use sofos_workload::{generate_workload, GeneratedQuery};

/// The online phase's aggregate outcome.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// Latency summary over all queries.
    pub summary: TimeSummary,
    /// Queries answered from views.
    pub view_hits: usize,
    /// Queries that fell back to the base graph.
    pub fallbacks: usize,
    /// Every view-routed answer equalled the base-graph answer.
    pub all_valid: bool,
}

/// Serve a workload through `engine` and measure it.
///
/// Each query's time is the median of `timing_reps` calls to
/// [`Engine::query`] after one warm-up, so it includes analysis, routing
/// and rewriting — what serving pays. Routes are read off each
/// [`crate::SessionAnswer`], and every view-routed answer is checked
/// against the original query evaluated on `base`, the graph the views
/// were materialized from.
pub fn measure_workload(
    engine: &Engine,
    workload: &[GeneratedQuery],
    timing_reps: usize,
    base: &Dataset,
) -> Result<OnlineOutcome, SparqlError> {
    let reference = Evaluator::new(base);
    let mut samples = Vec::with_capacity(workload.len());
    let mut view_hits = 0usize;
    let mut fallbacks = 0usize;
    let mut all_valid = true;
    for generated in workload {
        let (us, answer) = measure_median(timing_reps, || engine.query(&generated.query));
        let answer = answer?;
        samples.push(us);
        match answer.route {
            Route::View(_) => {
                view_hits += 1;
                let expected = reference.evaluate(&generated.query)?;
                all_valid &= results_equivalent(&answer.results, &expected);
            }
            Route::BaseGraph => fallbacks += 1,
        }
    }
    Ok(OnlineOutcome {
        summary: TimeSummary::from_samples(&samples),
        view_hits,
        fallbacks,
        all_valid,
    })
}

/// Compare cost models on one dataset + facet.
///
/// The lattice is sized once (shared), the workload is generated once
/// (identical queries per model), and the no-views baseline is an engine
/// over the unexpanded dataset with an empty catalog.
pub fn compare_cost_models(
    dataset_name: &str,
    dataset: &Dataset,
    facet: &Facet,
    kinds: &[CostModelKind],
    config: &EngineConfig,
) -> Result<ComparisonReport, SparqlError> {
    let sized = SizedLattice::compute(dataset, facet)?;
    let workload = generate_workload(dataset, facet, &config.workload);
    let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));

    let no_views = serve(dataset.clone(), facet, Vec::new());
    let baseline = measure_workload(&no_views, &workload, config.timing_reps, dataset)?.summary;

    let mut models = Vec::with_capacity(kinds.len());
    for &kind in kinds {
        let mut expanded = dataset.clone();
        let offline = run_offline(&mut expanded, &sized, &profile, kind, config)?;
        let engine = serve(expanded, facet, offline.view_catalog());
        let online = measure_workload(&engine, &workload, config.timing_reps, dataset)?;
        let view_names = offline
            .selection
            .selected
            .iter()
            .map(|&v| sized.lattice.view_name(v))
            .collect();
        models.push(ModelRow::new(&offline, &online, &baseline, view_names));
    }

    Ok(ComparisonReport {
        dataset: dataset_name.to_string(),
        facet: facet.id.clone(),
        dims: facet.dim_count(),
        budget: describe_budget(config.budget),
        queries: workload.len(),
        sizing_us: sized.sizing_us,
        baseline,
        models,
    })
}

/// A default engine (eager policy, in memory) over `dataset`.
fn serve(dataset: Dataset, facet: &Facet, catalog: Vec<(ViewMask, usize)>) -> Engine {
    Engine::builder()
        .dataset(dataset)
        .facet(facet.clone())
        .catalog(catalog)
        .build()
        .expect("an in-memory engine with dataset and facet always builds")
}

fn describe_budget(budget: Budget) -> String {
    match budget {
        Budget::Views(k) => format!("{k} views"),
        Budget::Bytes(b) => format!("{b} bytes"),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sofos_workload::{dbpedia, WorkloadConfig};

    #[test]
    fn compares_static_models_end_to_end() {
        let g = dbpedia::generate(&dbpedia::Config {
            countries: 8,
            years: 2,
            ..dbpedia::Config::default()
        });
        let mut config = EngineConfig::default();
        config.workload.num_queries = 10;
        config.timing_reps = 1;
        let kinds = [
            CostModelKind::Random,
            CostModelKind::Triples,
            CostModelKind::AggValues,
            CostModelKind::Nodes,
        ];
        let report =
            compare_cost_models(g.name, &g.dataset, &g.facets[0], &kinds, &config).unwrap();

        assert_eq!(report.models.len(), 4);
        assert_eq!(report.queries, 10);
        for row in &report.models {
            assert!(row.all_valid, "{}: invalid view answers", row.model);
            assert_eq!(row.selected_views.len(), 4);
            assert!(row.storage_amplification > 1.0);
            assert!(row.latency.total_us > 0);
        }
        // Rendering works and contains every model.
        let table = report.to_table();
        for row in &report.models {
            assert!(table.contains(&row.model), "missing {} in table", row.model);
        }
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 1 + 1 + 4, "header + baseline + models");
    }

    fn setup() -> (Dataset, Facet, Vec<GeneratedQuery>) {
        let g = dbpedia::generate(&dbpedia::Config {
            countries: 10,
            years: 3,
            ..dbpedia::Config::default()
        });
        let facet = g.facets[0].clone();
        let workload = generate_workload(
            &g.dataset,
            &facet,
            &WorkloadConfig {
                num_queries: 12,
                ..WorkloadConfig::default()
            },
        );
        (g.dataset, facet, workload)
    }

    /// Run the offline phase on a copy of `base` and serve the result.
    pub(crate) fn offline_engine(
        base: &Dataset,
        facet: &Facet,
        profile: &WorkloadProfile,
        kind: CostModelKind,
        config: &EngineConfig,
    ) -> (crate::OfflineOutcome, Engine) {
        let sized = SizedLattice::compute(base, facet).unwrap();
        let mut expanded = base.clone();
        let offline = run_offline(&mut expanded, &sized, profile, kind, config).unwrap();
        let engine = serve(expanded, facet, offline.view_catalog());
        (offline, engine)
    }

    #[test]
    fn baseline_run_uses_base_graph_only() {
        let (ds, facet, workload) = setup();
        let engine = serve(ds.clone(), &facet, Vec::new());
        let outcome = measure_workload(&engine, &workload, 1, &ds).unwrap();
        assert_eq!(outcome.view_hits, 0);
        assert_eq!(outcome.fallbacks, 12);
        assert!(outcome.all_valid);
        assert!(outcome.summary.total_us > 0);
    }

    #[test]
    fn views_answer_and_validate() {
        let (ds, facet, workload) = setup();
        let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));
        let kind = CostModelKind::AggValues;
        let (_, engine) = offline_engine(&ds, &facet, &profile, kind, &EngineConfig::default());
        let outcome = measure_workload(&engine, &workload, 1, &ds).unwrap();
        assert!(outcome.view_hits > 0, "some queries answered from views");
        assert_eq!(outcome.view_hits + outcome.fallbacks, workload.len());
        assert!(outcome.all_valid, "view answers must equal base answers");
    }

    #[test]
    fn full_base_view_answers_everything() {
        let (ds, facet, workload) = setup();
        let profile = WorkloadProfile::uniform(&sofos_cube::Lattice::new(facet.clone()));
        // Budget 16 = the whole 4-dim lattice: every query must hit a view.
        let config = EngineConfig {
            budget: Budget::Views(16),
            ..EngineConfig::default()
        };
        let (_, engine) = offline_engine(&ds, &facet, &profile, CostModelKind::Triples, &config);
        assert_eq!(engine.views().len(), 16);
        let outcome = measure_workload(&engine, &workload, 1, &ds).unwrap();
        assert_eq!(outcome.fallbacks, 0, "full lattice covers every query");
        assert!(outcome.all_valid);
    }
}
