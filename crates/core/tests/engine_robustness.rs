//! Engine robustness: degenerate datasets, tiny facets, determinism.

use sofos_core::{
    compare_cost_models, measure_workload, results_equivalent, run_offline, Engine, EngineConfig,
    OfflineOutcome, OnlineOutcome, Route, SizedLattice,
};
use sofos_cost::CostModelKind;
use sofos_cube::{AggOp, Dimension, Facet, ViewMask};
use sofos_rdf::Term;
use sofos_select::{Budget, WorkloadProfile};
use sofos_sparql::{Evaluator, GroupPattern, PatternTerm, TriplePattern};
use sofos_store::Dataset;
use sofos_workload::{dbpedia, generate_workload, WorkloadConfig};

fn one_dim_facet() -> Facet {
    let pattern = GroupPattern::triples(vec![
        TriplePattern::new(
            PatternTerm::var("o"),
            PatternTerm::iri("http://e/d"),
            PatternTerm::var("d"),
        ),
        TriplePattern::new(
            PatternTerm::var("o"),
            PatternTerm::iri("http://e/m"),
            PatternTerm::var("m"),
        ),
    ]);
    Facet::new("tiny", vec![Dimension::new("d")], pattern, "m", AggOp::Sum).unwrap()
}

/// The offline phase over a copy of `base`, profiled on the configured
/// workload; then the same workload served over `G+` and measured.
fn offline_then_online(
    base: &Dataset,
    facet: &Facet,
    kind: CostModelKind,
    config: &EngineConfig,
) -> (OfflineOutcome, OnlineOutcome) {
    let sized = SizedLattice::compute(base, facet).unwrap();
    let workload = generate_workload(base, facet, &config.workload);
    let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));
    let mut expanded = base.clone();
    let offline = run_offline(&mut expanded, &sized, &profile, kind, config).unwrap();
    let engine = Engine::builder()
        .dataset(expanded)
        .facet(facet.clone())
        .catalog(offline.view_catalog())
        .build()
        .unwrap();
    let online = measure_workload(&engine, &workload, 1, base).unwrap();
    (offline, online)
}

#[test]
fn empty_dataset_full_pipeline() {
    // A facet over an empty graph: lattice sizes to zero-row views, the
    // engine still selects, materializes (empty graphs) and answers.
    let ds = Dataset::new();
    let facet = one_dim_facet();
    let sized = SizedLattice::compute(&ds, &facet).unwrap();
    assert_eq!(
        sized.stats[&ViewMask::APEX].rows,
        1,
        "apex aggregates zero rows"
    );
    assert_eq!(sized.stats[&ViewMask::full(1)].rows, 0);

    let profile = WorkloadProfile::uniform(&sized.lattice);
    let config = EngineConfig {
        budget: Budget::Views(2),
        ..EngineConfig::default()
    };
    let mut expanded = ds.clone();
    let offline = run_offline(
        &mut expanded,
        &sized,
        &profile,
        CostModelKind::Triples,
        &config,
    )
    .unwrap();
    assert_eq!(offline.materialized.len(), 2);

    // Serve a minimal workload: the apex query.
    let engine = Engine::builder()
        .dataset(expanded)
        .facet(facet.clone())
        .catalog(offline.view_catalog())
        .build()
        .unwrap();
    let query = sofos_cube::facet_query(&facet, ViewMask::APEX, AggOp::Sum, vec![]);
    let answer = engine.query(&query).unwrap();
    assert!(matches!(answer.route, Route::View(_)), "a view answers");
    let base = Evaluator::new(&ds).evaluate(&query).unwrap();
    assert!(results_equivalent(&answer.results, &base));
    assert_eq!(answer.results.len(), 1, "SUM over empty = one 0 row");
}

#[test]
fn single_observation_dataset() {
    let mut ds = Dataset::new();
    ds.insert(
        None,
        &Term::blank("o"),
        &Term::iri("http://e/d"),
        &Term::iri("http://e/v1"),
    );
    ds.insert(
        None,
        &Term::blank("o"),
        &Term::iri("http://e/m"),
        &Term::literal_int(5),
    );
    let mut config = EngineConfig {
        budget: Budget::Views(2),
        ..EngineConfig::default()
    };
    config.workload.num_queries = 4;
    let (_, online) = offline_then_online(&ds, &one_dim_facet(), CostModelKind::AggValues, &config);
    assert!(online.all_valid);
}

#[test]
fn selections_are_deterministic_across_runs() {
    let g = dbpedia::generate(&dbpedia::Config {
        countries: 8,
        years: 2,
        ..dbpedia::Config::default()
    });
    let facet = g.facets[0].clone();
    let config = EngineConfig::default();
    let workload = generate_workload(
        &g.dataset,
        &facet,
        &WorkloadConfig {
            num_queries: 10,
            ..WorkloadConfig::default()
        },
    );
    let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));

    for kind in [
        CostModelKind::Random,
        CostModelKind::Triples,
        CostModelKind::Nodes,
    ] {
        let sized = SizedLattice::compute(&g.dataset, &facet).unwrap();
        let mut ds1 = g.dataset.clone();
        let a = run_offline(&mut ds1, &sized, &profile, kind, &config).unwrap();
        let mut ds2 = g.dataset.clone();
        let b = run_offline(&mut ds2, &sized, &profile, kind, &config).unwrap();
        assert_eq!(
            a.selection.selected, b.selection.selected,
            "{kind}: selection must be deterministic"
        );
    }
}

#[test]
fn zero_budget_means_base_graph_only() {
    let g = dbpedia::generate(&dbpedia::Config {
        countries: 6,
        years: 2,
        ..dbpedia::Config::default()
    });
    let mut config = EngineConfig {
        budget: Budget::Views(0),
        ..EngineConfig::default()
    };
    config.workload.num_queries = 5;
    let (offline, online) = offline_then_online(
        &g.dataset,
        g.default_facet(),
        CostModelKind::Triples,
        &config,
    );
    assert!(offline.materialized.is_empty());
    assert_eq!(offline.storage_amplification(), 1.0);
    assert_eq!(online.view_hits, 0);
    assert_eq!(online.fallbacks, config.workload.num_queries);
}

#[test]
fn report_rendering_is_stable_under_rerun() {
    let g = dbpedia::generate(&dbpedia::Config {
        countries: 6,
        years: 2,
        ..dbpedia::Config::default()
    });
    let mut config = EngineConfig::default();
    config.workload.num_queries = 5;
    config.timing_reps = 1;
    let compare = || {
        compare_cost_models(
            g.name,
            &g.dataset,
            g.default_facet(),
            &[CostModelKind::Triples],
            &config,
        )
        .unwrap()
    };
    let (a, b) = (compare(), compare());
    // Timings differ; structure and selections must not.
    assert_eq!(a.models[0].selected_views, b.models[0].selected_views);
    assert_eq!(a.models[0].view_hits, b.models[0].view_hits);
    assert_eq!(
        a.models[0].storage_amplification,
        b.models[0].storage_amplification
    );
}
