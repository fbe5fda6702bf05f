//! Cross-crate integration tests: the full SOFOS pipeline on each demo
//! dataset, plus the golden invariant — *view answers equal base answers* —
//! exercised across every lattice view, aggregate, and dataset.

use sofos::core::{
    compare_cost_models, measure_workload, results_equivalent, run_offline, Engine, EngineConfig,
    OfflineOutcome, SizedLattice, WorkloadProfile,
};
use sofos::cost::CostModelKind;
use sofos::cube::{facet_query, Lattice};
use sofos::materialize::materialize_view;
use sofos::rewrite::{analyze_query, best_view, rewrite_query};
use sofos::sparql::Evaluator;
use sofos::store::Dataset;
use sofos::workload::{
    dbpedia, derivable_aggs, generate_workload, lubm, swdf, GeneratedDataset, WorkloadConfig,
};

fn small_datasets() -> Vec<GeneratedDataset> {
    vec![
        dbpedia::generate(&dbpedia::Config {
            countries: 8,
            years: 2,
            languages: 6,
            ..dbpedia::Config::default()
        }),
        lubm::generate(&lubm::Config {
            universities: 2,
            max_departments: 3,
            ..lubm::Config::default()
        }),
        swdf::generate(&swdf::Config {
            conferences: 2,
            editions: 3,
            ..swdf::Config::default()
        }),
    ]
}

/// The offline phase on a copy of the base graph, profiled on the
/// configured workload: returns `G+` and the outcome.
fn offline(
    generated: &GeneratedDataset,
    kind: CostModelKind,
    config: &EngineConfig,
) -> (Dataset, OfflineOutcome) {
    let facet = generated.default_facet();
    let sized = SizedLattice::compute(&generated.dataset, facet).unwrap();
    let workload = generate_workload(&generated.dataset, facet, &config.workload);
    let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));
    let mut expanded = generated.dataset.clone();
    let outcome = run_offline(&mut expanded, &sized, &profile, kind, config).unwrap();
    (expanded, outcome)
}

/// The golden invariant of the whole system: for every dataset, every view
/// in the lattice, and every derivable aggregate, a query rewritten against
/// the materialized view returns exactly the base-graph answer.
#[test]
fn rewritten_answers_equal_base_answers_everywhere() {
    for generated in small_datasets() {
        let facet = generated.default_facet().clone();
        let lattice = Lattice::new(facet.clone());
        let mut expanded = generated.dataset.clone();

        // Materialize the full lattice.
        let mut catalog = Vec::new();
        for mask in lattice.views() {
            let view = materialize_view(&mut expanded, &facet, mask).unwrap();
            catalog.push((mask, view.stats.rows));
        }

        let evaluator = Evaluator::new(&expanded);
        for group_mask in lattice.views() {
            for agg in derivable_aggs(&facet) {
                let query = facet_query(&facet, group_mask, agg, vec![]);
                let analysis = analyze_query(&facet, &query)
                    .unwrap_or_else(|e| panic!("{}: {e}", generated.name));
                // Answer from every covering view, not just the best one.
                for view in lattice.covering_views(analysis.required) {
                    let rewritten = rewrite_query(&facet, &analysis, view);
                    let from_view = evaluator.evaluate(&rewritten).unwrap();
                    let from_base = evaluator.evaluate(&query).unwrap();
                    assert!(
                        results_equivalent(&from_view, &from_base),
                        "{}: view {view} answers query over {group_mask} with {agg} wrongly\n\
                         view rows: {}, base rows: {}",
                        generated.name,
                        from_view.len(),
                        from_base.len(),
                    );
                }
                // And the routed best view agrees too.
                let best = best_view(&catalog, analysis.required).expect("full lattice covers");
                assert!(best.covers(analysis.required));
            }
        }
    }
}

/// Filtered queries must also be answered exactly from views.
#[test]
fn filtered_queries_validate_on_all_datasets() {
    for generated in small_datasets() {
        let mut config = EngineConfig {
            workload: WorkloadConfig {
                num_queries: 15,
                filter_probability: 0.8,
                ..WorkloadConfig::default()
            },
            ..EngineConfig::default()
        };
        config.timing_reps = 1;
        let report = compare_cost_models(
            generated.name,
            &generated.dataset,
            generated.default_facet(),
            &[CostModelKind::Triples, CostModelKind::AggValues],
            &config,
        )
        .unwrap();
        for row in &report.models {
            assert!(
                row.all_valid,
                "{} on {}: some view answers were wrong",
                row.model, generated.name
            );
            assert!(
                row.view_hits > 0,
                "{}: no queries hit views",
                generated.name
            );
        }
    }
}

/// The full six-model comparison runs end to end on the DBpedia-like data
/// (the demo's main station) and produces coherent numbers.
#[test]
fn six_model_comparison_is_coherent() {
    let generated = dbpedia::generate(&dbpedia::Config {
        countries: 10,
        years: 2,
        ..dbpedia::Config::default()
    });
    let mut config = EngineConfig::default();
    config.workload.num_queries = 12;
    config.timing_reps = 1;
    config.train.epochs = 25;
    let report = compare_cost_models(
        generated.name,
        &generated.dataset,
        generated.default_facet(),
        &CostModelKind::ALL,
        &config,
    )
    .unwrap();

    assert_eq!(report.models.len(), 6);
    for row in &report.models {
        assert_eq!(row.selected_views.len(), 4, "{}", row.model);
        assert!(row.all_valid, "{}", row.model);
        assert!(row.storage_amplification >= 1.0);
        assert!(row.view_hits + row.fallbacks == report.queries);
    }
    // The table renders every model plus the baseline.
    let table = report.to_table();
    assert!(table.contains("(no views)"));
    for kind in CostModelKind::ALL {
        assert!(table.contains(kind.name()), "missing {kind}");
    }
}

/// Offline → online: the offline phase expands G into G+ in place, and an
/// engine over G+ answers the workload exactly.
#[test]
fn engine_expands_in_place() {
    let generated = swdf::generate(&swdf::Config::default());
    let before = generated.dataset.total_triples();
    let mut config = EngineConfig::default();
    config.workload.num_queries = 8;
    config.timing_reps = 1;
    let (expanded, offline) = offline(&generated, CostModelKind::Nodes, &config);
    assert!(expanded.total_triples() > before, "G+ grew");
    assert_eq!(
        expanded.graph_names().len(),
        offline.materialized.len(),
        "one named graph per view"
    );

    let facet = generated.default_facet();
    let workload = generate_workload(&generated.dataset, facet, &config.workload);
    let engine = Engine::builder()
        .dataset(expanded)
        .facet(facet.clone())
        .catalog(offline.view_catalog())
        .build()
        .unwrap();
    let online = measure_workload(&engine, &workload, 1, &generated.dataset).unwrap();
    assert!(online.all_valid);
}

/// Byte-budget selection materializes within the budget.
#[test]
fn byte_budget_end_to_end() {
    let generated = dbpedia::generate(&dbpedia::Config {
        countries: 8,
        years: 2,
        ..dbpedia::Config::default()
    });
    let mut config = EngineConfig {
        timing_reps: 1,
        ..EngineConfig::default()
    };
    config.workload.num_queries = 6;
    // Budget: roughly enough for a few small views.
    config.budget = sofos::select::Budget::Bytes(4096);
    let (_, offline) = offline(&generated, CostModelKind::AggValues, &config);
    let bytes: usize = offline.materialized.iter().map(|v| v.stats.bytes).sum();
    assert!(bytes <= 4096, "materialized {bytes} bytes > budget");
    assert!(!offline.materialized.is_empty(), "something fit the budget");
}

/// N-Triples export/import round-trips a generated dataset.
#[test]
fn generated_data_round_trips_through_ntriples() {
    let generated = swdf::generate(&swdf::Config {
        conferences: 1,
        editions: 2,
        max_papers_per_track: 3,
        ..swdf::Config::default()
    });
    // Export the default graph as N-Triples.
    let mut graph = sofos::rdf::Graph::new();
    let ds = &generated.dataset;
    for [s, p, o] in ds.default_graph().iter() {
        graph.insert(sofos::rdf::Triple::new_unchecked(
            ds.term(s).clone(),
            ds.term(p).clone(),
            ds.term(o).clone(),
        ));
    }
    let text = sofos::rdf::write_ntriples(&graph);
    let parsed = sofos::rdf::parse_ntriples(&text).unwrap();
    assert_eq!(parsed.len(), ds.default_graph().len());

    // Reload into a fresh dataset and check a count query agrees.
    let mut ds2 = sofos::store::Dataset::new();
    ds2.load(None, &parsed);
    let q = "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }";
    let n1 = Evaluator::new(ds).evaluate_str(q).unwrap();
    let n2 = Evaluator::new(&ds2).evaluate_str(q).unwrap();
    assert!(results_equivalent(&n1, &n2));
}

/// ViewMask masks reported by analysis match the query structure
/// (integration between workload generation and the rewriter).
#[test]
fn workload_analysis_agrees_with_generator_metadata() {
    let generated = dbpedia::generate(&dbpedia::Config::default());
    let facet = generated.default_facet();
    let workload = generate_workload(
        &generated.dataset,
        facet,
        &WorkloadConfig {
            num_queries: 25,
            filter_probability: 0.5,
            ..Default::default()
        },
    );
    for q in &workload {
        let analysis = analyze_query(facet, &q.query).expect("generated queries analyzable");
        assert_eq!(analysis.group_mask, q.group_mask, "{}", q.text);
        assert_eq!(analysis.required, q.required, "{}", q.text);
        assert_eq!(analysis.agg, q.agg);
    }
}

/// Exhaustive oracle beats or matches greedy on a real (small) instance.
#[test]
fn oracle_versus_greedy_on_real_data() {
    let generated = swdf::generate(&swdf::Config::default());
    let sized = SizedLattice::compute(&generated.dataset, generated.default_facet()).unwrap();
    let ctx = sized.context();
    let profile = sofos::select::WorkloadProfile::uniform(&sized.lattice);
    let objective = sofos::select::Objective::query_only(&sofos::cost::AggValuesCost);
    for k in 1..=3 {
        let greedy = sofos::select::greedy_select(
            &ctx,
            &sized.lattice,
            &objective,
            &profile,
            sofos::select::Budget::Views(k),
        );
        let oracle = sofos::select::exhaustive_select(
            &ctx,
            &sized.lattice,
            &objective,
            &profile,
            k,
            1_000_000,
        )
        .expect("small lattice fits the exhaustive caps");
        assert!(
            oracle.estimated_cost <= greedy.estimated_cost + 1e-9,
            "k={k}"
        );
        // Greedy should be close (within the classic (1 - 1/e) regime it is
        // much closer in practice on these lattices).
        assert!(
            greedy.estimated_cost <= oracle.estimated_cost * 2.0,
            "k={k}: greedy {:.1} vs oracle {:.1}",
            greedy.estimated_cost,
            oracle.estimated_cost
        );
    }
}

/// The one front door, end to end: offline selection hands its catalog to
/// an `Engine`, which serves interleaved updates and queries within the
/// bounded lag budget and answers exactly once drained.
#[test]
fn engine_front_door_serves_bounded_updates_and_queries() {
    use sofos::core::StalenessPolicy;
    use sofos::rdf::Term;
    use sofos::store::Delta;

    let generated = sofos::workload::synthetic::generate(&sofos::workload::synthetic::Config {
        observations: 100,
        ..sofos::workload::synthetic::Config::default()
    });
    let facet = generated.default_facet().clone();
    let mut config = EngineConfig::default();
    config.workload.num_queries = 8;
    config.timing_reps = 1;
    let (expanded, offline) = offline(&generated, CostModelKind::AggValues, &config);
    let workload = generate_workload(&generated.dataset, &facet, &config.workload);

    let delta = |batch: usize| {
        use sofos::workload::synthetic::NS;
        let mut delta = Delta::new();
        let node = Term::blank(format!("e2e{batch}"));
        for d in 0..3usize {
            delta.insert(
                node.clone(),
                Term::iri(format!("{NS}dim{d}")),
                Term::iri(format!("{NS}v{d}_{}", batch % 3)),
            );
        }
        delta.insert(
            node,
            Term::iri(format!("{NS}measure")),
            Term::literal_int(7 + batch as i64),
        );
        delta
    };

    let engine = Engine::builder()
        .dataset(expanded)
        .facet(facet)
        .catalog(offline.view_catalog())
        .staleness(StalenessPolicy::bounded(2, 1))
        .build()
        .unwrap();
    for batch in 0..4 {
        engine.update(delta(batch)).unwrap();
        let q = &workload[batch % workload.len()];
        let answer = engine.query(&q.query).unwrap();
        assert!(answer.freshness.lag <= 1, "bounded lag budget enforced");
    }
    engine.flush().unwrap();
    let snapshot = engine.snapshot();
    let reference = Evaluator::new(&snapshot);
    for q in &workload {
        let answer = engine.query(&q.query).unwrap();
        let base = reference.evaluate(&q.query).unwrap();
        assert!(
            results_equivalent(&answer.results, &base),
            "drained engine answers exactly for {}",
            q.text
        );
    }
    assert_eq!(engine.update_batches(), 4);
}
