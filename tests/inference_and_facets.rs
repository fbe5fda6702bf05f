//! Integration tests for the RDFS-entailment substrate and multi-facet
//! catalogs: facets defined over *inferred* types must work after the
//! closure is materialized (the paper's "entailment … further complicate[s]
//! the direct adoption" point, made concrete).

use sofos::core::{compare_cost_models, results_equivalent, Engine, EngineConfig, Route};
use sofos::cost::CostModelKind;
use sofos::cube::{AggOp, Dimension, Facet, Lattice, ViewMask};
use sofos::materialize::materialize_view;
use sofos::sparql::{Evaluator, GroupPattern, PatternTerm, TriplePattern};
use sofos::workload::lubm;

const NS: &str = "http://sofos.example/lubm/";

#[test]
fn closure_makes_professor_queries_complete() {
    let generated = lubm::generate(&lubm::Config::default());
    let mut ds = generated.dataset.clone();

    let evaluator_query = format!("SELECT ?p WHERE {{ ?p a <{NS}Professor> }}");
    let before = Evaluator::new(&ds).evaluate_str(&evaluator_query).unwrap();
    assert_eq!(before.len(), 0, "professors are typed by rank only");

    let stats = ds.materialize_rdfs();
    assert!(stats.inferred > 0);

    let after = Evaluator::new(&ds).evaluate_str(&evaluator_query).unwrap();
    let ranks = Evaluator::new(&ds)
        .evaluate_str(&format!(
            "SELECT ?p WHERE {{ \
               {{ ?p a <{NS}FullProfessor> }} UNION {{ ?p a <{NS}AssociateProfessor> }} \
               UNION {{ ?p a <{NS}AssistantProfessor> }} }}"
        ))
        .unwrap();
    assert_eq!(after.len(), ranks.len(), "closure covers every rank");
    assert!(after.len() > 3);
}

#[test]
fn facet_over_inferred_types_round_trips_through_views() {
    // Facet over `?prof a Professor` — empty without the closure, populated
    // with it; views must stay exact either way.
    let generated = lubm::generate(&lubm::Config::default());
    let mut ds = generated.dataset.clone();
    ds.materialize_rdfs();

    let pattern = GroupPattern::triples(vec![
        TriplePattern::new(
            PatternTerm::var("prof"),
            PatternTerm::iri(sofos_rdf::vocab::rdf::TYPE),
            PatternTerm::iri(format!("{NS}Professor")),
        ),
        TriplePattern::new(
            PatternTerm::var("pub"),
            PatternTerm::iri(format!("{NS}author")),
            PatternTerm::var("prof"),
        ),
        TriplePattern::new(
            PatternTerm::var("prof"),
            PatternTerm::iri(format!("{NS}worksFor")),
            PatternTerm::var("dept"),
        ),
        TriplePattern::new(
            PatternTerm::var("pub"),
            PatternTerm::iri(format!("{NS}pages")),
            PatternTerm::var("pages"),
        ),
    ]);
    let facet = Facet::new(
        "profpubs",
        vec![Dimension::new("prof"), Dimension::new("dept")],
        pattern,
        "pages",
        AggOp::Sum,
    )
    .unwrap();

    let lattice = Lattice::new(facet.clone());
    let mut catalog = Vec::new();
    for mask in lattice.views() {
        let view = materialize_view(&mut ds, &facet, mask).unwrap();
        catalog.push((mask, view.stats.rows));
    }
    let engine = Engine::builder()
        .dataset(ds.clone())
        .facet(facet.clone())
        .catalog(catalog)
        .build()
        .unwrap();
    let evaluator = Evaluator::new(&ds);
    for mask in lattice.views() {
        let query = sofos::cube::facet_query(&facet, mask, AggOp::Sum, vec![]);
        let answer = engine.query(&query).unwrap();
        let Route::View(routed) = answer.route else {
            panic!("mask {mask}: the full lattice covers every query");
        };
        assert!(routed.covers(mask));
        let from_base = evaluator.evaluate(&query).unwrap();
        assert!(
            results_equivalent(&answer.results, &from_base),
            "mask {mask}"
        );
        assert!(!from_base.is_empty(), "inferred facet has data");
    }
}

#[test]
fn second_facet_runs_the_full_engine() {
    let generated = lubm::generate(&lubm::Config::default());
    assert_eq!(generated.facets.len(), 2, "lubm ships two facets");
    let count_facet = generated.facets[1].clone();
    assert_eq!(count_facet.id, "pubcount");
    assert_eq!(count_facet.agg, AggOp::Count);

    let mut config = EngineConfig::default();
    config.workload.num_queries = 10;
    config.timing_reps = 1;
    config.budget = sofos::select::Budget::Views(2);
    let report = compare_cost_models(
        generated.name,
        &generated.dataset,
        &count_facet,
        &[CostModelKind::Triples, CostModelKind::AggValues],
        &config,
    )
    .unwrap();
    for row in &report.models {
        assert!(row.all_valid, "{}", row.model);
        assert_eq!(row.selected_views.len(), 2);
    }
}

#[test]
fn closure_then_facet_sizes_grow_monotonically() {
    // The closure only adds triples: every view of the rank-agnostic facet
    // must have at least as many rows after inference as before.
    let generated = lubm::generate(&lubm::Config::default());
    let facet = generated.default_facet().clone();
    let lattice = Lattice::new(facet.clone());

    let mut closed = generated.dataset.clone();
    closed.materialize_rdfs();

    for mask in [ViewMask::APEX, lattice.base()] {
        let plain =
            sofos::materialize::virtual_view_stats(&generated.dataset, &facet, mask).unwrap();
        let inferred = sofos::materialize::virtual_view_stats(&closed, &facet, mask).unwrap();
        assert!(inferred.rows >= plain.rows, "mask {mask}");
    }
}
