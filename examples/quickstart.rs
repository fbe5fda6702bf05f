//! Quickstart: the paper's Figure 1 knowledge graph, one materialized view,
//! the two motivating queries of Example 1.1 — and the whole thing served
//! live through the one front door, `sofos::core::Engine`.
//!
//! Run with: `cargo run --example quickstart [--smoke]`
//! (`--smoke` is accepted for CI parity; the example is already tiny.)

use sofos::core::{Backend, Engine, Route, StalenessPolicy};
use sofos::cube::{AggOp, Dimension, Facet, ViewMask};
use sofos::materialize::materialize_view;
use sofos::sparql::{parse_query, Evaluator};
use sofos::store::{Dataset, Delta};
use sofos_rdf::{Literal, Term};

const NS: &str = "http://sofos.example/";

fn iri(local: &str) -> Term {
    Term::iri(format!("{NS}{local}"))
}

fn main() {
    let _smoke = std::env::args().any(|a| a == "--smoke");

    // --- Build the Figure 1 graph -----------------------------------------
    let mut ds = Dataset::new();
    let name = iri("name");
    let part_of = iri("partOf");
    let country_p = iri("country");
    let language_p = iri("language");
    let population_p = iri("population");
    let year_p = iri("year");

    let eu = iri("EU");
    ds.insert(None, &eu, &name, &Term::literal_str("EU"));

    let rows = [
        ("France", "French", 67, 2019, true),
        ("Germany", "German", 82, 2019, true),
        ("Italy", "Italian", 60, 2019, true),
        ("Canada", "English", 21, 2019, false),
        ("Canada", "French", 8, 2019, false),
    ];
    for (i, (country, lang, pop, year, in_eu)) in rows.iter().enumerate() {
        let c = iri(country);
        ds.insert(None, &c, &name, &Term::literal_str(*country));
        if *in_eu {
            ds.insert(None, &c, &part_of, &eu);
        }
        let obs = Term::blank(format!("obs{i}"));
        ds.insert(None, &obs, &country_p, &c);
        ds.insert(None, &obs, &language_p, &Term::literal_str(*lang));
        ds.insert(None, &obs, &population_p, &Term::literal_int(*pop));
        ds.insert(None, &obs, &year_p, &Term::Literal(Literal::year(*year)));
    }
    println!(
        "Loaded the Figure 1 graph: {} triples\n",
        ds.default_graph().len()
    );

    // --- Define the analytical facet F = ⟨X̄, P, agg(u)⟩ -------------------
    let pattern = sofos::sparql::GroupPattern::triples(vec![
        sofos::sparql::TriplePattern::new(
            sofos::sparql::PatternTerm::var("obs"),
            sofos::sparql::PatternTerm::iri(format!("{NS}country")),
            sofos::sparql::PatternTerm::var("country"),
        ),
        sofos::sparql::TriplePattern::new(
            sofos::sparql::PatternTerm::var("obs"),
            sofos::sparql::PatternTerm::iri(format!("{NS}language")),
            sofos::sparql::PatternTerm::var("language"),
        ),
        sofos::sparql::TriplePattern::new(
            sofos::sparql::PatternTerm::var("obs"),
            sofos::sparql::PatternTerm::iri(format!("{NS}population")),
            sofos::sparql::PatternTerm::var("pop"),
        ),
    ]);
    let facet = Facet::new(
        "population",
        vec![Dimension::new("country"), Dimension::new("language")],
        pattern,
        "pop",
        AggOp::Sum,
    )
    .expect("valid facet");

    // --- Materialize the {language} view into G+ ---------------------------
    let mask = ViewMask::from_dims(&[1]);
    let view = materialize_view(&mut ds, &facet, mask).expect("materializes");
    println!(
        "Materialized view {{language}}: {} rows, {} triples, in graph <{}>\n",
        view.stats.rows, view.stats.triples, view.graph_iri
    );

    // --- One front door: serve G+ through the Engine -----------------------
    // The same builder serves a single-threaded demo (Backend::Serial) or
    // concurrent readers over epoch snapshots (Backend::Epoch { .. }) —
    // flip one knob. Bounded staleness is one more knob away:
    // `.staleness(StalenessPolicy::bounded_ms(4, 2, 100))`.
    let engine = Engine::builder()
        .dataset(ds)
        .facet(facet)
        .catalog(vec![(mask, view.stats.rows)])
        .staleness(StalenessPolicy::Eager)
        .backend(Backend::Serial)
        .build()
        .expect("engine builds");

    // --- Example 1.1, answered from the view -------------------------------
    let q = parse_query(&format!(
        "SELECT ?language (SUM(?pop) AS ?value) WHERE {{ \
           ?obs <{NS}country> ?country . \
           ?obs <{NS}language> ?language . \
           ?obs <{NS}population> ?pop }} \
         GROUP BY ?language ORDER BY DESC(?value)"
    ))
    .expect("parses");

    let answer = engine.query(&q).expect("engine answers");
    match answer.route {
        Route::View(routed) => println!(
            "Query routed to view {routed} ({}); population by language:\n{}",
            answer.freshness, answer.results
        ),
        Route::BaseGraph => println!(
            "(fell back to base graph)\nPopulation by language:\n{}",
            answer.results
        ),
    }

    // --- A live update: France revises its census --------------------------
    // Engine::update maintains the materialized view incrementally (the
    // eager policy repairs inside the update call), so the next answer is
    // both fresh AND still served from the view.
    let mut delta = Delta::new();
    let obs = Term::blank("obs_fr_2020");
    delta.insert(obs.clone(), iri("country"), iri("France"));
    delta.insert(obs.clone(), iri("language"), Term::literal_str("French"));
    delta.insert(obs, iri("population"), Term::literal_int(1));
    engine.update(delta).expect("update applies");
    println!(
        "After a +1 France update ({} update batch, {} stale views):",
        engine.update_batches(),
        engine.stale_views()
    );
    let answer = engine.query(&q).expect("engine answers");
    println!("{}", answer.results);

    // The engine's answers always match a from-scratch base evaluation.
    let snapshot = engine.snapshot();
    let reference = Evaluator::new(&snapshot).evaluate(&q).expect("evaluates");
    assert!(sofos::core::results_equivalent(&answer.results, &reference));
    println!(
        "Identical to the base-graph answer ✓ (freshness: {})",
        answer.freshness
    );

    // Total French-speaking population, straight off the view graph.
    let total = Evaluator::new(&snapshot)
        .evaluate_str(&format!(
            "SELECT ?s WHERE {{ GRAPH <{graph}> {{ \
               ?o <http://sofos.ics.forth.gr/ns#dim1> \"French\" . \
               ?o <http://sofos.ics.forth.gr/ns#sum> ?s }} }}",
            graph = view.graph_iri
        ))
        .expect("evaluates");
    println!("Total French-speaking population (view lookup):\n{total}");
}
