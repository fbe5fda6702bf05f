//! A guided tour of the SOFOS architecture (the paper's Figure 2), one
//! subsystem at a time, on a small synthetic cube:
//!
//! 1. build a knowledge graph `G` (store)
//! 2. define the analytical facet `F = ⟨X̄, P, agg(u)⟩` (cube)
//! 3. enumerate and size the view lattice `V(F)` (cube + materialize)
//! 4. price views under two cost models (cost)
//! 5. select `k` views with the HRU greedy (select)
//! 6. materialize them into `G+` (materialize)
//! 7. serve the query through the one front door (core::Engine), rewritten
//!    against the best view (rewrite + sparql)
//! 8. keep serving while the graph lives: updates flow through the same
//!    engine under a staleness policy, answers carry freshness tags
//!
//! Run with: `cargo run --example architecture_tour`

use sofos::core::{Engine, Route, StalenessPolicy};
use sofos::cost::{AggValuesCost, CostContext, CostModel, TriplesCost};
use sofos::cube::{facet_query, AggOp, Lattice, ViewMask};
use sofos::materialize::materialize_views;
use sofos::select::{greedy_select, Budget, WorkloadProfile};
use sofos::sparql::{query_to_sparql, Evaluator};
use sofos::store::{Delta, GraphStats};
use sofos::workload::synthetic;

fn main() {
    // 1. The knowledge graph G.
    let generated = synthetic::generate(&synthetic::Config {
        observations: 120,
        cardinalities: vec![6, 4, 3],
        skew: 1.0,
        agg: AggOp::Sum,
        seed: 42,
    });
    let facet = generated.default_facet().clone();
    println!(
        "① store      G has {} triples ({})",
        generated.dataset.total_triples(),
        generated.description
    );

    // 2. The facet F.
    println!(
        "② cube       facet `{}`: dims {:?}, measure ?{}, agg {}",
        facet.id,
        facet
            .dimensions
            .iter()
            .map(|d| d.var.as_str())
            .collect::<Vec<_>>(),
        facet.measure,
        facet.agg
    );

    // 3. The lattice V(F), sized virtually.
    let lattice = Lattice::new(facet.clone());
    let sized = sofos::cost::size_lattice(&generated.dataset, &lattice).unwrap();
    println!(
        "③ lattice    {} views, {} cover edges; base view {} rows, apex 1 row",
        lattice.num_views(),
        lattice.num_edges(),
        sized[&lattice.base()].rows
    );

    // 4. Cost models price the views.
    let base_stats = GraphStats::compute(generated.dataset.default_graph());
    let ctx = CostContext {
        facet: &facet,
        view_stats: &sized,
        base: &base_stats,
    };
    let sample = ViewMask::from_dims(&[0, 1]);
    println!(
        "④ cost       C({}) — triples: {}, agg-values: {}",
        lattice.view_name(sample),
        TriplesCost.cost(&ctx, sample),
        AggValuesCost.cost(&ctx, sample),
    );

    // 5. Greedy selection under a budget of 3.
    let profile = WorkloadProfile::uniform(&lattice);
    let outcome = greedy_select(&ctx, &lattice, &AggValuesCost, &profile, Budget::Views(3));
    let names: Vec<String> = outcome
        .selected
        .iter()
        .map(|&v| lattice.view_name(v))
        .collect();
    println!(
        "⑤ select     k=3 → {} (estimated speedup {:.1}x)",
        names.join(", "),
        outcome.estimated_speedup()
    );

    // 6. Materialization into G+.
    let mut expanded = generated.dataset.clone();
    let views = materialize_views(&mut expanded, &facet, &outcome.selected).unwrap();
    let catalog: Vec<(ViewMask, usize)> =
        views.iter().map(|v| (v.stats.mask, v.stats.rows)).collect();
    println!(
        "⑥ material.  G+ now has {} graphs, {} triples total",
        expanded.graph_names().len() + 1,
        expanded.total_triples()
    );

    // 7. Online: one front door. The engine routes through the rewriter
    //    and serves from the best covering view; readers pin epoch
    //    snapshots, so the same engine also serves concurrent clients.
    let engine = Engine::builder()
        .dataset(expanded)
        .facet(facet.clone())
        .catalog(catalog)
        .staleness(StalenessPolicy::Eager)
        .build()
        .unwrap();
    let query = facet_query(&facet, ViewMask::from_dims(&[0]), AggOp::Sum, vec![]);
    println!("⑦ engine     Q : {}", query_to_sparql(&query));
    let answer = engine.query(&query).unwrap();
    let routed = match answer.route {
        Route::View(mask) => lattice.view_name(mask),
        Route::BaseGraph => "base graph".into(),
    };
    let snapshot = engine.snapshot();
    let from_base = Evaluator::new(&snapshot).evaluate(&query).unwrap();
    assert!(sofos::core::results_equivalent(&answer.results, &from_base));
    println!(
        "             answered from {routed}: {} rows — identical to the base-graph answer ✓",
        answer.results.len()
    );

    // 8. The graph lives: updates flow through the same engine, the
    //    eager policy repairs the views inside the call, and every
    //    answer carries a freshness tag.
    let mut delta = Delta::new();
    let ns = sofos::workload::synthetic::NS;
    let obs = sofos_rdf::Term::blank("tour_obs");
    for d in 0..facet.dim_count() {
        delta.insert(
            obs.clone(),
            sofos_rdf::Term::iri(format!("{ns}dim{d}")),
            sofos_rdf::Term::iri(format!("{ns}v{d}_0")),
        );
    }
    delta.insert(
        obs,
        sofos_rdf::Term::iri(format!("{ns}measure")),
        sofos_rdf::Term::literal_int(5),
    );
    engine.update(delta).unwrap();
    let answer = engine.query(&query).unwrap();
    println!(
        "⑧ maintain   after 1 update batch: {} stale views, answer {} ({} rows)",
        engine.stale_views(),
        answer.freshness,
        answer.results.len()
    );
}
