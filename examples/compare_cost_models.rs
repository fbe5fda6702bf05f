//! The demo's main station ("Exploring Cost Models", Figure 3 panel ④):
//! run all six cost models on the DBpedia-like dataset and print the
//! query-time / space-amplification comparison table.
//!
//! Run with: `cargo run --release --example compare_cost_models`

use sofos::core::{compare_cost_models, EngineConfig};
use sofos::cost::CostModelKind;
use sofos::workload::dbpedia;

fn main() {
    let generated = dbpedia::generate(&dbpedia::Config::default());
    println!(
        "dataset: {} — {} ({} triples)\n",
        generated.name,
        generated.description,
        generated.dataset.total_triples()
    );

    let facet = generated.default_facet();
    let mut config = EngineConfig::default();
    config.workload.num_queries = 40;
    config.workload.filter_probability = 0.4;
    config.timing_reps = 3;
    config.train.epochs = 120;

    let report = compare_cost_models(
        generated.name,
        &generated.dataset,
        facet,
        &CostModelKind::ALL,
        &config,
    )
    .expect("comparison runs");

    println!("{}", report.to_table());
    println!("Selected views per model:");
    for row in &report.models {
        println!("  {:<12} {}", row.model, row.selected_views.join(", "));
    }
    println!("\nCSV:\n{}", report.to_csv());

    // Every row above was already served through `Engine::query` over its
    // own G+; the fastest one is the model to hand to a live engine.
    let best = report
        .models
        .iter()
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .expect("at least one model");
    println!("\nBest model: `{}` ({:.2}x).", best.model, best.speedup);
}
