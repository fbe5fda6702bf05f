//! E1 — "Exploring Cost Models" (demo §4, Figure 3 panel ④).
//!
//! For each of the three demo datasets, compare all six cost models at a
//! fixed view budget on an identical 40-query workload: selection time,
//! materialization time, storage amplification, query latency, speedup.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e1_cost_models [--smoke]`
//!
//! Emits `BENCH_cost_models.json`.

use sofos_bench::Fmt::{Fixed, Ms, Ratio, Raw};
use sofos_bench::{sized, BenchReport, Json};
use sofos_core::{compare_cost_models, EngineConfig};
use sofos_cost::CostModelKind;
use sofos_workload::all_datasets;

fn main() {
    let mut config = EngineConfig::default();
    config.workload.num_queries = sized(40, 10);
    config.workload.filter_probability = 0.4;
    config.timing_reps = sized(3, 1);
    config.train.epochs = sized(120, 25);

    let mut report = BenchReport::new(
        "cost_models",
        format!(
            "all six cost models x demo datasets, {} queries, budget 4 views",
            config.workload.num_queries
        ),
    )
    .table(
        "E1 · cost models x demo datasets",
        &[
            ("dataset", "dataset", Raw),
            ("model", "model", Raw),
            ("selected_views", "views", Raw),
            ("training_us", "train ms", Ms),
            ("selection_us", "select ms", Ms),
            ("materialization_us", "mat ms", Ms),
            ("materialized_triples", "triples", Raw),
            ("storage_amplification", "space amp", Fixed(3)),
            ("view_hits", "hits", Raw),
            ("fallbacks", "falls", Raw),
            ("query_total_us", "total ms", Ms),
            ("query_p95_us", "p95 ms", Ms),
            ("speedup", "speedup", Ratio),
            ("all_valid", "valid", Raw),
        ],
    );

    for generated in all_datasets() {
        let facet = generated.default_facet();
        println!(
            "{} ({} triples, facet `{}`, {} dims):",
            generated.name,
            generated.dataset.total_triples(),
            facet.id,
            facet.dim_count()
        );
        let comparison = compare_cost_models(
            generated.name,
            &generated.dataset,
            facet,
            &CostModelKind::ALL,
            &config,
        )
        .expect("comparison runs");
        for row in &comparison.models {
            println!("  {:<12} -> {}", row.model, row.selected_views.join(", "));
            report.gate(
                row.all_valid,
                format!("{}/{}: invalid answers", generated.name, row.model),
            );
            report.push(Json::object([
                ("dataset", Json::from(generated.name)),
                ("model", Json::from(row.model.clone())),
                ("selected_views", Json::from(row.selected_views.len())),
                ("training_us", Json::from(row.training_us)),
                ("selection_us", Json::from(row.selection_us)),
                ("materialization_us", Json::from(row.materialization_us)),
                ("materialized_triples", Json::from(row.materialized_triples)),
                (
                    "storage_amplification",
                    Json::from(row.storage_amplification),
                ),
                ("view_hits", Json::from(row.view_hits)),
                ("fallbacks", Json::from(row.fallbacks)),
                ("query_total_us", Json::from(row.latency.total_us)),
                ("query_p95_us", Json::from(row.latency.p95_us)),
                ("speedup", Json::from(row.speedup)),
                ("all_valid", Json::from(row.all_valid)),
            ]));
        }
    }

    report.finish(
        "Reading: speedup is the workload's time without views over its time\n\
         with each model's views; every view-answered query equals the base graph.",
    );
}
