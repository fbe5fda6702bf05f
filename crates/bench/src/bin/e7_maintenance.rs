//! E7 — view maintenance on a living `G+`.
//!
//! The sweep the paper could not run on a frozen store: interleave
//! zipf-skewed update batches with the query workload and measure, per
//! (cost model × staleness policy × update pressure) cell, what view
//! upkeep costs and what query benefit survives. Every view-answered
//! query is validated against the base graph, so the numbers are for
//! *correct* serving, not stale reads.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e7_maintenance [--smoke]`
//!
//! Emits `BENCH_maintenance.json` (see `sofos_bench::json`) next to the
//! table output.

use sofos_bench::Fmt::{Ms, Raw};
use sofos_bench::{sized, BenchReport, Cube, Demand, Json};
use sofos_core::{results_equivalent, StalenessPolicy};
use sofos_cost::CostModelKind;
use sofos_sparql::Evaluator;
use std::time::Instant;

fn main() {
    let rounds = sized(5usize, 2);
    let queries_per_round = sized(8usize, 4);
    let mut cube = Cube::new(sized(240, 100), 17, Demand::Queries(queries_per_round));

    let models = [
        CostModelKind::Triples,
        CostModelKind::AggValues,
        CostModelKind::Nodes,
    ];
    let batch_sizes: Vec<usize> = sized(vec![4, 16, 48], vec![4, 16]);
    // The `invalidate` cell is the no-maintenance baseline: it drops every
    // view before the first update and serves the base graph from then on.
    let cells = [
        ("eager", StalenessPolicy::Eager),
        ("lazy-on-hit", StalenessPolicy::LazyOnHit),
        ("invalidate", StalenessPolicy::Eager),
    ];

    let mut report = BenchReport::new(
        "maintenance",
        format!(
            "synthetic cube, {} rounds x {} queries, update batch sweep {:?}, \
             zipf-skewed 60/40 insert/delete mix",
            rounds, queries_per_round, batch_sizes
        ),
    )
    .table(
        "E7 · maintenance: cost model x staleness policy x update batch size",
        &[
            ("model", "model", Raw),
            ("policy", "policy", Raw),
            ("batch_size", "batch", Raw),
            ("update_us", "upd ms", Ms),
            ("maintenance_us", "maint ms", Ms),
            ("maintenance_triples", "maint triples", Raw),
            ("reevaluations", "re-evals", Raw),
            ("query_us", "query ms", Ms),
            ("view_hits", "hits", Raw),
            ("fallbacks", "falls", Raw),
            ("all_valid", "valid", Raw),
        ],
    );

    for model in models {
        cube.select(model);
        for (policy, staleness) in cells {
            for &batch_size in &batch_sizes {
                // Streams are deterministic per (seed, shape): every cell
                // of one batch size replays the same updates.
                let stream = cube.cycled_updates(batch_size, rounds, 23);
                let engine = cube.engine(staleness).build().expect("engine builds");

                let mut update_us = 0u64;
                if policy == "invalidate" {
                    let start = Instant::now();
                    engine.swap_views(&[]).expect("views drop");
                    update_us += start.elapsed().as_micros() as u64;
                }
                let mut query_us = 0u64;
                let mut all_valid = true;
                for delta in stream.iter().cloned() {
                    let start = Instant::now();
                    engine.update(delta).expect("update applies");
                    update_us += start.elapsed().as_micros() as u64;

                    // One snapshot per round for validation (cheap clone,
                    // but not per-query cheap) — outside the timers.
                    let snapshot = engine.snapshot();
                    let reference = Evaluator::new(&snapshot);
                    for q in &cube.workload {
                        let start = Instant::now();
                        let answer = engine.query(&q.query).expect("query runs");
                        query_us += start.elapsed().as_micros() as u64;
                        let base = reference.evaluate(&q.query).expect("base evaluation runs");
                        all_valid &= results_equivalent(&answer.results, &base);
                    }
                }
                let maintenance = engine.maintenance();
                let (hits, fallbacks) = engine.routing_counts();
                report.gate(
                    all_valid,
                    format!("{model}/{policy}/{batch_size}: stale or wrong answers"),
                );
                report.push(Json::object([
                    ("model", Json::from(model.name())),
                    ("policy", Json::from(policy)),
                    ("batch_size", Json::from(batch_size)),
                    ("rounds", Json::from(rounds)),
                    ("queries", Json::from(rounds * queries_per_round)),
                    ("update_us", Json::from(update_us)),
                    ("query_us", Json::from(query_us)),
                    ("maintenance_us", Json::from(maintenance.total_us)),
                    (
                        "maintenance_triples",
                        Json::from(maintenance.triples_touched()),
                    ),
                    ("reevaluations", Json::from(maintenance.reevaluations())),
                    ("maintenance_passes", Json::from(maintenance.per_view.len())),
                    ("view_hits", Json::from(hits)),
                    ("fallbacks", Json::from(fallbacks)),
                    ("stale_views_at_end", Json::from(engine.stale_views())),
                    ("all_valid", Json::from(all_valid)),
                ]));
            }
        }
    }

    report.finish(
        "Reading: maintenance runs inside updates under eager and inside the first\n\
         hit under lazy-on-hit, so 'maint ms' is part of 'upd ms' or 'query ms'.\n\
         invalidate drops every view before its first update ('upd ms' includes\n\
         the drop) and answers every query from the base graph.",
    );
}
