//! E7 — view maintenance on a living `G+`.
//!
//! The sweep the paper could not run on a frozen store: interleave
//! zipf-skewed update batches with the query workload and measure, per
//! (cost model × staleness policy × update pressure × backend) cell, what
//! view upkeep costs and what query benefit survives. Every view-answered
//! query is validated against the base graph, so the numbers are for
//! *correct* serving, not stale reads.
//!
//! Every cell runs on `Backend::Serial` and on `Backend::Epoch`; the
//! per-policy summary rows report epoch ÷ serial update and query walls — the gap ROADMAP's "One serving backend" item
//! must close before `engine/serial.rs` can go.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e7_maintenance [--smoke]`
//!
//! Emits `BENCH_maintenance.json` (see `sofos_bench::json`) next to the
//! table output.

use sofos_bench::Fmt::{Ms, Ratio, Raw};
use sofos_bench::{sized, BenchReport, Cube, Demand, Json};
use sofos_core::{results_equivalent, Backend, StalenessPolicy};
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
    let backends = [
        Backend::Serial,
        Backend::Epoch {
            shards: 1,
            threads: 1,
        },
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
        "E7 · maintenance: cost model x staleness policy x update batch size x backend",
        &[
            ("model", "model", Raw),
            ("policy", "policy", Raw),
            ("batch_size", "batch", Raw),
            ("backend", "backend", Raw),
            ("update_us", "upd ms", Ms),
            ("maintenance_us", "maint ms", Ms),
            ("maintenance_triples", "maint triples", Raw),
            ("reevaluations", "re-evals", Raw),
            ("query_us", "query ms", Ms),
            ("view_hits", "hits", Raw),
            ("fallbacks", "falls", Raw),
            ("all_valid", "valid", Raw),
            ("epoch_over_serial_update", "upd e/s", Ratio),
            ("epoch_over_serial_query", "query e/s", Ratio),
        ],
    );
    // Per policy: [serial, epoch] summed (update_us, query_us).
    let mut walls = [[(0u64, 0u64); 2]; StalenessPolicy::ALL.len()];

    for model in models {
        cube.select(model);
        for (policy_slot, policy) in StalenessPolicy::ALL.into_iter().enumerate() {
            for &batch_size in &batch_sizes {
                // Streams are deterministic per (seed, shape): every cell
                // of one batch size replays the same updates.
                let stream = cube.cycled_updates(batch_size, rounds, 23);
                for (slot, &backend) in backends.iter().enumerate() {
                    let engine = cube.engine(policy, backend).build().expect("engine builds");

                    let mut update_us = 0u64;
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
                        format!("{model}/{policy}/{batch_size}/{backend}: stale or wrong answers"),
                    );
                    report.push(Json::object([
                        ("model", Json::from(model.name())),
                        ("policy", Json::from(policy.name())),
                        ("batch_size", Json::from(batch_size)),
                        ("backend", Json::from(backend.to_string())),
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
                    walls[policy_slot][slot].0 += update_us;
                    walls[policy_slot][slot].1 += query_us;
                }
            }
        }
    }

    // ---- Summary: the epoch backend's price over the serial one ----
    for (policy, [serial, epoch]) in StalenessPolicy::ALL.iter().zip(walls) {
        report.push(Json::object([
            ("summary", Json::from(true)),
            ("policy", Json::from(policy.name())),
            (
                "epoch_over_serial_update",
                Json::from(epoch.0 as f64 / serial.0.max(1) as f64),
            ),
            (
                "epoch_over_serial_query",
                Json::from(epoch.1 as f64 / serial.1.max(1) as f64),
            ),
        ]));
    }

    report.finish(
        "Reading: maintenance runs inside updates under eager and inside the first\n\
         hit under lazy-on-hit, so 'maint ms' is part of 'upd ms' or 'query ms'.\n\
         'summary' rows divide the epoch backend's summed update and query walls\n\
         by the serial backend's, per policy, over every model and batch size.\n\
         Walls and ratios are volatile (bench_diff reports, never gates them).",
    );
}
