//! E7 — view maintenance on a living `G+`.
//!
//! The sweep the paper could not run on a frozen store: interleave
//! zipf-skewed update batches with the query workload and measure, per
//! (cost model × staleness policy × update pressure × backend) cell, what
//! view upkeep costs and what query benefit survives. Every view-answered
//! query is validated against the base graph, so the numbers are for
//! *correct* serving, not stale reads.
//!
//! Every cell runs on `Backend::Serial` and on `Backend::Epoch` at one
//! shard / one thread; the per-policy summary rows report epoch ÷ serial
//! update and query walls — the gap ROADMAP's "One serving backend" item
//! must close before `engine/serial.rs` can go.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e7_maintenance [--smoke]`
//!
//! Emits `BENCH_maintenance.json` (see `sofos_bench::json`) next to the
//! table output.

use sofos_bench::{finish_report, ms, print_table, ratio, sized, BenchReport, Json};
use sofos_core::{
    results_equivalent, run_offline, Backend, Engine, EngineConfig, SizedLattice, StalenessPolicy,
};
use sofos_cost::CostModelKind;
use sofos_cube::AggOp;
use sofos_select::WorkloadProfile;
use sofos_sparql::Evaluator;
use sofos_workload::{
    generate_update_stream, generate_workload, synthetic, UpdateStreamConfig, WorkloadConfig,
};
use std::time::Instant;

fn main() {
    let rounds = sized(5usize, 2);
    let queries_per_round = sized(8usize, 4);
    let generated = synthetic::generate(&synthetic::Config {
        observations: sized(240, 100),
        cardinalities: vec![8, 5, 3],
        skew: 0.8,
        agg: AggOp::Avg, // SUM+COUNT components: SUM/COUNT/AVG all derivable
        seed: 17,
    });
    let facet = generated.default_facet().clone();
    let base = generated.dataset;
    let workload = generate_workload(
        &base,
        &facet,
        &WorkloadConfig {
            num_queries: queries_per_round,
            ..WorkloadConfig::default()
        },
    );

    let sized_lattice = SizedLattice::compute(&base, &facet).expect("lattice sizes");
    let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));
    let config = EngineConfig::default();

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
    );
    let headers = [
        "model",
        "policy",
        "batch",
        "backend",
        "upd ms",
        "maint ms",
        "maint triples",
        "re-evals",
        "query ms",
        "hits",
        "falls",
        "valid",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    // Per policy: [serial, epoch] summed (update_us, query_us).
    let mut walls = [[(0u64, 0u64); 2]; StalenessPolicy::ALL.len()];

    for model in models {
        let mut expanded = base.clone();
        let offline = run_offline(&mut expanded, &sized_lattice, &profile, model, &config)
            .expect("offline phase runs");
        let catalog = offline.view_catalog();

        for (policy_slot, policy) in StalenessPolicy::ALL.into_iter().enumerate() {
            for &batch_size in &batch_sizes {
                // Streams are deterministic per (seed, shape): every cell
                // of one batch size replays the same updates.
                let stream = generate_update_stream(
                    &base,
                    &facet,
                    &UpdateStreamConfig {
                        batches: rounds,
                        batch_size,
                        insert_ratio: 0.6,
                        skew: 0.8,
                        seed: 23,
                        ..UpdateStreamConfig::default()
                    },
                );
                for (slot, &backend) in backends.iter().enumerate() {
                    let engine = Engine::builder()
                        .dataset(expanded.clone())
                        .facet(facet.clone())
                        .catalog(catalog.clone())
                        .staleness(policy)
                        .backend(backend)
                        .build()
                        .expect("engine builds");

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
                        for q in &workload {
                            let start = Instant::now();
                            let answer = engine.query(&q.query).expect("query runs");
                            query_us += start.elapsed().as_micros() as u64;
                            let base = reference.evaluate(&q.query).expect("base evaluation runs");
                            all_valid &= results_equivalent(&answer.results, &base);
                        }
                    }
                    let maintenance = engine.maintenance();
                    let (hits, fallbacks) = engine.routing_counts();
                    // Under the lazy policy maintenance happens inside
                    // queries; under eager inside updates. Report it apart so
                    // the cells stay comparable.
                    let maint_us = maintenance.total_us;
                    let queries_total = rounds * queries_per_round;

                    rows.push(vec![
                        model.name().to_string(),
                        policy.name().to_string(),
                        batch_size.to_string(),
                        backend.to_string(),
                        ms(
                            update_us.saturating_sub(if policy == StalenessPolicy::Eager {
                                maint_us
                            } else {
                                0
                            }),
                        ),
                        ms(maint_us),
                        maintenance.triples_touched().to_string(),
                        maintenance.reevaluations().to_string(),
                        ms(
                            query_us.saturating_sub(if policy == StalenessPolicy::LazyOnHit {
                                maint_us
                            } else {
                                0
                            }),
                        ),
                        format!("{hits}/{queries_total}"),
                        fallbacks.to_string(),
                        if all_valid { "yes".into() } else { "NO".into() },
                    ]);
                    report.push(Json::object([
                        ("model", Json::from(model.name())),
                        ("policy", Json::from(policy.name())),
                        ("batch_size", Json::from(batch_size)),
                        ("backend", Json::from(backend.to_string())),
                        ("rounds", Json::from(rounds)),
                        ("queries", Json::from(queries_total)),
                        ("update_us", Json::from(update_us)),
                        ("query_us", Json::from(query_us)),
                        ("maintenance_us", Json::from(maint_us)),
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
                    assert!(
                        all_valid,
                        "{model}/{policy}/{batch_size}/{backend}: stale or wrong answers"
                    );
                    walls[policy_slot][slot].0 += update_us;
                    walls[policy_slot][slot].1 += query_us;
                }
            }
        }
    }

    // ---- Summary: the epoch backend's price at one shard / one thread ----
    for (policy, [serial, epoch]) in StalenessPolicy::ALL.iter().zip(walls) {
        let update_ratio = epoch.0 as f64 / serial.0.max(1) as f64;
        let query_ratio = epoch.1 as f64 / serial.1.max(1) as f64;
        rows.push(vec![
            "summary".into(),
            policy.name().to_string(),
            String::new(),
            "epoch/serial".into(),
            ratio(update_ratio),
            String::new(),
            String::new(),
            String::new(),
            ratio(query_ratio),
            String::new(),
            String::new(),
            String::new(),
        ]);
        report.push(Json::object([
            ("summary", Json::from(true)),
            ("policy", Json::from(policy.name())),
            ("epoch_over_serial_update", Json::from(update_ratio)),
            ("epoch_over_serial_query", Json::from(query_ratio)),
        ]));
    }

    print_table(
        "E7 · maintenance: cost model x staleness policy x update batch size x backend",
        &headers,
        &rows,
    );
    println!(
        "Reading: 'summary' rows divide the epoch backend's summed update and query\n\
         walls (maintenance included wherever the policy runs it) by the serial\n\
         backend's, per policy, over every model and batch size. Walls and ratios\n\
         are volatile (bench_diff reports, never gates them)."
    );

    finish_report(&report);
}
