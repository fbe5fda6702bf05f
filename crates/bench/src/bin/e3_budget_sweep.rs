//! E3 — the "User Selected Views" sweet spot (demo §4): sweep the view
//! budget k = 0..2^d and chart query time against space amplification.
//! (E8 exercises byte budgets.)
//!
//! Every budget's workload is served through an `Engine` over its `G+`;
//! the first budget (zero views) is the no-views baseline every speedup
//! is relative to.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e3_budget_sweep [--smoke]`
//!
//! Emits `BENCH_budget_sweep.json`.

use sofos_bench::Fmt::{Fixed, Ms, Ratio, Raw};
use sofos_bench::{sized, BenchReport, Json};
use sofos_core::{measure_workload, run_offline, Engine, EngineConfig, SizedLattice};
use sofos_cost::CostModelKind;
use sofos_select::{Budget, WorkloadProfile};
use sofos_workload::{dbpedia, generate_workload, WorkloadConfig};

fn main() {
    let generated = dbpedia::generate(&dbpedia::Config::default());
    let facet = generated.default_facet().clone();
    let sized_lattice = SizedLattice::compute(&generated.dataset, &facet).expect("sizing");
    let workload = generate_workload(
        &generated.dataset,
        &facet,
        &WorkloadConfig {
            num_queries: sized(30, 10),
            ..WorkloadConfig::default()
        },
    );
    let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));
    let mut config = EngineConfig {
        timing_reps: sized(3, 1),
        ..EngineConfig::default()
    };

    let mut report = BenchReport::new(
        "budget_sweep",
        format!(
            "budget sweep (views) on {}, {} queries",
            generated.name,
            workload.len()
        ),
    )
    .table(
        format!(
            "E3 · budget sweep on {} (facet `{}`, {} queries)",
            generated.name,
            facet.id,
            workload.len()
        ),
        &[
            ("budget", "budget", Raw),
            ("selected_views", "views", Raw),
            ("view_hits", "hits", Raw),
            ("query_total_us", "total ms", Ms),
            ("storage_amplification", "space amp", Fixed(3)),
            ("speedup", "speedup", Ratio),
        ],
    );
    let mut baseline_us = None;
    for k in 0..=sized_lattice.lattice.num_views() as usize {
        config.budget = Budget::Views(k);
        let mut expanded = generated.dataset.clone();
        let offline = run_offline(
            &mut expanded,
            &sized_lattice,
            &profile,
            CostModelKind::AggValues,
            &config,
        )
        .expect("offline");
        let engine = Engine::builder()
            .dataset(expanded)
            .facet(facet.clone())
            .catalog(offline.view_catalog())
            .build()
            .expect("engine builds");
        let online = measure_workload(&engine, &workload, config.timing_reps, &generated.dataset)
            .expect("online");
        report.gate(online.all_valid, format!("{k} views: invalid answers"));
        let baseline = *baseline_us.get_or_insert(online.summary.total_us);
        let speedup = baseline as f64 / online.summary.total_us.max(1) as f64;
        report.push(Json::object([
            ("budget", Json::from(format!("views:{k}"))),
            (
                "selected_views",
                Json::from(offline.selection.selected.len()),
            ),
            ("view_hits", Json::from(online.view_hits)),
            ("fallbacks", Json::from(online.fallbacks)),
            ("query_total_us", Json::from(online.summary.total_us)),
            (
                "storage_amplification",
                Json::from(offline.storage_amplification()),
            ),
            ("speedup", Json::from(speedup)),
        ]));
    }
    report.finish(
        "Reading: the sweet spot is the smallest budget whose speedup plateaus —\n\
         beyond it, space amplification keeps rising with no latency return.",
    );
}
