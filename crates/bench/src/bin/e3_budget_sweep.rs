//! E3 — the "User Selected Views" sweet spot (demo §4): sweep the view
//! budget k = 0..2^d and chart query time against space amplification.
//! With `--bytes` the sweep uses byte budgets instead of view counts
//! (the paper's "up to a certain memory budget" variant).
//!
//! Every budget's workload is served through an `Engine` over its `G+`;
//! the first budget (zero views or zero bytes) is the no-views baseline
//! every speedup is relative to.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e3_budget_sweep [--bytes] [--smoke]`
//!
//! Emits `BENCH_budget_sweep.json`.

use sofos_bench::{finish_report, ms, print_table, ratio, sized, BenchReport, Json};
use sofos_core::{measure_workload, run_offline, Engine, EngineConfig, SizedLattice};
use sofos_cost::CostModelKind;
use sofos_select::{Budget, WorkloadProfile};
use sofos_workload::{dbpedia, generate_workload, WorkloadConfig};

fn main() {
    let by_bytes = std::env::args().any(|a| a == "--bytes");
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

    let budgets: Vec<Budget> = if by_bytes {
        let full: usize = sized_lattice.stats.values().map(|s| s.bytes).sum();
        (0..=8).map(|i| Budget::Bytes(full * i / 8)).collect()
    } else {
        (0..=sized_lattice.lattice.num_views() as usize)
            .map(Budget::Views)
            .collect()
    };

    let mut report = BenchReport::new(
        "budget_sweep",
        format!(
            "budget sweep ({}) on {}, {} queries",
            if by_bytes { "bytes" } else { "views" },
            generated.name,
            workload.len()
        ),
    );
    let mut rows = Vec::new();
    let mut baseline_us = None;
    for budget in budgets {
        config.budget = budget;
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
        assert!(online.all_valid);
        let baseline = *baseline_us.get_or_insert(online.summary.total_us);
        let speedup = baseline as f64 / online.summary.total_us.max(1) as f64;
        rows.push(vec![
            match budget {
                Budget::Views(k) => format!("{k} views"),
                Budget::Bytes(b) => format!("{b} B"),
            },
            offline.selection.selected.len().to_string(),
            format!("{}/{}", online.view_hits, workload.len()),
            ms(online.summary.total_us),
            format!("{:.3}", offline.storage_amplification()),
            ratio(speedup),
        ]);
        report.push(Json::object([
            (
                "budget",
                match budget {
                    Budget::Views(k) => Json::from(format!("views:{k}")),
                    Budget::Bytes(b) => Json::from(format!("bytes:{b}")),
                },
            ),
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
    print_table(
        &format!(
            "E3 · budget sweep on {} (facet `{}`, {} queries; baseline {} ms)",
            generated.name,
            facet.id,
            workload.len(),
            ms(baseline_us.unwrap_or_default()),
        ),
        &[
            "budget",
            "views",
            "hits",
            "total ms",
            "space amp",
            "speedup",
        ],
        &rows,
    );
    println!("Reading: the sweet spot is the smallest budget whose speedup plateaus —");
    println!("beyond it, space amplification keeps rising with no latency return.");
    finish_report(&report);
}
