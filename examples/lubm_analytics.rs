//! LUBM-like analytics: the budget sweep behind the demo's "User Selected
//! Views" station — where is the sweet spot between space amplification and
//! query time? Each budget's workload is served through an `Engine` over
//! its `G+`; k = 0 is the no-views baseline the speedups are relative to.
//!
//! Run with: `cargo run --release --example lubm_analytics`

use sofos::core::{measure_workload, run_offline, Engine, EngineConfig, SizedLattice};
use sofos::cost::CostModelKind;
use sofos::select::{Budget, WorkloadProfile};
use sofos::workload::{generate_workload, lubm, WorkloadConfig};

fn main() {
    let generated = lubm::generate(&lubm::Config::default());
    let facet = generated.default_facet().clone();
    println!(
        "dataset: {} — {} ({} triples, facet `{}` with {} dims → {} lattice views)\n",
        generated.name,
        generated.description,
        generated.dataset.total_triples(),
        facet.id,
        facet.dim_count(),
        1u64 << facet.dim_count(),
    );

    let sized = SizedLattice::compute(&generated.dataset, &facet).expect("sizing");
    let workload_config = WorkloadConfig {
        num_queries: 30,
        ..WorkloadConfig::default()
    };
    let workload = generate_workload(&generated.dataset, &facet, &workload_config);
    let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));

    println!(
        "{:<4} {:>10} {:>12} {:>12} {:>9} {:>8}",
        "k", "hits", "total ms", "space amp", "speedup", "views"
    );
    let mut config = EngineConfig {
        timing_reps: 3,
        ..EngineConfig::default()
    };
    let mut baseline_us = None;
    for k in 0..=sized.lattice.num_views() as usize {
        config.budget = Budget::Views(k);
        let mut expanded = generated.dataset.clone();
        let offline = run_offline(
            &mut expanded,
            &sized,
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
        assert!(online.all_valid, "view answers must be correct");
        let baseline = *baseline_us.get_or_insert(online.summary.total_us);
        println!(
            "{:<4} {:>7}/{:<2} {:>12.2} {:>12.3} {:>8.2}x {:>8}",
            k,
            online.view_hits,
            workload.len(),
            online.summary.total_us as f64 / 1000.0,
            offline.storage_amplification(),
            baseline as f64 / online.summary.total_us.max(1) as f64,
            offline.selection.selected.len(),
        );
    }
    println!("\nReading: query time falls as k grows while space amplification rises;");
    println!("the sweet spot is where added views stop being hit by the workload.");
}
