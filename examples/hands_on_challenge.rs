//! The demo's "Hands-on Challenge": given a budget of k views, how close
//! can a manual pick get to the exhaustive-oracle optimum — and how do the
//! greedy+cost-model selections fare?
//!
//! Run with: `cargo run --release --example hands_on_challenge`

use sofos::core::{build_model, Engine, EngineConfig, SizedLattice, StalenessPolicy};
use sofos::cost::{AggValuesCost, CostModelKind};
use sofos::cube::ViewMask;
use sofos::materialize::materialize_views;
use sofos::select::{
    exhaustive_select, greedy_select, user_select, workload_cost, Budget, WorkloadProfile,
};
use sofos::workload::{generate_workload, swdf, WorkloadConfig};

fn main() {
    let generated = swdf::generate(&swdf::Config::default());
    let facet = generated.default_facet().clone();
    let k = 2usize;
    println!(
        "CHALLENGE — dataset {}, facet `{}` ({} dims, {} views), budget k = {k}\n",
        generated.name,
        facet.id,
        facet.dim_count(),
        1u64 << facet.dim_count()
    );

    let sized = SizedLattice::compute(&generated.dataset, &facet).expect("sizing");
    let ctx = sized.context();
    let workload = generate_workload(
        &generated.dataset,
        &facet,
        &WorkloadConfig {
            num_queries: 40,
            mask_skew: Some(1.2),
            ..WorkloadConfig::default()
        },
    );
    let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));
    let scorer = AggValuesCost; // the judge prices answers by view rows

    println!("The lattice (view : rows):");
    for mask in sized.lattice.views() {
        println!(
            "  {:<30} {:>6} rows",
            sized.lattice.view_name(mask),
            sized.stats[&mask].rows
        );
    }

    // --- Contestant 1: a plausible manual pick (base view + apex). --------
    let manual = vec![sized.lattice.base(), ViewMask::APEX];
    let manual_outcome =
        user_select(&ctx, &sized.lattice, &scorer, &profile, &manual).expect("valid pick");

    // --- Contestant 2: greedy under each cost model. -----------------------
    let config = EngineConfig::default();
    let mut greedy_rows = Vec::new();
    for kind in CostModelKind::ALL {
        let (model, _, _) = build_model(kind, &sized, &config);
        let outcome = greedy_select(
            &ctx,
            &sized.lattice,
            model.as_ref(),
            &profile,
            Budget::Views(k),
        );
        // Score every contestant with the same judge for comparability.
        let score = workload_cost(&ctx, &scorer, &profile, &outcome.selected);
        greedy_rows.push((kind.name().to_string(), outcome.selected.clone(), score));
    }

    // --- The oracle. --------------------------------------------------------
    let oracle = exhaustive_select(&ctx, &sized.lattice, &scorer, &profile, k, 1_000_000)
        .expect("challenge lattices stay under the exhaustive caps");
    let oracle_score = oracle.estimated_cost;

    println!(
        "\n{:<14} {:>12} {:>9}  selection",
        "contestant", "est. cost", "vs best"
    );
    let manual_score = manual_outcome.estimated_cost;
    let mut entries = vec![("manual (you)".to_string(), manual.clone(), manual_score)];
    entries.extend(greedy_rows);
    entries.push(("ORACLE".to_string(), oracle.selected.clone(), oracle_score));
    for (name, selection, score) in &entries {
        let names: Vec<String> = selection
            .iter()
            .map(|&v| sized.lattice.view_name(v))
            .collect();
        println!(
            "{:<14} {:>12.1} {:>8.2}x  {}",
            name,
            score,
            score / oracle_score,
            names.join(", ")
        );
    }
    println!("\nThe participant whose selection lands closest to the oracle wins the prize.");

    // Materialize the oracle's pick and serve the workload through the
    // one front door, confirming the estimated ranking with real hits.
    let mut expanded = generated.dataset.clone();
    let views = materialize_views(&mut expanded, &facet, &oracle.selected).expect("materializes");
    let engine = Engine::builder()
        .dataset(expanded)
        .facet(facet)
        .catalog(views.iter().map(|v| (v.stats.mask, v.stats.rows)).collect())
        .staleness(StalenessPolicy::Eager)
        .build()
        .expect("engine builds");
    for q in &workload {
        engine.query(&q.query).expect("engine answers");
    }
    let (hits, falls) = engine.routing_counts();
    println!(
        "Oracle's selection served through Engine: {hits}/{} queries hit a view ({falls} fell back).",
        workload.len()
    );
}
