//! E6 — the "Hands-on Challenge" quantified: greedy-under-each-cost-model
//! versus the exhaustive oracle, under uniform and skewed workloads, for
//! budgets k = 1..4. Reports the achieved-vs-optimal workload cost ratio
//! (1.00 = optimal).
//!
//! Run with: `cargo run -p sofos-bench --release --bin e6_challenge [--smoke]`
//!
//! Emits `BENCH_challenge.json`.

use sofos_bench::Fmt::{Fixed, Raw};
use sofos_bench::{sized, BenchReport, Json};
use sofos_core::{build_model, EngineConfig, SizedLattice};
use sofos_cost::{AggValuesCost, CostModelKind};
use sofos_select::{
    exhaustive_select, greedy_select, workload_cost, Budget, Objective, WorkloadProfile,
};
use sofos_workload::{generate_workload, swdf, WorkloadConfig};

fn main() {
    let generated = swdf::generate(&swdf::Config::default());
    let facet = generated.default_facet().clone();
    let sized_lattice = SizedLattice::compute(&generated.dataset, &facet).expect("sizing");
    let ctx = sized_lattice.context();
    let config = EngineConfig::default();
    let judge = AggValuesCost; // common scorer across contestants
    let judged = Objective::query_only(&judge); // the oracle optimizes the judge's score
    let num_queries = sized(60, 20);
    let max_k = sized(4usize, 3);

    let mut report = BenchReport::new(
        "challenge",
        format!("greedy/oracle cost ratio, k = 1..={max_k}, {num_queries} queries"),
    )
    .table(
        format!(
            "E6 · greedy/oracle cost ratio ({num_queries} queries, dataset {})",
            generated.name
        ),
        &[
            ("workload", "workload", Raw),
            ("k", "k", Raw),
            ("model", "model", Raw),
            ("oracle_ratio", "ratio", Fixed(2)),
        ],
    );
    for (label, skew) in [
        ("uniform workload", None),
        ("zipf-skewed workload", Some(1.5)),
    ] {
        let workload = generate_workload(
            &generated.dataset,
            &facet,
            &WorkloadConfig {
                num_queries,
                mask_skew: skew,
                ..WorkloadConfig::default()
            },
        );
        let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));

        for k in 1..=max_k {
            let oracle = exhaustive_select(
                &ctx,
                &sized_lattice.lattice,
                &judged,
                &profile,
                k,
                1_000_000,
            )
            .expect("challenge lattices stay under the exhaustive caps");
            for kind in CostModelKind::ALL {
                let (model, _, _) = build_model(kind, &sized_lattice, &generated.dataset, &config)
                    .expect("model builds");
                let outcome = greedy_select(
                    &ctx,
                    &sized_lattice.lattice,
                    &Objective::query_only(model.as_ref()),
                    &profile,
                    Budget::Views(k),
                );
                let score = workload_cost(&ctx, &judge, &profile, &outcome.selected);
                let oracle_ratio = score / oracle.estimated_cost;
                report.push(Json::object([
                    ("workload", Json::from(label)),
                    ("k", Json::from(k)),
                    ("model", Json::from(kind.name())),
                    ("oracle_ratio", Json::from(oracle_ratio)),
                ]));
            }
        }
    }
    report.finish(
        "Reading: 1.00 = the greedy selection under that cost model matched the\n\
         exhaustive optimum; larger values quantify how much the model misleads it.",
    );
}
