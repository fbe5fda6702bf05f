//! E4 — the learned cost model (§3.1): training convergence and prediction
//! quality (MAE + Spearman rank correlation against measured view-query
//! times) as a function of training-set size, across the demo datasets.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e4_learned [--smoke]`
//!
//! Emits `BENCH_learned.json`.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use sofos_bench::Fmt::{Fixed, Raw};
use sofos_bench::{sized, BenchReport, Json};
use sofos_core::{time_view_queries, SizedLattice};
use sofos_cost::{regression_metrics, LearnedCostModel, TrainConfig};
use sofos_workload::all_datasets;

fn main() {
    let epochs = sized(300, 60);
    let mut datasets = all_datasets();
    if sofos_bench::smoke() {
        datasets.truncate(1);
    }
    let mut report = BenchReport::new(
        "learned",
        format!("learned-model quality vs training fraction, {epochs} epochs"),
    )
    .table(
        "E4 · learned cost model: prediction quality vs training size",
        &[
            ("dataset", "dataset", Raw),
            ("train_n", "train n", Raw),
            ("final_mse", "final MSE", Fixed(4)),
            ("mae_us", "MAE µs", Fixed(1)),
            ("spearman", "Spearman", Fixed(3)),
        ],
    );
    for generated in datasets {
        let facet = generated.default_facet().clone();
        let sized_lattice = SizedLattice::compute(&generated.dataset, &facet).expect("sizing");
        let ctx = sized_lattice.context();

        // Ground truth: measured view-query time per lattice view.
        let mut all = time_view_queries(&generated.dataset, &sized_lattice.lattice)
            .expect("view queries evaluate");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        all.shuffle(&mut rng);

        for fraction in [0.25, 0.5, 0.75, 1.0] {
            let n = ((all.len() as f64) * fraction).ceil() as usize;
            let train = &all[..n.max(2).min(all.len())];
            let mut model = LearnedCostModel::new(&facet, 11);
            let history = model.fit(
                &ctx,
                train,
                TrainConfig {
                    epochs,
                    ..TrainConfig::default()
                },
            );
            // Evaluate on the *whole* lattice (train ∪ held-out).
            let predictions: Vec<f64> = all.iter().map(|(m, _)| model.predict(&ctx, *m)).collect();
            let truths: Vec<f64> = all.iter().map(|(_, t)| *t).collect();
            let metrics = regression_metrics(&predictions, &truths);
            let final_mse = history.last().copied().unwrap_or(f64::NAN);
            report.push(Json::object([
                ("dataset", Json::from(generated.name)),
                ("train_n", Json::from(train.len())),
                ("train_fraction", Json::from(fraction)),
                ("final_mse", Json::from(final_mse)),
                ("mae_us", Json::from(metrics.mae)),
                ("spearman", Json::from(metrics.spearman)),
            ]));
        }
    }
    report.finish(
        "Reading: rank correlation is what matters for selection; it should rise\n\
         with training size — and remains imperfect, one of the paper's pitfalls.",
    );
}
