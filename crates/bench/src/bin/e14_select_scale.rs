//! E14 — selection at lattice scale: anytime local search vs full greedy.
//!
//! PR 10 adds `sofos_select::anytime` — hill-climbing with swap/add/drop
//! moves seeded from greedy-on-a-sample — precisely for the regime this
//! binary sweeps: lattices 10–100× beyond the hands-on demo's `2^4`
//! cubes, where full-lattice greedy re-prices every candidate on every
//! pick and the wall grows with `2^d`. Three measurements per grid cell:
//!
//! * **full greedy** (`greedy_select`) over all `2^d` candidates —
//!   the quality reference and the wall to beat;
//! * **anytime local search** (`local_search_select`), run to
//!   convergence (unlimited `SearchBudget`, the configured restarts) over
//!   a candidate pool of a few hundred views (demand masks, their
//!   pairwise unions, apex/base, random fill) — the incremental
//!   re-pricing means each move re-prices only touched views;
//! * **interrupt-at-deadline** (largest cell only): the same search under
//!   a deadline clock that expires after a handful of polls, proving the
//!   anytime contract — a *valid* best-so-far outcome (within budget,
//!   never worse than its seed) long before convergence.
//!
//! Lattices are sized analytically (`estimate_lattice`: per-dimension
//! cardinalities × observation cap) rather than by evaluating the base
//! view and rolling up `2^d` views — the sizing pass would otherwise dwarf
//! selection itself and cap the sweep at toy scale. Both selectors price from the *same*
//! estimates, so quality ratios compare like with like.
//!
//! The summary gates, on the largest cell: local-search combined cost
//! ≤1.05× greedy's, at ≤0.5× greedy's wall (≤0.8× under `--smoke`, where
//! lattices are small enough that greedy is only a few milliseconds and
//! constant overheads loom larger). Costs, move counts, and the
//! interrupt verdict are deterministic (seeded RNG, analytic sizing);
//! walls are volatile (`bench_diff` reports, never gates them).
//!
//! Run with: `cargo run -p sofos-bench --release --bin e14_select_scale [--smoke]`
//!
//! Emits `BENCH_select_scale.json`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sofos_bench::Fmt::{Fixed, Ms, Ratio, Raw};
use sofos_bench::{sized, BenchReport, Json};
use sofos_cost::{
    estimate_lattice, AggValuesCost, CostContext, TouchedGroupsMaintenance, UpdateRates,
};
use sofos_cube::{Lattice, ViewMask};
use sofos_select::{
    greedy_select, local_search_select, Budget, LocalSearchConfig, Objective, SearchBudget,
    SearchReport, SelectionOutcome, WorkloadProfile,
};
use sofos_store::GraphStats;
use sofos_workload::synthetic;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// λ of the combined objective: maintenance pressure high enough that
/// drop/swap moves carry real signal, low enough that query cost still
/// dominates the ranking.
const LAMBDA: f64 = 0.5;

/// Selection quality and wall for one selector on one cell. Walls are the
/// minimum over `reps` identical runs (both selectors are deterministic,
/// so repetition only damps scheduler noise, never changes the answer).
struct Measured {
    outcome: SelectionOutcome,
    report: Option<SearchReport>,
    wall_us: u64,
}

fn measure<F>(reps: usize, mut run: F) -> Measured
where
    F: FnMut() -> (SelectionOutcome, Option<SearchReport>),
{
    let mut best_wall = u64::MAX;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let (outcome, report) = run();
        best_wall = best_wall.min(start.elapsed().as_micros() as u64);
        if let Some((prev, _)) = &result {
            assert_eq!(prev, &outcome, "selector must be deterministic across reps");
        }
        result = Some((outcome, report));
    }
    let (outcome, report) = result.expect("at least one rep");
    Measured {
        outcome,
        report,
        wall_us: best_wall,
    }
}

/// Combined objective value of an outcome (query cost + λ-weighted
/// upkeep) — the quantity both selectors minimize.
fn combined(outcome: &SelectionOutcome) -> f64 {
    outcome.estimated_cost + outcome.upkeep_cost
}

fn main() {
    // View-count targets; `with_view_target` turns each into the smallest
    // covering dimension count (2^10..2^13 full, 2^8/2^10 smoke).
    let targets: Vec<usize> = sized(vec![1024, 4096, 8192], vec![256, 1024]);
    let observations = sized(4000, 1200);
    let demand_count = sized(48usize, 16);
    let budget_views = sized(12, 8);
    let pool_target = sized(256, 96);
    let reps = 3;
    let rates = UpdateRates::new(4.0, 1.0);

    let mut report = BenchReport::new(
        "select_scale",
        format!(
            "anytime local search vs full greedy at lattice scale; view targets \
             {targets:?}, {observations} observations, {demand_count} demands, \
             budget {budget_views} views, lambda {LAMBDA}"
        ),
    )
    .table(
        "E14 · anytime local search vs full greedy at lattice scale",
        &[
            ("cell", "cell", Raw),
            ("views", "views", Raw),
            ("dims", "dims", Raw),
            ("greedy_wall_us", "greedy ms", Ms),
            ("local_wall_us", "local ms", Ms),
            ("wall_ratio", "wall", Ratio),
            ("greedy_cost", "greedy cost", Fixed(1)),
            ("local_cost", "local cost", Fixed(1)),
            ("interrupted_cost", "interrupted cost", Fixed(1)),
            ("quality_ratio", "quality", Ratio),
            ("interrupted_ratio", "interrupted", Ratio),
            ("moves_tried", "moves", Raw),
            ("converged", "converged", Raw),
            ("quality_ok", "quality ok", Raw),
            ("wall_ok", "wall ok", Raw),
        ],
    );
    let mut largest: Option<(f64, f64)> = None; // (quality_ratio, wall_ratio)

    for (c, &views) in targets.iter().enumerate() {
        let config = synthetic::Config::with_view_target(views, observations);
        let generated = synthetic::generate(&config);
        let facet = generated.default_facet().clone();
        let lattice = Lattice::new(facet.clone());
        let num_views = lattice.num_views();
        let dims = config.cardinalities.len();

        // Analytic sizing: the piece that keeps 2^13 lattices affordable.
        let estimated = estimate_lattice(&lattice, &config.cardinalities, config.observations);
        let base = GraphStats::compute(generated.dataset.default_graph());
        let ctx = CostContext {
            facet: &facet,
            view_stats: &estimated,
            base: &base,
        };

        // A seeded demand profile over the whole lattice; duplicates fold
        // into weights, so hot views carry more demand.
        let mut rng = StdRng::seed_from_u64(71 + c as u64);
        let profile = WorkloadProfile::from_masks(
            (0..demand_count).map(|_| ViewMask(rng.gen_range(0..num_views))),
        );
        let objective =
            Objective::maintenance_aware(&AggValuesCost, &TouchedGroupsMaintenance, rates, LAMBDA);
        let budget = Budget::Views(budget_views);

        let greedy = measure(reps, || {
            (
                greedy_select(&ctx, &lattice, &objective, &profile, budget),
                None,
            )
        });
        let search_config = LocalSearchConfig {
            rng_seed: 0xE14 + c as u64,
            pool_target,
            ..LocalSearchConfig::default()
        };
        let local = measure(reps, || {
            let (outcome, search) = local_search_select(
                &ctx,
                &lattice,
                &objective,
                &profile,
                budget,
                &search_config,
                &SearchBudget::unlimited(),
            );
            (outcome, Some(search))
        });
        let search = local.report.as_ref().expect("local search reports");
        assert!(
            search.converged,
            "unlimited budget must run every restart to convergence"
        );
        assert!(local.outcome.selected.len() <= budget_views);

        let quality_ratio = combined(&local.outcome) / combined(&greedy.outcome).max(f64::EPSILON);
        let wall_ratio = local.wall_us as f64 / greedy.wall_us.max(1) as f64;
        let is_largest = c == targets.len() - 1;
        if is_largest {
            largest = Some((quality_ratio, wall_ratio));
        }

        report.push(Json::object([
            ("cell", Json::from("scale")),
            ("views", Json::from(num_views)),
            ("dims", Json::from(dims)),
            ("demands", Json::from(demand_count)),
            ("budget_views", Json::from(budget_views)),
            ("greedy_cost", Json::from(combined(&greedy.outcome))),
            ("local_cost", Json::from(combined(&local.outcome))),
            ("quality_ratio", Json::from(quality_ratio)),
            ("greedy_wall_us", Json::from(greedy.wall_us)),
            ("local_wall_us", Json::from(local.wall_us)),
            ("wall_ratio", Json::from(wall_ratio)),
            ("greedy_selected", Json::from(greedy.outcome.selected.len())),
            ("local_selected", Json::from(local.outcome.selected.len())),
            ("moves_tried", Json::from(search.moves_tried)),
            ("moves_accepted", Json::from(search.moves_accepted)),
            ("restarts", Json::from(search.restarts)),
            ("views_priced", Json::from(search.views_priced)),
            ("converged", Json::from(search.converged)),
        ]));

        // ---- Interrupt-at-deadline: the anytime contract, largest cell --
        if is_largest {
            // A deadline clock that "expires" after a few dozen polls: the
            // budget samples it once per proposal, so the search is cut
            // off deterministically mid-climb, far before convergence.
            let polls = Arc::new(AtomicU64::new(0));
            let clock = {
                let polls = polls.clone();
                Arc::new(move || polls.fetch_add(1, Ordering::SeqCst))
            };
            let deadline_budget = SearchBudget::unlimited().with_deadline(clock, 48);
            let (outcome, search) = local_search_select(
                &ctx,
                &lattice,
                &objective,
                &profile,
                budget,
                &search_config,
                &deadline_budget,
            );
            assert!(
                search.budget_exhausted && !search.converged,
                "the deadline must interrupt the search mid-climb"
            );
            assert!(
                search.final_cost <= search.seed_cost + 1e-9,
                "interrupted best-so-far worse than its seed: {} > {}",
                search.final_cost,
                search.seed_cost
            );
            assert!(
                outcome.selected.len() <= budget_views
                    && outcome.selected.iter().all(|v| v.0 < num_views),
                "interrupted outcome must still be a valid selection"
            );
            let interrupted_ratio =
                combined(&outcome) / combined(&greedy.outcome).max(f64::EPSILON);
            report.push(Json::object([
                ("cell", Json::from("interrupt")),
                ("views", Json::from(num_views)),
                ("deadline_polls", Json::from(48u64)),
                ("moves_tried", Json::from(search.moves_tried)),
                ("moves_accepted", Json::from(search.moves_accepted)),
                ("budget_exhausted", Json::from(search.budget_exhausted)),
                ("converged", Json::from(search.converged)),
                ("interrupted_cost", Json::from(combined(&outcome))),
                ("interrupted_ratio", Json::from(interrupted_ratio)),
                ("never_worse_than_seed", Json::from(true)),
                ("selected_views", Json::from(outcome.selected.len())),
            ]));
        }
    }

    // ---- Summary: the acceptance criteria ------------------------------
    let quality_threshold = 1.05;
    let wall_threshold = sized(0.5, 0.8);
    let (quality_ratio, wall_ratio) = largest.expect("sweep includes the largest cell");
    let quality_ok = quality_ratio <= quality_threshold;
    let wall_ok = wall_ratio <= wall_threshold;

    report.gate(
        quality_ok,
        format!(
            "local search must match greedy quality within {quality_threshold}x on the \
             largest lattice (got {quality_ratio:.3}x)"
        ),
    );
    report.gate(
        wall_ok,
        format!(
            "local search must finish within {wall_threshold}x of greedy's wall on the \
             largest lattice (got {wall_ratio:.3}x)"
        ),
    );
    report.push(Json::object([
        ("summary", Json::from(true)),
        ("quality_ratio", Json::from(quality_ratio)),
        ("quality_threshold", Json::from(quality_threshold)),
        ("quality_ok", Json::from(quality_ok)),
        ("wall_ratio", Json::from(wall_ratio)),
        ("wall_threshold", Json::from(wall_threshold)),
        ("wall_ok", Json::from(wall_ok)),
    ]));

    report.finish(&format!(
        "Reading: 'scale' rows run full-lattice greedy and converged local search\n\
         over the same analytically-sized lattice, demands, and combined objective\n\
         (query + {LAMBDA}*maintenance); 'quality' is local/greedy combined cost\n\
         (<=1 means local matched or beat greedy), 'wall' is the wall-clock ratio.\n\
         The 'interrupt' row cuts the same search off after ~48 deadline polls:\n\
         the returned catalog is still valid and never worse than its seed — the\n\
         anytime contract. Costs and move counts are deterministic; walls are\n\
         volatile (bench_diff reports, never gates them); the gated verdicts are\n\
         the summary booleans."
    ));
}
