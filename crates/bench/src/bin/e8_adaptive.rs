//! E8 — adaptive re-selection under workload drift.
//!
//! The experiment the maintenance-aware objective exists for: a living
//! graph (zipf-skewed update batches) serves a query workload whose hot
//! grouping masks *drift* over time. Per (drift schedule × λ ×
//! re-selection policy) cell the sweep measures the total cost of serving
//! the run — query time + view maintenance + re-selection overhead
//! (lattice re-sizing, selection, materialization churn) — and how much of
//! the workload still hits a view.
//!
//! Policies:
//! * **never** — the initial selection serves the whole run (the frozen
//!   SOFOS behaviour): free of overhead, but drifted demand falls back to
//!   the base graph;
//! * **always** — re-select after every round: maximal fit, maximal
//!   overhead;
//! * **adaptive** — a [`sofos_core::Reselector`] re-selects only when the
//!   session's sliding demand profile drifts past a total-variation
//!   threshold.
//!
//! The point of the experiment: on an abrupt-shift schedule, *adaptive*
//! should beat both fixed policies on total cost. The summary rows in
//! `BENCH_adaptive.json` record exactly that comparison.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e8_adaptive [--smoke]`

use sofos_bench::Fmt::{Ms, Raw};
use sofos_bench::{sized, BenchReport, Json};
use sofos_core::{
    results_equivalent, Engine, EngineConfig, Reselector, SizedLattice, StalenessPolicy,
};
use sofos_cost::{AggValuesCost, CostModelKind, TouchedGroupsMaintenance, UpdateRates};
use sofos_cube::{AggOp, Facet};
use sofos_select::{greedy_select, Budget, Objective, WorkloadProfile};
use sofos_sparql::Evaluator;
use sofos_store::Dataset;
use sofos_workload::{
    generate_update_stream, generate_workload, synthetic, GeneratedQuery, UpdateStreamConfig,
    WorkloadConfig,
};
use std::time::Instant;

/// A drift schedule maps each round to a workload *phase*; all queries of
/// one phase share a zipf-hot mask distribution (seeded differently per
/// phase, so distinct phases have distinct hot masks).
#[derive(Clone, Copy)]
struct Schedule {
    name: &'static str,
    phase_of_round: fn(usize, usize) -> usize,
}

const SCHEDULES: [Schedule; 3] = [
    // One phase throughout: the frozen-graph assumption holds.
    Schedule {
        name: "stable",
        phase_of_round: |_round, _rounds| 0,
    },
    // One abrupt shift a third of the way in: the regime adaptive
    // re-selection targets (most of the run happens post-drift).
    Schedule {
        name: "abrupt",
        phase_of_round: |round, rounds| usize::from(round >= rounds / 3),
    },
    // The hot mask rotates every three rounds: near-continuous drift.
    Schedule {
        name: "rolling",
        phase_of_round: |round, _rounds| round / 3,
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Policy {
    Never,
    Always,
    Adaptive,
}

/// Insert fraction of the update stream (the rest are deletes).
const INSERT_RATIO: f64 = 0.75;

impl Policy {
    const ALL: [Policy; 3] = [Policy::Never, Policy::Always, Policy::Adaptive];

    fn name(self) -> &'static str {
        match self {
            Policy::Never => "never",
            Policy::Always => "always",
            Policy::Adaptive => "adaptive",
        }
    }
}

/// Totals of one cell run.
#[derive(Default)]
struct CellOutcome {
    update_us: u64,
    query_us: u64,
    maintenance_us: u64,
    reselect_us: u64,
    reselections: usize,
    churned: usize,
    view_hits: usize,
    fallbacks: usize,
    all_valid: bool,
}

impl CellOutcome {
    fn total_us(&self) -> u64 {
        // Maintenance runs inside eager updates; count it once.
        self.update_us + self.query_us + self.reselect_us
    }

    /// The fields a seeded run reproduces exactly.
    fn counts(&self) -> (usize, usize, usize, usize, bool) {
        (
            self.reselections,
            self.churned,
            self.view_hits,
            self.fallbacks,
            self.all_valid,
        )
    }
}

/// The median of one wall field over a cell's repeated runs.
fn median_us(runs: &[CellOutcome], field: impl Fn(&CellOutcome) -> u64) -> u64 {
    let mut walls: Vec<u64> = runs.iter().map(field).collect();
    walls.sort_unstable();
    walls[walls.len() / 2]
}

fn phase_workload(
    dataset: &Dataset,
    facet: &Facet,
    phase: usize,
    queries_per_round: usize,
) -> Vec<GeneratedQuery> {
    generate_workload(
        dataset,
        facet,
        &WorkloadConfig {
            num_queries: queries_per_round,
            // Distinct seeds give each phase its own zipf-hot masks.
            seed: 1000 + 7919 * phase as u64,
            mask_skew: Some(1.6),
            filter_probability: 0.0,
            aggs: vec![AggOp::Sum],
            // Analysts slice, they don't dump the cube: demand stays on
            // coarse groupings, so a memory budget can exclude the fat
            // views without starving the workload.
            max_group_dims: Some(2),
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    base: &Dataset,
    facet: &Facet,
    schedule: Schedule,
    lambda: f64,
    staleness: StalenessPolicy,
    policy: Policy,
    rounds: usize,
    queries_per_round: usize,
    batch_size: usize,
    drift_threshold: f64,
) -> CellOutcome {
    // Identical update stream for every cell of one configuration.
    // Insert-heavy stream (see [`INSERT_RATIO`]): the base graph grows
    // over the run, so every base-graph fallback gets progressively more
    // expensive while view hits stay cheap — the real-world pressure to
    // keep coverage fresh.
    let insert_ratio = INSERT_RATIO;
    let stream = generate_update_stream(
        base,
        facet,
        &UpdateStreamConfig {
            batches: rounds,
            batch_size,
            insert_ratio,
            skew: 0.8,
            seed: 23,
            ..UpdateStreamConfig::default()
        },
    );
    let expected_rates = UpdateRates::new(
        batch_size as f64 * insert_ratio,
        batch_size as f64 * (1.0 - insert_ratio),
    );

    // Initial maintenance-aware selection, optimized for phase 0.
    let sized = SizedLattice::compute(base, facet).expect("lattice sizes");
    let ctx = sized.context();
    let initial_workload = phase_workload(base, facet, 0, queries_per_round);
    let initial_profile = WorkloadProfile::from_masks(initial_workload.iter().map(|q| q.required));
    // At λ = 0 the combined objective is the query-only one exactly.
    let objective = Objective::maintenance_aware(
        &AggValuesCost,
        &TouchedGroupsMaintenance,
        expected_rates,
        lambda,
    );
    // Memory budget sized to the coarse end of the lattice: ~40% of the
    // demandable (≤ 2-dim) views fit, the fat fine-grained views do not.
    // Any one phase's working set is affordable, but only by *evicting*
    // the previous phase's views — the regime where a drifted workload
    // loses coverage and re-selection can win it back.
    let coarse_bytes: usize = sized
        .stats
        .iter()
        .filter(|(mask, _)| mask.dim_count() <= 2)
        .map(|(_, s)| s.bytes)
        .sum();
    let budget = Budget::Bytes(coarse_bytes * 2 / 5);
    let selection = greedy_select(&ctx, &sized.lattice, &objective, &initial_profile, budget);

    let mut expanded = base.clone();
    let materialized =
        sofos_materialize::materialize_views(&mut expanded, facet, &selection.selected)
            .expect("initial materialization");
    let catalog: Vec<_> = materialized
        .iter()
        .map(|v| (v.stats.mask, v.stats.rows))
        .collect();
    let engine = Engine::builder()
        .dataset(expanded)
        .facet(facet.clone())
        .catalog(catalog)
        .staleness(staleness)
        .build()
        .expect("engine builds");
    let mut reselector = Reselector::new(
        CostModelKind::AggValues,
        EngineConfig {
            budget,
            ..EngineConfig::default()
        },
        lambda,
        &initial_profile,
        drift_threshold,
        sized,
    );

    let mut outcome = CellOutcome {
        all_valid: true,
        ..CellOutcome::default()
    };

    for (round, delta) in stream.into_iter().enumerate() {
        let start = Instant::now();
        engine.update(delta).expect("update applies");
        outcome.update_us += start.elapsed().as_micros() as u64;

        let phase = (schedule.phase_of_round)(round, rounds);
        let snapshot = engine.snapshot();
        let workload = phase_workload(&snapshot, facet, phase, queries_per_round);
        let reference = Evaluator::new(&snapshot);
        for q in &workload {
            let start = Instant::now();
            let answer = engine.query(&q.query).expect("query runs");
            outcome.query_us += start.elapsed().as_micros() as u64;
            // Validation runs outside the timers against the round's
            // snapshot: correctness is asserted, not billed.
            let base = reference.evaluate(&q.query).expect("base evaluation runs");
            outcome.all_valid &= results_equivalent(&answer.results, &base);
        }

        let start = Instant::now();
        let report = match policy {
            Policy::Never => None,
            Policy::Always => Some(reselector.reselect(&engine).expect("reselect runs")),
            Policy::Adaptive => reselector.check(&engine).expect("check runs"),
        };
        outcome.reselect_us += start.elapsed().as_micros() as u64;
        if let Some(report) = report {
            outcome.reselections += 1;
            outcome.churned += report.churn.churned();
        }
    }

    outcome.maintenance_us = engine.maintenance().total_us;
    let (hits, fallbacks) = engine.routing_counts();
    outcome.view_hits = hits;
    outcome.fallbacks = fallbacks;
    outcome
}

fn main() {
    let rounds = sized(24, 6);
    let queries_per_round = sized(20, 6);
    let batch_size = sized(16, 6);
    let observations = sized(240, 100);
    // λ is in the analytic (triples-scale) units of
    // `TouchedGroupsMaintenance`. The interesting regime starts where
    // λ·upkeep rivals the HRU benefit of the *finest* view — below that
    // the greedy materializes it and every query hits regardless of
    // drift; above it the selection is lean and drift actually bites.
    let lambdas: Vec<f64> = sized(vec![0.0, 4.0, 32.0], vec![0.0, 32.0]);
    let drift_threshold = 0.2;
    // A smoke cell runs for a few ms, so one scheduling hiccup can
    // multiply its walls: smoke runs every cell three times, alternating
    // the policy order, and reports each wall field's median.
    let repeats = sized(1, 3);

    // Four dimensions = a 16-view lattice: a 3-view budget is genuinely
    // partial coverage, so drifted demand actually falls back.
    let generated = synthetic::generate(&synthetic::Config {
        observations,
        cardinalities: vec![8, 5, 4, 3],
        skew: 0.8,
        agg: AggOp::Avg, // SUM+COUNT components: SUM/COUNT/AVG derivable
        seed: 17,
    });
    let facet = generated.default_facet().clone();
    let base = generated.dataset;

    let stalenesses = [StalenessPolicy::Eager, StalenessPolicy::LazyOnHit];
    let mut report = BenchReport::new(
        "adaptive",
        format!(
            "drift schedule x lambda x staleness (eager | lazy-on-hit) x re-selection \
             policy; {rounds} rounds x {queries_per_round} queries, batch {batch_size}, \
             zipf-skewed {}/{} insert/delete mix, drift threshold {drift_threshold}, \
             median of {repeats} run(s) per cell",
            (INSERT_RATIO * 100.0).round() as u32,
            ((1.0 - INSERT_RATIO) * 100.0).round() as u32
        ),
    )
    .table(
        "E8 · adaptive re-selection: drift schedule x lambda x staleness x policy",
        &[
            ("schedule", "schedule", Raw),
            ("lambda", "lambda", Raw),
            ("staleness", "stale", Raw),
            ("policy", "policy", Raw),
            ("total_us", "total ms", Ms),
            ("query_us", "query ms", Ms),
            ("update_us", "upd ms", Ms),
            ("maintenance_us", "maint ms", Ms),
            ("reselect_us", "resel ms", Ms),
            ("reselections", "resels", Raw),
            ("views_churned", "churn", Raw),
            ("view_hits", "hits", Raw),
            ("fallbacks", "falls", Raw),
            ("all_valid", "valid", Raw),
            ("adaptive_beats_both", "adaptive wins", Raw),
        ],
    );

    for schedule in SCHEDULES {
        for &lambda in &lambdas {
            for staleness in stalenesses {
                let mut runs: Vec<(Policy, Vec<CellOutcome>)> =
                    Policy::ALL.iter().map(|&p| (p, Vec::new())).collect();
                for repeat in 0..repeats {
                    for i in 0..runs.len() {
                        let i = if repeat % 2 == 0 {
                            i
                        } else {
                            runs.len() - 1 - i
                        };
                        let cell = run_cell(
                            &base,
                            &facet,
                            schedule,
                            lambda,
                            staleness,
                            runs[i].0,
                            rounds,
                            queries_per_round,
                            batch_size,
                            drift_threshold,
                        );
                        runs[i].1.push(cell);
                    }
                }
                let mut totals: Vec<(Policy, u64)> = Vec::new();
                for (policy, runs) in &runs {
                    let cell = &runs[0];
                    let coordinates = format!(
                        "{}/{lambda}/{}/{}",
                        schedule.name,
                        staleness.name(),
                        policy.name()
                    );
                    report.gate(
                        cell.all_valid,
                        format!("{coordinates}: stale or wrong answers"),
                    );
                    report.gate(
                        runs.iter().all(|run| run.counts() == cell.counts()),
                        format!("{coordinates}: repeated runs disagree on a count"),
                    );
                    let total_us = median_us(runs, CellOutcome::total_us);
                    totals.push((*policy, total_us));
                    report.push(Json::object([
                        ("schedule", Json::from(schedule.name)),
                        ("lambda", Json::from(lambda)),
                        ("staleness", Json::from(staleness.name())),
                        ("policy", Json::from(policy.name())),
                        ("rounds", Json::from(rounds)),
                        ("queries", Json::from(rounds * queries_per_round)),
                        ("total_us", Json::from(total_us)),
                        ("query_us", Json::from(median_us(runs, |c| c.query_us))),
                        ("update_us", Json::from(median_us(runs, |c| c.update_us))),
                        (
                            "maintenance_us",
                            Json::from(median_us(runs, |c| c.maintenance_us)),
                        ),
                        (
                            "reselect_us",
                            Json::from(median_us(runs, |c| c.reselect_us)),
                        ),
                        ("reselections", Json::from(cell.reselections)),
                        ("views_churned", Json::from(cell.churned)),
                        ("view_hits", Json::from(cell.view_hits)),
                        ("fallbacks", Json::from(cell.fallbacks)),
                        ("all_valid", Json::from(cell.all_valid)),
                    ]));
                }

                // Summary row: does adaptive beat both fixed policies on
                // total serving cost in this (schedule, lambda, staleness)
                // cell?
                let total_of = |p: Policy| totals.iter().find(|(q, _)| *q == p).unwrap().1;
                let (never, always, adaptive) = (
                    total_of(Policy::Never),
                    total_of(Policy::Always),
                    total_of(Policy::Adaptive),
                );
                report.push(Json::object([
                    ("summary", Json::from(true)),
                    ("schedule", Json::from(schedule.name)),
                    ("lambda", Json::from(lambda)),
                    ("staleness", Json::from(staleness.name())),
                    ("never_total_us", Json::from(never)),
                    ("always_total_us", Json::from(always)),
                    ("adaptive_total_us", Json::from(adaptive)),
                    ("adaptive_beats_never", Json::from(adaptive < never)),
                    ("adaptive_beats_always", Json::from(adaptive < always)),
                    (
                        "adaptive_beats_both",
                        Json::from(adaptive < never && adaptive < always),
                    ),
                ]));
            }
        }
    }

    report.finish(
        "Reading: 'never' pays fallbacks after the drift, 'always' pays re-selection\n\
         every round; 'adaptive' re-selects only when the sliding profile moves, and\n\
         should win on total cost under the abrupt schedule. The staleness column\n\
         charts the third axis of the trade: eager pays upkeep inside every update,\n\
         lazy-on-hit defers it to the first hit on a stale view — cheap under drift\n\
         (deferred backlogs on evicted views are never paid) but first-hit latency\n\
         spikes after busy update stretches.",
    );
}
