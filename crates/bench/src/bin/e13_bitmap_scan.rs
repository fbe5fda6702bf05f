//! E13 — bitmap posting lists on the maintenance hot path: what the
//! plan phase costs across delta sparsity and group skew.
//!
//! The plan phase locates each touched group's observation node by
//! ANDing the view graph's pre-maintained per-`(pred, value)` subject
//! bitmaps. This binary replays pre-generated pure-insert update streams
//! and reports the summed plan-phase time
//! (`PipelineTelemetry.parallel_work_us`) per cell.
//!
//! * **delta sparsity × group skew**: a sparse batch (4 ops) touches a
//!   handful of groups of a ~thousand-group view — the regime where
//!   per-group lookup cost dominates planning; a dense batch amortizes
//!   lookups over more per-key patch work. `group_skew` (the workload
//!   crate's finest-group zipf knob) concentrates ops on hot existing
//!   groups (pure patch path) vs uniform per-dimension sampling (fresh
//!   groups, create path).
//!
//! The last measured comparison against the run-walk lookup (now only a
//! test reference) is frozen in `crates/maintain/README.md`.
//!
//! Correctness is asserted in-band: every final catalog must match a
//! fresh re-evaluation (bit-equality with the run-walk reference is
//! proptested in sofos-maintain), and `bench_diff` holds the
//! deterministic maintenance counts exact.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e13_bitmap_scan [--smoke]`

use sofos_bench::Fmt::{Ms, Raw};
use sofos_bench::{sized, BenchReport, Json};
use sofos_cube::{AggOp, Facet, ViewMask};
use sofos_maintain::{Maintainer, PipelineTelemetry};
use sofos_materialize::{materialize_view, virtual_view_stats};
use sofos_store::{Dataset, Delta};
use sofos_workload::{generate_update_stream, synthetic, UpdateStreamConfig};
use std::time::Instant;

/// Catalog: the finest view (the dominant planning load), two middles,
/// and the apex.
const MASKS: [ViewMask; 4] = [
    ViewMask(0b111),
    ViewMask(0b011),
    ViewMask(0b110),
    ViewMask::APEX,
];

/// One cell's measurements: the plan-phase wall, the end-to-end
/// maintenance wall, and the deterministic maintenance counts.
#[derive(Default)]
struct Cell {
    plan_wall_us: u64,
    maint_wall_us: u64,
    groups_patched: usize,
    groups_reevaluated: usize,
    rows_inserted: usize,
    rows_retracted: usize,
    final_rows: Vec<usize>,
    all_valid: bool,
}

/// Replay `deltas` through a fresh clone of the seeded dataset.
fn run_cell(
    seeded: &Dataset,
    facet: &Facet,
    catalog: &[(ViewMask, usize)],
    deltas: &[Delta],
) -> Cell {
    let mut ds = seeded.clone();
    let mut views = catalog.to_vec();
    let mut maintainer = Maintainer::new(facet);
    let mut plan = PipelineTelemetry::default();
    let mut cell = Cell::default();
    for delta in deltas {
        let start = Instant::now();
        let rows = maintainer
            .apply(&mut ds, delta.clone())
            .rows
            .expect("star facet");
        let outcome = maintainer
            .maintain(&mut ds, Some(&rows), &mut views)
            .expect("maintenance succeeds");
        cell.maint_wall_us += start.elapsed().as_micros() as u64;
        plan.merge(&outcome.telemetry);
        for cost in &outcome.report.per_view {
            cell.groups_patched += cost.groups_patched;
            cell.groups_reevaluated += cost.groups_reevaluated;
            cell.rows_inserted += cost.rows_inserted;
            cell.rows_retracted += cost.rows_retracted;
        }
    }
    cell.plan_wall_us = plan.parallel_work_us;
    cell.all_valid = views.iter().all(|&(mask, rows)| {
        virtual_view_stats(&ds, facet, mask)
            .map(|stats| stats.rows == rows)
            .unwrap_or(false)
    });
    cell.final_rows = views.iter().map(|&(_, rows)| rows).collect();
    cell
}

fn main() {
    // Large-ish views are the point: with ~2 subjects per thousand
    // touched, group lookups dominate planning.
    let observations = sized(6000, 1200);
    let cardinalities = vec![24usize, 14, 8];
    // (label, ops per batch, batches): a sparse stream touching a few
    // groups per pass, and a dense one amortizing the per-pass overheads.
    let sparsities: Vec<(&str, usize, usize)> = vec![
        ("sparse", 4, sized(120, 40)),
        ("dense", sized(256, 64), sized(8, 4)),
    ];
    // Finest-group zipf exponents: 0 = fresh-group heavy (uniform
    // per-dimension sampling), 1.2 = hot existing groups.
    let skews: Vec<f64> = sized(vec![0.0, 1.2], vec![1.2]);

    let generated = synthetic::generate(&synthetic::Config {
        observations,
        cardinalities: cardinalities.clone(),
        skew: 0.8,
        agg: AggOp::Sum,
        seed: 29,
    });
    let facet = generated.default_facet().clone();
    let mut seeded = generated.dataset;
    let mut catalog = Vec::new();
    for &mask in &MASKS {
        let v = materialize_view(&mut seeded, &facet, mask).expect("view materializes");
        catalog.push((mask, v.stats.rows));
    }
    let finest_rows = catalog[0].1;

    let mut report = BenchReport::new(
        "bitmap_scan",
        format!(
            "bitmap posting-list plan phase; {observations} observations, finest \
             view {finest_rows} groups, delta sparsity x group skew"
        ),
    )
    .table(
        "E13 · bitmap posting-list plan phase: delta sparsity x group skew",
        &[
            ("cell", "cell", Raw),
            ("group_skew", "skew", Raw),
            ("batches", "batches", Raw),
            ("batch_size", "ops/b", Raw),
            ("plan_wall_us", "plan ms", Ms),
            ("maintenance_wall_us", "maint ms", Ms),
            ("groups_patched", "patched", Raw),
            ("all_valid", "valid", Raw),
        ],
    );
    for &(label, batch_size, batches) in &sparsities {
        for (i, &group_skew) in skews.iter().enumerate() {
            // Pure inserts: deletes trigger per-group re-evaluations, a
            // lookup-independent cost that would drown the signal.
            let deltas = generate_update_stream(
                &seeded,
                &facet,
                &UpdateStreamConfig {
                    batches,
                    batch_size,
                    insert_ratio: 1.0,
                    skew: 0.8,
                    group_skew,
                    seed: 47 + i as u64,
                    ..UpdateStreamConfig::default()
                },
            );
            let cell = run_cell(&seeded, &facet, &catalog, &deltas);
            report.gate(
                cell.all_valid,
                format!("{label} skew {group_skew}: stale catalog"),
            );
            report.push(Json::object([
                ("cell", Json::from(label)),
                ("group_skew", Json::from(group_skew)),
                ("batches", Json::from(batches)),
                ("batch_size", Json::from(batch_size)),
                ("plan_wall_us", Json::from(cell.plan_wall_us)),
                ("maintenance_wall_us", Json::from(cell.maint_wall_us)),
                ("groups_patched", Json::from(cell.groups_patched)),
                ("groups_reevaluated", Json::from(cell.groups_reevaluated)),
                ("rows_inserted", Json::from(cell.rows_inserted)),
                ("rows_retracted", Json::from(cell.rows_retracted)),
                (
                    "final_rows",
                    Json::from(cell.final_rows.iter().sum::<usize>()),
                ),
                ("all_valid", Json::from(cell.all_valid)),
            ]));
        }
    }

    report.finish(
        "Reading: each row replays one pure-insert stream through the maintainer;\n\
         the plan phase locates every touched group by ANDing maintained posting-list\n\
         bitmaps. Walls are volatile (bench_diff reports, never gates them); the\n\
         deterministic counts ('patched' etc.) and 'valid' are gated exactly.",
    );
}
