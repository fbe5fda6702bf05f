//! `bench_diff` — the CI bench-regression gate.
//!
//! Compares freshly-produced `BENCH_*.json` smoke reports against the
//! committed baselines (`benchmarks/baselines/`) and fails with a
//! readable table when a report drifts. Field policy, by name:
//!
//! * **correctness fields are exact** — booleans (`all_valid`,
//!   `meets_threshold`; `adaptive_beats_*` is volatile, see below),
//!   strings (sweep coordinates), and count-valued integers (`view_hits`,
//!   `fallbacks`, `reevaluations`, `maintenance_triples`, …): the sweeps
//!   are seeded, so these are deterministic and any change is a real
//!   behaviour change;
//! * **cost/latency fields get tolerance** — integers ending in `_us` and
//!   all floats: within ±`--tolerance` (default 20%) *or* within
//!   `--slack-us` (default 5000) absolutely, whichever is more lenient —
//!   micro-scale wall times jitter far more than 20% without meaning
//!   anything, while a genuine 2× regression on a substantial number
//!   still fails;
//! * **volatile fields are reported, not gated** — counts that depend on
//!   thread scheduling (`reads`, `batches_applied`, `epochs_*`) and
//!   wall-clock-derived verdicts (`adaptive_beats_*`): they appear in the
//!   table as `info` rows only.
//!
//! Row identity is positional: the sweeps emit cells in a deterministic
//! order, so row `i` compares against baseline row `i`; a row-count
//! mismatch means the sweep's shape changed and the baselines must be
//! regenerated (that is a loud failure on purpose).
//!
//! Usage:
//! `bench_diff --baseline benchmarks/baselines --fresh . [--tolerance 0.2] [--slack-us 5000]`

use sofos_bench::{print_table, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Comparison verdict for one reported field (fields within bounds are
/// not reported at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Info,
    Fail,
}

/// Wall-clock-scale fields: tolerance + slack instead of exactness.
fn is_latency_field(key: &str) -> bool {
    key.ends_with("_us") || key.ends_with("_ms")
}

/// Scheduling-dependent fields: shown but never gated. Free-running
/// reader counts, contended wall totals, and extreme-tail percentiles
/// swing factors of 2 between identical runs; the p50/p95 fields and the
/// deterministic counts carry the regression signal instead.
fn is_volatile_field(key: &str) -> bool {
    const VOLATILE: &[&str] = &[
        "reads",
        "batches_applied",
        "epochs_published",
        "epochs_retired",
        "maintenance_passes",
        "stale_views_at_end",
        "writer_wall_us",
        "maintenance_wall_us",
        "round_wall_us",
        "per_delta_wall_us",
        "pipeline_wall_us",
        "read_p99_us",
        // The overhead cell's raw walls and percentage swing with the
        // runner; `metrics_overhead_ok` is the gated verdict.
        "enabled_wall_us",
        "disabled_wall_us",
        "metrics_overhead_pct",
        // Wall-derived measurements swing with the machine; their boolean
        // verdicts (`meets_threshold`) are the gated fields.
        "p95_speedup",
        "wall_speedup",
        "serial_fraction",
        "mean_lag",
        // E7: the serial/epoch backend gap is a quotient of walls.
        "epoch_over_serial_update",
        "epoch_over_serial_query",
        // E11 (serving): everything scheduling- or machine-derived — the
        // calibrated capacity, the offered/achieved rates built from it,
        // admission counts, and the latency percentiles of a live socket
        // run. The gated verdicts are `overload_has_rejects`,
        // `p99_within_bound`, and `meets_threshold`.
        "effective_parallelism",
        "lanes",
        "service_us",
        "capacity_rps",
        "offered_rps",
        "achieved_rps",
        "admitted",
        "rejected",
        "transport_errors",
        "p50_us",
        "p95_us",
        "p99_us",
        "skew_p95_us",
        "unsat_p99_us",
        "overload_p99_us",
        "overload_rejects",
        "p99_ratio",
        // E12 (durability): ingest and recovery walls are machine-paced
        // (fsync latency dominates the durable column), and the overhead
        // ratio is their quotient. The gated verdicts are
        // `overhead_gate_ok`, per-cell `recovered_epoch_ok`, and
        // `meets_threshold`; `replayed_records` stays gated too — the
        // publish count per tail is deterministic.
        "memory_wall_us",
        "durable_wall_us",
        "overhead_ratio",
        "recover_wall_us",
        // E13 (bitmap scan): plan-phase walls are micro-scale. The gate
        // is the deterministic maintenance counts (`groups_patched`,
        // `rows_inserted`, …), which stay exact.
        "plan_wall_us",
        // E14 (selection at scale): selector walls and their quotient are
        // machine-paced, and the anytime search's move/restart/pricing
        // counters shift whenever the search internals are tuned — the
        // deterministic costs (`greedy_cost`, `local_cost`), the
        // `quality_ratio`, and the verdict booleans (`quality_ok`,
        // `wall_ok`, `budget_exhausted`, `converged`) carry the gate.
        "greedy_wall_us",
        "local_wall_us",
        "wall_ratio",
        "moves_tried",
        "moves_accepted",
        "restarts",
        "views_priced",
    ];
    VOLATILE.contains(&key) || key.starts_with("adaptive_beats_")
}

struct Config {
    baseline_dir: PathBuf,
    fresh_dir: PathBuf,
    tolerance: f64,
    slack_us: f64,
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        baseline_dir: PathBuf::from("benchmarks/baselines"),
        fresh_dir: PathBuf::from("."),
        tolerance: 0.20,
        slack_us: 5000.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--baseline" => config.baseline_dir = PathBuf::from(value("--baseline")?),
            "--fresh" => config.fresh_dir = PathBuf::from(value("--fresh")?),
            "--tolerance" => {
                config.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?
            }
            "--slack-us" => {
                config.slack_us = value("--slack-us")?
                    .parse()
                    .map_err(|e| format!("bad --slack-us: {e}"))?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(config)
}

fn load_report(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One comparison row for the output table.
struct DiffRow {
    experiment: String,
    row: String,
    field: String,
    baseline: String,
    fresh: String,
    delta: String,
    verdict: Verdict,
}

#[allow(clippy::too_many_arguments)]
fn compare_field(
    config: &Config,
    experiment: &str,
    row_label: &str,
    key: &str,
    base: &Json,
    fresh: &Json,
    rows: &mut Vec<DiffRow>,
) {
    let fmt = |v: &Json| v.to_string();
    let mut push = |verdict: Verdict, delta: String| {
        rows.push(DiffRow {
            experiment: experiment.to_string(),
            row: row_label.to_string(),
            field: key.to_string(),
            baseline: fmt(base),
            fresh: fmt(fresh),
            delta,
            verdict,
        });
    };

    if is_volatile_field(key) {
        let differs = base.to_string() != fresh.to_string();
        if differs {
            push(Verdict::Info, "volatile".into());
        }
        return;
    }

    match (base.as_f64(), fresh.as_f64()) {
        (Some(b), Some(f)) if is_latency_field(key) || matches!(base, Json::Num(_)) => {
            let diff = (f - b).abs();
            let rel = if b.abs() > f64::EPSILON {
                diff / b.abs()
            } else if diff > f64::EPSILON {
                f64::INFINITY
            } else {
                0.0
            };
            let slack = if is_latency_field(key) {
                config.slack_us
            } else {
                // Pure ratios/floats: small absolute slack for rounding.
                1e-9
            };
            let ok = rel <= config.tolerance || diff <= slack;
            let delta = if b.abs() > f64::EPSILON {
                format!("{:+.1}%", 100.0 * (f - b) / b)
            } else {
                format!("{diff:+.1}")
            };
            if !ok {
                push(Verdict::Fail, delta);
            }
        }
        _ => {
            // Exact: strings, booleans, count-valued integers.
            if base.to_string() != fresh.to_string() {
                push(Verdict::Fail, "exact-mismatch".into());
            }
        }
    }
}

fn compare_reports(
    config: &Config,
    experiment: &str,
    baseline: &Json,
    fresh: &Json,
    rows: &mut Vec<DiffRow>,
) {
    let baseline_rows = baseline
        .get("rows")
        .and_then(Json::items)
        .unwrap_or_default();
    let fresh_rows = fresh.get("rows").and_then(Json::items).unwrap_or_default();
    if baseline_rows.len() != fresh_rows.len() {
        rows.push(DiffRow {
            experiment: experiment.to_string(),
            row: "*".into(),
            field: "rows".into(),
            baseline: baseline_rows.len().to_string(),
            fresh: fresh_rows.len().to_string(),
            delta: "sweep shape changed — regenerate baselines".into(),
            verdict: Verdict::Fail,
        });
        return;
    }
    for (i, (base_row, fresh_row)) in baseline_rows.iter().zip(fresh_rows).enumerate() {
        let (Json::Object(base_pairs), Json::Object(fresh_pairs)) = (base_row, fresh_row) else {
            continue;
        };
        let label = base_row
            .get("summary")
            .map(|_| format!("{i} (summary)"))
            .unwrap_or_else(|| i.to_string());
        for (key, base_value) in base_pairs {
            match fresh_row.get(key) {
                Some(fresh_value) => compare_field(
                    config,
                    experiment,
                    &label,
                    key,
                    base_value,
                    fresh_value,
                    rows,
                ),
                None => rows.push(DiffRow {
                    experiment: experiment.to_string(),
                    row: label.clone(),
                    field: key.clone(),
                    baseline: base_value.to_string(),
                    fresh: "<missing>".into(),
                    delta: "field removed".into(),
                    verdict: Verdict::Fail,
                }),
            }
        }
        for (key, fresh_value) in fresh_pairs {
            if base_row.get(key).is_none() {
                rows.push(DiffRow {
                    experiment: experiment.to_string(),
                    row: label.clone(),
                    field: key.clone(),
                    baseline: "<missing>".into(),
                    fresh: fresh_value.to_string(),
                    delta: "field added — regenerate baselines".into(),
                    verdict: Verdict::Fail,
                });
            }
        }
    }
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };

    let mut baselines: Vec<PathBuf> = match std::fs::read_dir(&config.baseline_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!(
                "bench_diff: cannot list {}: {e}",
                config.baseline_dir.display()
            );
            return ExitCode::from(2);
        }
    };
    baselines.sort();
    if baselines.is_empty() {
        eprintln!(
            "bench_diff: no BENCH_*.json baselines under {}",
            config.baseline_dir.display()
        );
        return ExitCode::from(2);
    }

    let mut rows: Vec<DiffRow> = Vec::new();
    let mut compared = 0usize;

    // Fresh reports with no committed baseline yet (a newly-added
    // experiment) are informational, not failures: the gate cannot diff
    // against nothing, and blocking the PR that *introduces* a report
    // would force committing the baseline before the code that emits it.
    if let Ok(entries) = std::fs::read_dir(&config.fresh_dir) {
        let baseline_names: Vec<String> = baselines
            .iter()
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
            .collect();
        let mut unmatched: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .filter(|n| !baseline_names.iter().any(|b| b == n))
            .collect();
        unmatched.sort();
        for name in unmatched {
            rows.push(DiffRow {
                experiment: name
                    .trim_start_matches("BENCH_")
                    .trim_end_matches(".json")
                    .to_string(),
                row: "*".into(),
                field: "report".into(),
                baseline: "<none>".into(),
                fresh: "present".into(),
                delta: "no baseline — informational; commit one to start gating".into(),
                verdict: Verdict::Info,
            });
        }
    }

    for baseline_path in &baselines {
        let name = baseline_path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("filtered above");
        let experiment = name
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .to_string();
        let fresh_path = config.fresh_dir.join(name);
        let baseline = match load_report(baseline_path) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench_diff: {e}");
                return ExitCode::from(2);
            }
        };
        let fresh = match load_report(&fresh_path) {
            Ok(v) => v,
            Err(e) => {
                rows.push(DiffRow {
                    experiment,
                    row: "*".into(),
                    field: "report".into(),
                    baseline: "present".into(),
                    fresh: format!("unreadable: {e}"),
                    delta: "missing fresh report".into(),
                    verdict: Verdict::Fail,
                });
                continue;
            }
        };
        compared += 1;
        compare_reports(&config, &experiment, &baseline, &fresh, &mut rows);
    }

    let failures = rows.iter().filter(|r| r.verdict == Verdict::Fail).count();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.experiment.clone(),
                r.row.clone(),
                r.field.clone(),
                r.baseline.clone(),
                r.fresh.clone(),
                r.delta.clone(),
                match r.verdict {
                    Verdict::Info => "info".into(),
                    Verdict::Fail => "FAIL".into(),
                },
            ]
        })
        .collect();
    if table.is_empty() {
        println!(
            "bench_diff: {compared} report(s) match their baselines \
             (tolerance {:.0}%, slack {}us)",
            config.tolerance * 100.0,
            config.slack_us
        );
    } else {
        print_table(
            "bench_diff · fresh reports vs committed baselines",
            &[
                "experiment",
                "row",
                "field",
                "baseline",
                "fresh",
                "delta",
                "verdict",
            ],
            &table,
        );
        println!(
            "{failures} failing field(s) across {compared} report(s); tolerance {:.0}%, \
             slack {}us. `info` rows are scheduling-dependent and not gated.",
            config.tolerance * 100.0,
            config.slack_us
        );
    }
    if failures > 0 {
        eprintln!(
            "bench_diff: FAILED — if the drift is intentional, regenerate the baselines \
             (run the smoke binaries and copy BENCH_*.json into {})",
            config.baseline_dir.display()
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
