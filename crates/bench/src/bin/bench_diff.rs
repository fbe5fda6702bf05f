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
//!   all floats: within ±20% (`TOLERANCE`) *or* within 5000 (`SLACK_US`)
//!   absolutely, whichever is more lenient —
//!   micro-scale wall times jitter far more than 20% without meaning
//!   anything, while a genuine 2× regression on a substantial number
//!   still fails;
//! * **volatile fields are reported, not gated** — counts that depend on
//!   thread scheduling (`reads`, `batches_applied`, `epochs_*`) and
//!   wall-clock-derived verdicts (`adaptive_beats_*`) and ratios (E3's
//!   `speedup`): they appear in the table as `info` rows only.
//!
//! Row identity is positional: the sweeps emit cells in a deterministic
//! order, so row `i` compares against baseline row `i`; a row-count
//! mismatch means the sweep's shape changed and the baselines must be
//! regenerated (that is a loud failure on purpose).
//!
//! Usage:
//! `bench_diff --baseline benchmarks/baselines --fresh .`

use sofos_bench::{print_table, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Relative tolerance of a latency or float field.
const TOLERANCE: f64 = 0.20;

/// Absolute slack of a latency field, in its own unit (µs for `_us`).
const SLACK_US: f64 = 5000.0;

/// Scheduling-dependent fields: shown but never gated. Free-running
/// reader counts, contended wall totals, and extreme-tail percentiles
/// swing factors of 2 between identical runs; the p50/p95 fields and the
/// deterministic counts carry the regression signal instead.
const VOLATILE: &[&str] = &[
    "reads",
    "batches_applied",
    "epochs_published",
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
    // E3 (budget sweep): a quotient of two workload walls; the
    // deterministic `selected_views`, `view_hits`, `fallbacks` and
    // `storage_amplification` carry the gate. E1 has no baseline at
    // all: its learned model trains on measured view times, so even
    // its selections (and `materialized_triples`) vary run to run.
    "speedup",
];

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

fn is_volatile_field(key: &str) -> bool {
    VOLATILE.contains(&key) || key.starts_with("adaptive_beats_")
}

struct Config {
    baseline_dir: PathBuf,
    fresh_dir: PathBuf,
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        baseline_dir: PathBuf::from("benchmarks/baselines"),
        fresh_dir: PathBuf::from("."),
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

/// The verdict on one field and its delta text, or `None` when the
/// field is within bounds. A field on one side only fails.
fn judge(key: &str, base: Option<&Json>, fresh: Option<&Json>) -> Option<(Verdict, String)> {
    let (base, fresh) = match (base, fresh) {
        (Some(base), Some(fresh)) => (base, fresh),
        (Some(_), None) => return Some((Verdict::Fail, "field removed".into())),
        _ => return Some((Verdict::Fail, "field added — regenerate baselines".into())),
    };
    let differs = base.to_string() != fresh.to_string();
    if is_volatile_field(key) {
        return differs.then(|| (Verdict::Info, "volatile".into()));
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
                SLACK_US
            } else {
                // Pure ratios/floats: small absolute slack for rounding.
                1e-9
            };
            let delta = if b.abs() > f64::EPSILON {
                format!("{:+.1}%", 100.0 * (f - b) / b)
            } else {
                format!("{diff:+.1}")
            };
            (rel > TOLERANCE && diff > slack).then_some((Verdict::Fail, delta))
        }
        // Exact: strings, booleans, count-valued integers.
        _ => differs.then(|| (Verdict::Fail, "exact-mismatch".into())),
    }
}

fn compare_reports(experiment: &str, baseline: &Json, fresh: &Json, rows: &mut Vec<DiffRow>) {
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
    let shown = |value: Option<&Json>| value.map_or_else(|| "<missing>".into(), Json::to_string);
    for (i, (base_row, fresh_row)) in baseline_rows.iter().zip(fresh_rows).enumerate() {
        let (Json::Object(base_pairs), Json::Object(fresh_pairs)) = (base_row, fresh_row) else {
            continue;
        };
        let label = base_row
            .get("summary")
            .map(|_| format!("{i} (summary)"))
            .unwrap_or_else(|| i.to_string());
        let added = fresh_pairs
            .iter()
            .filter(|(key, _)| base_row.get(key).is_none());
        for (key, _) in base_pairs.iter().chain(added) {
            let (base, fresh) = (base_row.get(key), fresh_row.get(key));
            if let Some((verdict, delta)) = judge(key, base, fresh) {
                rows.push(DiffRow {
                    experiment: experiment.to_string(),
                    row: label.clone(),
                    field: key.clone(),
                    baseline: shown(base),
                    fresh: shown(fresh),
                    delta,
                    verdict,
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
        compare_reports(&experiment, &baseline, &fresh, &mut rows);
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
             (tolerance {:.0}%, slack {SLACK_US}us)",
            TOLERANCE * 100.0
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
             slack {SLACK_US}us. `info` rows are scheduling-dependent and not gated.",
            TOLERANCE * 100.0
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The (field, verdict) pairs `compare_reports` flags between two
    /// reports given as their rows' JSON text.
    fn flagged(baseline: &str, fresh: &str) -> Vec<(String, Verdict)> {
        let report = |rows: &str| Json::parse(&format!("{{\"rows\": [{rows}]}}")).unwrap();
        let mut rows = Vec::new();
        compare_reports("x", &report(baseline), &report(fresh), &mut rows);
        rows.into_iter().map(|r| (r.field, r.verdict)).collect()
    }

    fn fail(field: &str) -> Vec<(String, Verdict)> {
        vec![(field.to_string(), Verdict::Fail)]
    }

    #[test]
    fn changed_count_fails() {
        assert_eq!(flagged(r#"{"view_hits": 3}"#, r#"{"view_hits": 3}"#), []);
        assert_eq!(
            flagged(r#"{"view_hits": 3}"#, r#"{"view_hits": 4}"#),
            fail("view_hits")
        );
    }

    #[test]
    fn latency_passes_within_tolerance_or_slack_and_fails_beyond_both() {
        // Within 20 %.
        assert_eq!(flagged(r#"{"q_us": 100000}"#, r#"{"q_us": 119000}"#), []);
        // Within 5 ms.
        assert_eq!(flagged(r#"{"q_us": 100}"#, r#"{"q_us": 5000}"#), []);
        // Beyond both.
        assert_eq!(
            flagged(r#"{"q_us": 100000}"#, r#"{"q_us": 130000}"#),
            fail("q_us")
        );
        assert_eq!(
            flagged(r#"{"q_us": 100}"#, r#"{"q_us": 5200}"#),
            fail("q_us")
        );
    }

    #[test]
    fn changed_volatile_field_is_info_only() {
        assert_eq!(
            flagged(r#"{"reads": 10}"#, r#"{"reads": 99}"#),
            [("reads".to_string(), Verdict::Info)]
        );
    }

    #[test]
    fn changed_row_count_fails() {
        assert_eq!(
            flagged(r#"{"a": 1}, {"a": 1}"#, r#"{"a": 1}"#),
            fail("rows")
        );
    }

    #[test]
    fn added_or_removed_field_fails() {
        assert_eq!(flagged(r#"{"a": 1}"#, r#"{"a": 1, "b": 2}"#), fail("b"));
        assert_eq!(flagged(r#"{"a": 1, "b": 2}"#, r#"{"a": 1}"#), fail("b"));
    }

    #[test]
    fn every_volatile_name_occurs_in_a_baseline() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/baselines");
        let baselines: Vec<String> = std::fs::read_dir(&dir)
            .expect("baselines directory")
            .map(|entry| entry.expect("baseline entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| std::fs::read_to_string(path).expect("baseline reads"))
            .collect();
        for name in VOLATILE {
            let key = format!("\"{name}\":");
            assert!(
                baselines.iter().any(|text| text.contains(&key)),
                "volatile field `{name}` occurs in no baseline"
            );
        }
    }
}
