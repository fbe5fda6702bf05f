//! Metric definitions, the contract's result line, `results.json`, and
//! `sofos-e2e compare`.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names: `BENCHMARK.json` lists exactly these (a unit test holds the two
//! together), the result line is built from them, and `compare` reads the
//! bounds here.

use sofos_telemetry::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The workloads, in the fixed order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["view_read", "base_read", "write_durable", "http_open"];

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "update_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "update_triples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// Per-layer metrics as `(name, unit, better)`. A metric that does not
/// apply to a workload reads 0 in the result line and is absent from
/// `results.json`.
pub const PER_LAYER: [(&str, &str, Better); 62] = [
    ("sparql.parse_us", "us", Better::Lower),
    ("sparql.eval_us", "us", Better::Lower),
    ("sparql.result_rows", "count", Better::Lower),
    ("rewrite.analyze_us", "us", Better::Lower),
    ("rewrite.best_view_us", "us", Better::Lower),
    ("rewrite.rewrite_us", "us", Better::Lower),
    ("rewrite.view_hit_ratio", "ratio", Better::Higher),
    ("rewrite.view_rows_per_result_row", "ratio", Better::Lower),
    ("core.query_us", "us", Better::Lower),
    ("core.query_self_us", "us", Better::Lower),
    ("core.update_us", "us", Better::Lower),
    ("core.update_self_us", "us", Better::Lower),
    ("core.flush_us", "us", Better::Lower),
    ("core.build_us", "us", Better::Lower),
    ("core.epochs_published", "count", Better::Higher),
    ("store.apply_us", "us", Better::Lower),
    ("store.snapshot_clone_us", "us", Better::Lower),
    ("store.total_triples", "count", Better::Lower),
    ("store.estimated_bytes", "B", Better::Lower),
    ("store.bytes_per_triple", "B", Better::Lower),
    ("store.space_amplification", "ratio", Better::Lower),
    ("store.persist.overhead_us", "us", Better::Lower),
    ("store.persist.fsyncs", "count", Better::Lower),
    ("store.persist.log_bytes", "B", Better::Lower),
    ("store.persist.snapshots", "count", Better::Lower),
    ("store.persist.recovery_us", "us", Better::Lower),
    ("store.persist.write_amplification", "ratio", Better::Lower),
    ("maintain.maintain_us", "us", Better::Lower),
    ("maintain.maintain_us.b1", "us", Better::Lower),
    ("maintain.maintain_us.b16", "us", Better::Lower),
    ("maintain.maintain_us.b256", "us", Better::Lower),
    ("maintain.serial_fraction", "ratio", Better::Lower),
    ("maintain.full_refreshes", "count", Better::Lower),
    ("maintain.groups_touched", "count", Better::Lower),
    ("core.offline.size_lattice_us", "us", Better::Lower),
    ("cost.training_us", "us", Better::Lower),
    ("select.selection_us", "us", Better::Lower),
    ("materialize.materialization_us", "us", Better::Lower),
    ("select.views_selected", "count", Better::Lower),
    ("materialize.view_rows_total", "count", Better::Lower),
    ("rdf.ntriples_parse_us", "us", Better::Lower),
    ("telemetry.json_parse_us", "us", Better::Lower),
    ("telemetry.json_render_us", "us", Better::Lower),
    ("server.http_parse_us", "us", Better::Lower),
    ("server.response_write_us", "us", Better::Lower),
    ("server.handler_p50_us", "us", Better::Lower),
    ("server.door_us", "us", Better::Lower),
    ("server.served", "count", Better::Higher),
    ("server.rejected_connections", "count", Better::Lower),
    ("server.bad_requests", "count", Better::Lower),
    ("client.connect_us", "us", Better::Lower),
    ("client.ttfb_us", "us", Better::Lower),
    ("client.lag_p95_us", "us", Better::Lower),
    ("client.lane_wait_p95_us", "us", Better::Lower),
    ("client.query_p99_us", "us", Better::Lower),
    ("client.update_p95_us", "us", Better::Lower),
    ("client.update_p99_us", "us", Better::Lower),
    ("client.samples.query", "count", Better::Higher),
    ("client.samples.update", "count", Better::Higher),
    ("client.plan_hash", "hash", Better::Higher),
    ("client.span_coverage", "ratio", Better::Higher),
    ("client.trace_overhead_ratio", "ratio", Better::Lower),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    /// Samples behind the value, where it is a statistic of a sample.
    pub samples: Option<u64>,
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(
            name.to_string(),
            Metric {
                value,
                samples: None,
            },
        );
    }

    pub fn set_sampled(&mut self, name: &str, value: f64, samples: usize) {
        self.0.insert(
            name.to_string(),
            Metric {
                value,
                samples: Some(samples as u64),
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default, Clone)]
pub struct RunResult {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub wrong_answers: u64,
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one.
    pub metrics: Metrics,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or("")
}

fn metric_json(name: &str, metric: &Metric) -> Json {
    let mut pairs = vec![
        ("value".to_string(), Json::Num(metric.value)),
        ("unit".to_string(), Json::from(unit_of(name))),
    ];
    if let Some(bound) = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound) {
        pairs.push(("bound".to_string(), Json::Num(bound)));
    }
    if let Some(samples) = metric.samples {
        pairs.push(("samples".to_string(), Json::from(samples)));
    }
    Json::Object(pairs)
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.wrong_answers == 0
    }

    /// The names this run must report: every end-to-end metric when
    /// untraced, every per-layer metric when traced.
    fn contract_names(&self) -> Vec<&'static str> {
        if self.trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The contract's result line. An end-to-end metric that is missing is
    /// an error (the run printed no result); a per-layer metric that does
    /// not apply to the workload reads 0.
    pub fn result_line(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for name in self.contract_names() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {name} is not finite: {v}")),
                None if self.trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            metrics.push((
                name.to_string(),
                Json::object([
                    ("value", Json::Num(value)),
                    ("unit", Json::from(unit_of(name))),
                ]),
            ));
        }
        Ok(Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Object(metrics)),
        ])
        .to_string())
    }

    /// The run file `run.sh` merges into `results.json`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("workload", Json::from(self.workload.as_str())),
            ("trace", Json::Bool(self.trace)),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::Num(self.seconds)),
            ("smoke", Json::Bool(self.smoke)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("wrong_answers", Json::from(self.wrong_answers)),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .0
                        .iter()
                        .map(|(name, m)| (name.clone(), metric_json(name, m)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name and unit, for a person.
    pub fn print_table(&self) {
        println!(
            "== {} · seed {} · {} s · {} ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.trace {
                "traced pass (per-layer)"
            } else {
                "untraced window (end-to-end)"
            }
        );
        for (name, m) in &self.metrics.0 {
            let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("{name:<36} {:>16.3} {}{samples}", m.value, unit_of(name));
        }
        println!(
            "attempted {}  failed {}  wrong_answers {}",
            self.attempted, self.failed, self.wrong_answers
        );
    }
}

fn num(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn object_pairs(json: &Json) -> &[(String, Json)] {
    match json {
        Json::Object(pairs) => pairs,
        _ => &[],
    }
}

/// The run files of one (workload, trace) pair: `run.sh --repeat N` writes
/// `run_<workload>_trace<t>_<i>.json` for `i` in `0..N`.
fn run_files(out_dir: &Path, workload: &str, trace: u8) -> Result<Vec<Json>, String> {
    let path = |i: usize| out_dir.join(format!("run_{workload}_trace{trace}_{i}.json"));
    let mut files = vec![read_json(&path(0))?];
    while path(files.len()).is_file() {
        files.push(read_json(&path(files.len()))?);
    }
    Ok(files)
}

fn total(files: &[Json], key: &str) -> Result<f64, String> {
    files.iter().map(|f| num(f, key)).sum()
}

/// The metrics of repeated runs as one object: per metric the median of
/// its values, the number of runs, and — from four runs on — their spread.
fn merged_metrics(files: &[Json]) -> Json {
    let mut values: Vec<(String, Json, Vec<f64>)> = Vec::new();
    for file in files {
        for (name, metric) in file.get("metrics").map(object_pairs).unwrap_or_default() {
            let Some(value) = metric.get("value").and_then(Json::as_f64) else {
                continue;
            };
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, seen)) => seen.push(value),
                None => values.push((name.clone(), metric.clone(), vec![value])),
            }
        }
    }
    Json::Object(
        values
            .into_iter()
            .map(|(name, first, seen)| {
                let mut pairs: Vec<(String, Json)> = object_pairs(&first)
                    .iter()
                    .filter(|(key, _)| key != "value")
                    .cloned()
                    .collect();
                let median = crate::stats::median(&seen).expect("at least one value");
                pairs.insert(0, ("value".to_string(), Json::Num(median)));
                pairs.push(("runs".to_string(), Json::from(seen.len())));
                if let Some(spread) = crate::stats::spread(&seen) {
                    pairs.push(("spread".to_string(), Json::Num(spread)));
                }
                (name, Json::Object(pairs))
            })
            .collect(),
    )
}

/// Merge the run files of `out_dir` into `results.json`. Errors on a
/// missing file, a missing end-to-end metric (schema error), a failed
/// operation, or a wrong answer.
pub fn merge(out_dir: &Path, environment: Json) -> Result<(), String> {
    let mut workloads = Vec::new();
    let mut comparable = true;
    let mut wrong_total = 0.0;
    let mut failed_total = 0.0;
    for workload in WORKLOADS {
        let untraced = run_files(out_dir, workload, 0)?;
        let traced = run_files(out_dir, workload, 1)?;
        let e2e = merged_metrics(&untraced);
        if untraced
            .iter()
            .any(|f| !matches!(f.get("smoke"), Some(Json::Bool(false))))
        {
            comparable = false;
        } else {
            for m in END_TO_END {
                num(e2e.get(m.name).unwrap_or(&Json::Null), "value")
                    .map_err(|e| format!("{workload}: {}: {e}", m.name))?;
            }
        }
        let attempted = total(&untraced, "attempted")?;
        let failed = total(&untraced, "failed")?;
        failed_total += failed + total(&traced, "failed")?;
        let wrong = total(&untraced, "wrong_answers")? + total(&traced, "wrong_answers")?;
        wrong_total += wrong;
        workloads.push((
            workload.to_string(),
            Json::object([
                ("attempted", Json::from(attempted as u64)),
                ("failed", Json::from(failed as u64)),
                ("failed_share", Json::Num(failed / attempted.max(1.0))),
                ("wrong_answers", Json::from(wrong as u64)),
                ("end_to_end", e2e),
                ("per_layer", merged_metrics(&traced)),
            ]),
        ));
    }
    let results = Json::object([
        ("benchmark", Json::from("sofos-e2e")),
        (
            "comparable",
            Json::Bool(comparable), // false: a --smoke run validates plumbing only
        ),
        ("environment", environment),
        ("workloads", Json::Object(workloads)),
    ]);
    let path = out_dir.join("results.json");
    std::fs::write(&path, format!("{results}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if wrong_total > 0.0 || failed_total > 0.0 {
        return Err(format!(
            "{wrong_total} wrong answers, {failed_total} failed operations"
        ));
    }
    Ok(())
}

/// How `b` stands against `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against base `a`: worse (better) when it moved the wrong
/// (right) way by more than `bound` of `a`; unresolved when either value
/// is missing or not positive, or when the run-to-run `spread` of either
/// side (known from four repeats on) is wider than the bound.
pub fn verdict(
    a: Option<f64>,
    b: Option<f64>,
    better: Better,
    bound: f64,
    spread: Option<f64>,
) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Unresolved;
    };
    if !(a.is_finite() && b.is_finite() && a > 0.0 && b > 0.0) {
        return Verdict::Unresolved;
    }
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the base.
    let worsening = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `sofos-e2e compare A.json B.json`: one row per (workload, end-to-end
/// metric). Returns whether any row is `worse`.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let a = read_json(a_path)?;
    let b = read_json(b_path)?;
    for (label, file) in [("A", &a), ("B", &b)] {
        if !matches!(file.get("comparable"), Some(Json::Bool(true))) {
            println!("note: {label} is a --smoke run; its numbers are not comparable");
        }
    }
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>18} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut any_worse = false;
    for workload in WORKLOADS {
        let field = |file: &Json, metric: &str, field: &str| {
            file.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get(field)?
                .as_f64()
        };
        for m in END_TO_END {
            let (va, vb) = (field(&a, m.name, "value"), field(&b, m.name, "value"));
            let spread = [&a, &b]
                .iter()
                .filter_map(|file| field(file, m.name, "spread"))
                .reduce(f64::max);
            let v = verdict(va, vb, m.better, m.bound, spread);
            any_worse |= v == Verdict::Worse;
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
            let ratio = match (va, vb) {
                (Some(x), Some(y)) if x > 0.0 => format!("{:.3} of {x:.3}", y / x),
                _ => "-".to_string(),
            };
            println!(
                "{workload:<14} {:<22} {:>14} {:>14} {ratio:>18} {:>6}  {}",
                m.name,
                show(va),
                show(vb),
                m.bound,
                v.as_str()
            );
        }
        // Exact counts and the plan hash must not move at all.
        for name in ["client.plan_hash", "store.space_amplification"] {
            let layer = |file: &Json| {
                file.get("workloads")?
                    .get(workload)?
                    .get("per_layer")?
                    .get(name)?
                    .get("value")?
                    .as_f64()
            };
            if let (Some(x), Some(y)) = (layer(&a), layer(&b)) {
                let same = x.to_bits() == y.to_bits();
                println!(
                    "{workload:<14} {name:<22} {x:>14} {y:>14} {:>18} {:>6}  {}",
                    "",
                    "exact",
                    if same { "identical" } else { "differs" }
                );
            }
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_and_bound() {
        use Better::*;
        assert_eq!(
            verdict(Some(100.0), Some(105.0), Lower, 0.1, None),
            Verdict::Same
        );
        assert_eq!(
            verdict(Some(100.0), Some(111.0), Lower, 0.1, None),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Some(100.0), Some(80.0), Lower, 0.1, None),
            Verdict::Better
        );
        assert_eq!(
            verdict(Some(100.0), Some(80.0), Higher, 0.1, None),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Some(100.0), Some(120.0), Higher, 0.1, None),
            Verdict::Better
        );
        assert_eq!(
            verdict(None, Some(1.0), Lower, 0.1, None),
            Verdict::Unresolved
        );
        // A spread wider than the bound decides nothing, whatever moved.
        assert_eq!(
            verdict(Some(100.0), Some(150.0), Lower, 0.1, Some(0.12)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Some(100.0), Some(150.0), Lower, 0.1, Some(0.05)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Some(0.0), Some(1.0), Lower, 0.1, None),
            Verdict::Unresolved
        );
    }

    #[test]
    fn untraced_result_line_needs_every_end_to_end_metric() {
        let mut run = RunResult {
            workload: "view_read".into(),
            attempted: 10,
            ..RunResult::default()
        };
        assert!(run.result_line().is_err());
        for m in END_TO_END {
            run.metrics.set(m.name, 1.5);
        }
        let line = run.result_line().unwrap();
        let parsed = Json::parse(&line).unwrap();
        assert!(matches!(parsed.get("correct"), Some(Json::Bool(true))));
        assert_eq!(
            object_pairs(parsed.get("metrics").unwrap()).len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn traced_result_line_reads_zero_where_a_layer_does_not_apply() {
        let run = RunResult {
            trace: true,
            attempted: 1,
            ..RunResult::default()
        };
        let parsed = Json::parse(&run.result_line().unwrap()).unwrap();
        let metrics = object_pairs(parsed.get("metrics").unwrap());
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[0].1.get("value").and_then(Json::as_f64), Some(0.0));
    }

    /// `BENCHMARK.json` and the tables above name the same metrics, units,
    /// directions, bounds and workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let spec = read_json(&path).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::items)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (m, j) in END_TO_END
            .iter()
            .zip(spec.get("end_to_end").and_then(Json::items).unwrap())
        {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        for (m, j) in PER_LAYER
            .iter()
            .zip(spec.get("per_layer").and_then(Json::items).unwrap())
        {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.1));
            assert_eq!(j.get("better").and_then(Json::as_str), Some(m.2.as_str()));
        }
    }
}
