//! What the four workloads share: arguments, repeated set-up, window
//! lengths, and the per-layer metrics every workload derives the same way.

use crate::fixture::{Fixture, Scale, SetupTimes, CLIENTS};
use crate::ops::{ReadStats, WriteStats};
use crate::report::{Metrics, RunResult};
use crate::stats::{self, P50, P95, P99};
use crate::trace::{self, Span};
use sofos_core::{DurabilityConfig, Engine};
use sofos_server::{serve, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One invocation of one workload.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl Args {
    /// Warm-up before any window: a tenth of the measured time.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.1)
    }

    /// The untraced window. A traced run spends three tenths of its time
    /// on an untraced reference window (the base of
    /// `client.trace_overhead_ratio`) and the rest on the traced pass.
    pub fn untraced_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * if self.trace { 0.3 } else { 1.0 })
    }

    pub fn traced_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.7)
    }

    pub fn scale(&self, full: Scale) -> Scale {
        if self.smoke {
            crate::fixture::CUBE_SMOKE
        } else {
            full
        }
    }

    pub fn result(&self) -> RunResult {
        RunResult {
            workload: self.workload.clone(),
            trace: self.trace,
            seed: self.seed,
            seconds: self.seconds,
            smoke: self.smoke,
            ..RunResult::default()
        }
    }

    /// A scratch directory of this process under the output directory.
    pub fn scratch_dir(&self, tag: &str) -> PathBuf {
        self.out_dir
            .join(format!("{tag}_{}_{}", self.workload, std::process::id()))
    }
}

/// Progress on standard error, so a run that stalls says where.
pub fn progress(workload: &str, what: &str) {
    eprintln!("[sofos-e2e {workload}] {what}");
}

/// A system that is set up and ready to serve.
pub struct Ready {
    pub fixture: Fixture,
    pub engine: Arc<Engine>,
    pub server: Option<ServerHandle>,
    /// Median set-up time over `scale.setup_reps` set-ups.
    pub setup_s: f64,
}

/// What to set up besides the fixture and the engine.
pub struct SetupPlan<'a> {
    pub with_views: bool,
    /// Durability directory (fsync on, snapshot every 64 publishes).
    pub durable_dir: Option<&'a Path>,
    pub serve: bool,
}

/// The durability settings of `write_durable`, also used to recover.
pub fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir).fsync(true).snapshot_every(64)
}

/// Set up `scale.setup_reps` times and keep the last system. Each earlier
/// system is torn down before the next is built, so memory peaks once.
pub fn setup(scale: Scale, seed: u64, texts: &[String], plan: &SetupPlan) -> Ready {
    let mut totals = Vec::new();
    let mut ready = None;
    for _ in 0..scale.setup_reps.max(1) {
        drop(ready.take());
        if let Some(dir) = plan.durable_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut fixture = Fixture::build(scale, seed, plan.with_views, texts);
        let engine = Arc::new(fixture.engine(plan.durable_dir.map(durability)));
        let server = plan.serve.then(|| {
            let start = Instant::now();
            let handle = serve(
                Arc::clone(&engine),
                ServerConfig {
                    workers: CLIENTS,
                    // Twice the lanes, not the lanes: a worker counts as
                    // busy until it has closed its connection, which is
                    // after the client saw the last byte, so a lane that
                    // reconnects at once is refused (2 % of back-to-back
                    // requests at a cap of two). The lanes never hold
                    // more than two connections, so the cap never binds.
                    max_inflight: 2 * CLIENTS,
                    ..ServerConfig::default()
                },
            )
            .expect("server boots");
            fixture.times.boot_us = start.elapsed().as_micros() as u64;
            handle
        });
        totals.push(fixture.times.total_s());
        ready = Some(Ready {
            fixture,
            engine,
            server,
            setup_s: 0.0,
        });
    }
    let mut ready = ready.expect("at least one set-up");
    ready.setup_s = stats::median(&totals).expect("at least one set-up");
    ready
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Record a percentile that the sample must support; a refusal is an
/// error in a full run and a gap in a `--smoke` run.
pub fn set_percentile(
    metrics: &mut Metrics,
    name: &str,
    samples_ns: &[u64],
    p: usize,
    smoke: bool,
) -> Result<(), String> {
    match stats::percentile_us(samples_ns, p) {
        Some(us) => {
            metrics.set_sampled(name, us, samples_ns.len());
            Ok(())
        }
        None if smoke => Ok(()),
        None => Err(format!(
            "{name}: {} samples do not support percentile {}",
            samples_ns.len(),
            p as f64 / 10.0
        )),
    }
}

/// End-to-end read metrics from an untraced closed-loop window.
pub fn read_e2e(
    metrics: &mut Metrics,
    reads: &ReadStats,
    elapsed: Duration,
    smoke: bool,
) -> Result<(), String> {
    set_percentile(metrics, "query_p50_us", &reads.latencies_ns, P50, smoke)?;
    set_percentile(metrics, "query_p95_us", &reads.latencies_ns, P95, smoke)?;
    metrics.set_sampled(
        "queries_per_s",
        reads.latencies_ns.len() as f64 / elapsed.as_secs_f64(),
        reads.latencies_ns.len(),
    );
    Ok(())
}

/// End-to-end update metrics from acked batches over `elapsed`.
pub fn update_e2e(
    metrics: &mut Metrics,
    writes: &WriteStats,
    elapsed: Duration,
    smoke: bool,
) -> Result<(), String> {
    let latencies = writes.latencies_ns();
    set_percentile(metrics, "update_p50_us", &latencies, P50, smoke)?;
    metrics.set_sampled(
        "update_triples_per_s",
        writes.triples as f64 / elapsed.as_secs_f64(),
        latencies.len(),
    );
    Ok(())
}

/// Per-layer metrics that come from set-up and from the stored dataset.
pub fn setup_layers(metrics: &mut Metrics, fixture: &Fixture) {
    let SetupTimes {
        size_lattice_us,
        training_us,
        selection_us,
        materialization_us,
        build_us,
        ..
    } = fixture.times;
    metrics.set("core.offline.size_lattice_us", size_lattice_us as f64);
    metrics.set("cost.training_us", training_us as f64);
    metrics.set("select.selection_us", selection_us as f64);
    metrics.set("materialize.materialization_us", materialization_us as f64);
    metrics.set("core.build_us", build_us as f64);
    metrics.set("select.views_selected", fixture.catalog.len() as f64);
    metrics.set(
        "materialize.view_rows_total",
        fixture.view_rows_total() as f64,
    );
    let triples = fixture.expanded.total_triples() as f64;
    let bytes = fixture.expanded.estimated_bytes() as f64;
    metrics.set("store.total_triples", triples);
    metrics.set("store.estimated_bytes", bytes);
    metrics.set("store.bytes_per_triple", bytes / triples);
    metrics.set(
        "store.space_amplification",
        triples / fixture.base.total_triples() as f64,
    );
}

/// `Engine::snapshot` wall time, median of five.
pub fn snapshot_clone_us(engine: &Engine) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(engine.snapshot());
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

/// Median per request of `outer − Σ inner`, µs: the self time of a call
/// whose layers were replayed under a `decomposed` span of the same
/// request. Requests without a replay are skipped.
pub fn median_difference_us(spans: &[Span], outer: &str, inner: &[&str]) -> f64 {
    let outer = trace::by_request_ns(spans, outer);
    let inner: Vec<_> = inner
        .iter()
        .map(|name| trace::by_request_ns(spans, name))
        .collect();
    let differences: Vec<f64> = outer
        .iter()
        .filter_map(|(request, &total)| {
            let parts: Vec<u64> = inner
                .iter()
                .filter_map(|m| m.get(request).copied())
                .collect();
            (!parts.is_empty()).then(|| (total as f64 - parts.iter().sum::<u64>() as f64) / 1e3)
        })
        .collect();
    stats::median(&differences).unwrap_or(0.0)
}

/// Record a tail percentile when the sample supports it.
pub fn set_tail(metrics: &mut Metrics, name: &str, samples_ns: &[u64], p: usize) {
    if let Some(us) = stats::percentile_us(samples_ns, p) {
        metrics.set_sampled(name, us, samples_ns.len());
    }
}

/// `client.trace_overhead_ratio`: the traced median of the workload's own
/// op over its untraced median.
pub fn trace_overhead_ratio(metrics: &mut Metrics, untraced_ns: &[u64], traced_ns: &[u64]) {
    if let (Some(untraced), Some(traced)) = (
        stats::percentile_us(untraced_ns, P50),
        stats::percentile_us(traced_ns, P50),
    ) {
        metrics.set("client.trace_overhead_ratio", traced / untraced);
    }
}

/// `rewrite.view_hit_ratio` from `Engine::routing_counts`.
pub fn view_hit_ratio(metrics: &mut Metrics, engine: &Engine) {
    let (hits, fallbacks) = engine.routing_counts();
    if hits + fallbacks > 0 {
        metrics.set(
            "rewrite.view_hit_ratio",
            hits as f64 / (hits + fallbacks) as f64,
        );
    }
}

/// `client.span_coverage`: the share of the root spans whose names start
/// with `root_prefix` that their named children account for.
pub fn span_coverage(metrics: &mut Metrics, spans: &[Span], root_prefix: &str) {
    let own = trace::self_times_ns(spans);
    let (mut total, mut unnamed) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name.starts_with(root_prefix)) {
        total += s.duration_ns();
        unnamed += own[&s.id];
    }
    if total > 0 {
        metrics.set("client.span_coverage", 1.0 - unnamed as f64 / total as f64);
    }
}

/// Per-layer read metrics from the spans of a traced pass.
pub fn read_layers(metrics: &mut Metrics, spans: &[Span], reads: &ReadStats, engine: &Engine) {
    let median = |name: &str| stats::median_us(&trace::durations_ns(spans, name));
    metrics.set("sparql.parse_us", median("sparql.parse"));
    metrics.set("core.query_us", median("core.query"));
    metrics.set("rewrite.analyze_us", median("rewrite.analyze"));
    metrics.set("rewrite.best_view_us", median("rewrite.best_view"));
    metrics.set("rewrite.rewrite_us", median("rewrite.rewrite"));
    metrics.set("sparql.eval_us", median("sparql.eval"));
    metrics.set(
        "core.query_self_us",
        median_difference_us(
            spans,
            "core.query",
            &[
                "rewrite.analyze",
                "rewrite.best_view",
                "rewrite.rewrite",
                "sparql.eval",
            ],
        ),
    );
    metrics.set("sparql.result_rows", reads.result_rows as f64);
    view_hit_ratio(metrics, engine);
    if reads.replayed.result_rows > 0 {
        metrics.set(
            "rewrite.view_rows_per_result_row",
            reads.replayed.view_rows as f64 / reads.replayed.result_rows as f64,
        );
    }
    span_coverage(metrics, spans, "op.query");
    set_tail(metrics, "client.query_p99_us", &reads.latencies_ns, P99);
    metrics.set("client.samples.query", reads.latencies_ns.len() as f64);
}

/// Per-layer update metrics from the spans of a traced pass.
pub fn update_layers(metrics: &mut Metrics, spans: &[Span], writes: &WriteStats, durable: bool) {
    let median = |name: &str| stats::median_us(&trace::durations_ns(spans, name));
    metrics.set("core.update_us", median("core.update"));
    metrics.set("store.apply_us", median("store.apply"));
    metrics.set(
        "maintain.maintain_us",
        median_difference_us(spans, "maintain.apply_and_maintain", &["store.apply"]),
    );
    // The sparse-vs-dense planning trade shows as one size moving
    // against another.
    let maintain = trace::by_request_ns(spans, "maintain.apply_and_maintain");
    let apply = trace::by_request_ns(spans, "store.apply");
    for size in crate::stream::CYCLE {
        let samples: Vec<f64> = writes
            .acked
            .iter()
            .filter(|a| a.obs_ops == size)
            .filter_map(|a| {
                Some((*maintain.get(&a.request)? as f64 - *apply.get(&a.request)? as f64) / 1e3)
            })
            .collect();
        if let Some(us) = stats::median(&samples) {
            metrics.set_sampled(&format!("maintain.maintain_us.b{size}"), us, samples.len());
        }
    }
    // What `Engine::update` spends outside the layers replayed for the
    // same delta: publishing the epoch, cloning, locks.
    let mut layers = vec!["maintain.apply_and_maintain"];
    if durable {
        metrics.set(
            "store.persist.overhead_us",
            median("store.persist.log_publish"),
        );
        layers.push("store.persist.log_publish");
    }
    metrics.set(
        "core.update_self_us",
        median_difference_us(spans, "core.update", &layers),
    );
    let latencies = writes.latencies_ns();
    set_tail(metrics, "client.update_p95_us", &latencies, P95);
    set_tail(metrics, "client.update_p99_us", &latencies, P99);
    metrics.set("client.samples.update", latencies.len() as f64);
}

/// Per-layer metrics read from the engine's own counters after the pass.
pub fn engine_layers(metrics: &mut Metrics, engine: &Engine) {
    let snapshot = engine.metrics().snapshot();
    let labels = [("backend", engine.backend_name())];
    if let Some(epochs) = snapshot.gauge_value("sofos_epochs_published", &labels) {
        metrics.set("core.epochs_published", epochs as f64);
    }
    if let Some(fraction) = engine
        .pipeline_telemetry()
        .and_then(|t| t.serial_fraction())
    {
        metrics.set("maintain.serial_fraction", fraction);
    }
    let log = engine.maintenance();
    let refreshes = log
        .per_view
        .iter()
        .filter(|c| c.strategy == sofos_maintain::MaintenanceStrategy::FullRefresh)
        .count();
    let groups: usize = log
        .per_view
        .iter()
        .map(|c| c.groups_patched + c.groups_reevaluated)
        .sum();
    metrics.set("maintain.full_refreshes", refreshes as f64);
    metrics.set("maintain.groups_touched", groups as f64);
}

/// Write the spans of the traced pass to `out/trace_<workload>.json`.
pub fn write_trace(args: &Args, spans: &[Span]) -> Result<(), String> {
    let path = args.out_dir.join(format!("trace_{}.json", args.workload));
    trace::write_trace(&path, &args.workload, spans).map_err(|e| format!("{}: {e}", path.display()))
}
