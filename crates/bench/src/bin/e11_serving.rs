//! E11 — serving through the network front door: throughput vs tail
//! latency under open-loop load, up to and past saturation.
//!
//! Boots a real `sofos-server` (eager maintenance) on a
//! loopback port and drives it with `workload::openloop` — Poisson
//! arrivals, zipf query mix, a 90:10 read:write ratio — over real
//! sockets. The sweep fixes the mix and scales the arrival rate against
//! a calibrated capacity estimate: unsaturated cells (0.25×, 0.5×), the
//! knee (1×), and a deliberate overload cell (3×) where the acceptor's
//! in-flight cap must start refusing with 503s.
//!
//! The acceptance criterion is the overload story: admission control
//! sheds load (503s > 0 at 3×) **and** the p99 of *admitted* requests
//! stays within 2× of the unsaturated cell — overload degrades, it does
//! not collapse. Smoke mode gates a softer 3× bound: its percentiles
//! come from a few hundred requests on a shared CI runner where one
//! scheduling hiccup moves p99; a real failure mode (unbounded queueing)
//! blows the ratio out by 10× or more, and still fails.
//!
//! All rates, counts, and percentiles are machine-derived and listed as
//! volatile in `bench_diff`; the gated fields are the three verdict
//! booleans.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e11_serving [--smoke]`

use sofos_bench::Fmt::{Fixed, Ms, Ratio, Raw};
use sofos_bench::{percentile, sized, BenchReport, Cube, Demand, Json};
use sofos_core::{StalenessPolicy, TimeSummary};
use sofos_server::{serve, ServerConfig};
use sofos_store::OpKind;
use sofos_workload::openloop::{self, OpenLoopConfig};
use sofos_workload::{generate_update_stream, UpdateStreamConfig};
use std::sync::Arc;

fn main() {
    let requests_per_cell = sized(1200, 480);
    let calibration_requests = sized(80, 40);
    let workers = 4usize;
    // Worker threads beyond the core count add no capacity — they timeshare.
    // The capacity estimate and the client-lane count must both be sized off
    // real parallelism or the "0.25x" cell silently sits at saturation.
    let effective_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(workers);
    let lanes = (8 * effective_parallelism).clamp(12, 64);
    // No standing queue: admission equals a free worker, so an admitted
    // request's latency is (accept + service) regardless of offered load —
    // the whole point of the door. Anything beyond that is refused fast.
    let max_inflight = workers;
    let read_ratio = 0.9;
    let threshold = sized(2.0, 3.0);
    let rates: [(&str, f64); 4] = [
        ("0.25x", 0.25),
        ("0.5x", 0.5),
        ("1x", 1.0),
        ("3x-overload", 3.0),
    ];

    // --- The engine under test: same shape as E9's sweep subject --------
    let cube = Cube::new(sized(240, 160), 17, Demand::Queries(12));
    let query_texts: Vec<String> = cube.workload.iter().map(|q| q.text.clone()).collect();

    // Insert-only update stream, rendered to the wire's N-Triples form.
    let update_docs: Vec<String> = generate_update_stream(
        &cube.base,
        &cube.facet,
        &UpdateStreamConfig {
            batches: 64,
            batch_size: 4,
            insert_ratio: 1.0,
            skew: 0.8,
            seed: 29,
            ..UpdateStreamConfig::default()
        },
    )
    .iter()
    .map(|delta| {
        let mut doc = String::new();
        for op in delta.ops() {
            if matches!(op.kind, OpKind::Insert) && op.graph.is_none() {
                let [s, p, o] = &op.triple;
                doc.push_str(&format!("{s} {p} {o} .\n"));
            }
        }
        doc
    })
    .filter(|doc| !doc.is_empty())
    .collect();
    assert!(!update_docs.is_empty(), "write mix needs update documents");

    let engine = cube
        .engine(StalenessPolicy::Eager)
        .build()
        .expect("engine builds");
    let handle = serve(
        Arc::new(engine),
        ServerConfig {
            workers,
            max_inflight,
            ..ServerConfig::default()
        },
    )
    .expect("server boots");
    let addr = handle.addr();

    // --- Calibrate: one closed-loop lane of reads ⇒ capacity estimate ---
    // An effectively-infinite arrival rate turns the open loop into a
    // back-to-back closed loop on a single lane; the mean end-to-end
    // latency (connect included — that is what a request costs) gives
    // service time, and capacity ≈ effective parallelism / service.
    let calibration = openloop::run(
        addr,
        &openloop::plan(
            &OpenLoopConfig {
                requests: calibration_requests,
                arrival_rate: 1e9,
                read_ratio: 1.0,
                zipf_skew: 0.8,
                lanes: 1,
                seed: 7,
            },
            &query_texts,
            &update_docs,
        ),
        1,
    );
    let calibration_latencies = calibration.admitted_latencies_us();
    assert_eq!(
        calibration_latencies.len(),
        calibration_requests,
        "calibration requests must all be admitted ({} rejected, {} transport errors)",
        calibration.rejected(),
        calibration.transport_errors()
    );
    let service_us = TimeSummary::from_samples(&calibration_latencies).mean_us;
    let capacity_rps = effective_parallelism as f64 * 1e6 / service_us.max(1.0);

    let mut report = BenchReport::new(
        "serving",
        format!(
            "open-loop load through the sofos-server front door: poisson arrivals, \
             zipf query mix, {read_ratio} read ratio, {requests_per_cell} requests per \
             cell over {lanes} lanes against {workers} workers (in-flight cap \
             {max_inflight}); rates scale a calibrated capacity estimate, the 3x cell \
             is deliberate overload"
        ),
    )
    .table(
        "E11 · serving: open-loop throughput vs tail latency through sofos-server",
        &[
            ("cell", "cell", Raw),
            ("capacity_rps", "capacity/s", Fixed(0)),
            ("service_us", "service ms", Ms),
            ("offered_rps", "offered/s", Fixed(0)),
            ("achieved_rps", "achieved/s", Fixed(0)),
            ("admitted", "admitted", Raw),
            ("rejected", "503s", Raw),
            ("p50_us", "p50 ms", Ms),
            ("p95_us", "p95 ms", Ms),
            ("p99_us", "p99 ms", Ms),
            ("skew_p95_us", "skew p95 ms", Ms),
            ("overload_rejects", "overload 503s", Raw),
            ("p99_ratio", "p99 ratio", Ratio),
            ("meets_threshold", "meets", Raw),
        ],
    );
    report.push(Json::object([
        ("cell", Json::from("calibrate")),
        ("requests", Json::from(calibration_requests)),
        ("effective_parallelism", Json::from(effective_parallelism)),
        ("service_us", Json::from(service_us)),
        ("capacity_rps", Json::from(capacity_rps)),
    ]));

    // --- The sweep -------------------------------------------------------
    let mut unsat_p99 = 0u64;
    let mut overload_p99 = 0u64;
    let mut overload_rejects = 0usize;
    for (i, (label, multiplier)) in rates.iter().enumerate() {
        let offered_rps = capacity_rps * multiplier;
        let schedule = openloop::plan(
            &OpenLoopConfig {
                requests: requests_per_cell,
                arrival_rate: offered_rps,
                read_ratio,
                zipf_skew: 0.8,
                lanes,
                seed: 101 + i as u64,
            },
            &query_texts,
            &update_docs,
        );
        let outcome = openloop::run(addr, &schedule, lanes);
        let admitted = outcome.admitted_latencies_us();
        let p50 = percentile(&admitted, 50.0);
        let p95 = percentile(&admitted, 95.0);
        let p99 = percentile(&admitted, 99.0);
        if i == 0 {
            unsat_p99 = p99;
        }
        if *multiplier >= 3.0 {
            overload_p99 = p99;
            overload_rejects = outcome.rejected();
        }
        report.push(Json::object([
            ("cell", Json::from(*label)),
            ("requests", Json::from(requests_per_cell)),
            ("lanes", Json::from(lanes)),
            ("workers", Json::from(workers)),
            ("max_inflight", Json::from(max_inflight)),
            ("read_ratio", Json::from(read_ratio)),
            ("offered_rps", Json::from(offered_rps)),
            ("achieved_rps", Json::from(outcome.achieved_rps())),
            ("admitted", Json::from(admitted.len())),
            ("rejected", Json::from(outcome.rejected())),
            ("transport_errors", Json::from(outcome.transport_errors())),
            ("p50_us", Json::from(p50)),
            ("p95_us", Json::from(p95)),
            ("p99_us", Json::from(p99)),
            ("skew_p95_us", Json::from(outcome.skew_p95_us())),
        ]));
    }

    // --- Verdicts --------------------------------------------------------
    let p99_ratio = overload_p99 as f64 / unsat_p99.max(1) as f64;
    let has_rejects = overload_rejects > 0;
    let within_bound = p99_ratio <= threshold;
    report.gate(
        has_rejects,
        "the 3x overload cell must trip admission control (0 rejections seen)",
    );
    report.gate(
        within_bound,
        format!(
            "admitted p99 under overload must stay within {threshold}x of the \
             unsaturated cell (got {p99_ratio:.2}x: {unsat_p99}us -> {overload_p99}us)"
        ),
    );
    report.push(Json::object([
        ("summary", Json::from(true)),
        ("unsat_p99_us", Json::from(unsat_p99)),
        ("overload_p99_us", Json::from(overload_p99)),
        ("overload_rejects", Json::from(overload_rejects)),
        ("p99_ratio", Json::from(p99_ratio)),
        ("threshold", Json::from(threshold)),
        ("overload_has_rejects", Json::from(has_rejects)),
        ("p99_within_bound", Json::from(within_bound)),
        ("meets_threshold", Json::from(has_rejects && within_bound)),
    ]));

    let stats = handle.shutdown();
    println!(
        "server: served={} rejected_at_door={} bad_requests={}",
        stats.served, stats.rejected_connections, stats.bad_requests
    );
    if !(has_rejects && within_bound) {
        // `finish` panics on the failed gate after printing the table to
        // stdout; these numbers go to stderr with it, so a failing run
        // can be diagnosed from whichever stream was kept.
        eprintln!(
            "e11 gate failed (rejections gate {}, p99 gate {}): unsaturated p99 {unsat_p99}us, \
             overload p99 {overload_p99}us, ratio {p99_ratio:.2}x against {threshold}x, \
             {overload_rejects} overload rejections, calibrated service {service_us:.0}us",
            if has_rejects { "ok" } else { "FAILED" },
            if within_bound { "ok" } else { "FAILED" },
        );
    }
    report.finish(
        "Reading: the in-flight cap turns overload into fast 503s instead of an\n\
         unbounded queue, so the p99 of requests that ARE admitted barely moves\n\
         past saturation — bounded queue, bounded tail.",
    );
}
