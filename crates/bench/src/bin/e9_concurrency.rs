//! E9 — concurrent serving: read latency under live maintenance.
//!
//! The experiment the epoch store exists for: the same workload runs
//! against the same [`sofos_core::Engine`] in two serving shapes.
//!
//! * **serialized** — one serving loop owns the engine and answers reads
//!   from a request queue between update batches, so every query waits
//!   out any in-flight maintenance batch (and every other query) — the
//!   single-node regime the paper assumes.
//! * **epoch** — reader threads call the engine directly: queries pin
//!   immutable epoch snapshots and never wait for the writer.
//!
//! The sweep crosses the read mix and reports read latency percentiles,
//! writer throughput, and epoch accounting. The summary rows record the
//! acceptance criterion: epoch read p95 must be ≥ 2× lower than the
//! serialized baseline on the same workload (full runs; `--smoke`
//! gates a softer 1.3× floor so CI-runner noise on its small sample
//! cannot flake the job — a genuine regression still lands near 1×).
//!
//! Run with: `cargo run -p sofos-bench --release --bin e9_concurrency [--smoke]`

use sofos_bench::Fmt::{Ms, Ratio, Raw};
use sofos_bench::{percentile, sized, BenchReport, Cube, Demand, Json};
use sofos_core::{measure_workload, Engine, StalenessPolicy};
use sofos_sparql::Query;
use sofos_store::Delta;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Reader-side shape of one sweep cell.
#[derive(Clone, Copy)]
struct ReadMix {
    name: &'static str,
    readers: usize,
}

/// Totals of one cell run.
struct CellOutcome {
    read_latencies_us: Vec<u64>,
    batches_applied: usize,
    writer_wall_us: u64,
    maintenance_us: u64,
    epochs_published: u64,
    all_valid: bool,
}

/// How one cell serves reads while the writer applies `batches`: returns
/// the read latencies (µs) and the writer's summed update wall (µs).
type Driver = fn(&Engine, &[&Query], ReadMix, Vec<Delta>) -> (Vec<u64>, u64);

/// Epoch mode: the writer applies every pre-generated batch while
/// `mix.readers` threads keep querying until the stream is exhausted.
/// A barrier lines everyone up so reads and maintenance fully overlap;
/// the writer's work is fixed (deterministic), the read count is not.
fn drive(
    engine: &Engine,
    queries: &[&Query],
    mix: ReadMix,
    batches: Vec<Delta>,
) -> (Vec<u64>, u64) {
    let done = AtomicBool::new(false);
    let barrier = std::sync::Barrier::new(mix.readers + 1);
    let mut latencies: Vec<u64> = Vec::new();
    let mut writer_wall_us = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for reader in 0..mix.readers {
            let done = &done;
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                barrier.wait();
                let mut samples = Vec::new();
                let mut i = 0usize;
                while !done.load(Ordering::Acquire) {
                    let start = Instant::now();
                    engine
                        .query(queries[(reader + i) % queries.len()])
                        .expect("query runs");
                    samples.push(start.elapsed().as_micros() as u64);
                    i += 1;
                }
                samples
            }));
        }
        barrier.wait();
        for delta in batches {
            let start = Instant::now();
            engine.update(delta).expect("update applies");
            writer_wall_us += start.elapsed().as_micros() as u64;
        }
        done.store(true, Ordering::Release);
        for handle in handles {
            latencies.extend(handle.join().expect("reader ran clean"));
        }
    });
    (latencies, writer_wall_us)
}

/// Serialized baseline: one serving loop owns the [`Engine`] and is the
/// only thread that calls it (that is the point), so every read is a
/// request queued behind whatever the serving loop is doing. Under continuous
/// maintenance pressure the loop is always mid-batch, and read latency
/// *is* the stall: queue wait plus service. Queued queries are drained
/// between batches — free-running readers would dilute the percentile
/// with cheap between-batch reads and hide the stall the serialized
/// regime actually inflicts.
fn serve_serialized(
    engine: &Engine,
    queries: &[&Query],
    mix: ReadMix,
    batches: Vec<Delta>,
) -> (Vec<u64>, u64) {
    let (request_tx, request_rx) = mpsc::channel::<(usize, mpsc::Sender<()>)>();
    let barrier = std::sync::Barrier::new(mix.readers + 1);
    let mut latencies: Vec<u64> = Vec::new();
    let mut writer_wall_us = 0u64;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for reader in 0..mix.readers {
            let request_tx = request_tx.clone();
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                barrier.wait();
                let mut samples = Vec::new();
                let mut i = reader;
                loop {
                    let (reply_tx, reply_rx) = mpsc::channel();
                    let start = Instant::now();
                    if request_tx.send((i % 64, reply_tx)).is_err() {
                        break; // serving loop shut down: the run is over
                    }
                    if reply_rx.recv().is_err() {
                        break;
                    }
                    samples.push(start.elapsed().as_micros() as u64);
                    i += 1;
                }
                samples
            }));
        }
        drop(request_tx);
        barrier.wait();
        let serve = |idx: usize, reply: mpsc::Sender<()>| {
            engine
                .query(queries[idx % queries.len()])
                .expect("query runs");
            let _ = reply.send(());
        };
        for delta in batches {
            let start = Instant::now();
            engine.update(delta).expect("update applies");
            writer_wall_us += start.elapsed().as_micros() as u64;
            // Serve what queued up during the batch (at most one request
            // per reader can be parked), then take the next pending batch
            // — the stream models *continuous* update pressure, so
            // maintenance never yields the loop for long.
            for _ in 0..mix.readers {
                match request_rx.try_recv() {
                    Ok((idx, reply)) => serve(idx, reply),
                    Err(_) => break,
                }
            }
        }
        // Stream exhausted: answer stragglers, then hang up.
        while let Ok((idx, reply)) = request_rx.try_recv() {
            serve(idx, reply);
        }
        drop(request_rx);
        for handle in handles {
            latencies.extend(handle.join().expect("reader ran clean"));
        }
    });
    (latencies, writer_wall_us)
}

/// One cell through the same engine API — the driver is the ONLY thing
/// that differs between the serialized baseline and epoch mode.
fn run_cell(cube: &Cube, mix: ReadMix, batches: Vec<Delta>, driver: Driver) -> CellOutcome {
    let batches_applied = batches.len();
    let engine = cube
        .engine(StalenessPolicy::Eager)
        .build()
        .expect("engine builds");
    let queries: Vec<&Query> = cube.workload.iter().map(|q| &q.query).collect();
    let (read_latencies_us, writer_wall_us) = driver(&engine, &queries, mix, batches);
    // Validation after the dust settles: answers must match the base.
    let all_valid = measure_workload(&engine, &cube.workload, 1, &engine.snapshot())
        .expect("validation runs")
        .all_valid;
    CellOutcome {
        read_latencies_us,
        batches_applied,
        writer_wall_us,
        maintenance_us: engine.maintenance().total_us,
        epochs_published: engine.epoch(),
        all_valid,
    }
}

fn record_cell(report: &mut BenchReport, mode: &str, mix: ReadMix, cell: &CellOutcome) -> u64 {
    let p95 = percentile(&cell.read_latencies_us, 95.0);
    report.gate(
        cell.all_valid,
        format!("{mode}/{}: wrong answers", mix.name),
    );
    report.push(Json::object([
        ("mode", Json::from(mode)),
        ("read_mix", Json::from(mix.name)),
        ("readers", Json::from(mix.readers)),
        ("reads", Json::from(cell.read_latencies_us.len())),
        (
            "read_p50_us",
            Json::from(percentile(&cell.read_latencies_us, 50.0)),
        ),
        ("read_p95_us", Json::from(p95)),
        (
            "read_p99_us",
            Json::from(percentile(&cell.read_latencies_us, 99.0)),
        ),
        ("batches_applied", Json::from(cell.batches_applied)),
        ("writer_wall_us", Json::from(cell.writer_wall_us)),
        // Named apart from E7's single-threaded `maintenance_us`: under
        // reader contention this wall total is scheduling noise, and the
        // regression differ treats it as informational.
        ("maintenance_wall_us", Json::from(cell.maintenance_us)),
        ("epochs_published", Json::from(cell.epochs_published)),
        ("all_valid", Json::from(cell.all_valid)),
    ]));
    p95
}

fn main() {
    // Full-size batches even in smoke: the stall a batch inflicts on the
    // serialized baseline IS the measurement — shrinking it would shrink
    // the signal, not the runtime (the sweep is bounded by `rounds`).
    let batch_size = 48;
    let rounds = sized(48, 12);
    let mixes: Vec<ReadMix> = sized(
        vec![
            ReadMix {
                name: "balanced",
                readers: 2,
            },
            ReadMix {
                name: "read-heavy",
                readers: 4,
            },
        ],
        vec![ReadMix {
            name: "read-heavy",
            readers: 4,
        }],
    );
    let cube = Cube::new(sized(240, 160), 17, Demand::Queries(12));

    let mut report = BenchReport::new(
        "concurrency",
        format!(
            "epoch-snapshot serving vs a one-thread serving loop over the same \
             Engine; per read mix, {rounds} batches of \
             {batch_size} zipf-skewed ops under eager maintenance, readers \
             free-running until the stream drains"
        ),
    )
    .table(
        "E9 · concurrency: epoch snapshots vs serialized serving under maintenance",
        &[
            ("mode", "mode", Raw),
            ("read_mix", "mix", Raw),
            ("reads", "reads", Raw),
            ("read_p50_us", "p50 ms", Ms),
            ("read_p95_us", "p95 ms", Ms),
            ("read_p99_us", "p99 ms", Ms),
            ("batches_applied", "batches", Raw),
            ("writer_wall_us", "wr ms", Ms),
            ("epochs_published", "epochs", Raw),
            ("all_valid", "valid", Raw),
            ("p95_speedup", "p95 speedup", Ratio),
            ("meets_threshold", "meets", Raw),
        ],
    );

    let batches = cube.cycled_updates(batch_size, rounds, 24);
    for mix in &mixes {
        let serialized = run_cell(&cube, *mix, batches.clone(), serve_serialized);
        let serialized_p95 = record_cell(&mut report, "serialized", *mix, &serialized);
        let epoch = run_cell(&cube, *mix, batches.clone(), drive);
        let epoch_p95 = record_cell(&mut report, "epoch", *mix, &epoch);

        // Summary: the acceptance criterion — epoch serving must answer
        // reads with ≥2× lower p95 than the serialized loop.
        // Smoke mode gates a softer floor (1.3×): its p95 comes from a
        // 12-batch sample on a shared CI runner, where the full-run
        // margin (4–5× here) can legitimately compress; a genuine
        // regression (epoch ≈ serialized ⇒ ratio ≈ 1) still fails.
        let threshold = sized(2.0, 1.3);
        let speedup = serialized_p95 as f64 / epoch_p95.max(1) as f64;
        report.gate(
            speedup >= threshold,
            format!(
                "{}: epoch serving must beat the serialized loop by >={threshold}x on \
                 read p95 (serialized {serialized_p95}us vs epoch {epoch_p95}us)",
                mix.name
            ),
        );
        report.push(Json::object([
            ("summary", Json::from(true)),
            ("read_mix", Json::from(mix.name)),
            ("serialized_p95_us", Json::from(serialized_p95)),
            ("epoch_p95_us", Json::from(epoch_p95)),
            ("p95_speedup", Json::from(speedup)),
            ("threshold", Json::from(threshold)),
            ("meets_threshold", Json::from(speedup >= threshold)),
        ]));
    }

    report.finish(
        "Reading: both modes run the SAME Engine — only the serving shape differs.\n\
         'serialized' readers queue behind one loop that also applies every\n\
         maintenance batch; 'epoch' readers pin immutable snapshots and only ever\n\
         wait for a pointer swap, so read p95 decouples from maintenance entirely.",
    );
}
