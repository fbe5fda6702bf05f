//! E12 — what durability costs: ingest overhead of the epoch log, and
//! recovery time as a function of the log tail.
//!
//! Two sweeps over the same engine shape as E9/E11 (epoch backend, eager
//! maintenance, offline-selected views):
//!
//! * **ingest** — identical update streams through an in-memory engine
//!   and a durable one (`--data-dir` semantics: per-publish log append +
//!   fsync before the epoch swap, cadence snapshots). The gate is the
//!   wall ratio: durable ingest must stay within 1.5× of in-memory
//!   (smoke gates a softer 2× — its walls come from a few dozen batches
//!   on a shared CI runner where one slow fsync moves the ratio; a real
//!   regression, like fsync-per-triple or a snapshot in the hot loop,
//!   blows past 10×).
//! * **recover** — durable engines crashed (dropped, never drained) with
//!   log tails of increasing length, then rebuilt from the dir, timing
//!   the full recovery: scan + replay + view re-materialization +
//!   re-baseline. Reported, not gated (wall-clock on shared runners);
//!   the gated invariant is that every tail recovers to exactly the
//!   published epoch.
//!
//! All `*_wall_us` fields and the ratio are volatile in `bench_diff`;
//! the gated fields are `replayed_records` per recovery cell and the
//! `overhead_gate_ok` / `meets_threshold` booleans.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e12_durability [--smoke]`

use sofos_bench::Fmt::{Ms, Ratio, Raw};
use sofos_bench::{sized, BenchReport, Cube, Demand, Json};
use sofos_core::{Backend, DurabilityConfig, Engine, EngineBuilder, StalenessPolicy};
use sofos_store::Delta;
use sofos_workload::{generate_update_stream, UpdateStreamConfig};
use std::path::PathBuf;
use std::time::Instant;

/// The engine under test: the epoch backend under eager maintenance.
fn builder(cube: &Cube) -> EngineBuilder {
    cube.engine(
        StalenessPolicy::Eager,
        Backend::Epoch {
            shards: 1,
            threads: 1,
        },
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sofos-e12-{tag}-{}", std::process::id()));
    // A leftover dir from a killed earlier run would turn the build into
    // a recovery; start clean.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

/// Drive one engine through the stream and return the ingest wall in µs.
fn ingest(engine: &Engine, stream: &[Delta]) -> u64 {
    let start = Instant::now();
    for delta in stream {
        engine.update(delta.clone()).expect("update applies");
    }
    engine.flush().expect("flush drains");
    start.elapsed().as_micros() as u64
}

fn main() {
    let ingest_batches = sized(96, 24);
    // Full-size batches carry enough maintenance work that the per-publish
    // fsync is amortized the way real ingest amortizes it; 4-triple smoke
    // batches make the cell an fsync microbenchmark, hence its softer gate.
    let batch_size = sized(16, 4);
    let tail_lengths: Vec<usize> = if sofos_bench::smoke() {
        vec![8, 32]
    } else {
        vec![16, 64, 256]
    };
    let threshold = sized(1.5, 2.0);

    // --- The engine under test: same shape as E9/E11's sweep subject ----
    let cube = Cube::new(sized(240, 120), 17, Demand::Uniform);

    let max_batches = ingest_batches.max(tail_lengths.iter().copied().max().unwrap_or(0));
    let stream = generate_update_stream(
        &cube.base,
        &cube.facet,
        &UpdateStreamConfig {
            batches: max_batches,
            batch_size,
            insert_ratio: 0.8,
            skew: 0.8,
            seed: 29,
            ..UpdateStreamConfig::default()
        },
    );

    let mut report = BenchReport::new(
        "durability",
        format!(
            "the price of the epoch log: identical {ingest_batches}-batch update \
             streams through in-memory vs durable engines (fsync-before-swap, \
             snapshot cadence 16) gate the ingest wall ratio at {threshold}x; \
             recovery walls are swept over log tails of {tail_lengths:?} batches"
        ),
    )
    .table(
        "E12 · durability: ingest overhead of the epoch log, recovery wall vs tail",
        &[
            ("cell", "cell", Raw),
            ("batches", "batches", Raw),
            ("tail_batches", "tail", Raw),
            ("replayed_records", "replayed", Raw),
            ("memory_wall_us", "memory ms", Ms),
            ("durable_wall_us", "durable ms", Ms),
            ("recover_wall_us", "recover ms", Ms),
            ("overhead_ratio", "ratio", Ratio),
            ("overhead_gate_ok", "ok", Raw),
            ("recovered_epoch_ok", "recovered", Raw),
            ("meets_threshold", "meets", Raw),
        ],
    );
    // --- Ingest: in-memory vs durable ------------------------------------
    let memory = builder(&cube).build().expect("in-memory engine builds");
    let memory_wall_us = ingest(&memory, &stream[..ingest_batches]);

    let dir = scratch_dir("ingest");
    let durable = builder(&cube)
        .durability(DurabilityConfig::new(&dir).snapshot_every(16))
        .build()
        .expect("durable engine builds");
    let durable_wall_us = ingest(&durable, &stream[..ingest_batches]);
    assert_eq!(
        durable.epoch(),
        memory.epoch(),
        "durable and in-memory ingest must publish the same epochs"
    );
    drop(durable);
    drop(memory);

    let overhead_ratio = durable_wall_us as f64 / memory_wall_us.max(1) as f64;
    let overhead_gate_ok = overhead_ratio <= threshold;
    report.gate(
        overhead_gate_ok,
        format!(
            "durable ingest must stay within {threshold}x of in-memory \
             (got {overhead_ratio:.2}x: {memory_wall_us}us -> {durable_wall_us}us)"
        ),
    );
    report.push(Json::object([
        ("cell", Json::from("ingest")),
        ("batches", Json::from(ingest_batches)),
        ("memory_wall_us", Json::from(memory_wall_us)),
        ("durable_wall_us", Json::from(durable_wall_us)),
        ("overhead_ratio", Json::from(overhead_ratio)),
        ("threshold", Json::from(threshold)),
        ("overhead_gate_ok", Json::from(overhead_gate_ok)),
    ]));
    std::fs::remove_dir_all(&dir).ok();

    // --- Recovery wall vs log-tail length ---------------------------------
    for &tail in &tail_lengths {
        let dir = scratch_dir(&format!("recover-{tail}"));
        // No cadence snapshots: the whole tail replays from the log, so
        // the cell measures replay length, not snapshot luck.
        let config = DurabilityConfig::new(&dir).snapshot_every(u64::MAX);
        let engine = builder(&cube)
            .durability(config.clone())
            .build()
            .expect("durable engine builds");
        let _ = ingest(&engine, &stream[..tail]);
        let published = engine.epoch();
        drop(engine); // the "crash": no drain, no shutdown hook

        let start = Instant::now();
        let recovered = builder(&cube)
            .durability(config)
            .build()
            .expect("recovery builds");
        let recover_wall_us = start.elapsed().as_micros() as u64;
        let rec = recovered.recovery().expect("recovery reported").clone();
        assert_eq!(
            rec.epoch, published,
            "tail {tail}: recovery must land on the published epoch"
        );
        report.push(Json::object([
            ("cell", Json::from(format!("recover-{tail}"))),
            ("tail_batches", Json::from(tail)),
            ("replayed_records", Json::from(rec.replayed_records)),
            ("rematerialized_views", Json::from(rec.rematerialized_views)),
            ("recover_wall_us", Json::from(recover_wall_us)),
            ("recovered_epoch_ok", Json::from(true)),
        ]));
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }

    report.push(Json::object([
        ("summary", Json::from(true)),
        ("overhead_ratio", Json::from(overhead_ratio)),
        ("threshold", Json::from(threshold)),
        ("meets_threshold", Json::from(overhead_gate_ok)),
    ]));

    report.finish(
        "Reading: the log appends and fsyncs once per published batch, before the\n\
         epoch swap — so the durable column pays one sequential write per publish,\n\
         not per triple, and recovery is linear in the unsnapshotted tail.",
    );
}
