//! `write_durable`: the same store and engine as the read workloads, used
//! the other way round. One thread applies deltas through
//! `Engine::update` with durability on (fsync per publish, a snapshot
//! every 64 publishes); batch sizes cycle 1 / 16 / 256 observations so the
//! sparse and the dense maintenance plans both run. A second thread issues
//! `view_read` ops the whole time: a write-path gain that is paid for by
//! readers shows in its `query_*` numbers.

use crate::check::Expected;
use crate::fixture::{self, catalogue, BACKEND, CUBE_100K};
use crate::ops::{
    hash_delta, write_loop, Batch, Fnv, ReadReplay, ReadStats, Reader, WriteReplay, WriteStats,
};
use crate::report::{Metrics, RunResult};
use crate::run::{self, Args, SetupPlan};
use crate::stream::{self, CYCLE};
use crate::trace::{Recorder, Span};
use sofos_core::{Engine, StalenessPolicy};
use sofos_store::Dataset;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Update batches generated per second of run time. The writer gets
/// through about 20 a second here; twice that is generated, no more, since
/// the batches sit in memory and count towards `peak_rss_mb`. A writer
/// that still runs out ends its window early.
const BATCHES_PER_SECOND: usize = 40;
const WRITER_THREAD: u64 = 1;
/// Op ids of the writer's updates start here, clear of the reader's.
const WRITER_REQUESTS: u64 = WRITER_THREAD << 32;

struct Pass {
    reads: ReadStats,
    writes: WriteStats,
    elapsed: Duration,
    spans: Vec<Span>,
    /// Batches consumed from the stream.
    used: usize,
}

/// One window: the writer on this thread, the side reader on another.
fn pass(
    engine: &Engine,
    texts: &[String],
    picks: &[u16],
    batches: &[Batch],
    length: Duration,
    traced: Option<(Instant, &ReadReplay)>,
) -> Pass {
    let stop = AtomicBool::new(false);
    let (epoch, read_replay) = traced.unzip();
    let recorder = |thread: u64| match epoch {
        Some(epoch) => Recorder::enabled(epoch, thread),
        None => Recorder::disabled(),
    };
    let reader = Reader {
        engine,
        texts,
        picks,
        oracle: None,
        replay: read_replay,
    };
    std::thread::scope(|scope| {
        let side = scope.spawn(|| {
            let mut rec = recorder(0);
            let stats = reader.run(0, &mut rec, Duration::MAX / 4, Some(&stop));
            (stats, rec.into_spans())
        });
        let mut rec = recorder(WRITER_THREAD);
        let mut writes = WriteStats::default();
        let start = Instant::now();
        let used = write_loop(
            engine,
            batches,
            &mut rec,
            WRITER_REQUESTS,
            length,
            &mut writes,
        );
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Release);
        let (reads, mut spans) = side.join().expect("side reader thread");
        spans.extend(rec.into_spans());
        Pass {
            reads,
            writes,
            elapsed,
            spans,
            used,
        }
    })
}

/// Log and snapshot bytes written since boot over the N-Triples bytes of
/// the acknowledged deltas. Snapshot bytes are the snapshots written times
/// the size of the newest snapshot file: the persister does not count them.
fn persist_layers(metrics: &mut Metrics, engine: &Engine, dir: &Path, acked_bytes: u64) {
    let snapshot = engine.metrics().snapshot();
    let gauge = |name: &str| {
        snapshot
            .gauge_value(name, &[("backend", engine.backend_name())])
            .unwrap_or(0) as f64
    };
    let log_bytes = gauge("sofos_persist_log_bytes");
    // The baseline snapshot written at boot is set-up, not write traffic.
    let snapshots = (gauge("sofos_persist_snapshots") - 1.0).max(0.0);
    metrics.set("store.persist.fsyncs", gauge("sofos_persist_fsyncs"));
    metrics.set("store.persist.log_bytes", log_bytes);
    metrics.set("store.persist.snapshots", snapshots);
    let newest_snapshot = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name() != sofos_store::persist::LOG_FILE)
        .filter_map(|e| {
            Some((
                e.metadata().ok()?.modified().ok()?,
                e.metadata().ok()?.len(),
            ))
        })
        .max()
        .map_or(0, |(_, len)| len) as f64;
    if acked_bytes > 0 {
        metrics.set(
            "store.persist.write_amplification",
            (log_bytes + snapshots * newest_snapshot) / acked_bytes as f64,
        );
    }
}

/// The served state must equal the replayed deltas and re-materialized
/// views — now, and again after a rebuild from the directory alone.
/// Returns the mismatches and the recovery wall time (µs).
fn verify(
    ready: run::Ready,
    acked: &[Batch],
    dir: &Path,
    metrics: &mut Metrics,
    acked_bytes: u64,
) -> (u64, f64) {
    let run::Ready {
        fixture, engine, ..
    } = ready;
    let facet = fixture.facet.clone();
    let flush_us = engine.flush().expect("flush runs");
    metrics.set("core.flush_us", flush_us as f64);
    run::engine_layers(metrics, &engine);
    persist_layers(metrics, &engine, dir, acked_bytes);

    let mut replayed = fixture.base.clone();
    for batch in acked {
        replayed.apply(batch.delta.clone());
    }
    let masks = fixture.catalog.iter().map(|v| v.0).collect();
    drop(fixture);
    let expected = Expected::new(replayed, &facet, masks);
    let mut wrong = expected.mismatches(&engine.snapshot(), &engine.views(), &facet, "live");

    // Rebuild from the durability directory alone: the builder gets an
    // empty dataset and catalog, the directory's history must win.
    drop(engine);
    let start = Instant::now();
    let recovered = Engine::builder()
        .dataset(Dataset::new())
        .facet(facet.clone())
        .staleness(StalenessPolicy::Eager)
        .backend(BACKEND)
        .durability(run::durability(dir))
        .build()
        .expect("engine recovers from its directory");
    let recovery_us = start.elapsed().as_nanos() as f64 / 1e3;
    wrong += expected.mismatches(
        &recovered.snapshot(),
        &recovered.views(),
        &facet,
        "recovered",
    );
    (wrong, recovery_us)
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let texts = catalogue();
    let dir = args.scratch_dir("durable");
    let ready = run::setup(
        args.scale(CUBE_100K),
        args.seed,
        &texts,
        &SetupPlan {
            with_views: true,
            durable_dir: Some(&dir),
            serve: false,
        },
    );

    let picks = fixture::picks(args.seed, 0, 64);
    let budget = args.seconds * 1.1 + 1.0;
    let batches = stream::batches(
        &ready.fixture.base,
        &ready.fixture.facet,
        args.seed,
        &CYCLE,
        (budget * BATCHES_PER_SECOND as f64) as usize,
    );
    let engine = &*ready.engine;
    let warm = pass(engine, &texts, &picks, &batches, args.warmup(), None);
    let mut used = warm.used;
    let measured = pass(
        engine,
        &texts,
        &picks,
        &batches[used..],
        args.untraced_window(),
        None,
    );
    used += measured.used;

    let mut result = args.result();
    let mut acked_bytes = 0u64;
    let mut tally = |pass: &Pass, result: &mut RunResult| {
        result.attempted += pass.reads.attempted() + pass.writes.acked.len() as u64;
        result.failed += pass.reads.failed + pass.writes.failed;
        acked_bytes += pass.writes.ntriples_bytes;
    };
    tally(&warm, &mut result);
    tally(&measured, &mut result);

    if !args.trace {
        let metrics = &mut result.metrics;
        run::read_e2e(metrics, &measured.reads, measured.elapsed, args.smoke)?;
        run::update_e2e(metrics, &measured.writes, measured.elapsed, args.smoke)?;
        metrics.set("setup_s", ready.setup_s);
        // Before the checker's own copies of the data are built.
        metrics.set("peak_rss_mb", run::peak_rss_mb());
    } else {
        let fixture = &ready.fixture;
        result
            .metrics
            .set("store.snapshot_clone_us", run::snapshot_clone_us(engine));
        let snapshot = engine.snapshot();
        let views = engine.views();
        let read_replay = ReadReplay {
            facet: fixture.facet.clone(),
            views: views.clone(),
            pinned: snapshot.clone(),
        };
        let replay_dir = args.scratch_dir("replay_log");
        let mut write_replay = WriteReplay::new(
            snapshot,
            &fixture.facet,
            &views,
            Some(run::durability(&replay_dir)),
        );
        let epoch = Instant::now();
        let mut traced = pass(
            engine,
            &texts,
            &picks,
            &batches[used..],
            args.traced_window(),
            Some((epoch, &read_replay)),
        );
        // Replay the pass's deltas by layer once the writer is done.
        let mut rec = Recorder::enabled(epoch, WRITER_THREAD + 1);
        write_replay.replay_all(
            &batches[used..used + traced.used],
            WRITER_REQUESTS,
            &mut rec,
        );
        traced.spans.extend(rec.into_spans());
        used += traced.used;
        tally(&traced, &mut result);

        let layers = &mut result.metrics;
        run::read_layers(layers, &traced.spans, &traced.reads, engine);
        run::update_layers(layers, &traced.spans, &traced.writes, true);
        run::trace_overhead_ratio(
            layers,
            &measured.writes.latencies_ns(),
            &traced.writes.latencies_ns(),
        );
        run::setup_layers(layers, fixture);
        let mut plan_hash = Fnv::default();
        plan_hash.write_picks(&picks);
        for b in &batches {
            hash_delta(&mut plan_hash, &b.delta);
        }
        layers.set("client.plan_hash", plan_hash.metric());
        run::write_trace(args, &traced.spans)?;
        drop(write_replay);
        let _ = std::fs::remove_dir_all(&replay_dir);
    }
    if result.failed > 0 {
        // An unacknowledged delta may or may not have been applied; the
        // state check below would be meaningless.
        return Err(format!("{} operations failed", result.failed));
    }

    let (wrong, recovery_us) = verify(
        ready,
        &batches[..used],
        &dir,
        &mut result.metrics,
        acked_bytes,
    );
    result.wrong_answers = wrong;
    result.metrics.set("store.persist.recovery_us", recovery_us);
    let _ = std::fs::remove_dir_all(&dir);
    if !args.trace {
        // `verify` adds per-layer numbers; an untraced run reports only
        // what its window measured.
        result
            .metrics
            .0
            .retain(|name, _| crate::report::END_TO_END.iter().any(|m| m.name == name));
    }
    Ok(result)
}
