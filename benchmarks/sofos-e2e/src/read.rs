//! `view_read` and `base_read`: the paper's online phase and its no-view
//! baseline. Closed loop, two threads; the op is `parse_query`, then
//! `Engine::query`, then a walk over the rows. The two differ only in the
//! catalog (four views against none) and the cube size, so a routing or
//! rewrite gain must show on `view_read` and not on `base_read`, and an
//! evaluator or index gain the other way round.
//!
//! After the read window both run a short single-writer *update probe*
//! (non-durable batches of 16 observations, nobody reading): it is where
//! the cost of publishing an epoch over a 5×10^5-triple store, and of
//! `Dataset::apply` with no view to maintain, shows end to end.

use crate::check;
use crate::fixture::{self, catalogue, CLIENTS, CUBE_100K, CUBE_500K};
use crate::ops::{
    hash_delta, write_loop, Batch, Fnv, ReadReplay, ReadStats, Reader, WriteReplay, WriteStats,
};
use crate::report::RunResult;
use crate::run::{self, Args, SetupPlan};
use crate::stream::{self, PROBE_BATCH};
use crate::trace::{Recorder, Span};
use sofos_core::Engine;
use std::time::{Duration, Instant};

/// Probe batches applied before the measured ones.
const PROBE_WARMUP: usize = 4;
/// Probe batches generated; the probe stops after [`PROBE_SHARE`] of the
/// run's seconds or when these run out, whichever is first.
const PROBE_BATCHES: usize = 1600;
/// Op ids of the probe's updates start here, clear of the readers'.
const PROBE_REQUESTS: u64 = (CLIENTS as u64) << 32;
/// Share of `--seconds` the probe measures for.
const PROBE_SHARE: f64 = 0.5;

struct Window<'a> {
    engine: &'a Engine,
    texts: &'a [String],
    picks: &'a [Vec<u16>],
    oracle: Option<&'a [sofos_sparql::QueryResults]>,
}

impl Window<'_> {
    /// Run the closed loop on [`CLIENTS`] threads for `length`.
    fn run(
        &self,
        length: Duration,
        replay: Option<&ReadReplay>,
        epoch: Option<Instant>,
    ) -> (ReadStats, Duration, Vec<Span>) {
        let start = Instant::now();
        let per_thread: Vec<(ReadStats, Vec<Span>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    let reader = Reader {
                        engine: self.engine,
                        texts: self.texts,
                        picks: &self.picks[t],
                        oracle: self.oracle,
                        replay,
                    };
                    scope.spawn(move || {
                        let mut rec = match epoch {
                            Some(epoch) => Recorder::enabled(epoch, t as u64),
                            None => Recorder::disabled(),
                        };
                        let stats = reader.run(t as u64, &mut rec, length, None);
                        (stats, rec.into_spans())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        });
        let elapsed = start.elapsed();
        let mut all = ReadStats::default();
        let mut spans = Vec::new();
        for (stats, s) in per_thread {
            all.merge(stats);
            spans.extend(s);
        }
        (all, elapsed, spans)
    }
}

/// Run the update probe for `window`. Returns the stats of the measured
/// batches, the time the writer was busy, and every batch it consumed
/// (warm-up included) for a replay by layer.
fn probe<'a>(
    engine: &Engine,
    batches: &'a [Batch],
    window: Duration,
    rec: &mut Recorder,
) -> (WriteStats, Duration, &'a [Batch]) {
    let (warm, measured) = batches.split_at(PROBE_WARMUP.min(batches.len()));
    let mut discard = WriteStats::default();
    write_loop(
        engine,
        warm,
        &mut Recorder::disabled(),
        0,
        window,
        &mut discard,
    );
    let mut stats = WriteStats::default();
    let used = write_loop(engine, measured, rec, PROBE_REQUESTS, window, &mut stats);
    let busy = Duration::from_nanos(stats.acked.iter().map(|a| a.latency_ns).sum());
    (stats, busy, &batches[..warm.len() + used])
}

pub fn run(args: &Args, with_views: bool) -> Result<RunResult, String> {
    let texts = catalogue();
    let scale = args.scale(if with_views { CUBE_500K } else { CUBE_100K });
    let ready = run::setup(
        scale,
        args.seed,
        &texts,
        &SetupPlan {
            with_views,
            durable_dir: None,
            serve: false,
        },
    );
    let (fixture, engine) = (&ready.fixture, &*ready.engine);

    // Inputs, all from the seed.
    let picks: Vec<Vec<u16>> = (0..CLIENTS as u64)
        .map(|t| fixture::picks(args.seed, t, 64))
        .collect();
    let probe_window = Duration::from_secs_f64(args.seconds * PROBE_SHARE);

    let oracle = check::oracle(&fixture.base, &texts);
    let mut window = Window {
        engine,
        texts: &texts,
        picks: &picks,
        oracle: None,
    };
    window.run(args.warmup(), None, None);
    window.oracle = Some(&oracle);

    let mut result = args.result();
    let (reads, elapsed, _) = window.run(args.untraced_window(), None, None);
    result.attempted = reads.attempted();
    result.failed = reads.failed;
    result.wrong_answers = reads.wrong;

    // The probe's batches are generated only now: pre-generated, they
    // would be the largest thing in the process and `peak_rss_mb` would
    // measure the benchmark's own input.
    let peak_rss_mb = run::peak_rss_mb();
    let probe_batches = stream::batches(
        &fixture.base,
        &fixture.facet,
        args.seed,
        &[PROBE_BATCH],
        PROBE_WARMUP + PROBE_BATCHES,
    );

    if !args.trace {
        run::read_e2e(&mut result.metrics, &reads, elapsed, args.smoke)?;
        let (writes, busy, _) = probe(
            engine,
            &probe_batches,
            probe_window,
            &mut Recorder::disabled(),
        );
        result.attempted += writes.acked.len() as u64 + writes.failed;
        result.failed += writes.failed;
        run::update_e2e(&mut result.metrics, &writes, busy, args.smoke)?;
        result.metrics.set("setup_s", ready.setup_s);
        result.metrics.set("peak_rss_mb", peak_rss_mb);
        return Ok(result);
    }

    // Traced pass: the same loop with spans on, every eighth op replayed
    // by layer on a snapshot pinned once.
    let layers = &mut result.metrics;
    layers.set("store.snapshot_clone_us", run::snapshot_clone_us(engine));
    let replay = ReadReplay {
        facet: fixture.facet.clone(),
        views: engine.views(),
        pinned: engine.snapshot(),
    };
    let epoch = Instant::now();
    let (traced, _, mut spans) = window.run(args.traced_window(), Some(&replay), Some(epoch));
    result.attempted += traced.attempted();
    result.failed += traced.failed;
    result.wrong_answers += traced.wrong;
    run::read_layers(layers, &spans, &traced, engine);
    run::trace_overhead_ratio(layers, &reads.latencies_ns, &traced.latencies_ns);

    let mut write_replay = WriteReplay::new(replay.pinned, &fixture.facet, &replay.views, None);
    let mut rec = Recorder::enabled(epoch, CLIENTS as u64);
    let (writes, _, consumed) = probe(engine, &probe_batches, probe_window, &mut rec);
    result.failed += writes.failed;
    // The warm-up batches are replayed too (the private copies must see
    // them) under op ids below the measured ones.
    write_replay.replay_all(consumed, PROBE_REQUESTS - PROBE_WARMUP as u64, &mut rec);
    let probe_spans = rec.into_spans();
    run::update_layers(layers, &probe_spans, &writes, false);
    spans.extend(probe_spans);

    run::setup_layers(layers, fixture);
    run::engine_layers(layers, engine);
    let mut plan_hash = Fnv::default();
    for p in &picks {
        plan_hash.write_picks(p);
    }
    for b in &probe_batches {
        hash_delta(&mut plan_hash, &b.delta);
    }
    layers.set("client.plan_hash", plan_hash.metric());
    run::write_trace(args, &spans)?;
    Ok(result)
}
