//! `http_open`: independent users arriving at the front door.
//!
//! An in-process `sofos_server::serve` (two workers, in-flight cap two) is
//! driven **open loop**: `openloop::plan` fixes every request's due time up
//! front — Poisson arrivals at the frozen [`RATE_RPS`], 90 % `POST /query`
//! and 10 % `POST /update` — and two lanes replay the plan, one connection
//! per request. Latency counts from the request's *due* time, so a stall
//! charges the requests queued behind it. This is the only workload that
//! pays for connect, accept, queueing, HTTP and JSON; the in-process
//! workloads bypass all of them.

use crate::check::Expected;
use crate::fixture::{self, catalogue, CLIENTS, CUBE_100K};
use crate::ops::{Fnv, ReadReplay, ReplayRows};
use crate::report::{Metrics, RunResult};
use crate::run::{self, Args, SetupPlan};
use crate::stats::{self, P50, P95, P99};
use crate::stream;
use crate::trace::{self, Recorder, Span};
use sofos_rdf::parse_ntriples;
use sofos_server::http::{Limits, RequestReader, Response};
use sofos_sparql::parse_query;
use sofos_store::Delta;
use sofos_telemetry::Json;
use sofos_workload::openloop::{PlannedKind, PlannedRequest};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered load, requests per second. Measured once on the seed commit as
/// 40 % of the two-lane closed-loop capacity (`sofos-e2e calibrate`),
/// rounded to a multiple of 10, and never recalibrated at run time: a
/// benchmark that re-derives its load from the system under test hides the
/// regressions it is there to show.
pub const RATE_RPS: f64 = 80.0;
/// 90 % `POST /query`, 10 % `POST /update`.
const UPDATE_EVERY: usize = 10;

/// Time as the lanes see it; the unit test drives a fake one.
pub trait Clock: Sync {
    fn now_ns(&self) -> u64;
    fn sleep_until_ns(&self, due_ns: u64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until_ns(&self, due_ns: u64) {
        let now = self.now_ns();
        if due_ns > now {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
    }
}

/// What one request/response exchange observed; times on the lane clock.
#[derive(Debug, Clone, Default)]
pub struct Exchange {
    /// HTTP status; 0 for a transport failure.
    pub status: u16,
    pub connected_ns: u64,
    pub written_ns: u64,
    pub first_byte_ns: u64,
    /// The response body, when the caller asked to keep it.
    pub body: Option<Vec<u8>>,
}

/// One request's fate.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub index: usize,
    pub due_ns: u64,
    /// When a lane became free and picked this request up.
    pub fetched_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub exchange: Exchange,
}

impl Outcome {
    /// Open-loop latency: from when the request was *due*, not from when
    /// a lane got round to sending it.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator itself ran: send time past the later of the
    /// due time and the moment a lane was free.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns
            .saturating_sub(self.due_ns.max(self.fetched_ns))
    }

    /// How long the request waited for one of the two lanes. Part of the
    /// latency, as queueing at the in-flight cap.
    pub fn lane_wait_ns(&self) -> u64 {
        self.fetched_ns.saturating_sub(self.due_ns)
    }

    pub fn ok(&self) -> bool {
        self.exchange.status == 200
    }
}

/// One lane: take the next request of the plan, wait until it is due,
/// exchange it, repeat until the plan is exhausted.
pub fn drive_lane<C: Clock>(
    clock: &C,
    next: &AtomicUsize,
    schedule: &[PlannedRequest],
    mut exchange: impl FnMut(usize, &PlannedRequest) -> Exchange,
) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = schedule.get(index) else {
            return outcomes;
        };
        let fetched_ns = clock.now_ns();
        let due_ns = slot.at_us * 1000;
        clock.sleep_until_ns(due_ns);
        let sent_ns = clock.now_ns();
        let exchange = exchange(index, slot);
        outcomes.push(Outcome {
            index,
            due_ns,
            fetched_ns,
            sent_ns,
            done_ns: clock.now_ns(),
            exchange,
        });
    }
}

/// One `Connection: close` exchange over a fresh connection.
fn exchange(
    addr: SocketAddr,
    clock: &WallClock,
    slot: &PlannedRequest,
    keep_body: bool,
) -> Exchange {
    let mut out = Exchange::default();
    let attempt = |out: &mut Exchange| -> Option<()> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).ok()?;
        stream.set_nodelay(true).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok()?;
        out.connected_ns = clock.now_ns();
        stream.write_all(&request_bytes(slot)).ok()?;
        out.written_ns = clock.now_ns();

        let mut buf = Vec::with_capacity(4096);
        let mut chunk = [0u8; 4096];
        let header_end = loop {
            if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break end;
            }
            let n = stream.read(&mut chunk).ok().filter(|&n| n > 0)?;
            if buf.is_empty() {
                out.first_byte_ns = clock.now_ns();
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..header_end]).ok()?;
        let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
        let length: usize = head.lines().find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })?;
        let mut body = buf.split_off(header_end + 4);
        while body.len() < length {
            let n = stream.read(&mut chunk).ok().filter(|&n| n > 0)?;
            body.extend_from_slice(&chunk[..n]);
        }
        out.status = status;
        out.body = keep_body.then_some(body);
        Some(())
    };
    if attempt(&mut out).is_none() {
        out.status = 0;
    }
    out
}

fn request_bytes(slot: &PlannedRequest) -> Vec<u8> {
    format!(
        "POST {} HTTP/1.1\r\nHost: sofos-e2e\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        slot.path,
        slot.body.len(),
        slot.body
    )
    .into_bytes()
}

/// Replay `schedule` over [`CLIENTS`] lanes. When `traced`, each exchange
/// is recorded as a root span with its socket phases as children, and
/// every [`crate::ops::REPLAY_EVERY`]th response body is kept.
fn replay_schedule(
    addr: SocketAddr,
    schedule: &[PlannedRequest],
    traced: bool,
) -> (Vec<Outcome>, Duration, Vec<Span>) {
    let clock = WallClock(Instant::now());
    let next = AtomicUsize::new(0);
    let per_lane: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    drive_lane(&clock, &next, schedule, |index, slot| {
                        let keep =
                            traced && (index as u64).is_multiple_of(crate::ops::REPLAY_EVERY);
                        exchange(addr, &clock, slot, keep)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread"))
            .collect()
    });
    let wall = clock.0.elapsed();
    let mut outcomes: Vec<Outcome> = per_lane.into_iter().flatten().collect();
    outcomes.sort_by_key(|o| o.index);

    let mut spans = Vec::new();
    if traced {
        let mut rec = Recorder::enabled(clock.0, 0);
        for o in outcomes.iter().filter(|o| o.ok()) {
            rec.set_request(o.index as u64 + 1);
            let name = match schedule[o.index].kind {
                PlannedKind::Query(_) => "op.http_query",
                PlannedKind::Update(_) => "op.http_update",
            };
            let e = &o.exchange;
            let root = rec.record(name, 0, o.sent_ns, o.done_ns);
            rec.record("client.connect", root, o.sent_ns, e.connected_ns);
            rec.record("client.write", root, e.connected_ns, e.written_ns);
            rec.record("client.ttfb", root, e.written_ns, e.first_byte_ns);
            rec.record("client.read", root, e.first_byte_ns, o.done_ns);
        }
        spans = rec.into_spans();
    }
    (outcomes, wall, spans)
}

fn is_query(schedule: &[PlannedRequest], o: &Outcome) -> bool {
    matches!(schedule[o.index].kind, PlannedKind::Query(_))
}

fn latencies(schedule: &[PlannedRequest], outcomes: &[Outcome], queries: bool) -> Vec<u64> {
    outcomes
        .iter()
        .filter(|o| o.ok() && is_query(schedule, o) == queries)
        .map(Outcome::latency_ns)
        .collect()
}

/// The answer as the server's JSON document: rows of N-Triples strings.
/// Built from the replayed answer rather than parsed back from the wire:
/// `Json::parse` rescans the rest of the document at every character, so
/// a 1 MB answer would take it minutes.
fn answer_document(results: &sofos_sparql::QueryResults) -> Json {
    let rows = results
        .rows
        .iter()
        .map(|row| {
            Json::Array(
                row.iter()
                    .map(|cell| {
                        cell.as_ref()
                            .map_or(Json::Null, |t| Json::from(t.to_string()))
                    })
                    .collect(),
            )
        })
        .collect();
    Json::object([
        (
            "vars",
            Json::Array(
                results
                    .vars
                    .iter()
                    .map(|v| Json::from(v.as_str()))
                    .collect(),
            ),
        ),
        ("rows", Json::Array(rows)),
    ])
}

/// Replay every eighth exchange by layer, after the pass (a lane that
/// stopped to replay would send its next request late). The order is the
/// server's: read the request off the wire, parse its JSON body, run the
/// query or parse the N-Triples, render the answer, write the response.
fn replay_layers(
    schedule: &[PlannedRequest],
    outcomes: &[Outcome],
    replay: &ReadReplay,
    rec: &mut Recorder,
) {
    let mut rows = ReplayRows::default();
    for o in outcomes.iter().filter(|o| o.ok()) {
        let Some(answer) = &o.exchange.body else {
            continue;
        };
        let slot = &schedule[o.index];
        let wire = request_bytes(slot);
        rec.set_request(o.index as u64 + 1);
        rec.span("decomposed", |rec| {
            rec.span("server.http_parse", |_| {
                RequestReader::new(wire.as_slice(), Limits::default()).next_request()
            })
            .ok();
            let body = rec.span("telemetry.json_parse", |_| Json::parse(&slot.body));
            let Ok(body) = body else {
                return;
            };
            match slot.kind {
                PlannedKind::Query(_) => {
                    let text = body.get("query").and_then(Json::as_str).unwrap_or("");
                    let Ok(query) = rec.span("sparql.parse", |_| parse_query(text)) else {
                        return;
                    };
                    if let Some(results) = replay.layers(&query, rec, &mut rows) {
                        rec.span("telemetry.json_render", |_| {
                            answer_document(&results).to_string()
                        });
                    }
                }
                PlannedKind::Update(_) => {
                    let doc = body.get("insert").and_then(Json::as_str).unwrap_or("");
                    rec.span("rdf.ntriples_parse", |_| parse_ntriples(doc)).ok();
                }
            }
            rec.span("server.response_write", |_| {
                let mut sink = Vec::with_capacity(answer.len() + 128);
                let body = String::from_utf8_lossy(answer).into_owned();
                Response::json(200, body).write_to(&mut sink, false)
            })
            .ok();
        });
    }
}

/// The open-loop plan: `requests` arrivals over `requests / rate` seconds.
///
/// The arrival *times* are Poisson: exponential gaps from the seed, scaled
/// so the last arrival falls at the end of the window (given their number,
/// Poisson arrivals are uniform over the window, so this is the same
/// process with the count fixed). The *mix* is exact: one request in every
/// [`UPDATE_EVERY`] is an update, at a position the seed picks, and the
/// queries follow [`fixture::picks`]. `openloop::plan` draws the count, the
/// read/write coin and the query pick independently per request; at 800
/// requests the offered load, the update share and the share of heavy
/// queries then each move by several percent from seed to seed, and with
/// them every number this workload reports.
///
/// `Update(i)` indexes `docs`, consumed in order.
fn plan(
    rate: f64,
    requests: usize,
    seed: u64,
    texts: &[String],
    docs: &[String],
) -> Vec<PlannedRequest> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0A11_0A11);
    let picks = fixture::picks(seed, 0xD00D, requests.div_ceil(100));
    let mut clock = 0.0f64;
    let mut update_at = 0usize;
    let mut next_doc = 0usize;
    let mut schedule: Vec<(f64, PlannedRequest)> = Vec::with_capacity(requests);
    for (i, &pick) in picks.iter().enumerate().take(requests) {
        clock += -(1.0 - rng.gen_range(0.0..1.0f64)).ln();
        if i % UPDATE_EVERY == 0 {
            update_at = i + rng.gen_range(0..UPDATE_EVERY);
        }
        let (kind, path, body) = if i == update_at && next_doc < docs.len() {
            next_doc += 1;
            (
                PlannedKind::Update(next_doc - 1),
                "/update",
                Json::object([("insert", Json::from(docs[next_doc - 1].as_str()))]),
            )
        } else {
            let pick = pick as usize;
            (
                PlannedKind::Query(pick),
                "/query",
                Json::object([("query", Json::from(texts[pick].as_str()))]),
            )
        };
        schedule.push((
            clock,
            PlannedRequest {
                at_us: 0,
                kind,
                path,
                body: body.to_string(),
            },
        ));
    }
    let window_us = requests as f64 / rate * 1e6;
    schedule
        .into_iter()
        .map(|(at, mut slot)| {
            slot.at_us = (at / clock * window_us) as u64;
            slot
        })
        .collect()
}

/// The server must hold the base graph plus every acknowledged insert,
/// and views equal to their re-materialization.
fn verify(ready: &run::Ready, passes: &[(&[PlannedRequest], &[Outcome], &[String])]) -> u64 {
    let engine = &ready.engine;
    engine.flush().expect("flush runs");
    let mut replayed = ready.fixture.base.clone();
    for (schedule, outcomes, docs) in passes {
        for o in outcomes.iter().filter(|o| o.ok()) {
            // `Update(i)` indexes the documents its plan was drawn over.
            let PlannedKind::Update(doc) = schedule[o.index].kind else {
                continue;
            };
            let mut delta = Delta::new();
            for t in parse_ntriples(&docs[doc])
                .expect("update document parses")
                .iter()
            {
                delta.insert(t.subject.clone(), t.predicate.clone(), t.object.clone());
            }
            replayed.apply(delta);
        }
    }
    let masks = ready.fixture.catalog.iter().map(|v| v.0).collect();
    Expected::new(replayed, &ready.fixture.facet, masks).mismatches(
        &engine.snapshot(),
        &engine.views(),
        &ready.fixture.facet,
        "served",
    )
}

fn door_layers(
    metrics: &mut Metrics,
    ready: &run::Ready,
    spans: &[Span],
    schedule: &[PlannedRequest],
    outcomes: &[Outcome],
) {
    let median = |name: &str| stats::median_us(&trace::durations_ns(spans, name));
    for (metric, span) in [
        ("client.connect_us", "client.connect"),
        ("client.ttfb_us", "client.ttfb"),
        ("sparql.parse_us", "sparql.parse"),
        ("rewrite.analyze_us", "rewrite.analyze"),
        ("rewrite.best_view_us", "rewrite.best_view"),
        ("rewrite.rewrite_us", "rewrite.rewrite"),
        ("sparql.eval_us", "sparql.eval"),
        ("rdf.ntriples_parse_us", "rdf.ntriples_parse"),
        ("telemetry.json_parse_us", "telemetry.json_parse"),
        ("telemetry.json_render_us", "telemetry.json_render"),
        ("server.http_parse_us", "server.http_parse"),
        ("server.response_write_us", "server.response_write"),
    ] {
        metrics.set(metric, median(span));
    }
    let handler = ready
        .engine
        .metrics()
        .snapshot()
        .histogram("sofos_http_latency_us", &[("route", "query")])
        .map_or(0.0, |h| h.snapshot.p50() as f64);
    metrics.set("server.handler_p50_us", handler);
    metrics.set("server.door_us", median("op.http_query") - handler);
    if let Some(server) = &ready.server {
        let s = server.stats();
        metrics.set("server.served", s.served as f64);
        metrics.set("server.rejected_connections", s.rejected_connections as f64);
        metrics.set("server.bad_requests", s.bad_requests as f64);
    }
    let lags: Vec<u64> = outcomes.iter().map(Outcome::lag_ns).collect();
    let waits: Vec<u64> = outcomes.iter().map(Outcome::lane_wait_ns).collect();
    let queries = latencies(schedule, outcomes, true);
    let updates = latencies(schedule, outcomes, false);
    run::set_tail(metrics, "client.lag_p95_us", &lags, P95);
    run::set_tail(metrics, "client.lane_wait_p95_us", &waits, P95);
    run::set_tail(metrics, "client.query_p99_us", &queries, P99);
    run::set_tail(metrics, "client.update_p95_us", &updates, P95);
    run::set_tail(metrics, "client.update_p99_us", &updates, P99);
    metrics.set("client.samples.query", queries.len() as f64);
    metrics.set("client.samples.update", updates.len() as f64);
    run::view_hit_ratio(metrics, &ready.engine);
    run::span_coverage(metrics, spans, "op.http_");
}

fn set_up(args: &Args, texts: &[String]) -> run::Ready {
    run::setup(
        args.scale(CUBE_100K),
        args.seed,
        texts,
        &SetupPlan {
            with_views: true,
            durable_dir: None,
            serve: true,
        },
    )
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let texts = catalogue();
    let ready = set_up(args, &texts);
    let addr = ready.server.as_ref().expect("server is up").addr();

    // Three plans from the seed: warm-up, untraced window, traced pass,
    // each over its own slice of fresh update documents.
    let count = |seconds: f64| (RATE_RPS * seconds).round().max(1.0) as usize;
    let lengths = [
        count(args.warmup().as_secs_f64()),
        count(args.untraced_window().as_secs_f64()),
        if args.trace {
            count(args.traced_window().as_secs_f64())
        } else {
            0
        },
    ];
    let needed = lengths.map(|n| n.div_ceil(UPDATE_EVERY));
    let docs = stream::insert_docs(
        &ready.fixture.base,
        &ready.fixture.facet,
        args.seed,
        needed.iter().sum(),
    );
    let mut doc_slices: Vec<&[String]> = Vec::new();
    let mut rest = docs.as_slice();
    for n in needed {
        let (mine, others) = rest.split_at(n);
        doc_slices.push(mine);
        rest = others;
    }
    let schedules: Vec<Vec<PlannedRequest>> = (0..3)
        .map(|i| {
            plan(
                RATE_RPS,
                lengths[i],
                args.seed * 3 + i as u64,
                &texts,
                doc_slices[i],
            )
        })
        .collect();
    run::progress(&args.workload, "set up; warming up");
    let (warm, _, _) = replay_schedule(addr, &schedules[0], false);
    run::progress(&args.workload, "untraced window");
    let (measured, wall, _) = replay_schedule(addr, &schedules[1], false);

    let mut result = args.result();
    result.attempted = (warm.len() + measured.len()) as u64;
    result.failed = (warm.iter().chain(&measured)).filter(|o| !o.ok()).count() as u64;
    let queries = latencies(&schedules[1], &measured, true);
    let updates = latencies(&schedules[1], &measured, false);

    let mut traced_outcomes = Vec::new();
    if !args.trace {
        let metrics = &mut result.metrics;
        run::set_percentile(metrics, "query_p50_us", &queries, P50, args.smoke)?;
        run::set_percentile(metrics, "query_p95_us", &queries, P95, args.smoke)?;
        metrics.set_sampled(
            "queries_per_s",
            queries.len() as f64 / wall.as_secs_f64(),
            queries.len(),
        );
        run::set_percentile(metrics, "update_p50_us", &updates, P50, args.smoke)?;
        // 4 dimension triples and the measure per inserted observation.
        let triples = updates.len() * stream::PROBE_BATCH * 5;
        metrics.set_sampled(
            "update_triples_per_s",
            triples as f64 / wall.as_secs_f64(),
            updates.len(),
        );
        metrics.set("setup_s", ready.setup_s);
        metrics.set("peak_rss_mb", run::peak_rss_mb());
    } else {
        let replay = ReadReplay {
            facet: ready.fixture.facet.clone(),
            views: ready.engine.views(),
            pinned: ready.engine.snapshot(),
        };
        result.metrics.set(
            "store.snapshot_clone_us",
            run::snapshot_clone_us(&ready.engine),
        );
        run::progress(&args.workload, "traced pass");
        let (outcomes, _, mut spans) = replay_schedule(addr, &schedules[2], true);
        result.attempted += outcomes.len() as u64;
        result.failed += outcomes.iter().filter(|o| !o.ok()).count() as u64;
        run::progress(&args.workload, "replaying by layer");
        let mut rec = Recorder::enabled(Instant::now(), 1);
        replay_layers(&schedules[2], &outcomes, &replay, &mut rec);
        spans.extend(rec.into_spans());

        let layers = &mut result.metrics;
        door_layers(layers, &ready, &spans, &schedules[2], &outcomes);
        // Send → last byte, not due → last byte: the two windows replay
        // different arrival patterns, and only the exchange is traced.
        let service = |schedule: &[PlannedRequest], outcomes: &[Outcome]| -> Vec<u64> {
            outcomes
                .iter()
                .filter(|o| o.ok() && is_query(schedule, o))
                .map(|o| o.done_ns - o.sent_ns)
                .collect()
        };
        run::trace_overhead_ratio(
            layers,
            &service(&schedules[1], &measured),
            &service(&schedules[2], &outcomes),
        );
        run::setup_layers(layers, &ready.fixture);
        run::engine_layers(layers, &ready.engine);
        let mut plan_hash = Fnv::default();
        for slot in schedules.iter().flatten() {
            plan_hash.write(&slot.at_us.to_le_bytes());
            plan_hash.write(slot.body.as_bytes());
        }
        layers.set("client.plan_hash", plan_hash.metric());
        run::write_trace(args, &spans)?;
        traced_outcomes = outcomes;
    }

    run::progress(&args.workload, "checking the served state");
    let wrong = verify(
        &ready,
        &[
            (&schedules[0], &warm, doc_slices[0]),
            (&schedules[1], &measured, doc_slices[1]),
            (&schedules[2], &traced_outcomes, doc_slices[2]),
        ],
    );
    result.wrong_answers = wrong;
    if let Some(server) = ready.server {
        server.shutdown();
    }
    Ok(result)
}

/// `sofos-e2e calibrate`: the two-lane closed-loop capacity of the mix,
/// from which [`RATE_RPS`] was frozen. Every request is due at once, so
/// the lanes run back to back.
pub fn calibrate(args: &Args) -> Result<(), String> {
    let texts = catalogue();
    let ready = set_up(args, &texts);
    let addr = ready.server.as_ref().expect("server is up").addr();
    let requests = (args.seconds * 400.0) as usize;
    let docs = stream::insert_docs(
        &ready.fixture.base,
        &ready.fixture.facet,
        args.seed,
        requests.div_ceil(UPDATE_EVERY),
    );
    let mut schedule = plan(1e9, requests, args.seed, &texts, &docs);
    for slot in &mut schedule {
        slot.at_us = 0;
    }
    let (outcomes, wall, _) = replay_schedule(addr, &schedule, false);
    let ok = outcomes.iter().filter(|o| o.ok()).count();
    let mut statuses = std::collections::BTreeMap::new();
    for o in &outcomes {
        *statuses.entry(o.exchange.status).or_insert(0usize) += 1;
    }
    println!("statuses: {statuses:?}");
    let capacity = ok as f64 / wall.as_secs_f64();
    println!(
        "closed loop over {CLIENTS} lanes: {ok}/{} ok in {:.2} s = {capacity:.1} rps; 40 % = {:.1} rps",
        outcomes.len(),
        wall.as_secs_f64(),
        capacity * 0.4
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A clock that only moves when told to.
    struct FakeClock(AtomicU64);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }

        fn sleep_until_ns(&self, due_ns: u64) {
            self.0.fetch_max(due_ns, Ordering::SeqCst);
        }
    }

    fn slot(at_us: u64) -> PlannedRequest {
        PlannedRequest {
            at_us,
            kind: PlannedKind::Query(0),
            path: "/query",
            body: String::new(),
        }
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // Two requests due at 1 ms and 2 ms; each exchange takes 5 ms, so
        // the single lane sends the second one 4 ms late.
        let clock = FakeClock(AtomicU64::new(0));
        let schedule = [slot(1_000), slot(2_000)];
        let next = AtomicUsize::new(0);
        let outcomes = drive_lane(&clock, &next, &schedule, |_, _| {
            clock.0.fetch_add(5_000_000, Ordering::SeqCst);
            Exchange {
                status: 200,
                ..Exchange::default()
            }
        });
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].sent_ns, 1_000_000);
        assert_eq!(outcomes[0].latency_ns(), 5_000_000);
        // Sent at 6 ms, done at 11 ms, due at 2 ms: 9 ms, not 5 ms.
        assert_eq!(outcomes[1].sent_ns, 6_000_000);
        assert_eq!(outcomes[1].done_ns - outcomes[1].sent_ns, 5_000_000);
        assert_eq!(outcomes[1].latency_ns(), 9_000_000);
        // The lane was busy, the generator was not late.
        assert_eq!(outcomes[1].lane_wait_ns(), 4_000_000);
        assert_eq!(outcomes[1].lag_ns(), 0);
    }

    #[test]
    fn same_seed_same_plan() {
        let texts: Vec<String> = (0..fixture::CATALOGUE_QUERIES)
            .map(|i| format!("q{i}"))
            .collect();
        let docs = vec!["d".to_string(); 5];
        let hash = |seed| {
            let mut h = Fnv::default();
            for s in plan(100.0, 50, seed, &texts, &docs) {
                h.write(&s.at_us.to_le_bytes());
                h.write(s.body.as_bytes());
            }
            h.0
        };
        assert_eq!(hash(1), hash(1));
        assert_ne!(hash(1), hash(2));
    }

    #[test]
    fn plan_has_the_exact_mix_and_fills_its_window() {
        let texts: Vec<String> = (0..fixture::CATALOGUE_QUERIES)
            .map(|i| format!("q{i}"))
            .collect();
        let docs = vec!["d".to_string(); 20];
        let schedule = plan(100.0, 200, 9, &texts, &docs);
        for block in schedule.chunks(UPDATE_EVERY) {
            let updates = block
                .iter()
                .filter(|s| matches!(s.kind, PlannedKind::Update(_)))
                .count();
            assert_eq!(updates, 1);
        }
        assert!(schedule.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(schedule.last().unwrap().at_us, 2_000_000);
    }
}
