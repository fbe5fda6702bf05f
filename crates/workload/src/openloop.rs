//! Open-loop load generation over real sockets.
//!
//! Closed-loop clients (issue, wait, issue) hide saturation: when the
//! server slows down, a closed loop slows its own offered load, so tail
//! latency looks flat right up to collapse. An *open* loop decides every
//! request's send time up front — Poisson arrivals at a configured rate —
//! and holds to that schedule whether or not the server keeps up, which
//! is the only way "throughput vs p99 up to and past saturation"
//! (`e11_serving`) means anything.
//!
//! Two halves, deliberately split:
//!
//! * [`plan`] is pure and deterministic per seed: exponential
//!   inter-arrival times at [`OpenLoopConfig::arrival_rate`], a zipf pick
//!   over the provided query texts (hot queries are hot, like the rest of
//!   the workload crate), and a read/write coin at
//!   [`OpenLoopConfig::read_ratio`]. The plan is plain data — tests can
//!   assert on it without sockets.
//! * [`run`] replays a plan against a live server over
//!   [`OpenLoopConfig::lanes`] real TCP connections (one request per
//!   connection, `Connection: close`, so the server's admission control
//!   judges every request independently). Lanes are a practical cap on
//!   concurrency: if all lanes are busy when a request comes due, it is
//!   sent late and the delay is reported as *schedule skew* rather than
//!   silently folded into service latency — quasi-open-loop honesty.
//!
//! The harness speaks just enough HTTP/1.1 to send `POST` bodies and read
//! status + `Content-Length`-framed responses; transport failures are
//! recorded as status 0, server refusals surface as the 503s they are.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;
use sofos_telemetry::json::escape_into;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Open-loop schedule parameters.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Total requests in the schedule.
    pub requests: usize,
    /// Mean arrival rate (requests/second) of the Poisson process.
    pub arrival_rate: f64,
    /// Probability a request is a read (`POST /query`); the rest are
    /// writes (`POST /update`).
    pub read_ratio: f64,
    /// Zipf exponent over the query list (0 = uniform).
    pub zipf_skew: f64,
    /// Client connections replaying the schedule.
    pub lanes: usize,
    /// RNG seed; same seed, same schedule.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> OpenLoopConfig {
        OpenLoopConfig {
            requests: 100,
            arrival_rate: 200.0,
            read_ratio: 0.9,
            zipf_skew: 0.8,
            lanes: 16,
            seed: 42,
        }
    }
}

/// What kind of request a schedule slot carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedKind {
    /// `POST /query`, carrying the index of the chosen query text.
    Query(usize),
    /// `POST /update`, carrying the index of the chosen update document.
    Update(usize),
}

/// One slot of the open-loop schedule.
#[derive(Debug, Clone)]
pub struct PlannedRequest {
    /// Scheduled send time, µs from the start of the run.
    pub at_us: u64,
    /// Read or write, and which one.
    pub kind: PlannedKind,
    /// Request path (`/query` or `/update`).
    pub path: &'static str,
    /// The JSON body to send.
    pub body: String,
}

/// `{"<key>": "<text>"}`, with `text` escaped by the one JSON writer.
fn json_body(key: &str, text: &str) -> String {
    let mut body = format!("{{\"{key}\": ");
    escape_into(text, &mut body);
    body.push('}');
    body
}

/// Build a deterministic open-loop schedule.
///
/// `queries` are SPARQL texts (zipf-picked, so index 0 is the hottest);
/// `updates` are N-Triples documents for `/update` insert bodies,
/// consumed round-robin so a long run replays a finite update set.
/// Panics if either list is empty while the mix needs it.
pub fn plan(
    config: &OpenLoopConfig,
    queries: &[String],
    updates: &[String],
) -> Vec<PlannedRequest> {
    assert!(config.arrival_rate > 0.0, "arrival_rate must be positive");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zipf = Zipf::new(queries.len().max(1), config.zipf_skew);
    let mut schedule = Vec::with_capacity(config.requests);
    let mut clock_s = 0.0f64;
    let mut next_update = 0usize;
    for _ in 0..config.requests {
        // Exponential inter-arrival: -ln(1-U)/λ.
        let u: f64 = rng.gen_range(0.0..1.0);
        clock_s += -(1.0 - u).ln() / config.arrival_rate;
        let is_read = rng.gen_bool(config.read_ratio.clamp(0.0, 1.0));
        let (kind, path, body) = if is_read {
            assert!(!queries.is_empty(), "read mix needs at least one query");
            let pick = zipf.sample(&mut rng);
            (
                PlannedKind::Query(pick),
                "/query",
                json_body("query", &queries[pick]),
            )
        } else {
            assert!(!updates.is_empty(), "write mix needs at least one update");
            let pick = next_update % updates.len();
            next_update += 1;
            (
                PlannedKind::Update(pick),
                "/update",
                json_body("insert", &updates[pick]),
            )
        };
        schedule.push(PlannedRequest {
            at_us: (clock_s * 1e6) as u64,
            kind,
            path,
            body,
        });
    }
    schedule
}

/// One request's fate.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// When the schedule said to send it (µs from run start).
    pub scheduled_us: u64,
    /// When a lane actually sent it.
    pub sent_us: u64,
    /// When the response (or failure) was in hand.
    pub done_us: u64,
    /// HTTP status; 0 for transport failures.
    pub status: u16,
    /// Whether this was a `/query`.
    pub is_read: bool,
}

impl RequestOutcome {
    /// End-to-end latency as the client saw it (send → response).
    pub fn latency_us(&self) -> u64 {
        self.done_us.saturating_sub(self.sent_us)
    }

    /// How late the lane pool was against the schedule.
    pub fn skew_us(&self) -> u64 {
        self.sent_us.saturating_sub(self.scheduled_us)
    }
}

/// Everything a replayed schedule produced.
#[derive(Debug, Clone, Default)]
pub struct LoadOutcome {
    /// Per-request outcomes (schedule order not guaranteed).
    pub outcomes: Vec<RequestOutcome>,
    /// Wall time of the whole replay, µs.
    pub wall_us: u64,
}

impl LoadOutcome {
    /// Latencies of admitted (2xx) requests.
    pub fn admitted_latencies_us(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| (200..300).contains(&o.status))
            .map(RequestOutcome::latency_us)
            .collect()
    }

    /// Requests refused by admission control (503).
    pub fn rejected(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status == 503).count()
    }

    /// Requests that failed at the transport (no HTTP response).
    pub fn transport_errors(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status == 0).count()
    }

    /// Completed-and-admitted throughput over the replay wall time.
    pub fn achieved_rps(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.admitted_latencies_us().len() as f64 / (self.wall_us as f64 / 1e6)
    }

    /// 95th-percentile schedule skew — how honestly open-loop the replay
    /// was (large skew means the lane pool was the bottleneck, not the
    /// server).
    pub fn skew_p95_us(&self) -> u64 {
        let mut skews: Vec<u64> = self.outcomes.iter().map(RequestOutcome::skew_us).collect();
        if skews.is_empty() {
            return 0;
        }
        skews.sort_unstable();
        skews[(skews.len() - 1).min(skews.len() * 95 / 100)]
    }
}

/// Replay a schedule against a live server.
pub fn run(addr: SocketAddr, schedule: &[PlannedRequest], lanes: usize) -> LoadOutcome {
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes.max(1))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut recorded = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = schedule.get(i) else {
                            break;
                        };
                        let due = Duration::from_micros(slot.at_us);
                        let now = epoch.elapsed();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent_us = epoch.elapsed().as_micros() as u64;
                        let status = exchange(addr, slot).unwrap_or(0);
                        recorded.push(RequestOutcome {
                            scheduled_us: slot.at_us,
                            sent_us,
                            done_us: epoch.elapsed().as_micros() as u64,
                            status,
                            is_read: matches!(slot.kind, PlannedKind::Query(_)),
                        });
                    }
                    recorded
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("lane thread"))
            .collect()
    });
    LoadOutcome {
        outcomes,
        wall_us: epoch.elapsed().as_micros() as u64,
    }
}

/// One `Connection: close` request/response exchange; `None` on any
/// transport failure.
fn exchange(addr: SocketAddr, slot: &PlannedRequest) -> Option<u16> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).ok()?;
    stream.set_nodelay(true).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    let request = format!(
        "POST {} HTTP/1.1\r\nHost: openloop\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        slot.path,
        slot.body.len(),
        slot.body
    );
    stream.write_all(request.as_bytes()).ok()?;
    read_status_and_drain(&mut stream)
}

fn read_status_and_drain(stream: &mut TcpStream) -> Option<u16> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let header_end = loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break end;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = std::str::from_utf8(&buf[..header_end]).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().to_string())
        })?
        .parse()
        .ok()?;
    let mut have = buf.len() - header_end - 4;
    while have < content_length {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => have += n,
        }
    }
    Some(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn texts(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("SELECT q{i}")).collect()
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let config = OpenLoopConfig::default();
        let a = plan(&config, &texts(4), &texts(2));
        let b = plan(&config, &texts(4), &texts(2));
        assert_eq!(a.len(), config.requests);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_us, y.at_us);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.body, y.body);
        }
        let c = plan(&OpenLoopConfig { seed: 7, ..config }, &texts(4), &texts(2));
        assert!(a.iter().zip(&c).any(|(x, y)| x.at_us != y.at_us));
    }

    #[test]
    fn arrival_times_follow_the_rate() {
        let config = OpenLoopConfig {
            requests: 2000,
            arrival_rate: 1000.0,
            ..OpenLoopConfig::default()
        };
        let schedule = plan(&config, &texts(3), &texts(1));
        assert!(
            schedule.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "arrivals are cumulative"
        );
        // 2000 arrivals at 1000/s take ~2s; Poisson noise stays well
        // within ±20% at this sample size.
        let span_s = schedule.last().unwrap().at_us as f64 / 1e6;
        assert!((1.6..=2.4).contains(&span_s), "span {span_s}s");
    }

    #[test]
    fn mix_and_skew_shape_the_plan() {
        let config = OpenLoopConfig {
            requests: 1000,
            read_ratio: 0.8,
            zipf_skew: 1.2,
            ..OpenLoopConfig::default()
        };
        let schedule = plan(&config, &texts(8), &texts(2));
        let reads = schedule
            .iter()
            .filter(|r| matches!(r.kind, PlannedKind::Query(_)))
            .count();
        let share = reads as f64 / schedule.len() as f64;
        assert!((0.72..=0.88).contains(&share), "read share {share}");
        // Zipf: the hottest query dominates any single cold one.
        let hits = |idx: usize| {
            schedule
                .iter()
                .filter(|r| r.kind == PlannedKind::Query(idx))
                .count()
        };
        assert!(hits(0) > 3 * hits(7), "{} vs {}", hits(0), hits(7));
        // Updates rotate round-robin through the document list.
        let first_two: Vec<usize> = schedule
            .iter()
            .filter_map(|r| match r.kind {
                PlannedKind::Update(i) => Some(i),
                _ => None,
            })
            .take(2)
            .collect();
        assert_eq!(first_two, [0, 1]);
    }

    #[test]
    fn bodies_escape_query_text() {
        let config = OpenLoopConfig {
            requests: 20,
            read_ratio: 1.0,
            ..OpenLoopConfig::default()
        };
        let tricky = vec!["SELECT \"x\"\nWHERE".to_string()];
        let schedule = plan(&config, &tricky, &[]);
        assert!(schedule[0].body.contains(r#"\"x\"\nWHERE"#));
    }

    /// Replay against a minimal in-test HTTP responder: every outcome is
    /// recorded, statuses come back, skew accounting works.
    #[test]
    fn replays_a_schedule_over_real_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut served = 0usize;
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let mut buf = [0u8; 2048];
                let mut read = 0usize;
                // Read until the (tiny) request is fully here.
                while !buf[..read].windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut buf[read..]) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => read += n,
                    }
                }
                let status = if served % 5 == 4 { 503 } else { 200 };
                let _ = stream.write_all(
                    format!(
                        "HTTP/1.1 {status} X\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok"
                    )
                    .as_bytes(),
                );
                served += 1;
                if served == 30 {
                    break;
                }
            }
        });

        let config = OpenLoopConfig {
            requests: 30,
            arrival_rate: 2000.0,
            read_ratio: 0.5,
            lanes: 4,
            ..OpenLoopConfig::default()
        };
        let schedule = plan(&config, &texts(2), &texts(2));
        let outcome = run(addr, &schedule, config.lanes);
        server.join().unwrap();

        assert_eq!(outcome.outcomes.len(), 30);
        assert_eq!(outcome.transport_errors(), 0);
        assert_eq!(outcome.rejected(), 6, "every fifth response was a 503");
        assert_eq!(outcome.admitted_latencies_us().len(), 24);
        assert!(outcome.achieved_rps() > 0.0);
        for o in &outcome.outcomes {
            assert!(o.sent_us >= o.scheduled_us, "never send early");
            assert!(o.done_us >= o.sent_us);
        }
    }
}
