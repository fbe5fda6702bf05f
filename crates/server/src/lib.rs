//! # sofos-server — the network front door over `Arc<Engine>`
//!
//! A hand-rolled HTTP/1.1 server on `std::net::TcpListener` (no registry
//! dependencies, like everything else in the tree): one acceptor thread
//! blocked in `accept()` plus a fixed-size worker pool, all serving a
//! single shared [`sofos_core::Engine`]. Endpoints:
//!
//! | route | what |
//! |-------|------|
//! | `POST /query`   | SPARQL in, [`sofos_core::SessionAnswer`] out (JSON, with freshness tags) |
//! | `POST /update`  | N-Triples delta in, ingested through the maintenance path |
//! | `GET /metrics`  | Prometheus text from `engine.metrics().snapshot()` |
//! | `GET /healthz`  | liveness + engine summary |
//!
//! **Admission control.** Overload degrades instead of collapsing: the
//! acceptor refuses new connections with `503` + `Retry-After` once
//! `queued + in-service` reaches [`ServerConfig::max_inflight`]. The
//! refusal is cheap — it costs a header write, not a worker — which is
//! what keeps the p99 of *admitted* requests flat past saturation
//! (measured in `e11_serving`). The only other `503` is `/update` on a
//! durable engine whose log failed: the store is read-only from then on.
//! The write backlog has no cap of its own: the engine's staleness policy
//! bounds it (eager and lazy never buffer a write, `bounded(k, …)`
//! publishes on its k-th).
//!
//! **Shutdown.** [`ServerHandle::shutdown`] (or a SIGTERM to the
//! `sofos-server` binary) stops accepting, lets workers finish queued
//! and in-flight requests (keep-alive connections are told
//! `Connection: close` on their next response), joins every thread, and
//! returns the final [`ServerStats`]. The acceptor sleeps in a blocking
//! `accept()`, so shutdown wakes it by connecting to the listener itself
//! (on the loopback address when bound to `0.0.0.0` or `::`); the
//! acceptor re-checks the shutdown flag after every accept and drops
//! that connection unserved and uncounted.
//!
//! The model is deliberately thread-per-connection within a bounded
//! pool: a keep-alive connection holds its worker until it closes or
//! idles out ([`ServerConfig::read_timeout`]). Load generators that want
//! open-loop behavior (`workload::openloop`) therefore send
//! `Connection: close` so every request is admitted independently.

pub mod http;
mod routes;

use http::{HttpError, Limits, RequestReader, Response};
use sofos_core::Engine;
use sofos_telemetry::{Counter, Histogram};
use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. `Default` is sized for tests and demos.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Admission cap: maximum connections queued + in service before the
    /// acceptor starts refusing with 503.
    pub max_inflight: usize,
    /// Per-read socket timeout; also bounds how long an idle keep-alive
    /// connection can pin a worker (and thus shutdown latency).
    pub read_timeout: Duration,
    /// HTTP parser limits.
    pub limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_inflight: 64,
            read_timeout: Duration::from_secs(2),
            limits: Limits::default(),
        }
    }
}

/// Lifetime counters, returned by [`ServerHandle::stats`] / `shutdown`.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Requests answered (any status, including per-request 4xx/503).
    pub served: u64,
    /// Connections refused at the door by the in-flight cap.
    pub rejected_connections: u64,
    /// Requests that failed HTTP parsing (400/413/431/505 written).
    pub bad_requests: u64,
}

#[derive(Debug, Default)]
struct StatsAtomic {
    served: AtomicU64,
    rejected_connections: AtomicU64,
    bad_requests: AtomicU64,
}

/// Pre-registered server-side instruments, exported alongside the
/// engine's own metrics at `/metrics` (they share one
/// [`sofos_telemetry::MetricsHandle`]).
#[derive(Debug)]
pub(crate) struct ServerInstruments {
    latency_query: Arc<Histogram>,
    latency_update: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    pub(crate) render: Arc<Histogram>,
    requests: Arc<Counter>,
    responses_ok: Arc<Counter>,
    responses_client_error: Arc<Counter>,
    responses_server_error: Arc<Counter>,
    rejected_queue: Arc<Counter>,
}

impl ServerInstruments {
    fn new(engine: &Engine) -> ServerInstruments {
        let handle = engine.metrics();
        let latency_help = "HTTP request service latency (µs)";
        let responses_help = "HTTP responses by status class";
        ServerInstruments {
            latency_query: handle.histogram(
                "sofos_http_latency_us",
                latency_help,
                &[("route", "query")],
            ),
            latency_update: handle.histogram(
                "sofos_http_latency_us",
                latency_help,
                &[("route", "update")],
            ),
            queue_wait: handle.histogram(
                "sofos_http_queue_wait_us",
                "Time an admitted connection waited between accept and a worker (µs)",
                &[],
            ),
            render: handle.histogram(
                "sofos_http_render_us",
                "Time to render a /query answer into its JSON body (µs)",
                &[],
            ),
            requests: handle.counter("sofos_http_requests_total", "HTTP requests dispatched", &[]),
            responses_ok: handle.counter(
                "sofos_http_responses_total",
                responses_help,
                &[("class", "2xx")],
            ),
            responses_client_error: handle.counter(
                "sofos_http_responses_total",
                responses_help,
                &[("class", "4xx")],
            ),
            responses_server_error: handle.counter(
                "sofos_http_responses_total",
                responses_help,
                &[("class", "5xx")],
            ),
            rejected_queue: handle.counter(
                "sofos_http_rejected_total",
                "Requests refused by admission control",
                &[("reason", "inflight_cap")],
            ),
        }
    }

    pub(crate) fn observe(&self, route: &str, status: u16, elapsed: Duration) {
        self.requests.inc();
        let us = micros(elapsed);
        match route {
            "query" => self.latency_query.record(us),
            "update" => self.latency_update.record(us),
            _ => {}
        }
        match status {
            200..=299 => self.responses_ok.inc(),
            400..=499 => self.responses_client_error.inc(),
            _ => self.responses_server_error.inc(),
        }
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Everything the acceptor, the workers, and the route handlers share.
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) config: ServerConfig,
    pub(crate) instruments: ServerInstruments,
    /// Admitted connections with the instant each was accepted.
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
    shutdown: AtomicBool,
    busy: AtomicUsize,
    stats: StatsAtomic,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// A running server: its bound address plus the thread handles.
///
/// Dropping the handle shuts the server down (gracefully) if
/// [`ServerHandle::shutdown`] was not called explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine being served.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Set the shutdown flag, wake idle workers, and wake the acceptor
    /// out of `accept()` with one connection of our own. `Err` when that
    /// connection could not be made.
    fn stop_accepting(&self) -> std::io::Result<()> {
        self.shared.shutdown.store(true, Ordering::Release);
        // A worker checks the flag and then waits while holding the queue
        // lock; taking it here keeps the notify from landing in between.
        drop(self.shared.queue.lock());
        self.shared.ready.notify_all();
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        TcpStream::connect_timeout(&wake, Duration::from_millis(100)).map(drop)
    }

    /// Current lifetime counters.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        ServerStats {
            served: s.served.load(Ordering::Relaxed),
            rejected_connections: s.rejected_connections.load(Ordering::Relaxed),
            bad_requests: s.bad_requests.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// work, join every thread, return the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return; // already stopped: `shutdown` ran before `drop`
        };
        // A wake that could not connect (full backlog, no free file
        // descriptor) is retried until the acceptor has seen the flag.
        while self.stop_accepting().is_err() && !acceptor.is_finished() {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = acceptor.join();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind and start serving `engine` per `config`.
pub fn serve(engine: Arc<Engine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let instruments = ServerInstruments::new(&engine);
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        engine,
        config,
        instruments,
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        shutdown: AtomicBool::new(false),
        busy: AtomicUsize::new(0),
        stats: StatsAtomic::default(),
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("sofos-accept".to_string())
            .spawn(move || accept_loop(listener, &shared))?
    };
    let workers = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("sofos-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.shutting_down() {
            // The shutdown wake, or a client that raced it: dropped
            // unserved and uncounted.
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let accepted_at = Instant::now();
                let inflight =
                    shared.queue.lock().unwrap().len() + shared.busy.load(Ordering::Relaxed);
                if inflight >= shared.config.max_inflight {
                    // Refuse at the door: one header write, no worker.
                    shared
                        .stats
                        .rejected_connections
                        .fetch_add(1, Ordering::Relaxed);
                    shared.instruments.rejected_queue.inc();
                    refuse(stream);
                    continue;
                }
                shared
                    .queue
                    .lock()
                    .unwrap()
                    .push_back((stream, accepted_at));
                shared.ready.notify_one();
            }
            // EMFILE/ENFILE and friends: back off rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = routes::overloaded("server at capacity; retry shortly").write_to(&mut stream, false);
}

fn worker_loop(shared: &Shared) {
    loop {
        let next = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(next) = queue.pop_front() {
                    break Some(next);
                }
                if shared.shutting_down() {
                    break None;
                }
                queue = shared.ready.wait(queue).unwrap();
            }
        };
        let Some((stream, accepted_at)) = next else {
            return;
        };
        shared
            .instruments
            .queue_wait
            .record(micros(accepted_at.elapsed()));
        shared.busy.fetch_add(1, Ordering::Relaxed);
        handle_connection(shared, stream);
        shared.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    // `&TcpStream` is both `Read` and `Write`: one descriptor serves both.
    let mut writer = &stream;
    let mut reader = RequestReader::new(&stream, shared.config.limits.clone());
    loop {
        match reader.next_request() {
            Ok(None) => return,
            Ok(Some(req)) => {
                let response = routes::handle(shared, &req);
                // Draining for shutdown: answer what's in flight, then
                // tell the client to go away.
                let keep_alive = req.keep_alive && !shared.shutting_down();
                let write = response.write_to(&mut writer, keep_alive);
                shared.stats.served.fetch_add(1, Ordering::Relaxed);
                if write.is_err() || !keep_alive {
                    return;
                }
            }
            Err(HttpError::Io(_)) => return, // timeout, reset, or mid-read close
            Err(e) => {
                shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                let response = Response::json(
                    e.status(),
                    format!(
                        "{{\"error\":{}}}",
                        sofos_telemetry::Json::from(e.to_string())
                    ),
                );
                let _ = response.write_to(&mut writer, false);
                return;
            }
        }
    }
}
