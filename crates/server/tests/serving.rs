//! End-to-end tests over real sockets: boot a server on a loopback port,
//! speak actual HTTP/1.1 to it, and check the serving semantics —
//! read-your-write, per-freshness-tag consistency under concurrent
//! clients, admission control, graceful shutdown.

use sofos_core::{Engine, StalenessPolicy};
use sofos_cube::{AggOp, Dimension, Facet};
use sofos_rdf::Term;
use sofos_server::{serve, ServerConfig, ServerHandle};
use sofos_sparql::{GroupPattern, PatternTerm, TriplePattern};
use sofos_store::Dataset;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const NS: &str = "http://sofos.test/";
const BASE_OBS: usize = 5;

fn iri(local: &str) -> Term {
    Term::iri(format!("{NS}{local}"))
}

/// A tiny star-schema dataset: `BASE_OBS` observations with one dimension
/// and one measure, plus the matching facet.
fn test_engine(policy: StalenessPolicy) -> Engine {
    let mut ds = Dataset::new();
    let dim_p = iri("country");
    let measure_p = iri("pop");
    for i in 0..BASE_OBS {
        let obs = iri(&format!("obs{i}"));
        ds.insert(None, &obs, &dim_p, &iri(&format!("c{}", i % 2)));
        ds.insert(None, &obs, &measure_p, &Term::literal_int(i as i64));
    }
    let pattern = GroupPattern::triples(vec![
        TriplePattern::new(
            PatternTerm::var("obs"),
            PatternTerm::iri(format!("{NS}country")),
            PatternTerm::var("country"),
        ),
        TriplePattern::new(
            PatternTerm::var("obs"),
            PatternTerm::iri(format!("{NS}pop")),
            PatternTerm::var("pop"),
        ),
    ]);
    let facet = Facet::new(
        "t",
        vec![Dimension::new("country")],
        pattern,
        "pop",
        AggOp::Sum,
    )
    .expect("valid facet");
    Engine::builder()
        .dataset(ds)
        .facet(facet)
        .catalog(Vec::new())
        .staleness(policy)
        .build()
        .expect("engine builds")
}

fn boot(policy: StalenessPolicy, config: ServerConfig) -> ServerHandle {
    serve(Arc::new(test_engine(policy)), config).expect("server boots")
}

/// Minimal HTTP client: send one request on `stream`, read one response.
fn roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> (u16, String) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: {connection}\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("request sent");
    read_response(stream)
}

/// Read status line + headers byte-wise (so keep-alive reuse never
/// over-reads), then exactly `Content-Length` body bytes.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => panic!(
                "connection ended inside response head: {:?}",
                String::from_utf8_lossy(&head)
            ),
        }
    }
    let head = String::from_utf8(head).expect("utf-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length present");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("full body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn one_shot(handle: &ServerHandle, method: &str, path: &str, body: &str) -> (u16, String) {
    roundtrip(&mut connect(handle), method, path, body, false)
}

const COUNT_QUERY: &str =
    r#"{"query": "SELECT (COUNT(?pop) AS ?n) WHERE { ?obs <http://sofos.test/pop> ?pop }"}"#;

/// `COUNT(?pop)` from a `/query` response, plus the freshness epoch tag.
fn count_and_epoch(response: &str) -> (i64, i64) {
    let json = sofos_telemetry::Json::parse(response).expect("response is JSON");
    let cell = json.rows_cell();
    let count = cell
        .split('"')
        .nth(1)
        .and_then(|lit| lit.parse().ok())
        .unwrap_or_else(|| panic!("no integer literal in {cell}"));
    let epoch = json
        .get("freshness")
        .and_then(|f| f.get("epoch"))
        .and_then(sofos_telemetry::Json::as_f64)
        .expect("freshness.epoch present") as i64;
    (count, epoch)
}

/// Helper on Json: the single result cell of a one-row one-var answer.
trait RowsCell {
    fn rows_cell(&self) -> String;
}

impl RowsCell for sofos_telemetry::Json {
    fn rows_cell(&self) -> String {
        self.get("rows")
            .and_then(sofos_telemetry::Json::items)
            .and_then(|rows| rows.first())
            .and_then(sofos_telemetry::Json::items)
            .and_then(|cells| cells.first())
            .and_then(sofos_telemetry::Json::as_str)
            .expect("one row, one cell")
            .to_string()
    }
}

fn insert_body(observation: &str, measure: i64) -> String {
    let doc = format!(
        "<{NS}{observation}> <{NS}country> <{NS}c0> .\n\
         <{NS}{observation}> <{NS}pop> \"{measure}\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
    );
    sofos_telemetry::Json::object([("insert", sofos_telemetry::Json::from(doc))]).to_string()
}

#[test]
fn end_to_end_read_your_write_over_keep_alive() {
    let handle = boot(StalenessPolicy::Eager, ServerConfig::default());
    let mut stream = connect(&handle);

    let (status, body) = roundtrip(&mut stream, "GET", "/healthz", "", true);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"backend\":\"epoch\""), "{body}");

    let (status, body) = roundtrip(&mut stream, "POST", "/query", COUNT_QUERY, true);
    assert_eq!(status, 200, "{body}");
    let (count, _) = count_and_epoch(&body);
    assert_eq!(count, BASE_OBS as i64);
    let freshness = sofos_telemetry::Json::parse(&body)
        .ok()
        .and_then(|json| json.get("freshness").map(|f| f.to_string()));
    assert_eq!(
        freshness.as_deref(),
        Some(r#"{"lag":0,"epoch":0}"#),
        "{body}"
    );

    let (status, body) = roundtrip(
        &mut stream,
        "POST",
        "/update",
        &insert_body("fresh", 9),
        true,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"applied_ops\":2"), "{body}");

    // Read-your-write, on the same keep-alive connection.
    let (status, body) = roundtrip(&mut stream, "POST", "/query", COUNT_QUERY, true);
    assert_eq!(status, 200, "{body}");
    let (count, _) = count_and_epoch(&body);
    assert_eq!(count, BASE_OBS as i64 + 1, "the update is visible");

    let (status, body) = roundtrip(&mut stream, "GET", "/metrics", "", true);
    assert_eq!(status, 200);
    assert!(
        body.contains("sofos_freshness_lag"),
        "engine metrics exported"
    );
    assert!(
        body.contains("sofos_http_requests_total"),
        "server metrics exported"
    );
    assert!(
        body.contains("sofos_http_queue_wait_us"),
        "accept-to-worker queue wait exported: {body}"
    );
    assert!(
        body.contains("sofos_index_bytes"),
        "posting-list index footprint exported: {body}"
    );
    assert!(
        body.contains("sofos_index_posting_lists"),
        "posting-list count exported: {body}"
    );
    assert!(
        body.contains("sofos_index_updates_total"),
        "index update counter exported: {body}"
    );
    // The adaptive-selection instruments are pre-registered at engine
    // construction, so they scrape even before any re-selection runs.
    assert!(
        body.contains("sofos_reselect_duration_us"),
        "re-selection duration histogram exported: {body}"
    );
    assert!(
        body.contains("sofos_select_moves_total"),
        "local-search move counter exported: {body}"
    );
    assert!(
        body.contains("sofos_select_restarts_total"),
        "local-search restart counter exported: {body}"
    );

    // Unknown endpoints and bad bodies answer without closing the server.
    let (status, _) = roundtrip(&mut stream, "GET", "/nope", "", true);
    assert_eq!(status, 404);
    let (status, _) = roundtrip(&mut stream, "POST", "/query", "{не json", true);
    assert_eq!(status, 400);
    let (status, body) = roundtrip(
        &mut stream,
        "POST",
        "/query",
        r#"{"query": "NOT SPARQL"}"#,
        true,
    );
    assert_eq!(status, 400);
    assert!(body.contains("error"), "{body}");

    let stats = handle.shutdown();
    assert!(stats.served >= 8, "{stats:?}");
}

#[test]
fn nesting_bombs_get_400_and_the_server_keeps_serving() {
    let handle = boot(
        StalenessPolicy::Eager,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let (status, body) = one_shot(&handle, "POST", "/query", &"[".repeat(16 * 1024));
    assert_eq!(status, 400, "{body}");

    let depth = 10_000;
    let query = format!(
        "SELECT * WHERE {{ ?s ?p ?o FILTER({}?o{}) }}",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let bomb = sofos_telemetry::Json::object([("query", sofos_telemetry::Json::from(query))]);
    let (status, body) = one_shot(&handle, "POST", "/query", &bomb.to_string());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");

    // Same worker, still alive.
    let (status, body) = one_shot(&handle, "POST", "/query", COUNT_QUERY);
    assert_eq!(status, 200, "{body}");
    assert_eq!(count_and_epoch(&body).0, BASE_OBS as i64);
    let stats = handle.shutdown();
    assert_eq!(stats.served, 3, "{stats:?}");
}

#[test]
fn concurrent_clients_stay_consistent_per_freshness_tag() {
    let handle = boot(
        StalenessPolicy::Eager,
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    );
    const THREADS: usize = 4;
    const ROUNDS: usize = 8;

    let observations: Vec<(i64, i64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let handle = &handle;
                scope.spawn(move || {
                    let mut stream = connect(handle);
                    let mut seen = Vec::new();
                    for round in 0..ROUNDS {
                        let insert = insert_body(&format!("t{t}r{round}"), t as i64);
                        let (status, body) =
                            roundtrip(&mut stream, "POST", "/update", &insert, true);
                        assert_eq!(status, 200, "{body}");
                        let (status, body) =
                            roundtrip(&mut stream, "POST", "/query", COUNT_QUERY, true);
                        assert_eq!(status, 200, "{body}");
                        seen.push(count_and_epoch(&body));
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // Internal consistency per freshness tag: the count is a function of
    // the epoch the answer was served at (inserts only, eager policy), and
    // counts are monotone in the epoch tag.
    let mut by_epoch: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
    for (count, epoch) in &observations {
        let prior = by_epoch.insert(*epoch, *count);
        assert!(
            prior.is_none() || prior == Some(*count),
            "epoch {epoch} answered with both {prior:?} and {count}"
        );
    }
    let counts: Vec<i64> = by_epoch.values().copied().collect();
    assert!(
        counts.windows(2).all(|w| w[0] <= w[1]),
        "counts must be monotone in the freshness epoch: {by_epoch:?}"
    );

    // And after the dust settles: every insert is visible.
    let (_, body) = one_shot(&handle, "POST", "/query", COUNT_QUERY);
    let (count, _) = count_and_epoch(&body);
    assert_eq!(count, (BASE_OBS + THREADS * ROUNDS) as i64);
    handle.shutdown();
}

#[test]
fn acceptor_refuses_connections_past_the_inflight_cap() {
    let handle = boot(
        StalenessPolicy::Eager,
        ServerConfig {
            workers: 1,
            max_inflight: 1,
            ..ServerConfig::default()
        },
    );

    // Occupy the only worker with a half-sent request.
    let mut parked = connect(&handle);
    parked
        .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\nab")
        .unwrap();
    // Give the acceptor time to hand the connection to the worker.
    std::thread::sleep(Duration::from_millis(100));

    let mut refused = connect(&handle);
    let (status, body) = roundtrip(&mut refused, "GET", "/healthz", "", false);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("retry"), "{body}");

    // The parked request still completes once its bytes arrive.
    parked.write_all(b"cde").unwrap();
    let (status, _) = read_response(&mut parked);
    assert_eq!(status, 400, "not JSON, but served rather than dropped");

    let stats = handle.shutdown();
    assert_eq!(stats.rejected_connections, 1, "{stats:?}");
}

#[test]
fn update_refuses_past_the_pending_cap() {
    // Bounded policy with a huge flush threshold: every update buffers.
    let handle = boot(
        StalenessPolicy::bounded(100, 100),
        ServerConfig {
            max_pending: 2,
            ..ServerConfig::default()
        },
    );
    for i in 0..2 {
        let (status, body) = one_shot(
            &handle,
            "POST",
            "/update",
            &insert_body(&format!("b{i}"), 1),
        );
        assert_eq!(status, 200, "{body}");
    }
    assert_eq!(handle.engine().buffered_updates(), 2);
    let (status, body) = one_shot(&handle, "POST", "/update", &insert_body("overflow", 1));
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("pending"), "{body}");
    handle.shutdown();
}

#[test]
fn shutdown_wakes_an_idle_acceptor() {
    // The acceptor blocks in `accept()`; with no request ever made, only
    // the shutdown wake can get it out. A missed wake fails on the
    // timeout instead of hanging the suite.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let handle = boot(
            StalenessPolicy::Eager,
            ServerConfig {
                addr: addr.to_string(),
                ..ServerConfig::default()
            },
        );
        let (done, stopped) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || done.send(handle.shutdown()));
        let stats = stopped
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("shutdown of an idle server on {addr} did not return"));
        stopper
            .join()
            .expect("shutdown thread joins")
            .expect("stats were received");
        assert_eq!(stats.served, 0, "{addr}: {stats:?}");
        assert_eq!(
            stats.rejected_connections, 0,
            "{addr}: the wake connection is never counted: {stats:?}"
        );
    }
}

#[test]
fn graceful_shutdown_serves_inflight_then_refuses_new_connections() {
    let handle = boot(StalenessPolicy::Eager, ServerConfig::default());
    let addr = handle.addr();
    let (status, _) = one_shot(&handle, "GET", "/healthz", "");
    assert_eq!(status, 200);

    let stats = handle.shutdown();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.bad_requests, 0);

    // The listener is gone: new connections fail outright (or are reset
    // before a response arrives).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = Vec::new();
            let n = stream.read_to_end(&mut buf).unwrap_or(0);
            assert_eq!(
                n,
                0,
                "no response after shutdown: {:?}",
                String::from_utf8_lossy(&buf)
            );
        }
    }
}
