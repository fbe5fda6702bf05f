//! Serve: the quickstart's Figure 1 graph behind the network front door.
//!
//! Boots a real `sofos-server` on an OS-assigned loopback port, then talks
//! to it the way any client would — over a `TcpStream`, no in-process
//! shortcuts: `POST /query` (Example 1.1's aggregate, answered from the
//! materialized view with freshness tags), `POST /update` (France revises
//! its census, as an N-Triples delta), the same query again to see the
//! write reflected, `GET /metrics` for the Prometheus view of what just
//! happened, and a graceful shutdown.
//!
//! Run with: `cargo run --example serve [--smoke]`
//! (`--smoke` is accepted for CI parity; the example is already tiny.)

use sofos::core::{Engine, StalenessPolicy};
use sofos::cube::{AggOp, Dimension, Facet, ViewMask};
use sofos::materialize::materialize_view;
use sofos::server::{serve, ServerConfig};
use sofos::store::Dataset;
use sofos_rdf::Term;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

const NS: &str = "http://sofos.example/";

fn iri(local: &str) -> Term {
    Term::iri(format!("{NS}{local}"))
}

/// One HTTP/1.1 request over a fresh connection; returns the full response.
fn roundtrip(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: sofos\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    response
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

fn main() {
    let _smoke = std::env::args().any(|a| a == "--smoke");

    // --- The Figure 1 graph, one materialized view (as in quickstart) ------
    let mut ds = Dataset::new();
    let rows = [
        ("France", "French", 67),
        ("Germany", "German", 82),
        ("Italy", "Italian", 60),
        ("Canada", "English", 21),
        ("Canada", "French", 8),
    ];
    for (i, (country, lang, pop)) in rows.iter().enumerate() {
        let obs = Term::blank(format!("obs{i}"));
        ds.insert(None, &obs, &iri("country"), &iri(country));
        ds.insert(None, &obs, &iri("language"), &Term::literal_str(*lang));
        ds.insert(None, &obs, &iri("population"), &Term::literal_int(*pop));
    }
    let pattern = sofos::sparql::GroupPattern::triples(vec![
        sofos::sparql::TriplePattern::new(
            sofos::sparql::PatternTerm::var("obs"),
            sofos::sparql::PatternTerm::iri(format!("{NS}country")),
            sofos::sparql::PatternTerm::var("country"),
        ),
        sofos::sparql::TriplePattern::new(
            sofos::sparql::PatternTerm::var("obs"),
            sofos::sparql::PatternTerm::iri(format!("{NS}language")),
            sofos::sparql::PatternTerm::var("language"),
        ),
        sofos::sparql::TriplePattern::new(
            sofos::sparql::PatternTerm::var("obs"),
            sofos::sparql::PatternTerm::iri(format!("{NS}population")),
            sofos::sparql::PatternTerm::var("pop"),
        ),
    ]);
    let facet = Facet::new(
        "population",
        vec![Dimension::new("country"), Dimension::new("language")],
        pattern,
        "pop",
        AggOp::Sum,
    )
    .expect("valid facet");
    let mask = ViewMask::from_dims(&[1]);
    let view = materialize_view(&mut ds, &facet, mask).expect("materializes");

    let engine = Engine::builder()
        .dataset(ds)
        .facet(facet)
        .catalog(vec![(mask, view.stats.rows)])
        .staleness(StalenessPolicy::Eager)
        .build()
        .expect("engine builds");

    // --- Boot the front door on an OS-assigned loopback port ---------------
    let handle = serve(Arc::new(engine), ServerConfig::default()).expect("server boots");
    let addr = handle.addr();
    println!("sofos-server listening on http://{addr}\n");

    // --- POST /query: Example 1.1, answered over the wire -------------------
    let sparql = format!(
        "SELECT ?language (SUM(?pop) AS ?value) WHERE {{ \
           ?obs <{NS}country> ?country . \
           ?obs <{NS}language> ?language . \
           ?obs <{NS}population> ?pop }} \
         GROUP BY ?language ORDER BY DESC(?value)"
    );
    let query_body = format!(
        "{{\"query\": {}}}",
        sofos::telemetry::Json::from(sparql.as_str())
    );
    let response = roundtrip(addr, "POST", "/query", &query_body);
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "query served: {response}"
    );
    println!("POST /query → {}", body_of(&response));

    // --- POST /update: France revises its census, as N-Triples --------------
    let update_body = format!(
        "{{\"insert\": \"_:fr2020 <{NS}country> <{NS}France> .\\n\
           _:fr2020 <{NS}language> \\\"French\\\" .\\n\
           _:fr2020 <{NS}population> \\\"1\\\"^^<http://www.w3.org/2001/XMLSchema#integer> .\\n\"}}"
    );
    let response = roundtrip(addr, "POST", "/update", &update_body);
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "update applied: {response}"
    );
    println!("\nPOST /update → {}", body_of(&response));

    // --- Read your write: the same query now includes the new observation ---
    let response = roundtrip(addr, "POST", "/query", &query_body);
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "re-query served: {response}"
    );
    let fresh = body_of(&response);
    assert!(
        fresh.contains("\"epoch\":1"),
        "freshness tag advanced past the update: {fresh}"
    );
    println!("\nPOST /query (after update) → {fresh}");

    // --- GET /metrics: the Prometheus view of what just happened ------------
    let response = roundtrip(addr, "GET", "/metrics", "");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "metrics served: {response}"
    );
    let interesting: Vec<&str> = body_of(&response)
        .lines()
        .filter(|l| {
            l.starts_with("sofos_http_requests_total") || l.starts_with("sofos_freshness_lag")
        })
        .collect();
    println!("\nGET /metrics (excerpt):\n{}", interesting.join("\n"));

    // --- Graceful shutdown ---------------------------------------------------
    let stats = handle.shutdown();
    println!(
        "\nshutdown clean: served={} rejected={} bad_requests={}",
        stats.served, stats.rejected_connections, stats.bad_requests
    );
    assert_eq!(stats.served, 4);
    assert_eq!(stats.bad_requests, 0);
}
