//! Request dispatch: the four endpoints over one shared [`Engine`].
//!
//! Wire formats are JSON (via the shared [`sofos_telemetry::Json`] value)
//! with RDF terms carried as their N-Triples renderings — written by
//! [`sofos_rdf::write_term`], the writer behind `Term`'s `Display` — and
//! `/update` bodies embed N-Triples documents that
//! `sofos_rdf::parse_ntriples` reads back, so no second term
//! serialization exists. A `/query` answer, the one large body, is
//! rendered in one pass into one buffer ([`render_answer`]).
//!
//! [`Engine`]: sofos_core::Engine

use crate::http::{Request, Response};
use crate::Shared;
use sofos_core::{Route, SessionAnswer};
use sofos_rdf::{parse_ntriples, write_term};
use sofos_sparql::{parse_query, SparqlError};
use sofos_store::Delta;
use sofos_telemetry::json::escape_into;
use sofos_telemetry::Json;
use std::fmt::Write as _;

/// Dispatch one parsed request, recording per-route instruments.
pub(crate) fn handle(shared: &Shared, req: &Request) -> Response {
    let start = std::time::Instant::now();
    let (route_label, response) = match (req.method.as_str(), req.path()) {
        ("POST", "/query") => ("query", query(shared, req)),
        ("POST", "/update") => ("update", update(shared, req)),
        ("GET", "/metrics") => ("metrics", metrics(shared)),
        ("GET", "/healthz") => ("healthz", healthz(shared)),
        ("GET", "/") => ("index", index()),
        (_, "/query") | (_, "/update") | (_, "/metrics") | (_, "/healthz") | (_, "/") => {
            ("other", error(405, "method not allowed for this path"))
        }
        _ => ("other", error(404, "no such endpoint (try GET /)")),
    };
    shared
        .instruments
        .observe(route_label, response.status, start.elapsed());
    response
}

fn error(status: u16, message: &str) -> Response {
    Response::json(
        status,
        Json::object([("error", Json::from(message))]).to_string(),
    )
}

/// 503 with a `Retry-After` hint — the accept loop's refusal past the
/// in-flight cap.
pub(crate) fn overloaded(message: &str) -> Response {
    error(503, message).with_header("Retry-After", "1")
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&req.body).map_err(|_| error(400, "body is not UTF-8"))?;
    Json::parse(text).map_err(|why| error(400, &format!("body is not JSON: {why}")))
}

fn body_str<'a>(body: &'a Json, key: &str) -> Option<&'a str> {
    body.get(key).and_then(Json::as_str)
}

fn query(shared: &Shared, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let Some(text) = body_str(&body, "query") else {
        return error(400, r#"body must be {"query": "<sparql>"}"#);
    };
    let parsed = match parse_query(text) {
        Ok(parsed) => parsed,
        Err(e) => return error(400, &format!("query does not parse: {e}")),
    };
    match shared.engine.query(&parsed) {
        Ok(answer) => {
            let start = std::time::Instant::now();
            let body = render_answer(&answer);
            shared
                .instruments
                .render
                .record(crate::micros(start.elapsed()));
            Response::json(200, body)
        }
        Err(e) => error(400, &format!("query failed: {e}")),
    }
}

/// `SessionAnswer` → the wire shape documented in the crate README,
/// written straight into one `String`: the small envelope (route,
/// freshness, `maintenance_us`, vars) first, then each cell, written by
/// [`write_term`] into one reused scratch buffer and JSON-escaped onto
/// the body. The body is sized from its first row once that is written.
fn render_answer(answer: &SessionAnswer) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"route\":");
    match &answer.route {
        Route::View(mask) => {
            out.push_str("{\"kind\":\"view\",\"view\":");
            escape_into(&mask.to_string(), &mut out);
            out.push('}');
        }
        Route::BaseGraph => out.push_str("{\"kind\":\"base\"}"),
    }
    // Counters render as `Json::Int` did: the u64 read as an i64.
    let _ = write!(
        out,
        ",\"freshness\":{{\"lag\":{},\"epoch\":{}}},\"maintenance_us\":{},\"vars\":[",
        answer.freshness.lag as i64, answer.freshness.epoch as i64, answer.maintenance_us as i64
    );
    let results = &answer.results;
    for (i, var) in results.vars.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(var, &mut out);
    }
    out.push_str("],\"rows\":[");
    let mut term = String::new();
    for (i, row) in results.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let row_start = out.len();
        out.push('[');
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match cell {
                Some(cell) => {
                    term.clear();
                    let _ = write_term(cell, &mut term);
                    escape_into(&term, &mut out);
                }
                None => out.push_str("null"),
            }
        }
        out.push(']');
        if i == 0 {
            let row_len = out.len() - row_start + 1;
            out.reserve(row_len * (results.rows.len() - 1) + 2);
        }
    }
    out.push_str("]}");
    out
}

fn update(shared: &Shared, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let mut delta = Delta::new();
    for (key, insert) in [("insert", true), ("delete", false)] {
        let Some(doc) = body_str(&body, key) else {
            continue;
        };
        let graph = match parse_ntriples(doc) {
            Ok(graph) => graph,
            Err(e) => return error(400, &format!("`{key}` is not N-Triples: {e}")),
        };
        for triple in graph.iter() {
            if insert {
                delta.insert(
                    triple.subject.clone(),
                    triple.predicate.clone(),
                    triple.object.clone(),
                );
            } else {
                delta.delete(
                    triple.subject.clone(),
                    triple.predicate.clone(),
                    triple.object.clone(),
                );
            }
        }
    }
    if delta.is_empty() {
        return error(
            400,
            r#"body must carry {"insert": "<n-triples>"} and/or {"delete": "<n-triples>"}"#,
        );
    }
    let ops = delta.len();
    match shared.engine.update(delta) {
        Ok(()) => Response::json(
            200,
            Json::object([
                ("applied_ops", Json::from(ops)),
                ("epoch", Json::from(shared.engine.epoch())),
                ("buffered", Json::from(shared.engine.buffered_updates())),
            ])
            .to_string(),
        ),
        // The store could not make the batch durable and is read-only
        // now: the service is unavailable for writes, not the request
        // at fault. No Retry-After — retrying cannot succeed.
        Err(e @ SparqlError::Storage(_)) => error(503, &format!("update failed: {e}")),
        Err(e) => error(500, &format!("update failed: {e}")),
    }
}

fn metrics(shared: &Shared) -> Response {
    let text = shared.engine.metrics().snapshot().to_prometheus_text();
    Response {
        status: 200,
        headers: vec![(
            "Content-Type",
            "text/plain; version=0.0.4; charset=utf-8".to_string(),
        )],
        body: text.into_bytes(),
    }
}

fn healthz(shared: &Shared) -> Response {
    let engine = &shared.engine;
    let durability = match engine.recovery() {
        Some(rec) => Json::object([
            ("enabled", Json::from(true)),
            ("recovered", Json::from(true)),
            ("recovered_epoch", Json::from(rec.epoch)),
            ("snapshot_epoch", Json::from(rec.snapshot_epoch)),
            ("replayed_records", Json::from(rec.replayed_records)),
            ("truncated_bytes", Json::from(rec.truncated_bytes)),
            ("rematerialized_views", Json::from(rec.rematerialized_views)),
        ]),
        None => Json::object([
            ("enabled", Json::from(engine.durability_enabled())),
            ("recovered", Json::from(false)),
        ]),
    };
    Response::json(
        200,
        Json::object([
            ("status", Json::from("ok")),
            ("backend", Json::from(engine.backend_name())),
            ("policy", Json::from(format!("{:?}", engine.policy()))),
            ("epoch", Json::from(engine.epoch())),
            ("views", Json::from(engine.views().len())),
            ("buffered_updates", Json::from(engine.buffered_updates())),
            ("durability", durability),
        ])
        .to_string(),
    )
}

fn index() -> Response {
    Response::text(
        200,
        "sofos-server\n\
         POST /query    {\"query\": \"<sparql>\"}\n\
         POST /update   {\"insert\": \"<n-triples>\", \"delete\": \"<n-triples>\"}\n\
         GET  /metrics  Prometheus text\n\
         GET  /healthz  liveness + engine summary\n",
    )
}

#[cfg(test)]
mod tests;
