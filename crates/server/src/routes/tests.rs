//! Answer rendering, pinned to the code it replaced: the one-pass
//! `/query` body against a `Json`-tree rendering of the same answer, the
//! term writer against the per-character `Display` it replaced, and
//! `escape_into` against its char-by-char predecessor. CI runs these at
//! `PROPTEST_CASES=512`.

use super::render_answer;
use proptest::collection::vec;
use proptest::prelude::*;
use sofos_core::{Freshness, Route, SessionAnswer};
use sofos_cube::ViewMask;
use sofos_rdf::{write_term, Iri, Literal, LiteralKind, Term};
use sofos_sparql::QueryResults;
use sofos_telemetry::json::escape_into;
use sofos_telemetry::Json;

/// The per-character N-Triples `Display` the term writer replaced.
fn reference_term(term: &Term) -> String {
    match term {
        Term::Iri(iri) => format!("<{}>", iri.as_str()),
        Term::Blank(b) => format!("_:{}", b.as_str()),
        Term::Literal(lit) => {
            let mut out = String::from("\"");
            for c in lit.lexical().chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out.push('"');
            match lit.kind() {
                LiteralKind::Plain => {}
                LiteralKind::Lang(tag) => out.push_str(&format!("@{tag}")),
                LiteralKind::Typed(dt) => out.push_str(&format!("^^<{}>", dt.as_str())),
            }
            out
        }
    }
}

/// The char-by-char JSON string escaping `escape_into` replaced.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `Json` tree the one-pass renderer replaced, cells rendered by
/// [`reference_term`].
fn reference_body(answer: &SessionAnswer) -> String {
    let route = match &answer.route {
        Route::View(mask) => Json::object([
            ("kind", Json::from("view")),
            ("view", Json::from(mask.to_string())),
        ]),
        Route::BaseGraph => Json::object([("kind", Json::from("base"))]),
    };
    let rows = answer
        .results
        .rows
        .iter()
        .map(|row| {
            Json::Array(
                row.iter()
                    .map(|cell| {
                        cell.as_ref()
                            .map_or(Json::Null, |t| reference_term(t).into())
                    })
                    .collect(),
            )
        })
        .collect();
    let vars = answer.results.vars.iter().map(|v| Json::from(v.as_str()));
    Json::object([
        ("route", route),
        (
            "freshness",
            Json::object([
                ("lag", Json::from(answer.freshness.lag)),
                ("epoch", Json::from(answer.freshness.epoch)),
            ]),
        ),
        ("maintenance_us", Json::from(answer.maintenance_us)),
        ("vars", Json::Array(vars.collect())),
        ("rows", Json::Array(rows)),
    ])
    .to_string()
}

/// Characters that take every escaping branch: `"`, `\`, `\n\r\t`, the
/// other C0 controls, DEL, printable ASCII, non-ASCII and astral.
fn arb_char() -> impl Strategy<Value = char> {
    let from = |range: std::ops::Range<u32>| {
        range.prop_map(|code| char::from_u32(code).expect("a scalar value"))
    };
    prop_oneof![
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\r'),
        Just('\t'),
        from(0..0x20),
        Just('\u{7f}'),
        from(0x20..0x7f),
        from(0x80..0xd800),
        from(0x10000..0x110000),
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    vec(arb_char(), 0..16).prop_map(|chars| chars.into_iter().collect())
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        arb_text().prop_map(|text| Term::iri(format!("http://e/{text}"))),
        "[a-zA-Z0-9_]{1,8}".prop_map(Term::blank),
        arb_text().prop_map(Term::literal_str),
        (arb_text(), "[a-z]{2}(-[a-z]{2})?")
            .prop_map(|(text, tag)| Term::Literal(Literal::lang_string(text, tag))),
        (arb_text(), arb_text()).prop_map(|(text, dt)| Term::Literal(Literal::typed(
            text,
            Iri::new_unchecked(format!("http://dt/{dt}"))
        ))),
        any::<i64>().prop_map(Term::literal_int),
    ]
}

/// Answers with zero to three vars, zero to five rows, unbound cells,
/// either route and freshness counters over the whole `u64` range.
fn arb_answer() -> impl Strategy<Value = SessionAnswer> {
    let route = prop_oneof![
        Just(Route::BaseGraph),
        (0u64..64).prop_map(|m| Route::View(ViewMask(m))),
    ];
    (
        route,
        vec(arb_text(), 0..4),
        vec(vec(proptest::option::of(arb_term()), 3), 0..6),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(route, vars, mut rows, lag, epoch, maintenance_us)| {
            for row in &mut rows {
                row.truncate(vars.len());
            }
            SessionAnswer {
                route,
                results: QueryResults { vars, rows },
                maintenance_us,
                freshness: Freshness { lag, epoch },
            }
        })
}

proptest! {
    #[test]
    fn streamed_body_matches_the_json_tree(answer in arb_answer()) {
        prop_assert_eq!(render_answer(&answer), reference_body(&answer));
    }

    #[test]
    fn body_parses_back_to_each_cells_term(answer in arb_answer()) {
        let body = render_answer(&answer);
        let json = Json::parse(&body).map_err(TestCaseError::fail)?;
        let vars: Vec<&str> = json
            .get("vars")
            .and_then(Json::items)
            .expect("vars array")
            .iter()
            .map(|v| v.as_str().expect("var names are strings"))
            .collect();
        prop_assert_eq!(vars, answer.results.vars.iter().map(String::as_str).collect::<Vec<_>>());
        let rows = json.get("rows").and_then(Json::items).expect("rows array");
        prop_assert_eq!(rows.len(), answer.results.rows.len());
        for (row, expected) in rows.iter().zip(&answer.results.rows) {
            let cells = row.items().expect("a row is an array");
            prop_assert_eq!(cells.len(), expected.len());
            for (cell, term) in cells.iter().zip(expected) {
                match term {
                    Some(term) => prop_assert_eq!(cell.as_str().map(str::to_string), Some(term.to_string())),
                    None => prop_assert!(matches!(cell, Json::Null), "{cell:?}"),
                }
            }
        }
    }

    #[test]
    fn term_writer_matches_per_char_display(term in arb_term()) {
        let mut written = String::from("prefix ");
        write_term(&term, &mut written).expect("a String takes every write");
        prop_assert_eq!(&written["prefix ".len()..], reference_term(&term));
        prop_assert_eq!(term.to_string(), reference_term(&term));
    }

    #[test]
    fn escape_into_matches_char_by_char(text in arb_text()) {
        let mut escaped = String::from("prefix ");
        escape_into(&text, &mut escaped);
        prop_assert_eq!(&escaped["prefix ".len()..], reference_escape(&text));
        prop_assert_eq!(Json::from(text.as_str()).to_string(), reference_escape(&text));
    }
}

#[test]
fn empty_answers_render_like_the_json_tree() {
    for vars in [vec![], vec!["x".to_string()]] {
        let answer = SessionAnswer {
            route: Route::View(ViewMask(0b101)),
            results: QueryResults::empty(vars),
            maintenance_us: 7,
            freshness: Freshness { lag: 2, epoch: 9 },
        };
        assert_eq!(render_answer(&answer), reference_body(&answer));
    }
    let zero_vars = SessionAnswer {
        route: Route::BaseGraph,
        results: QueryResults {
            vars: Vec::new(),
            rows: vec![Vec::new(), Vec::new()],
        },
        maintenance_us: 0,
        freshness: Freshness::fresh(0),
    };
    assert_eq!(
        render_answer(&zero_vars),
        r#"{"route":{"kind":"base"},"freshness":{"lag":0,"epoch":0},"maintenance_us":0,"vars":[],"rows":[[],[]]}"#
    );
}
