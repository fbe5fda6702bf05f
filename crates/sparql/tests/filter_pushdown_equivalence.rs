//! Differential check of constant-filter pushdown: [`Evaluator`] against a
//! naive evaluator that enumerates every assignment of a block's patterns
//! over the target graph's triples, in syntactic order and without any
//! index, then filters, then groups. Answers are compared as multisets.
//!
//! Data: a default graph and one named graph over a few subjects and
//! three predicates, with missing and multi-valued legs, IRI objects that
//! are subjects themselves (so chains join), and literal objects that are
//! equal numbers spelled differently (`"1"`, `"01"`, `"1.0"`).
//!
//! Queries: a star or chain block of 1–4 patterns, plain or under
//! `GRAPH`, optionally preceded by `VALUES` and `BIND`, optionally
//! followed by an `OPTIONAL` leg (with or without its own `FILTER`), then
//! 0–3 `FILTER` conjuncts joined by `&&` or written as separate
//! `FILTER`s. A conjunct compares a block variable, the `OPTIONAL`
//! variable or a variable no pattern binds with an IRI in the data, an
//! IRI absent from it, or a literal (which is never pushed); sometimes one
//! variable meets two different IRIs. Projections are a plain `SELECT`
//! and a `GROUP BY` (or the implicit group) with all five aggregates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sofos_rdf::vocab::xsd;
use sofos_rdf::{Iri, Literal, Numeric, Term};
use sofos_sparql::{Evaluator, Value};
use sofos_store::Dataset;
use std::cmp::Ordering;
use std::collections::BTreeMap;

const NS: &str = "http://e/";
const GRAPH: &str = "http://e/g";
const SUBJECTS: usize = 5;
const PREDICATES: usize = 3;

fn iri(local: impl std::fmt::Display) -> Term {
    Term::iri(format!("{NS}{local}"))
}

fn typed(lexical: &str, datatype: &str) -> Term {
    Term::Literal(Literal::typed(lexical, Iri::new_unchecked(datatype)))
}

/// The IRI no triple mentions.
fn absent() -> Term {
    iri("absent")
}

/// An object: a subject IRI (chains join through these), an IRI that is
/// only ever an object, or a literal; `"1"`, `"01"` and `"1.0"` are equal
/// numbers spelled differently.
fn object(rng: &mut StdRng) -> Term {
    match rng.gen_range(0..12) {
        0..=3 => iri(format!("s{}", rng.gen_range(0..SUBJECTS))),
        4..=5 => iri(format!("v{}", rng.gen_range(0..2))),
        6 => Term::literal_int(1),
        7 => typed("01", xsd::INTEGER),
        8 => typed("1.0", xsd::DECIMAL),
        9 => Term::literal_int(rng.gen_range(2..5)),
        10 => Term::literal_str("a"),
        _ => Term::literal_str("1"),
    }
}

/// A constant for a FILTER, VALUES or BIND: an IRI in the data, an IRI
/// absent from it, or a literal.
fn constant(rng: &mut StdRng) -> Term {
    match rng.gen_range(0..10) {
        0..=3 => iri(format!("s{}", rng.gen_range(0..SUBJECTS))),
        4 => iri(format!("v{}", rng.gen_range(0..2))),
        5 => absent(),
        6 => Term::literal_int(1),
        7 => typed("01", xsd::INTEGER),
        8 => Term::literal_str("a"),
        _ => iri(format!("p{}", rng.gen_range(0..PREDICATES))),
    }
}

type Triple = [Term; 3];

/// One random case: data, query text, and the query's parts for the
/// naive evaluator.
#[derive(Debug)]
struct Case {
    default: Vec<Triple>,
    named: Vec<Triple>,
    in_graph: bool,
    values: Option<(String, Vec<Option<Term>>)>,
    bind: Option<(String, Term)>,
    block: Vec<[Pt; 3]>,
    optional: Option<([Pt; 3], Option<Conjunct>)>,
    filters: Vec<Conjunct>,
    split_filters: bool,
    projection: Projection,
}

/// A pattern position.
#[derive(Debug, Clone)]
enum Pt {
    Var(String),
    Const(Term),
}

/// `?var = constant`, or `constant = ?var` when `reversed`.
#[derive(Debug, Clone)]
struct Conjunct {
    var: String,
    constant: Term,
    reversed: bool,
}

#[derive(Debug)]
enum Projection {
    Plain(Vec<String>),
    /// GROUP BY `key` (the implicit group when `None`), aggregating
    /// `measure` with all five aggregates and COUNT(*).
    Grouped {
        key: Option<String>,
        measure: String,
    },
}

fn var(name: &str) -> Pt {
    Pt::Var(name.to_string())
}

fn pred(rng: &mut StdRng) -> Pt {
    Pt::Const(iri(format!("p{}", rng.gen_range(0..PREDICATES))))
}

fn generate(seed: u64) -> Case {
    let rng = &mut StdRng::seed_from_u64(seed);
    // Data: every subject has 0–3 values per predicate, a quarter of them
    // in the named graph, a few in both.
    let mut default = Vec::new();
    let mut named = Vec::new();
    for s in 0..SUBJECTS {
        for p in 0..PREDICATES {
            let fan_out = [0, 1, 1, 1, 2, 3][rng.gen_range(0..6usize)];
            for _ in 0..fan_out {
                let triple = [iri(format!("s{s}")), iri(format!("p{p}")), object(rng)];
                match rng.gen_range(0..8) {
                    0..=4 => default.push(triple),
                    5..=6 => named.push(triple),
                    _ => {
                        default.push(triple.clone());
                        named.push(triple);
                    }
                }
            }
        }
    }
    // A graph is a set of triples.
    for triples in [&mut default, &mut named] {
        let mut seen = Vec::new();
        triples.retain(|t| {
            let fresh = !seen.contains(t);
            seen.push(t.clone());
            fresh
        });
    }

    // Block: a star around ?x0 or a chain ?x0 → ?x1 → …
    let legs: usize = rng.gen_range(1..=4);
    let star = rng.gen_bool(0.5);
    let block: Vec<[Pt; 3]> = (0..legs)
        .map(|i| {
            let subject = if star { 0 } else { i };
            [
                var(&format!("x{subject}")),
                pred(rng),
                var(&format!("x{}", i + 1)),
            ]
        })
        .collect();
    let block_vars: Vec<String> = (0..=legs).map(|i| format!("x{i}")).collect();
    let pick_block_var = |rng: &mut StdRng| block_vars[rng.gen_range(0..block_vars.len())].clone();

    let optional = rng.gen_bool(0.3).then(|| {
        let leg = [var("x0"), pred(rng), var("w")];
        let inner = rng.gen_bool(0.5).then(|| Conjunct {
            var: "w".to_string(),
            constant: constant(rng),
            reversed: rng.gen_bool(0.5),
        });
        (leg, inner)
    });

    let values = rng.gen_bool(0.25).then(|| {
        let rows = (0..rng.gen_range(1..=3))
            .map(|_| rng.gen_bool(0.8).then(|| constant(rng)))
            .collect();
        (pick_block_var(rng), rows)
    });
    let bind = rng.gen_bool(0.2).then(|| {
        let target = if rng.gen_bool(0.7) {
            pick_block_var(rng)
        } else {
            "b".to_string()
        };
        (target, constant(rng))
    });

    // Filters: block variables mostly, plus the OPTIONAL variable and one
    // that no pattern binds; sometimes a second IRI for the same variable.
    let mut filters: Vec<Conjunct> = Vec::new();
    for _ in 0..rng.gen_range(0..=3) {
        let var = match rng.gen_range(0..10) {
            0 => "w".to_string(),
            1 => "z".to_string(),
            _ => pick_block_var(rng),
        };
        filters.push(Conjunct {
            var,
            constant: constant(rng),
            reversed: rng.gen_bool(0.3),
        });
    }
    if let Some(first) = filters.first().cloned() {
        if rng.gen_bool(0.2) {
            filters.push(Conjunct {
                constant: iri(format!("s{}", rng.gen_range(0..SUBJECTS))),
                ..first
            });
        }
    }
    filters.truncate(3);

    let projection = if rng.gen_bool(0.5) {
        let mut vars: Vec<String> = block_vars
            .iter()
            .filter(|_| rng.gen_bool(0.6))
            .cloned()
            .collect();
        if optional.is_some() && rng.gen_bool(0.5) {
            vars.push("w".to_string());
        }
        if vars.is_empty() {
            vars.push("x0".to_string());
        }
        Projection::Plain(vars)
    } else {
        let key = match rng.gen_range(0..4) {
            0 => None,
            // The filtered variable: its binding must survive pushdown.
            1 => filters.first().map(|c| c.var.clone()),
            _ => Some(pick_block_var(rng)),
        };
        Projection::Grouped {
            key,
            measure: block_vars[1 + rng.gen_range(0..legs)].clone(),
        }
    };

    Case {
        default,
        named,
        in_graph: rng.gen_bool(0.3),
        values,
        bind,
        block,
        optional,
        filters,
        split_filters: rng.gen_bool(0.3),
        projection,
    }
}

// ---- query text -------------------------------------------------------------

fn pt_text(pt: &Pt) -> String {
    match pt {
        Pt::Var(v) => format!("?{v}"),
        Pt::Const(t) => t.to_string(),
    }
}

fn pattern_text(p: &[Pt; 3]) -> String {
    format!("{} {} {} .", pt_text(&p[0]), pt_text(&p[1]), pt_text(&p[2]))
}

fn conjunct_text(c: &Conjunct) -> String {
    if c.reversed {
        format!("{} = ?{}", c.constant, c.var)
    } else {
        format!("?{} = {}", c.var, c.constant)
    }
}

fn query_text(case: &Case) -> String {
    let mut body = String::new();
    if let Some((v, rows)) = &case.values {
        let cells: Vec<String> = rows
            .iter()
            .map(|cell| cell.as_ref().map_or("UNDEF".to_string(), Term::to_string))
            .collect();
        body += &format!("VALUES ?{v} {{ {} }} ", cells.join(" "));
    }
    if let Some((v, c)) = &case.bind {
        body += &format!("BIND ({c} AS ?{v}) ");
    }
    let mut block: Vec<String> = case.block.iter().map(pattern_text).collect();
    if let Some((leg, inner)) = &case.optional {
        let filter = inner
            .as_ref()
            .map_or(String::new(), |c| format!(" FILTER ({})", conjunct_text(c)));
        block.push(format!("OPTIONAL {{ {}{filter} }}", pattern_text(leg)));
    }
    let block = block.join(" ");
    if case.in_graph {
        body += &format!("GRAPH <{GRAPH}> {{ {block} }} ");
    } else {
        body += &block;
        body += " ";
    }
    if !case.filters.is_empty() {
        let conjuncts: Vec<String> = case.filters.iter().map(conjunct_text).collect();
        if case.split_filters {
            for c in conjuncts {
                body += &format!("FILTER ({c}) ");
            }
        } else {
            body += &format!("FILTER ({}) ", conjuncts.join(" && "));
        }
    }
    match &case.projection {
        Projection::Plain(vars) => {
            let vars: Vec<String> = vars.iter().map(|v| format!("?{v}")).collect();
            format!("SELECT {} WHERE {{ {body}}}", vars.join(" "))
        }
        Projection::Grouped { key, measure } => {
            let m = format!("?{measure}");
            let aggs = format!(
                "(COUNT({m}) AS ?c) (COUNT(*) AS ?n) (SUM({m}) AS ?sum) (AVG({m}) AS ?avg) \
                 (MIN({m}) AS ?lo) (MAX({m}) AS ?hi)"
            );
            match key {
                Some(k) => format!("SELECT ?{k} {aggs} WHERE {{ {body}}} GROUP BY ?{k}"),
                None => format!("SELECT {aggs} WHERE {{ {body}}}"),
            }
        }
    }
}

// ---- naive evaluator --------------------------------------------------------

/// Variable → bound term; a variable not in the map is unbound.
type Row = BTreeMap<String, Term>;

/// Every extension of `row` that matches `patterns` over `triples`: one
/// triple per pattern, tried in syntactic order against every triple.
fn extend(row: &Row, patterns: &[[Pt; 3]], triples: &[Triple], out: &mut Vec<Row>) {
    let Some((first, rest)) = patterns.split_first() else {
        out.push(row.clone());
        return;
    };
    for triple in triples {
        let mut next = row.clone();
        let matches = first.iter().zip(triple).all(|(pt, term)| match pt {
            Pt::Const(c) => c == term,
            Pt::Var(v) => next.entry(v.clone()).or_insert_with(|| term.clone()) == term,
        });
        if matches {
            extend(&next, rest, triples, out);
        }
    }
}

/// SPARQL `=`: value equality; an unbound variable is an error (false).
fn holds(row: &Row, c: &Conjunct) -> bool {
    row.get(&c.var)
        .is_some_and(|bound| Value::from_term(bound).sparql_eq(&Value::from_term(&c.constant)))
}

fn naive_rows(case: &Case) -> Vec<Row> {
    let mut rows: Vec<Row> = match &case.values {
        Some((v, cells)) => cells
            .iter()
            .map(|cell| {
                let mut row = Row::new();
                if let Some(t) = cell {
                    row.insert(v.clone(), t.clone());
                }
                row
            })
            .collect(),
        None => vec![Row::new()],
    };
    if let Some((v, c)) = &case.bind {
        // A BIND onto a bound variable drops the row; the bound value is
        // the constant's value turned back into a term.
        rows.retain(|row| !row.contains_key(v));
        for row in &mut rows {
            row.insert(v.clone(), Value::from_term(c).to_term());
        }
    }
    let triples = if case.in_graph {
        &case.named
    } else {
        &case.default
    };
    let mut joined = Vec::new();
    for row in &rows {
        extend(row, &case.block, triples, &mut joined);
    }
    if let Some((leg, inner)) = &case.optional {
        let mut out = Vec::new();
        for row in joined {
            let mut extended = Vec::new();
            extend(&row, std::slice::from_ref(leg), triples, &mut extended);
            extended.retain(|r| inner.as_ref().is_none_or(|c| holds(r, c)));
            if extended.is_empty() {
                out.push(row);
            } else {
                out.extend(extended);
            }
        }
        joined = out;
    }
    joined.retain(|row| case.filters.iter().all(|c| holds(row, c)));
    joined
}

/// A cell by term identity.
fn term_cell(t: Option<&Term>) -> Option<String> {
    t.map(Term::to_string)
}

/// A cell by SPARQL value: equal numbers spelled differently agree.
fn value_cell(v: Option<&Value>) -> Option<String> {
    v.map(Value::distinct_key)
}

fn naive(case: &Case) -> Vec<Vec<Option<String>>> {
    let rows = naive_rows(case);
    match &case.projection {
        Projection::Plain(vars) => rows
            .iter()
            .map(|row| vars.iter().map(|v| term_cell(row.get(v))).collect())
            .collect(),
        Projection::Grouped { key, measure } => {
            let mut groups: Vec<(Option<Term>, Vec<&Row>)> = Vec::new();
            for row in &rows {
                let k = key.as_ref().and_then(|k| row.get(k)).cloned();
                match groups.iter_mut().find(|(g, _)| *g == k) {
                    Some((_, members)) => members.push(row),
                    None => groups.push((k, vec![row])),
                }
            }
            if groups.is_empty() && key.is_none() {
                groups.push((None, Vec::new()));
            }
            groups
                .iter()
                .map(|(k, members)| {
                    let values: Vec<Value> = members
                        .iter()
                        .filter_map(|row| row.get(measure).map(Value::from_term))
                        .collect();
                    let numbers: Option<Vec<Numeric>> =
                        values.iter().map(Value::as_numeric).collect();
                    let sum = numbers.as_ref().map(|ns| {
                        ns.iter()
                            .fold(Numeric::Integer(0), |acc, &n| Numeric::add(acc, n))
                    });
                    let avg = match (&numbers, sum) {
                        (Some(ns), Some(_)) if ns.is_empty() => Some(Numeric::Integer(0)),
                        (Some(ns), Some(s)) => Numeric::div(s, Numeric::Integer(ns.len() as i64)),
                        _ => None,
                    };
                    let extreme = |want: Ordering| {
                        values.iter().fold(None::<&Value>, |best, v| match best {
                            Some(b) if v.total_cmp(b) != want => Some(b),
                            _ => Some(v),
                        })
                    };
                    let count = |n: usize| Some(Value::Numeric(Numeric::Integer(n as i64)));
                    let mut cells = Vec::new();
                    if key.is_some() {
                        cells.push(term_cell(k.as_ref()));
                    }
                    cells.extend([
                        value_cell(count(values.len()).as_ref()),
                        value_cell(count(members.len()).as_ref()),
                        value_cell(sum.map(Value::Numeric).as_ref()),
                        value_cell(avg.map(Value::Numeric).as_ref()),
                        value_cell(extreme(Ordering::Less)),
                        value_cell(extreme(Ordering::Greater)),
                    ]);
                    cells
                })
                .collect()
        }
    }
}

/// The evaluator's answer, cells keyed like [`naive`]'s.
fn evaluated(case: &Case, text: &str) -> Vec<Vec<Option<String>>> {
    let mut ds = Dataset::new();
    let graph = ds.intern(&Term::iri(GRAPH));
    for [s, p, o] in &case.default {
        ds.insert(None, s, p, o);
    }
    for [s, p, o] in &case.named {
        ds.insert(Some(graph), s, p, o);
    }
    let results = Evaluator::new(&ds)
        .evaluate_str(text)
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    let grouped_key = match &case.projection {
        Projection::Plain(_) => None,
        Projection::Grouped { key, .. } => Some(key.is_some()),
    };
    results
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(i, cell)| match grouped_key {
                    // Aggregate columns compare by value.
                    Some(has_key) if i >= usize::from(has_key) => {
                        value_cell(cell.as_ref().map(Value::from_term).as_ref())
                    }
                    _ => term_cell(cell.as_ref()),
                })
                .collect()
        })
        .collect()
}

/// The query text, then the evaluator's and the naive answers, sorted.
type Answers = (String, Vec<Vec<Option<String>>>, Vec<Vec<Option<String>>>);

fn answers(case: &Case) -> Answers {
    let text = query_text(case);
    let mut actual = evaluated(case, &text);
    let mut expected = naive(case);
    actual.sort();
    expected.sort();
    (text, actual, expected)
}

fn check(seed: u64) -> Result<(), TestCaseError> {
    let case = generate(seed);
    let (text, actual, expected) = answers(&case);
    prop_assert_eq!(
        actual,
        expected,
        "seed {} query {}\ncase {:?}",
        seed,
        text,
        case
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn pushdown_matches_naive_evaluation(seed in any::<u64>()) {
        check(seed)?;
    }
}

/// Fixed cases for the shapes the random ones reach only sometimes.
#[test]
fn named_shapes_match_naive_evaluation() {
    let data = || {
        let mut default = Vec::new();
        for (s, o) in [
            ("s0", iri("s1")),
            ("s0", Term::literal_int(1)),
            ("s1", typed("01", xsd::INTEGER)),
            ("s2", typed("1.0", xsd::DECIMAL)),
            ("s2", iri("s0")),
        ] {
            default.push([iri(s), iri("p0"), o]);
        }
        default
    };
    let star = vec![[var("x0"), Pt::Const(iri("p0")), var("x1")]];
    let eq = |v: &str, constant: Term| Conjunct {
        var: v.to_string(),
        constant,
        reversed: false,
    };
    let plain = || Projection::Plain(vec!["x0".to_string(), "x1".to_string()]);
    let cases = [
        // Present IRI, absent IRI, a literal equal to three spellings.
        vec![eq("x1", iri("s1"))],
        vec![eq("x0", absent())],
        vec![eq("x1", Term::literal_int(1))],
        // One variable, two IRIs: empty.
        vec![eq("x0", iri("s0")), eq("x0", iri("s2"))],
        // A variable no pattern binds: empty.
        vec![eq("z", iri("s0"))],
    ];
    for filters in cases {
        let case = Case {
            default: data(),
            named: Vec::new(),
            in_graph: false,
            values: None,
            bind: None,
            block: star.clone(),
            optional: None,
            filters,
            split_filters: false,
            projection: plain(),
        };
        let (text, actual, expected) = answers(&case);
        assert_eq!(actual, expected, "{text}");
    }
    // VALUES binds the filtered variable to another IRI first: the
    // retained FILTER must still reject those rows.
    let case = Case {
        default: data(),
        named: Vec::new(),
        in_graph: false,
        values: Some(("x0".to_string(), vec![Some(iri("s2")), Some(iri("s0"))])),
        bind: None,
        block: star,
        optional: None,
        filters: vec![eq("x0", iri("s0"))],
        split_filters: false,
        projection: plain(),
    };
    let (text, actual, expected) = answers(&case);
    assert_eq!(actual.len(), 2, "{text}");
    assert_eq!(actual, expected, "{text}");
}
