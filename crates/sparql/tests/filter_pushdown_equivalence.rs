//! Differential check of constant-filter pushdown, grouping and
//! projection: [`Evaluator`] against a naive evaluator that enumerates
//! every assignment of a block's patterns over the target graph's
//! triples, in syntactic order and without any index, then filters, then
//! groups. Plain answers are compared as multisets. Grouped answers are
//! compared in order: groups come in the order of their first row, and
//! the naive evaluator takes that row order from [`Evaluator`]'s own
//! answer to the same `WHERE` clause projected on the keys, so only the
//! grouping itself is under test there.
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
//! and a `GROUP BY` on zero to two variables (the second one often bound
//! by `OPTIONAL`, so some key cells are unbound) with all five aggregates
//! and `COUNT(*)`, sometimes `COUNT(DISTINCT …)` and `SUM(DISTINCT …)`, an
//! expression of two aggregates, a `HAVING` over an aggregate, and
//! `ORDER BY DESC(?alias)` with `LIMIT`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sofos_rdf::vocab::xsd;
use sofos_rdf::{Iri, Literal, Numeric, Term};
use sofos_sparql::{Evaluator, QueryResults, Value};
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
    Grouped(Grouping),
}

/// GROUP BY `keys` (the implicit group when empty), aggregating `measure`
/// with all five aggregates and COUNT(*).
#[derive(Debug)]
struct Grouping {
    keys: Vec<String>,
    measure: String,
    /// Also `COUNT(DISTINCT ?m)` and `SUM(DISTINCT ?m)`.
    distinct: bool,
    /// Also `((SUM(?m) / COUNT(?m)) AS ?r)`.
    ratio: bool,
    having: Option<Having>,
    /// `ORDER BY DESC(?alias) LIMIT n`.
    order: Option<(&'static str, usize)>,
}

#[derive(Debug, Clone, Copy)]
enum Having {
    /// `HAVING (COUNT(*) >= t)`.
    CountAtLeast(i64),
    /// `HAVING (SUM(?m) > t)`.
    SumAbove(i64),
}

impl Grouping {
    /// The aggregate columns' aliases, in SELECT order.
    fn aliases(&self) -> Vec<&'static str> {
        let mut aliases = vec!["c", "n", "sum", "avg", "lo", "hi"];
        if self.distinct {
            aliases.extend(["dc", "ds"]);
        }
        if self.ratio {
            aliases.push("r");
        }
        aliases
    }
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
        let keys = match rng.gen_range(0..6) {
            0 => Vec::new(),
            // The filtered variable: its binding must survive pushdown.
            1 => filters.first().map(|c| c.var.clone()).into_iter().collect(),
            2 | 3 => vec![pick_block_var(rng)],
            _ => {
                // The OPTIONAL variable leaves some key cells unbound.
                let first = rng.gen_range(0..block_vars.len());
                let second = if optional.is_some() {
                    "w".to_string()
                } else {
                    let other = (first + rng.gen_range(1..block_vars.len())) % block_vars.len();
                    block_vars[other].clone()
                };
                vec![block_vars[first].clone(), second]
            }
        };
        let mut grouping = Grouping {
            keys,
            measure: block_vars[1 + rng.gen_range(0..legs)].clone(),
            distinct: rng.gen_bool(0.5),
            ratio: rng.gen_bool(0.4),
            having: None,
            order: None,
        };
        grouping.having = rng.gen_bool(0.3).then(|| {
            if rng.gen_bool(0.5) {
                Having::CountAtLeast(rng.gen_range(1..=3))
            } else {
                Having::SumAbove(rng.gen_range(0..=4))
            }
        });
        grouping.order = rng.gen_bool(0.3).then(|| {
            let aliases = grouping.aliases();
            (
                aliases[rng.gen_range(0..aliases.len())],
                rng.gen_range(1..=3),
            )
        });
        Projection::Grouped(grouping)
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

/// The `WHERE` clause's group, without braces.
fn body_text(case: &Case) -> String {
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
    body
}

fn vars_text(vars: &[String]) -> String {
    let vars: Vec<String> = vars.iter().map(|v| format!("?{v}")).collect();
    vars.join(" ")
}

fn query_text(case: &Case) -> String {
    let body = body_text(case);
    let grouping = match &case.projection {
        Projection::Plain(vars) => return format!("SELECT {} WHERE {{ {body}}}", vars_text(vars)),
        Projection::Grouped(grouping) => grouping,
    };
    let m = format!("?{}", grouping.measure);
    let mut select = vars_text(&grouping.keys);
    select += &format!(
        " (COUNT({m}) AS ?c) (COUNT(*) AS ?n) (SUM({m}) AS ?sum) (AVG({m}) AS ?avg) \
         (MIN({m}) AS ?lo) (MAX({m}) AS ?hi)"
    );
    if grouping.distinct {
        select += &format!(" (COUNT(DISTINCT {m}) AS ?dc) (SUM(DISTINCT {m}) AS ?ds)");
    }
    if grouping.ratio {
        select += &format!(" ((SUM({m}) / COUNT({m})) AS ?r)");
    }
    let mut text = format!("SELECT {select} WHERE {{ {body}}}");
    if !grouping.keys.is_empty() {
        text += &format!(" GROUP BY {}", vars_text(&grouping.keys));
    }
    match grouping.having {
        Some(Having::CountAtLeast(t)) => text += &format!(" HAVING (COUNT(*) >= {t})"),
        Some(Having::SumAbove(t)) => text += &format!(" HAVING (SUM({m}) > {t})"),
        None => {}
    }
    if let Some((alias, limit)) = grouping.order {
        text += &format!(" ORDER BY DESC(?{alias}) LIMIT {limit}");
    }
    text
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
    v.map(|v| format!("{:?}", v.distinct_key()))
}

type Cells = Vec<Vec<Option<String>>>;

/// A group's key: one term per GROUP BY variable, `None` when unbound.
type GroupKey = Vec<Option<Term>>;

/// The naive answer. Groups come in the order their keys first occur in
/// `first_rows` (key tuples in row order).
fn naive(case: &Case, first_rows: &[GroupKey]) -> Cells {
    let rows = naive_rows(case);
    let grouping = match &case.projection {
        Projection::Plain(vars) => {
            return rows
                .iter()
                .map(|row| vars.iter().map(|v| term_cell(row.get(v))).collect())
                .collect()
        }
        Projection::Grouped(grouping) => grouping,
    };
    let mut groups: Vec<(GroupKey, Vec<&Row>)> = Vec::new();
    for row in &rows {
        let key: GroupKey = grouping.keys.iter().map(|k| row.get(k).cloned()).collect();
        match groups.iter_mut().find(|(g, _)| *g == key) {
            Some((_, members)) => members.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    if groups.is_empty() && grouping.keys.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    groups.sort_by_key(|(key, _)| first_rows.iter().position(|r| r == key));
    let mut answer: Vec<(GroupKey, Vec<Option<Value>>)> = groups
        .iter()
        .map(|(key, members)| (key.clone(), aggregates(grouping, members)))
        .filter(|(_, values)| match grouping.having {
            None => true,
            Some(Having::CountAtLeast(t)) => numeric_cmp(&values[1], t) != Some(Ordering::Less),
            Some(Having::SumAbove(t)) => numeric_cmp(&values[2], t) == Some(Ordering::Greater),
        })
        .collect();
    if let Some((alias, limit)) = grouping.order {
        let column = grouping.aliases().iter().position(|a| *a == alias).unwrap();
        // Stable: ties keep first-occurrence order.
        answer.sort_by(|(_, a), (_, b)| order_cmp(&a[column], &b[column]).reverse());
        answer.truncate(limit);
    }
    answer
        .iter()
        .map(|(key, values)| {
            let keys = key.iter().map(|t| term_cell(t.as_ref()));
            keys.chain(values.iter().map(|v| value_cell(v.as_ref())))
                .collect()
        })
        .collect()
}

/// A group's aggregate values, in [`Grouping::aliases`] order.
fn aggregates(grouping: &Grouping, members: &[&Row]) -> Vec<Option<Value>> {
    let values: Vec<Value> = members
        .iter()
        .filter_map(|row| row.get(&grouping.measure).map(Value::from_term))
        .collect();
    // SUM is unbound once a value is not a number.
    let sum = |values: &[&Value]| -> Option<Numeric> {
        let numbers: Option<Vec<Numeric>> = values.iter().map(|v| v.as_numeric()).collect();
        numbers.map(|ns| {
            ns.iter()
                .fold(Numeric::Integer(0), |acc, &n| Numeric::add(acc, n))
        })
    };
    let all: Vec<&Value> = values.iter().collect();
    let total = sum(&all);
    let avg = match total {
        Some(_) if values.is_empty() => Some(Numeric::Integer(0)),
        Some(s) => Numeric::div(s, Numeric::Integer(values.len() as i64)),
        None => None,
    };
    let extreme = |want: Ordering| {
        values.iter().fold(None::<&Value>, |best, v| match best {
            Some(b) if v.total_cmp(b) != want => Some(b),
            _ => Some(v),
        })
    };
    let count = |n: usize| Some(Value::Numeric(Numeric::Integer(n as i64)));
    let mut out = vec![
        count(values.len()),
        count(members.len()),
        total.map(Value::Numeric),
        avg.map(Value::Numeric),
        extreme(Ordering::Less).cloned(),
        extreme(Ordering::Greater).cloned(),
    ];
    if grouping.distinct {
        // SPARQL `=` is an equivalence on this data (it has no doubles).
        let mut distinct: Vec<&Value> = Vec::new();
        for v in &values {
            if !distinct.iter().any(|d| d.sparql_eq(v)) {
                distinct.push(v);
            }
        }
        out.push(count(distinct.len()));
        out.push(sum(&distinct).map(Value::Numeric));
    }
    if grouping.ratio {
        let ratio = total.and_then(|s| Numeric::div(s, Numeric::Integer(values.len() as i64)));
        out.push(ratio.map(Value::Numeric));
    }
    out
}

/// How a number compares with `t`; `None` when unbound or not a number.
fn numeric_cmp(v: &Option<Value>, t: i64) -> Option<Ordering> {
    Numeric::compare(v.as_ref()?.as_numeric()?, Numeric::Integer(t))
}

/// ORDER BY's order: unbound first, then [`Value::total_cmp`].
fn order_cmp(a: &Option<Value>, b: &Option<Value>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => x.total_cmp(y),
    }
}

fn run(case: &Case, text: &str) -> QueryResults {
    let mut ds = Dataset::new();
    let graph = ds.intern(&Term::iri(GRAPH));
    for [s, p, o] in &case.default {
        ds.insert(None, s, p, o);
    }
    for [s, p, o] in &case.named {
        ds.insert(Some(graph), s, p, o);
    }
    Evaluator::new(&ds)
        .evaluate_str(text)
        .unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// The evaluator's answer, cells keyed like [`naive`]'s.
fn evaluated(case: &Case, text: &str) -> Cells {
    let key_columns = match &case.projection {
        Projection::Plain(_) => None,
        Projection::Grouped(grouping) => Some(grouping.keys.len()),
    };
    run(case, text)
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(i, cell)| match key_columns {
                    // Aggregate columns compare by value.
                    Some(keys) if i >= keys => {
                        value_cell(cell.as_ref().map(Value::from_term).as_ref())
                    }
                    _ => term_cell(cell.as_ref()),
                })
                .collect()
        })
        .collect()
}

/// The query text, then the evaluator's and the naive answers: sorted
/// when plain, in answer order when grouped.
type Answers = (String, Cells, Cells);

fn answers(case: &Case) -> Answers {
    let text = query_text(case);
    let mut actual = evaluated(case, &text);
    // The evaluator's row order, which decides the groups' order.
    let first_rows = match &case.projection {
        Projection::Grouped(grouping) if !grouping.keys.is_empty() => {
            let keys = vars_text(&grouping.keys);
            run(
                case,
                &format!("SELECT {keys} WHERE {{ {}}}", body_text(case)),
            )
            .rows
        }
        _ => Vec::new(),
    };
    let mut expected = naive(case, &first_rows);
    if let Projection::Plain(_) = case.projection {
        actual.sort();
        expected.sort();
    }
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

/// Fixed grouped cases with several groups, so that every ORDER BY alias
/// and the group order are pinned whatever the random cases reach.
#[test]
fn named_groupings_match_naive_evaluation() {
    let mut default = Vec::new();
    for (s, o) in [
        ("s0", Term::literal_int(1)),
        ("s0", Term::literal_int(2)),
        ("s0", Term::literal_int(4)),
        ("s1", Term::literal_int(3)),
        ("s2", typed("01", xsd::INTEGER)),
        ("s2", typed("1.0", xsd::DECIMAL)),
        ("s3", Term::literal_str("a")),
    ] {
        default.push([iri(s), iri("p0"), o]);
    }
    for (s, o) in [("s0", "v0"), ("s1", "v1"), ("s1", "v0")] {
        default.push([iri(s), iri("p1"), iri(o)]);
    }
    let block = vec![[var("x0"), Pt::Const(iri("p0")), var("x1")]];
    let optional = ([var("x0"), Pt::Const(iri("p1")), var("w")], None);
    let grouping = |keys: &[&str], having, order| Grouping {
        keys: keys.iter().map(|k| k.to_string()).collect(),
        measure: "x1".to_string(),
        distinct: true,
        ratio: true,
        having,
        order,
    };
    let mut groupings = vec![
        (grouping(&["x0"], None, None), false),
        (grouping(&["x0", "w"], None, None), true),
        (grouping(&[], Some(Having::CountAtLeast(1)), None), false),
        (
            grouping(&["x0", "w"], Some(Having::SumAbove(2)), None),
            true,
        ),
    ];
    for alias in grouping(&[], None, None).aliases() {
        groupings.push((grouping(&["x0"], None, Some((alias, 2))), false));
        groupings.push((grouping(&["w", "x0"], None, Some((alias, 3))), true));
    }
    for (grouping, with_optional) in groupings {
        let case = Case {
            default: default.clone(),
            named: Vec::new(),
            in_graph: false,
            values: None,
            bind: None,
            block: block.clone(),
            optional: with_optional.then(|| optional.clone()),
            filters: Vec::new(),
            split_filters: false,
            projection: Projection::Grouped(grouping),
        };
        let (text, actual, expected) = answers(&case);
        assert!(!actual.is_empty(), "{text}");
        assert_eq!(actual, expected, "{text}");
    }
}
