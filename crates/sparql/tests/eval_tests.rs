//! End-to-end evaluator tests over the paper's Figure 1 knowledge graph
//! (countries, languages, populations, years, part-of edges).

use sofos_rdf::{Literal, Term};
use sofos_sparql::{Evaluator, QueryResults};
use sofos_store::Dataset;

const NS: &str = "http://sofos.example/";

fn iri(local: &str) -> Term {
    Term::iri(format!("{NS}{local}"))
}

/// Build the Figure 1 graph: France/Germany/Italy (EU), Canada; observation
/// nodes carry (country, language, population, year).
fn figure1() -> Dataset {
    let mut ds = Dataset::new();
    let name = iri("name");
    let part_of = iri("partOf");
    let country_p = iri("country");
    let language_p = iri("language");
    let population_p = iri("population");
    let year_p = iri("year");

    let eu = iri("EU");
    ds.insert(None, &eu, &name, &Term::literal_str("EU"));

    // (country, language, population (millions), year)
    let rows = [
        ("France", "French", 67, 2019),
        ("Germany", "German", 82, 2019),
        ("Italy", "Italian", 60, 2019),
        ("Canada", "English", 20, 2019),
        ("Canada", "French", 8, 2019),
        ("Canada", "English", 21, 2020),
        ("France", "French", 68, 2020),
    ];
    for (i, (country, lang, pop, year)) in rows.iter().enumerate() {
        let c = iri(country);
        ds.insert(None, &c, &name, &Term::literal_str(*country));
        if *country != "Canada" {
            ds.insert(None, &c, &part_of, &eu);
        }
        let obs = Term::blank(format!("obs{i}"));
        ds.insert(None, &obs, &country_p, &c);
        ds.insert(None, &obs, &language_p, &Term::literal_str(*lang));
        ds.insert(None, &obs, &population_p, &Term::literal_int(*pop));
        ds.insert(None, &obs, &year_p, &Term::Literal(Literal::year(*year)));
    }
    ds
}

fn run(ds: &Dataset, query: &str) -> QueryResults {
    Evaluator::new(ds)
        .evaluate_str(query)
        .unwrap_or_else(|e| panic!("query failed: {e}\n{query}"))
}

fn ints(results: &QueryResults, col: &str) -> Vec<i64> {
    results
        .column_values(col)
        .into_iter()
        .map(|t| {
            t.as_literal()
                .and_then(|l| l.numeric())
                .map(|n| n.to_f64() as i64)
                .unwrap_or_else(|| panic!("not numeric: {t}"))
        })
        .collect()
}

fn strings(results: &QueryResults, col: &str) -> Vec<String> {
    results
        .column_values(col)
        .into_iter()
        .map(|t| {
            t.as_literal()
                .map(|l| l.lexical().to_string())
                .unwrap_or_else(|| t.to_string())
        })
        .collect()
}

#[test]
fn basic_bgp_join() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT ?n WHERE {{ ?c <{NS}partOf> ?r . ?c <{NS}name> ?n . ?r <{NS}name> \"EU\" }}",
        ),
    );
    let mut names = strings(&r, "n");
    names.sort();
    assert_eq!(names, ["France", "Germany", "Italy"]);
}

#[test]
fn example_1_1_french_country_count() {
    // "in how many countries is French an official language?"
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE {{ \
               ?o <{NS}country> ?c . ?o <{NS}language> \"French\" }}"
        ),
    );
    assert_eq!(ints(&r, "n"), [2]); // France and Canada
}

#[test]
fn example_1_1_french_population_sum() {
    // "total amount of French-speaking population" (2019 only).
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT (SUM(?p) AS ?total) WHERE {{ \
               ?o <{NS}language> \"French\" . ?o <{NS}population> ?p . \
               ?o <{NS}year> ?y . FILTER(YEAR(?y) = 2019) }}"
        ),
    );
    assert_eq!(ints(&r, "total"), [75]); // 67 + 8
}

#[test]
fn group_by_aggregates_per_country() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT ?n (SUM(?p) AS ?total) (COUNT(*) AS ?obs) WHERE {{ \
               ?o <{NS}country> ?c . ?c <{NS}name> ?n . ?o <{NS}population> ?p }} \
             GROUP BY ?n ORDER BY DESC(?total)"
        ),
    );
    assert_eq!(strings(&r, "n"), ["France", "Germany", "Italy", "Canada"]);
    assert_eq!(ints(&r, "total"), [135, 82, 60, 49]);
    assert_eq!(ints(&r, "obs"), [2, 1, 1, 3]);
}

#[test]
fn avg_min_max() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT (AVG(?p) AS ?avg) (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) WHERE {{ \
               ?o <{NS}population> ?p . ?o <{NS}language> \"English\" }}"
        ),
    );
    assert_eq!(ints(&r, "lo"), [20]);
    assert_eq!(ints(&r, "hi"), [21]);
    let avg = r.rows[0][r.column("avg").unwrap()].clone().unwrap();
    let avg = avg.as_literal().unwrap().numeric().unwrap().to_f64();
    assert!((avg - 20.5).abs() < 1e-9);
}

#[test]
fn having_filters_groups() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT ?n WHERE {{ ?o <{NS}country> ?c . ?c <{NS}name> ?n . \
               ?o <{NS}population> ?p }} \
             GROUP BY ?n HAVING (SUM(?p) > 100) ORDER BY ?n"
        ),
    );
    assert_eq!(strings(&r, "n"), ["France"]);
}

#[test]
fn aggregate_over_empty_input() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT (COUNT(*) AS ?n) (SUM(?p) AS ?s) WHERE {{ \
               ?o <{NS}language> \"Klingon\" . ?o <{NS}population> ?p }}"
        ),
    );
    assert_eq!(r.len(), 1, "aggregation over zero rows yields one row");
    assert_eq!(ints(&r, "n"), [0]);
    assert_eq!(ints(&r, "s"), [0]);
}

#[test]
fn empty_group_by_yields_no_groups() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT ?c (COUNT(*) AS ?n) WHERE {{ \
               ?o <{NS}language> \"Klingon\" . ?o <{NS}country> ?c }} GROUP BY ?c"
        ),
    );
    assert_eq!(r.len(), 0, "GROUP BY over zero rows yields zero groups");
}

#[test]
fn optional_keeps_unmatched_rows() {
    let ds = figure1();
    // partOf is absent for Canada: OPTIONAL keeps it with unbound ?r.
    let r = run(
        &ds,
        &format!(
            "SELECT DISTINCT ?n ?r WHERE {{ \
               ?o <{NS}country> ?c . ?c <{NS}name> ?n . \
               OPTIONAL {{ ?c <{NS}partOf> ?r }} }} ORDER BY ?n"
        ),
    );
    assert_eq!(r.len(), 4);
    let canada_row = r
        .rows
        .iter()
        .find(|row| {
            row[0]
                .as_ref()
                .and_then(|t| t.as_literal().map(|l| l.lexical() == "Canada"))
                == Some(true)
        })
        .expect("Canada present");
    assert!(canada_row[1].is_none(), "Canada has no region");
}

#[test]
fn filters_with_arithmetic_and_logic() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT DISTINCT ?n WHERE {{ \
               ?o <{NS}country> ?c . ?c <{NS}name> ?n . ?o <{NS}population> ?p . \
               FILTER(?p * 2 >= 120 && ?p < 80) }} ORDER BY ?n"
        ),
    );
    assert_eq!(strings(&r, "n"), ["France", "Italy"]);
}

#[test]
fn distinct_limit_offset() {
    let ds = figure1();
    let all = run(
        &ds,
        &format!("SELECT DISTINCT ?c WHERE {{ ?o <{NS}country> ?c }} ORDER BY ?c"),
    );
    assert_eq!(all.len(), 4);
    let page = run(
        &ds,
        &format!("SELECT DISTINCT ?c WHERE {{ ?o <{NS}country> ?c }} ORDER BY ?c LIMIT 2 OFFSET 1"),
    );
    assert_eq!(page.len(), 2);
    assert_eq!(page.rows[0], all.rows[1]);
    assert_eq!(page.rows[1], all.rows[2]);
}

#[test]
fn order_ties_distinct_offset_limit_together() {
    // Languages by year, newest first: the sort key ties within a year,
    // and (language, year) repeats across countries. ORDER BY is stable,
    // DISTINCT keeps first occurrences, then OFFSET and LIMIT page.
    let ds = figure1();
    let pattern = format!("{{ ?o <{NS}language> ?l . ?o <{NS}year> ?y }}");
    let unordered = run(&ds, &format!("SELECT ?l ?y WHERE {pattern}"));
    let year = |row: &Vec<Option<Term>>| row[1].as_ref().unwrap().to_string();
    let mut expected = unordered.rows.clone();
    expected.sort_by_key(|row| std::cmp::Reverse(year(row)));
    let mut seen = Vec::new();
    expected.retain(|row| {
        let fresh = !seen.contains(row);
        seen.push(row.clone());
        fresh
    });
    // 2020: English, French; 2019: French, German, Italian, English.
    assert_eq!(expected.len(), 6);
    for (offset, limit) in [(0, 10), (1, 3), (2, 2), (5, 4), (6, 1), (9, 2)] {
        let page = run(
            &ds,
            &format!(
                "SELECT DISTINCT ?l ?y WHERE {pattern} ORDER BY DESC(?y) \
                 LIMIT {limit} OFFSET {offset}"
            ),
        );
        let want: Vec<_> = expected.iter().skip(offset).take(limit).cloned().collect();
        assert_eq!(page.rows, want, "OFFSET {offset} LIMIT {limit}");
    }
}

#[test]
fn same_variable_twice_in_pattern() {
    let mut ds = Dataset::new();
    ds.insert(None, &iri("x"), &iri("p"), &iri("x"));
    ds.insert(None, &iri("x"), &iri("p"), &iri("y"));
    let r = run(&ds, &format!("SELECT ?s WHERE {{ ?s <{NS}p> ?s }}"));
    assert_eq!(r.len(), 1, "self-loop only");
}

#[test]
fn constant_absent_from_data_matches_nothing() {
    let ds = figure1();
    let r = run(&ds, "SELECT ?s WHERE { ?s <http://nowhere/p> ?o }");
    assert!(r.is_empty());
}

#[test]
fn unknown_named_graph_is_empty() {
    let ds = figure1();
    let r = run(
        &ds,
        "SELECT ?s WHERE { GRAPH <http://nowhere/g> { ?s ?p ?o } }",
    );
    assert!(r.is_empty());
}

#[test]
fn named_graph_scoping() {
    let mut ds = figure1();
    let g = ds.intern_iri("http://g/views");
    ds.insert(Some(g), &iri("v"), &iri("p"), &Term::literal_int(1));
    // Default graph does not see the named graph triple.
    let r = run(&ds, &format!("SELECT ?o WHERE {{ <{NS}v> <{NS}p> ?o }}"));
    assert!(r.is_empty());
    // GRAPH clause does.
    let r = run(
        &ds,
        &format!("SELECT ?o WHERE {{ GRAPH <http://g/views> {{ <{NS}v> <{NS}p> ?o }} }}"),
    );
    assert_eq!(r.len(), 1);
}

#[test]
fn cross_graph_join() {
    let mut ds = figure1();
    let g = ds.intern_iri("http://g/extra");
    let france = iri("France");
    ds.insert(
        Some(g),
        &france,
        &iri("capital"),
        &Term::literal_str("Paris"),
    );
    let r = run(
        &ds,
        &format!(
            "SELECT ?n ?cap WHERE {{ \
               ?c <{NS}name> ?n . \
               GRAPH <http://g/extra> {{ ?c <{NS}capital> ?cap }} }}"
        ),
    );
    assert_eq!(r.len(), 1);
    assert_eq!(strings(&r, "n"), ["France"]);
    assert_eq!(strings(&r, "cap"), ["Paris"]);
}

#[test]
fn select_expression_projection() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT ?n (?p * 1000000 AS ?people) WHERE {{ \
               ?o <{NS}country> ?c . ?c <{NS}name> ?n . ?o <{NS}population> ?p . \
               ?o <{NS}year> ?y FILTER(YEAR(?y) = 2020 && ?n = \"France\") }}"
        ),
    );
    assert_eq!(ints(&r, "people"), [68_000_000]);
}

#[test]
fn wildcard_with_aggregate_is_plan_error() {
    let ds = figure1();
    let err = Evaluator::new(&ds)
        .evaluate_str("SELECT * WHERE { ?s ?p ?o } GROUP BY ?s")
        .unwrap_err();
    assert!(err.to_string().contains("planning"));
}

#[test]
fn ungrouped_projection_is_plan_error() {
    let ds = figure1();
    let err = Evaluator::new(&ds)
        .evaluate_str("SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s")
        .unwrap_err();
    assert!(err.to_string().contains("GROUP BY"));
}

#[test]
fn order_by_multiple_keys() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT ?n ?p WHERE {{ ?o <{NS}country> ?c . ?c <{NS}name> ?n . \
               ?o <{NS}population> ?p }} ORDER BY ?n DESC(?p)"
        ),
    );
    // Canada rows first (alphabetical), descending population within.
    assert_eq!(strings(&r, "n")[..3], ["Canada", "Canada", "Canada"]);
    assert_eq!(ints(&r, "p")[..3], [21, 20, 8]);
}

#[test]
fn count_distinct_vs_plain() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT (COUNT(?l) AS ?all) (COUNT(DISTINCT ?l) AS ?distinct) \
             WHERE {{ ?o <{NS}language> ?l }}"
        ),
    );
    assert_eq!(ints(&r, "all"), [7]);
    assert_eq!(ints(&r, "distinct"), [4]); // French, German, Italian, English
}

#[test]
fn distinct_aggregates_key_numbers_exactly() {
    // Above 2^53 neighbouring integers share an f64; DISTINCT must still
    // tell them apart, while `1` and `1.0` stay one value. Each group
    // keeps its own set.
    let mut ds = Dataset::new();
    let decimal = |lexical: &str| {
        Term::Literal(Literal::typed(
            lexical,
            sofos_rdf::Iri::new_unchecked(sofos_rdf::vocab::xsd::DECIMAL),
        ))
    };
    for (o, g, m) in [
        ("o1", "g1", Term::literal_int(9_007_199_254_740_992)),
        ("o2", "g1", Term::literal_int(9_007_199_254_740_993)),
        ("o3", "g1", Term::literal_int(9_007_199_254_740_993)),
        ("o4", "g2", Term::literal_int(1)),
        ("o5", "g2", decimal("1.0")),
        ("o6", "g2", Term::literal_int(9_007_199_254_740_992)),
    ] {
        ds.insert(None, &iri(o), &iri("group"), &iri(g));
        ds.insert(None, &iri(o), &iri("m"), &m);
    }
    let r = run(
        &ds,
        &format!(
            "SELECT ?g (COUNT(DISTINCT ?m) AS ?n) (SUM(DISTINCT ?m) AS ?s) \
             WHERE {{ ?o <{NS}group> ?g . ?o <{NS}m> ?m }} GROUP BY ?g ORDER BY ?g"
        ),
    );
    assert_eq!(ints(&r, "n"), [2, 2]);
    assert_eq!(strings(&r, "s"), ["18014398509481985", "9007199254740993"]);
}

#[test]
fn regex_and_string_filters() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT DISTINCT ?l WHERE {{ ?o <{NS}language> ?l \
               FILTER(REGEX(?l, \"^Fr.*h$\") || STRSTARTS(?l, \"Ger\")) }} ORDER BY ?l"
        ),
    );
    assert_eq!(strings(&r, "l"), ["French", "German"]);
}

#[test]
fn results_are_deterministic_across_runs() {
    let ds = figure1();
    let q = format!(
        "SELECT ?n (SUM(?p) AS ?t) WHERE {{ ?o <{NS}country> ?c . \
           ?c <{NS}name> ?n . ?o <{NS}population> ?p }} GROUP BY ?n ORDER BY ?n"
    );
    let a = run(&ds, &q);
    let b = run(&ds, &q);
    assert_eq!(a, b);
}

#[test]
fn union_combines_branches() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT DISTINCT ?n WHERE {{ \
               {{ ?o <{NS}language> \"German\" . ?o <{NS}country> ?c }} UNION \
               {{ ?o <{NS}language> \"Italian\" . ?o <{NS}country> ?c }} \
               ?c <{NS}name> ?n }} ORDER BY ?n"
        ),
    );
    assert_eq!(strings(&r, "n"), ["Germany", "Italy"]);
}

#[test]
fn union_of_three_branches() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT DISTINCT ?l WHERE {{ \
               {{ ?o <{NS}language> \"German\" }} UNION {{ ?o <{NS}language> \"French\" }} \
               UNION {{ ?o <{NS}language> \"Italian\" }} ?o <{NS}language> ?l }} ORDER BY ?l"
        ),
    );
    assert_eq!(strings(&r, "l"), ["French", "German", "Italian"]);
}

#[test]
fn bind_computes_new_bindings() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT ?n ?millions WHERE {{ \
               ?o <{NS}country> ?c . ?c <{NS}name> ?n . ?o <{NS}population> ?p . \
               ?o <{NS}year> ?y . FILTER(YEAR(?y) = 2019 && ?n = \"France\") \
               BIND(?p * 1000000 AS ?millions) }}"
        ),
    );
    assert_eq!(ints(&r, "millions"), [67_000_000]);
}

#[test]
fn bind_result_joins_with_later_filters() {
    let ds = figure1();
    // BIND then FILTER over the bound variable.
    let r = run(
        &ds,
        &format!(
            "SELECT DISTINCT ?n WHERE {{ \
               ?o <{NS}country> ?c . ?c <{NS}name> ?n . ?o <{NS}population> ?p . \
               BIND(?p / 2 AS ?half) FILTER(?half > 33) }} ORDER BY ?n"
        ),
    );
    assert_eq!(strings(&r, "n"), ["France", "Germany"]);
}

#[test]
fn bind_error_leaves_unbound() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!("SELECT ?n ?bad WHERE {{ ?c <{NS}name> ?n . BIND(?n / 0 AS ?bad) }} LIMIT 1"),
    );
    assert_eq!(r.len(), 1);
    assert!(r.rows[0][1].is_none(), "division error leaves ?bad unbound");
}

#[test]
fn values_restricts_bindings() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT DISTINCT ?n WHERE {{ \
               VALUES ?l {{ \"French\" \"German\" }} \
               ?o <{NS}language> ?l . ?o <{NS}country> ?c . ?c <{NS}name> ?n }} ORDER BY ?n"
        ),
    );
    assert_eq!(strings(&r, "n"), ["Canada", "France", "Germany"]);
}

#[test]
fn values_multi_column_with_undef() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT DISTINCT ?n ?l WHERE {{ \
               VALUES (?n ?l) {{ (\"France\" \"French\") (\"Canada\" UNDEF) }} \
               ?c <{NS}name> ?n . ?o <{NS}country> ?c . ?o <{NS}language> ?l }} \
             ORDER BY ?n ?l"
        ),
    );
    // France+French fixed; Canada matches both its languages via UNDEF.
    assert_eq!(strings(&r, "n"), ["Canada", "Canada", "France"]);
    assert_eq!(strings(&r, "l"), ["English", "French", "French"]);
}

#[test]
fn values_constant_absent_from_data_matches_nothing() {
    let ds = figure1();
    let r = run(
        &ds,
        &format!(
            "SELECT ?n WHERE {{ VALUES ?l {{ \"Klingon\" }} \
               ?o <{NS}language> ?l . ?o <{NS}country> ?c . ?c <{NS}name> ?n }}"
        ),
    );
    assert!(r.is_empty());
}

#[test]
fn values_projection_of_novel_constant() {
    // A VALUES constant that does not occur in the data can still be
    // projected (it lives in the evaluation's working dictionary).
    let ds = figure1();
    let r = run(&ds, "SELECT ?x WHERE { VALUES ?x { \"novel-constant\" } }");
    assert_eq!(r.len(), 1);
    assert_eq!(
        r.rows[0][0]
            .as_ref()
            .unwrap()
            .as_literal()
            .unwrap()
            .lexical(),
        "novel-constant"
    );
}

#[test]
fn union_bind_values_render_and_reparse() {
    use sofos_sparql::{parse_query, query_to_sparql};
    for q in [
        format!("SELECT ?x WHERE {{ {{ ?x <{NS}a> ?y . }} UNION {{ ?x <{NS}b> ?y . }} }}"),
        format!("SELECT ?x WHERE {{ ?x <{NS}a> ?y . BIND ((?y + 1) AS ?z) }}"),
        format!("SELECT ?x WHERE {{ VALUES (?x) {{ (<{NS}v1>) (UNDEF) }} ?x <{NS}a> ?y . }}"),
    ] {
        let ast = parse_query(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
        let text = query_to_sparql(&ast);
        let back = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(ast, back, "{text}");
    }
}

/// Observations whose triples sit in the index runs, then batches of
/// inserts, deletes and re-inserts, too few to reach the merge threshold,
/// read in three states: all of them in the writer's overlay
/// (`Dataset::apply`, no publish), all of them frozen into the published
/// delta and tombstone slices (`EpochStore::apply`), and half published
/// with the other half in an open transaction's overlay. In each state
/// every query — star, chain, pushed filter, OPTIONAL, each pattern
/// shape — answers, rows and order, exactly like the same graph after a
/// merge.
#[test]
fn unmerged_store_answers_like_merged() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sofos_store::{Delta, EpochStore};

    let country = iri("country");
    let language = iri("language");
    let population = iri("population");
    let year = iri("year");
    let part_of = iri("partOf");
    let triple = |rng: &mut StdRng| -> [Term; 3] {
        let obs = iri(&format!("obs{}", rng.gen_range(0..400)));
        match rng.gen_range(0..5) {
            0 => [
                obs,
                country.clone(),
                iri(&format!("c{}", rng.gen_range(0..6))),
            ],
            1 => [
                obs,
                language.clone(),
                iri(&format!("l{}", rng.gen_range(0..4))),
            ],
            2 => [
                obs,
                population.clone(),
                Term::literal_int(rng.gen_range(1..50)),
            ],
            3 => [
                obs,
                year.clone(),
                Term::literal_int(rng.gen_range(2018..2022)),
            ],
            _ => [
                iri(&format!("c{}", rng.gen_range(0..6))),
                part_of.clone(),
                iri(&format!("u{}", rng.gen_range(0..2))),
            ],
        }
    };
    let queries = [
        format!(
            "SELECT ?c ?l (SUM(?n) AS ?total) (COUNT(*) AS ?k) WHERE {{ ?o <{NS}country> ?c . \
             ?o <{NS}language> ?l . ?o <{NS}population> ?n }} GROUP BY ?c ?l"
        ),
        format!(
            "SELECT * WHERE {{ ?o <{NS}country> ?c . ?o <{NS}year> ?y . ?o <{NS}language> ?l }}"
        ),
        format!("SELECT ?o ?u WHERE {{ ?o <{NS}country> ?c . ?c <{NS}partOf> ?u }}"),
        format!(
            "SELECT ?o ?n WHERE {{ ?o <{NS}country> ?c . ?o <{NS}population> ?n \
             FILTER(?c = <{NS}c2>) }}"
        ),
        format!("SELECT ?o ?y WHERE {{ ?o <{NS}language> ?l OPTIONAL {{ ?o <{NS}year> ?y }} }}"),
        format!("SELECT ?o ?p WHERE {{ ?o ?p <{NS}c1> . ?o <{NS}country> ?c }}"),
        format!("SELECT ?p WHERE {{ <{NS}obs7> ?p ?x . <{NS}obs7> ?p <{NS}c3> }}"),
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o }".to_string(),
    ];

    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut base = Dataset::new();
        for _ in 0..1500 {
            let [s, p, o] = triple(&mut rng);
            base.insert(None, &s, &p, &o);
        }
        base.optimize();
        let mut removed = Vec::new();
        let mut batches = Vec::new();
        for _ in 0..4 {
            let mut delta = Delta::new();
            for _ in 0..30 {
                let [s, p, o] = match rng.gen_range(0..4) {
                    0 if !removed.is_empty() => removed.swap_remove(0),
                    0 | 1 => triple(&mut rng),
                    _ => {
                        let [s, p, o] = triple(&mut rng);
                        delta.delete(s.clone(), p.clone(), o.clone());
                        removed.push([s, p, o]);
                        continue;
                    }
                };
                delta.insert(s, p, o);
            }
            batches.push(delta);
        }

        let mut overlaid = base.clone();
        for delta in &batches {
            overlaid.apply(delta.clone());
        }
        let published = EpochStore::new(base.clone());
        for delta in &batches {
            published.apply(delta.clone());
        }
        let both = EpochStore::new(base);
        let (first, second) = batches.split_at(2);
        for delta in first {
            both.apply(delta.clone());
        }
        let mut txn = both.begin();
        for delta in second {
            txn.dataset().apply(delta.clone());
        }
        let mut merged = overlaid.clone();
        merged.optimize();
        assert_eq!(merged.unmerged_entries() + merged.overlay_entries(), 0);

        let snapshot = published.pin();
        let states: [(&str, &Dataset, bool, bool); 3] = [
            ("overlay", &overlaid, false, true),
            ("slices", snapshot.dataset(), true, false),
            ("slices + overlay", txn.dataset(), true, true),
        ];
        for (state, ds, slices, overlay) in states {
            assert_eq!(
                (ds.unmerged_entries() > 0, ds.overlay_entries() > 0),
                (slices, overlay),
                "seed {seed}: the {state} state is unmerged as intended"
            );
            for query in &queries {
                assert_eq!(
                    run(ds, query),
                    run(&merged, query),
                    "seed {seed}, {state}: {query}"
                );
            }
        }
    }
}
