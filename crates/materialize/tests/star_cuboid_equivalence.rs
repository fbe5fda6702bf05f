//! Differential check of the evaluator's star join against its greedy
//! join: for every view of a facet's lattice, [`evaluate_view`] (the
//! [`Evaluator`], whose star join takes star blocks) and
//! [`Evaluator::greedy_join_reference`] (the greedy join on every block)
//! must return the same vars, rows and row order. View observation
//! labels, ids and plan hashes follow that order.
//!
//! Star facets are drawn with 1–5 legs, sometimes two legs on one
//! predicate, the measure on any leg or on the subject, and a dimension
//! that may double as the measure. The data has missing and multi-valued
//! legs; integer, decimal, `xsd:double` and non-numeric measures,
//! including differently spelled equal numbers, under all five
//! aggregates; triples in named graphs that share the facet's subjects
//! and predicates; and, in half the cases, a live store whose run is
//! overlaid by the delta and tombstones of frozen [`Dataset::apply`]
//! batches and the pending inserts and removes of later ones. Shapes
//! that are not stars (a chain leg, a shared object variable, a constant
//! object, FILTER, OPTIONAL, a named graph block beside a default one)
//! must agree too. So must the star blocks serving meets: under
//! `GRAPH <g0>` (a rewritten view query), after a `BIND` or `VALUES`
//! that binds an unrelated variable (the star join extends a seeded
//! row), and where the star join declines: after a `VALUES` that binds
//! the subject or an object, and with a pushed `?o = <iri>` FILTER.
//! The leg reads are covered on the default graph and under
//! `GRAPH <g0>`, with functional, multi-valued and one-leg stars: where
//! a leg has far more triples than the star has candidates (many
//! subjects carry that leg alone), and where the candidates' ids lie
//! far apart (the dictionary grows by 70 000 terms between the bulk
//! load and the later batches, as it does between a view's
//! materialization and its maintenance).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sofos_cube::{view_query, AggOp, Dimension, Facet, Lattice};
use sofos_materialize::evaluate_view;
use sofos_rdf::vocab::xsd;
use sofos_rdf::{Graph, Iri, Literal, Term, Triple};
use sofos_sparql::{
    CompareOp, Evaluator, Expr, GraphSpec, GroupPattern, PatternElement, PatternTerm, Query,
    TriplePattern,
};
use sofos_store::{Dataset, Delta};

const NS: &str = "http://e/";

fn iri(local: impl std::fmt::Display) -> Term {
    Term::iri(format!("{NS}{local}"))
}

fn leg(s: &str, p: &str, o: &str) -> TriplePattern {
    TriplePattern::new(
        PatternTerm::var(s),
        PatternTerm::iri(format!("{NS}{p}")),
        PatternTerm::var(o),
    )
}

/// Every view of `facet` evaluates the same on both joins.
fn check_lattice(ds: &Dataset, facet: &Facet) -> Result<(), TestCaseError> {
    for mask in Lattice::new(facet.clone()).views() {
        let greedy = Evaluator::greedy_join_reference(ds)
            .evaluate(&view_query(facet, mask))
            .unwrap();
        let star = evaluate_view(ds, facet, mask).unwrap();
        prop_assert_eq!(
            star,
            greedy,
            "facet {:?} agg {} mask {}",
            facet.pattern,
            facet.agg,
            mask
        );
    }
    Ok(())
}

/// `SELECT *` over `pattern`, and every view query of `facet` with its
/// pattern replaced by `pattern`, evaluate the same on both joins.
fn check_pattern(ds: &Dataset, facet: &Facet, pattern: &GroupPattern) -> Result<(), TestCaseError> {
    let views = Lattice::new(facet.clone()).views().map(|mask| Query {
        pattern: pattern.clone(),
        ..view_query(facet, mask)
    });
    for query in views.chain([Query::select_all(pattern.clone())]) {
        let greedy = Evaluator::greedy_join_reference(ds)
            .evaluate(&query)
            .unwrap();
        let star = Evaluator::new(ds).evaluate(&query).unwrap();
        prop_assert_eq!(star, greedy, "pattern {:?} agg {}", pattern, facet.agg);
    }
    Ok(())
}

/// How many values a leg binds for one subject: mostly one, sometimes
/// none (a missing leg) or two or three (a multi-valued leg).
fn fan_out(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..20) {
        0..=1 => 0,
        2..=15 => 1,
        16..=18 => 2,
        _ => 3,
    }
}

fn typed(lexical: &str, datatype: &str) -> Term {
    Term::Literal(Literal::typed(lexical, Iri::new_unchecked(datatype)))
}

/// An object value: a small pool of IRIs and strings per predicate,
/// plus measure literals of every kind. `"1"`, `"01"`, `"1.0"` and
/// `"1E0"` are equal numbers spelled differently.
fn value(rng: &mut StdRng, pred: usize) -> Term {
    match rng.gen_range(0..24) {
        0..=5 => iri(format!("v{pred}_{}", rng.gen_range(0..3))),
        6..=7 => Term::literal_str(["a", "b"][rng.gen_range(0..2usize)]),
        8..=12 => Term::literal_int(rng.gen_range(-5..40)),
        13..=14 => Term::Literal(Literal::decimal(
            format!("{}.25", rng.gen_range(-3..12)).parse().unwrap(),
        )),
        15..=16 => Term::Literal(Literal::double(rng.gen_range(-1e3..1e3))),
        17 => typed("01", xsd::INTEGER),
        18 => typed("1.0", xsd::DECIMAL),
        19 => typed("1E0", xsd::DOUBLE),
        20 => Term::literal_int(1),
        21 => Term::Literal(Literal::year(2019 + rng.gen_range(0..2))),
        22 => Term::blank(format!("b{}", rng.gen_range(0..2))),
        _ => Term::literal_str("n/a"),
    }
}

/// A random star facet with 1–5 legs over predicates `p0..p3` and the
/// triples of `subjects` subjects, some in named graphs.
fn star_case(
    legs: usize,
    subjects: usize,
    agg: AggOp,
    rng: &mut StdRng,
) -> (Vec<Triple>, Vec<(Term, Triple)>, Facet) {
    // Leg i reads predicate preds[i]; a repeated predicate is two legs
    // over the same triples.
    let preds: Vec<usize> = (0..legs).map(|_| rng.gen_range(0..4)).collect();
    let vars: Vec<String> = (0..legs).map(|i| format!("x{i}")).collect();
    let pattern = GroupPattern::triples(
        preds
            .iter()
            .zip(&vars)
            .map(|(p, var)| leg("s", &format!("p{p}"), var))
            .collect(),
    );
    let measure = if rng.gen_range(0..8) == 0 {
        "s".to_string()
    } else {
        vars[rng.gen_range(0..legs)].clone()
    };
    let mut dims: Vec<Dimension> = vars
        .iter()
        .filter(|var| (**var != measure || rng.gen_range(0..6) == 0) && rng.gen_range(0..4) != 0)
        .map(|var| Dimension::new(var.clone()))
        .collect();
    if rng.gen_range(0..8) == 0 && measure != "s" {
        dims.push(Dimension::new("s"));
    }
    let facet = Facet::new("star", dims, pattern, measure, agg).unwrap();

    let mut default = Vec::new();
    let mut named = Vec::new();
    for s in 0..subjects {
        let subject = if s % 5 == 4 {
            iri(format!("s{s}"))
        } else {
            Term::blank(format!("s{s}"))
        };
        for p in 0..4 {
            for _ in 0..fan_out(rng) {
                let triple =
                    Triple::new_unchecked(subject.clone(), iri(format!("p{p}")), value(rng, p));
                if rng.gen_range(0..10) == 0 {
                    named.push((iri(format!("g{}", rng.gen_range(0..2))), triple));
                } else {
                    default.push(triple);
                }
            }
        }
    }
    (default, named, facet)
}

/// Load `default` into the `home` graph (the default graph when `None`)
/// and `named` into theirs; when `live`, bulk-load only part of `default`
/// and bring the rest in, plus churn, through [`Dataset::apply`] batches,
/// so scans merge the run with a delta and tombstones. `pad` fresh terms
/// are interned after the bulk load, so that later terms' ids lie that
/// far above the run's.
fn dataset(
    default: &[Triple],
    named: &[(Term, Triple)],
    home: Option<&Term>,
    live: bool,
    pad: usize,
    rng: &mut StdRng,
) -> Dataset {
    let mut ds = Dataset::new();
    let split = if live {
        default.len() / 2
    } else {
        default.len()
    };
    let run: Graph = default[..split].iter().cloned().collect();
    let home_id = home.map(|g| ds.intern(g));
    ds.load(home_id, &run);
    for i in 0..pad {
        ds.intern(&iri(format!("pad{i}")));
    }
    for (graph, t) in named {
        let name = ds.intern(graph);
        ds.insert(Some(name), &t.subject, &t.predicate, &t.object);
    }
    let put = |delta: &mut Delta, t: &Triple, insert: bool| {
        let (s, p, o) = (t.subject.clone(), t.predicate.clone(), t.object.clone());
        match (home, insert) {
            (None, true) => delta.insert(s, p, o),
            (None, false) => delta.delete(s, p, o),
            (Some(g), true) => delta.insert_into(g.clone(), s, p, o),
            (Some(g), false) => delta.delete_from(g.clone(), s, p, o),
        };
    };
    if live {
        let batches = default[split..].chunks(7).count();
        for (b, batch) in default[split..].chunks(7).enumerate() {
            // The first half of the batches lands in the delta and
            // tombstone slices, the rest stays in the pending overlay.
            if b == batches / 2 {
                ds.freeze();
            }
            let mut delta = Delta::new();
            for t in batch {
                put(&mut delta, t, true);
            }
            // Churn: delete a run triple (a tombstone), and sometimes put
            // one back in a later batch.
            let victim = &default[rng.gen_range(0..split.max(1)).min(default.len() - 1)];
            put(&mut delta, victim, false);
            if rng.gen_range(0..3) == 0 {
                put(&mut delta, &default[rng.gen_range(0..default.len())], true);
            }
            ds.apply(delta);
        }
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn star_path_equals_evaluator(
        legs in 1usize..=5,
        agg in 0usize..5,
        subjects in 0usize..40,
        live in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (default, named, facet) = star_case(legs, subjects, AggOp::ALL[agg], &mut rng);
        let ds = dataset(&default, &named, None, live, 0, &mut rng);
        check_lattice(&ds, &facet)?;
    }

    #[test]
    fn star_blocks_in_serving_shapes(
        shape in 0usize..5,
        legs in 1usize..=4,
        agg in 0usize..5,
        subjects in 0usize..30,
        live in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (default, named, facet) = star_case(legs, subjects, AggOp::ALL[agg], &mut rng);
        let home = (shape == 0).then(|| iri("g0"));
        let ds = dataset(&default, &named, home.as_ref(), live, 0, &mut rng);
        let pattern = serving_shape(shape, &facet, &default, &mut rng);
        check_pattern(&ds, &facet, &pattern)?;
    }

    #[test]
    fn leg_reads_agree_on_default_and_named_graphs(
        legs in 1usize..=4,
        agg in 0usize..5,
        subjects in 0usize..8,
        wide in prop_oneof![Just(0usize), 150usize..300],
        multi in any::<bool>(),
        named in any::<bool>(),
        live in any::<bool>(),
        far in 0usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut default, named_data, facet) =
            star_case(legs, subjects, AggOp::ALL[agg], &mut rng);
        let [PatternElement::Triples { patterns, .. }] = facet.pattern.elements.as_slice() else {
            unreachable!("a star facet is one triples block")
        };
        let leg_pred = |i: usize| match &patterns[i].predicate {
            PatternTerm::Const(p) => p.clone(),
            PatternTerm::Var(_) => unreachable!("star legs have constant predicates"),
        };
        // A multi-valued leg: every triple of the last leg's predicate
        // gets a second object.
        if multi {
            let pred = leg_pred(legs - 1);
            let extra: Vec<Triple> = default
                .iter()
                .filter(|t| t.predicate == pred)
                .map(|t| Triple::new_unchecked(t.subject.clone(), pred.clone(), iri(format!("m{}", rng.gen_range(0..4)))))
                .collect();
            default.extend(extra);
        }
        // Subjects that carry one leg alone: that leg has far more
        // triples than the star has candidates.
        let pred = leg_pred(rng.gen_range(0..legs));
        for w in 0..wide {
            for _ in 0..rng.gen_range(1..=2) {
                default.push(Triple::new_unchecked(iri(format!("w{w}")), pred.clone(), value(&mut rng, 0)));
            }
        }
        let home = named.then(|| iri("g0"));
        // An eighth of the cases spread the ids; padding separates them
        // only from the batches that follow it.
        let pad = if far == 0 { 70_000 } else { 0 };
        let live = live || pad > 0;
        let ds = dataset(&default, &named_data, home.as_ref(), live, pad, &mut rng);
        let graph = match home {
            Some(_) => GraphSpec::Named(Iri::new_unchecked(format!("{NS}g0"))),
            None => GraphSpec::Default,
        };
        let pattern = GroupPattern {
            elements: vec![PatternElement::Triples { graph, patterns: patterns.clone() }],
        };
        check_pattern(&ds, &facet, &pattern)?;
    }

    #[test]
    fn other_shapes_agree(
        shape in 0usize..6,
        agg in 0usize..5,
        subjects in 0usize..30,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut default, named, _) = star_case(1, subjects, AggOp::ALL[agg], &mut rng);
        // Chain targets: the p0 values carry p1 triples of their own.
        for v in 0..3 {
            default.push(Triple::new_unchecked(iri(format!("v0_{v}")), iri("p1"), value(&mut rng, 1)));
        }
        let ds = dataset(&default, &named, None, false, 0, &mut rng);
        let facet = non_star(shape, AggOp::ALL[agg]);
        check_lattice(&ds, &facet)?;
    }
}

/// A star facet's block as serving meets it: 0 under `GRAPH <g0>`, 1
/// after a `BIND` of an unrelated variable, 2 after a one- or two-row
/// `VALUES` of one, 3 after a `VALUES` binding the subject or an object
/// to terms drawn from `data`, 4 with a pushed `?o = <iri>` FILTER.
fn serving_shape(shape: usize, facet: &Facet, data: &[Triple], rng: &mut StdRng) -> GroupPattern {
    let [PatternElement::Triples { patterns, .. }] = facet.pattern.elements.as_slice() else {
        unreachable!("a star facet is one triples block")
    };
    let block = PatternElement::Triples {
        graph: GraphSpec::Default,
        patterns: patterns.clone(),
    };
    let var = |t: &PatternTerm| match t {
        PatternTerm::Var(v) => v.clone(),
        PatternTerm::Const(_) => unreachable!("star legs are ?s <p> ?o"),
    };
    // One leg's object variable, or the subject, and a term it may take.
    let leg = &patterns[rng.gen_range(0..patterns.len())];
    let objects: Vec<&Term> = data
        .iter()
        .filter(|t| PatternTerm::Const(t.predicate.clone()) == leg.predicate)
        .map(|t| &t.object)
        .collect();
    let object = match objects.len() {
        0 => iri("v0_0"),
        n => objects[rng.gen_range(0..n)].clone(),
    };
    let elements = match shape {
        0 => vec![PatternElement::Triples {
            graph: GraphSpec::Named(Iri::new_unchecked(format!("{NS}g0"))),
            patterns: patterns.clone(),
        }],
        1 => vec![
            PatternElement::Bind {
                expr: Expr::Const(Term::literal_str("k")),
                var: "z".into(),
            },
            block,
        ],
        2 => {
            let rows = (0..rng.gen_range(1..=2))
                .map(|i| vec![Some(iri(format!("z{i}")))])
                .collect();
            vec![
                PatternElement::Values {
                    vars: vec!["z".into()],
                    rows,
                },
                block,
            ]
        }
        3 => {
            let (bound, term) = if rng.gen_range(0..2) == 0 {
                let subject = data.get(rng.gen_range(0..data.len().max(1)));
                (
                    var(&leg.subject),
                    subject.map_or(iri("s4"), |t| t.subject.clone()),
                )
            } else {
                (var(&leg.object), object)
            };
            vec![
                PatternElement::Values {
                    vars: vec![bound],
                    rows: vec![vec![Some(term)]],
                },
                block,
            ]
        }
        _ => vec![
            block,
            PatternElement::Filter(Expr::Compare(
                CompareOp::Eq,
                Box::new(Expr::var(var(&leg.object))),
                Box::new(Expr::Const(match object {
                    iri @ Term::Iri(_) => iri,
                    _ => self::iri("v0_0"),
                })),
            )),
        ],
    };
    GroupPattern { elements }
}

/// Facets that are not stars: 0 a chain leg, 1 a shared object
/// variable, 2 a constant object, 3 a FILTER, 4 an OPTIONAL, 5 a named
/// graph block.
fn non_star(shape: usize, agg: AggOp) -> Facet {
    let mut elements = vec![PatternElement::Triples {
        graph: GraphSpec::Default,
        patterns: vec![leg("s", "p0", "a"), leg("s", "p2", "m")],
    }];
    let dims = match shape {
        0 => {
            push_leg(&mut elements, leg("a", "p1", "b"));
            vec!["a", "b"]
        }
        1 => {
            push_leg(&mut elements, leg("s", "p3", "a"));
            vec!["a"]
        }
        2 => {
            push_leg(
                &mut elements,
                TriplePattern::new(
                    PatternTerm::var("s"),
                    PatternTerm::iri(format!("{NS}p3")),
                    PatternTerm::Const(iri("v3_0")),
                ),
            );
            vec!["a"]
        }
        3 => {
            elements.push(PatternElement::Filter(Expr::Compare(
                CompareOp::Ne,
                Box::new(Expr::var("a")),
                Box::new(Expr::Const(iri("v0_1"))),
            )));
            vec!["a"]
        }
        4 => {
            elements.push(PatternElement::Optional(GroupPattern::triples(vec![leg(
                "s", "p1", "b",
            )])));
            vec!["a", "b"]
        }
        _ => {
            elements.push(PatternElement::Triples {
                graph: GraphSpec::Named(Iri::new_unchecked(format!("{NS}g0"))),
                patterns: vec![leg("s", "p1", "b")],
            });
            vec!["a", "b"]
        }
    };
    let dims = dims.into_iter().map(Dimension::new).collect();
    Facet::new("other", dims, GroupPattern { elements }, "m", agg).unwrap()
}

fn push_leg(elements: &mut [PatternElement], pattern: TriplePattern) {
    let PatternElement::Triples { patterns, .. } = &mut elements[0] else {
        unreachable!("the first element is the triples block")
    };
    patterns.push(pattern);
}

#[test]
fn empty_dataset_matches_evaluator() {
    let empty = Dataset::new();
    for legs in 1..=5 {
        for agg in AggOp::ALL {
            let mut rng = StdRng::seed_from_u64(legs as u64);
            let (_, _, facet) = star_case(legs, 0, agg, &mut rng);
            check_lattice(&empty, &facet).unwrap();
        }
    }
}
