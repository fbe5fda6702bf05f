//! Properties of [`evaluate_views`], which evaluates the union of the
//! requested masks once and rolls every other mask up from it:
//!
//! 1. **Roll-up ≡ evaluation** — entry `i` equals
//!    `evaluate_view(masks[i])`: same vars, same rows, same row order.
//!    Covered over random mask subsets (with duplicates), a single mask,
//!    the apex alone and the full lattice; star facets and the dbpedia
//!    `partOf` and lubm `author/worksFor` chain shapes; all five
//!    aggregates; missing and multi-valued legs; non-numeric measure
//!    literals; and the empty dataset.
//! 2. **Stats describe the graph** — [`view_stats`], which counts without
//!    building a graph, agrees with the graph [`materialize_views`]
//!    loads, read back through the dictionary.
//!
//! Measures are integers, decimals that never equal an integer, and
//! strings, so MIN/MAX never tie two differently spelled equal values;
//! `xsd:double` sums are checked separately, to a relative error.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sofos_cube::{AggOp, Dimension, Facet, Lattice, ViewMask};
use sofos_materialize::{evaluate_view, evaluate_views, materialize_views, view_stats};
use sofos_rdf::vocab::rdf;
use sofos_rdf::{FxHashSet, Literal, Term};
use sofos_sparql::{GroupPattern, PatternTerm, TriplePattern};
use sofos_store::Dataset;

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

/// How many values a leg binds for one subject: mostly one, sometimes
/// none (a missing leg) or two (a multi-valued leg).
fn fan_out(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..20) {
        0..=1 => 0,
        2..=16 => 1,
        _ => 2,
    }
}

/// A measure literal: integers, decimals off the integer grid, and the
/// odd non-numeric string that poisons SUM/AVG.
fn measure(rng: &mut StdRng) -> Term {
    match rng.gen_range(0..20) {
        0..=13 => Term::literal_int(rng.gen_range(-5..40)),
        14..=17 => Term::Literal(Literal::decimal(
            format!("{}.5", rng.gen_range(-3..12)).parse().unwrap(),
        )),
        18 => Term::literal_str("n/a"),
        _ => Term::literal_str("tbd"),
    }
}

/// Insert `fan_out` values drawn by `value` for `subject` along `pred`.
fn insert_leg(
    ds: &mut Dataset,
    rng: &mut StdRng,
    subject: &Term,
    pred: &str,
    value: impl Fn(&mut StdRng) -> Term,
) {
    for _ in 0..fan_out(rng) {
        let object = value(rng);
        ds.insert(None, subject, &iri(pred), &object);
    }
}

/// A star facet over `dims` dimensions: `?o pD ?dD` legs plus `?o m ?u`.
fn star(dims: usize, subjects: usize, agg: AggOp, rng: &mut StdRng) -> (Dataset, Facet) {
    let mut ds = Dataset::new();
    for s in 0..subjects {
        let obs = Term::blank(format!("o{s}"));
        for d in 0..dims {
            insert_leg(&mut ds, rng, &obs, &format!("p{d}"), |rng| {
                iri(format!("d{d}_{}", rng.gen_range(0..3)))
            });
        }
        insert_leg(&mut ds, rng, &obs, "m", measure);
    }
    let mut legs: Vec<TriplePattern> = (0..dims)
        .map(|d| leg("o", &format!("p{d}"), &format!("d{d}")))
        .collect();
    legs.push(leg("o", "m", "u"));
    let dimensions = (0..dims).map(|d| Dimension::new(format!("d{d}"))).collect();
    let facet = Facet::new("star", dimensions, GroupPattern::triples(legs), "u", agg).unwrap();
    (ds, facet)
}

/// The dbpedia shape: observation legs plus a `?country partOf ?region`
/// chain leg on a dimension value.
fn dbpedia_chain(subjects: usize, agg: AggOp, rng: &mut StdRng) -> (Dataset, Facet) {
    let mut ds = Dataset::new();
    for c in 0..4 {
        insert_leg(&mut ds, rng, &iri(format!("country{c}")), "partOf", |rng| {
            iri(format!("region{}", rng.gen_range(0..2)))
        });
    }
    for s in 0..subjects {
        let obs = Term::blank(format!("o{s}"));
        insert_leg(&mut ds, rng, &obs, "country", |rng| {
            iri(format!("country{}", rng.gen_range(0..4)))
        });
        insert_leg(&mut ds, rng, &obs, "language", |rng| {
            Term::literal_str(["fr", "de", "en"][rng.gen_range(0..3usize)])
        });
        insert_leg(&mut ds, rng, &obs, "year", |rng| {
            Term::Literal(Literal::year(2019 + rng.gen_range(0..3)))
        });
        insert_leg(&mut ds, rng, &obs, "population", measure);
    }
    let pattern = GroupPattern::triples(vec![
        leg("obs", "country", "country"),
        leg("obs", "language", "language"),
        leg("obs", "year", "year"),
        leg("obs", "population", "pop"),
        leg("country", "partOf", "region"),
    ]);
    let dimensions = ["country", "language", "year", "region"]
        .into_iter()
        .map(Dimension::new)
        .collect();
    let facet = Facet::new("population", dimensions, pattern, "pop", agg).unwrap();
    (ds, facet)
}

/// The lubm shape: `?pub author ?prof . ?prof worksFor ?dept . ?dept
/// subOrganizationOf ?univ`, a chain two hops deep from the measure.
fn lubm_chain(subjects: usize, agg: AggOp, rng: &mut StdRng) -> (Dataset, Facet) {
    let mut ds = Dataset::new();
    for p in 0..5 {
        insert_leg(&mut ds, rng, &iri(format!("prof{p}")), "worksFor", |rng| {
            iri(format!("dept{}", rng.gen_range(0..3)))
        });
    }
    for d in 0..3 {
        insert_leg(
            &mut ds,
            rng,
            &iri(format!("dept{d}")),
            "subOrganizationOf",
            |rng| iri(format!("univ{}", rng.gen_range(0..2))),
        );
    }
    for s in 0..subjects {
        let publication = iri(format!("pub{s}"));
        insert_leg(&mut ds, rng, &publication, "author", |rng| {
            iri(format!("prof{}", rng.gen_range(0..5)))
        });
        insert_leg(&mut ds, rng, &publication, "venue", |rng| {
            iri(format!("venue{}", rng.gen_range(0..3)))
        });
        insert_leg(&mut ds, rng, &publication, "pages", measure);
    }
    let pattern = GroupPattern::triples(vec![
        leg("pub", "author", "prof"),
        leg("prof", "worksFor", "dept"),
        leg("dept", "subOrganizationOf", "univ"),
        leg("pub", "venue", "venue"),
        leg("pub", "pages", "pages"),
    ]);
    let dimensions = ["univ", "dept", "venue"]
        .into_iter()
        .map(Dimension::new)
        .collect();
    let facet = Facet::new("pubs", dimensions, pattern, "pages", agg).unwrap();
    (ds, facet)
}

/// One generated case: shape 0 is a star of 1–4 dimensions, 1 the
/// dbpedia chain, 2 the lubm chain.
fn case(shape: usize, subjects: usize, agg: AggOp, seed: u64) -> (Dataset, Facet) {
    let mut rng = StdRng::seed_from_u64(seed);
    match shape {
        0 => {
            let dims = rng.gen_range(1..=4);
            star(dims, subjects, agg, &mut rng)
        }
        1 => dbpedia_chain(subjects, agg, &mut rng),
        _ => lubm_chain(subjects, agg, &mut rng),
    }
}

/// Mode 0 draws 1–5 masks (duplicates allowed), 1 a single mask, 2 the
/// apex alone, 3 the full lattice.
fn masks(facet: &Facet, mode: usize, seed: u64) -> Vec<ViewMask> {
    let lattice = Lattice::new(facet.clone());
    let views = lattice.num_views();
    let mut rng = StdRng::seed_from_u64(seed);
    match mode {
        0 => {
            let n = rng.gen_range(1..=5);
            (0..n).map(|_| ViewMask(rng.gen_range(0..views))).collect()
        }
        1 => vec![ViewMask(rng.gen_range(0..views))],
        2 => vec![ViewMask::APEX],
        _ => lattice.views().collect(),
    }
}

fn check_rollup(ds: &Dataset, facet: &Facet, masks: &[ViewMask]) -> Result<(), TestCaseError> {
    let rolled = evaluate_views(ds, facet, masks).unwrap();
    prop_assert_eq!(rolled.len(), masks.len());
    for (results, &mask) in rolled.iter().zip(masks) {
        let direct = evaluate_view(ds, facet, mask).unwrap();
        prop_assert_eq!(
            results,
            &direct,
            "facet {} agg {} mask {} of {:?}",
            facet.id,
            facet.agg,
            mask,
            masks
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn rollup_equals_direct_evaluation(
        shape in 0usize..3,
        agg in 0usize..5,
        subjects in 0usize..30,
        mode in 0usize..4,
        seed in any::<u64>(),
    ) {
        let (ds, facet) = case(shape, subjects, AggOp::ALL[agg], seed);
        let masks = masks(&facet, mode, seed ^ 0x5eed);
        check_rollup(&ds, &facet, &masks)?;
    }

    #[test]
    fn view_stats_describe_the_encoded_graph(
        shape in 0usize..3,
        agg in 0usize..5,
        subjects in 0usize..30,
        seed in any::<u64>(),
    ) {
        let (mut ds, facet) = case(shape, subjects, AggOp::ALL[agg], seed);
        let masks = masks(&facet, 3, seed);
        let results = evaluate_views(&ds, &facet, &masks).unwrap();
        let views = materialize_views(&mut ds, &facet, &masks).unwrap();
        let type_pred = Term::iri(rdf::TYPE);
        for ((results, view), &mask) in results.iter().zip(&views).zip(&masks) {
            let name = ds.dict().get_id(&Term::iri(&view.graph_iri)).unwrap();
            let graph = ds.graph(Some(name)).unwrap();
            // Bytes: each observation node once, plus every value it carries.
            let mut subjects: FxHashSet<&Term> = FxHashSet::default();
            let mut nodes: FxHashSet<&Term> = FxHashSet::default();
            let mut bytes = 0;
            for [s, p, o] in graph.iter() {
                let (subject, object) = (ds.term(s), ds.term(o));
                if subjects.insert(subject) {
                    bytes += subject.estimated_bytes();
                }
                if *ds.term(p) != type_pred {
                    bytes += object.estimated_bytes();
                }
                nodes.insert(subject);
                nodes.insert(object);
            }
            let stats = &view.stats;
            prop_assert_eq!(stats, &view_stats(&facet, mask, results));
            prop_assert_eq!(stats.rows, results.len());
            prop_assert_eq!(stats.triples, graph.len(), "mask {}", mask);
            prop_assert_eq!(stats.nodes, nodes.len(), "mask {}", mask);
            prop_assert_eq!(stats.bytes, bytes, "mask {}", mask);
        }
    }
}

#[test]
fn empty_dataset_rolls_up_like_evaluation() {
    for shape in 0..3 {
        for agg in AggOp::ALL {
            let (_, facet) = case(shape, 0, agg, 1);
            let empty = Dataset::new();
            for mode in 0..4 {
                check_rollup(&empty, &facet, &masks(&facet, mode, 7)).unwrap();
            }
            // The apex of an empty graph is one empty group, also when it
            // is rolled up from a finer view with no rows.
            let apex = &evaluate_views(&empty, &facet, &masks(&facet, 3, 0)).unwrap()[0];
            assert_eq!(apex.len(), 1, "{agg}");
        }
    }
}

#[test]
fn no_masks_evaluate_nothing() {
    let (ds, facet) = case(0, 10, AggOp::Sum, 3);
    assert!(evaluate_views(&ds, &facet, &[]).unwrap().is_empty());
}

/// `xsd:double` sums are re-associated by the roll-up: the direct
/// evaluation adds every measure left to right, the roll-up adds partial
/// sums of the finer groups. Floating-point addition is not associative,
/// so the two may differ in their last bits. With positive measures (no
/// cancellation) each sum of n terms is within n·ε ≈ 200 × 1.1e-16 of the
/// exact sum, so the two stay within a relative error of 1e-12 of each
/// other. Everything else must match exactly.
#[test]
fn double_sums_agree_to_a_relative_error() {
    let mut rng = StdRng::seed_from_u64(11);
    let (mut ds, facet) = star(3, 0, AggOp::Avg, &mut rng);
    for s in 0..200 {
        let obs = Term::blank(format!("o{s}"));
        for d in 0..3 {
            let value = iri(format!("d{d}_{}", rng.gen_range(0..4)));
            ds.insert(None, &obs, &iri(format!("p{d}")), &value);
        }
        let value = rng.gen_range(0.0..1e3) * 10f64.powi(rng.gen_range(-6..6));
        ds.insert(
            None,
            &obs,
            &iri("m"),
            &Term::Literal(Literal::double(value)),
        );
    }
    let masks: Vec<ViewMask> = Lattice::new(facet.clone()).views().collect();
    let rolled = evaluate_views(&ds, &facet, &masks).unwrap();
    let number = |cell: &Option<Term>| {
        let literal = cell.as_ref().and_then(Term::as_literal).unwrap();
        literal.numeric().unwrap().to_f64()
    };
    for (results, &mask) in rolled.iter().zip(&masks) {
        let direct = evaluate_view(&ds, &facet, mask).unwrap();
        assert_eq!(results.vars, direct.vars);
        assert_eq!(results.len(), direct.len(), "{mask}");
        let sum = direct.column(sofos_cube::SUM_ALIAS).unwrap();
        for (row, expected) in results.rows.iter().zip(&direct.rows) {
            for (column, (cell, want)) in row.iter().zip(expected).enumerate() {
                if column == sum {
                    let (got, want) = (number(cell), number(want));
                    let error = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
                    assert!(error <= 1e-12, "{mask}: {got} vs {want}");
                } else {
                    assert_eq!(cell, want, "{mask}");
                }
            }
        }
    }
}
