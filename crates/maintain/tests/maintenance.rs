//! Maintenance fidelity: incrementally maintained view graphs must be
//! triple-for-triple equal (up to blank-node labels) to views
//! re-materialized from scratch — across aggregates, edge cases, and
//! random update batches.

use proptest::prelude::*;
use sofos_cube::{AggOp, Dimension, Facet, ViewMask};
use sofos_maintain::{Maintainer, MaintenanceStrategy, RowDelta};
use sofos_materialize::{materialize_view, materialize_views};
use sofos_rdf::vocab::sofos;
use sofos_rdf::{Literal, Term};
use sofos_sparql::{GroupPattern, PatternTerm, TriplePattern};
use sofos_store::{Dataset, Delta};
use std::collections::BTreeMap;

const NS: &str = "http://maintain.example/";

fn iri(local: impl std::fmt::Display) -> Term {
    Term::iri(format!("{NS}{local}"))
}

fn facet(dims: usize, agg: AggOp) -> Facet {
    let mut patterns = Vec::new();
    let mut dimensions = Vec::new();
    for d in 0..dims {
        patterns.push(TriplePattern::new(
            PatternTerm::var("o"),
            PatternTerm::iri(format!("{NS}dim{d}")),
            PatternTerm::var(format!("d{d}")),
        ));
        dimensions.push(Dimension::new(format!("d{d}")));
    }
    patterns.push(TriplePattern::new(
        PatternTerm::var("o"),
        PatternTerm::iri(format!("{NS}measure")),
        PatternTerm::var("m"),
    ));
    Facet::new("mf", dimensions, GroupPattern::triples(patterns), "m", agg).unwrap()
}

/// Insert one observation: one value per dimension plus a measure.
fn obs_delta(delta: &mut Delta, label: &str, dims: &[u8], measure: i64) {
    obs_delta_term(delta, label, dims, Term::literal_int(measure));
}

fn obs_delta_term(delta: &mut Delta, label: &str, dims: &[u8], measure: Term) {
    let node = Term::blank(label.to_string());
    for (d, v) in dims.iter().enumerate() {
        delta.insert(
            node.clone(),
            iri(format!("dim{d}")),
            iri(format!("v{d}_{v}")),
        );
    }
    delta.insert(node, iri("measure"), measure);
}

fn obs_delete(delta: &mut Delta, label: &str, dims: &[u8], measure: i64) {
    let node = Term::blank(label.to_string());
    for (d, v) in dims.iter().enumerate() {
        delta.delete(
            node.clone(),
            iri(format!("dim{d}")),
            iri(format!("v{d}_{v}")),
        );
    }
    delta.delete(node, iri("measure"), Term::literal_int(measure));
}

/// The view graph as a canonical multiset of observation-row signatures:
/// blank labels differ between maintenance and re-materialization, but the
/// (predicate, object) sets per observation must match exactly.
fn view_signature(ds: &Dataset, facet: &Facet, mask: ViewMask) -> Vec<Vec<(String, String)>> {
    let iri = Term::iri(sofos::view_graph(&facet.id, mask.0));
    let Some(id) = ds.dict().get_id(&iri) else {
        return Vec::new();
    };
    let Some(graph) = ds.graph(Some(id)) else {
        return Vec::new();
    };
    let mut per_subject: BTreeMap<u32, Vec<(String, String)>> = BTreeMap::new();
    for [s, p, o] in graph.iter() {
        per_subject
            .entry(s.0)
            .or_default()
            .push((format!("{:?}", ds.term(p)), format!("{:?}", ds.term(o))));
    }
    let mut rows: Vec<Vec<(String, String)>> = per_subject
        .into_values()
        .map(|mut row| {
            row.sort();
            row
        })
        .collect();
    rows.sort();
    rows
}

/// Re-materialize the same views over a fresh dataset holding the same
/// base triples, and return the reference signatures.
fn reference_signatures(
    ds: &Dataset,
    facet: &Facet,
    masks: &[ViewMask],
) -> Vec<Vec<Vec<(String, String)>>> {
    let mut fresh = Dataset::new();
    for [s, p, o] in ds.default_graph().iter() {
        fresh.insert(None, ds.term(s), ds.term(p), ds.term(o));
    }
    masks
        .iter()
        .map(|&mask| {
            materialize_view(&mut fresh, facet, mask).expect("reference materialization");
            view_signature(&fresh, facet, mask)
        })
        .collect()
}

fn assert_views_match(ds: &Dataset, facet: &Facet, masks: &[ViewMask], context: &str) {
    let reference = reference_signatures(ds, facet, masks);
    for (&mask, expected) in masks.iter().zip(&reference) {
        let actual = view_signature(ds, facet, mask);
        assert_eq!(
            &actual, expected,
            "{context}: view {mask} diverged from re-materialization"
        );
    }
}

/// Seed dataset + materialized views + maintainer for one aggregate.
fn setup(agg: AggOp, masks: &[ViewMask]) -> (Dataset, Facet, Maintainer, Vec<(ViewMask, usize)>) {
    let facet = facet(2, agg);
    let mut ds = Dataset::new();
    let mut seed = Delta::new();
    obs_delta(&mut seed, "o0", &[0, 0], 10);
    obs_delta(&mut seed, "o1", &[0, 1], 5);
    obs_delta(&mut seed, "o2", &[1, 0], 7);
    obs_delta(&mut seed, "o3", &[0, 0], 1);
    ds.apply(seed);
    let mut catalog = Vec::new();
    for &mask in masks {
        let v = materialize_view(&mut ds, &facet, mask).unwrap();
        catalog.push((mask, v.stats.rows));
    }
    let maintainer = Maintainer::new(&facet);
    assert!(maintainer.is_incremental());
    (ds, facet, maintainer, catalog)
}

const ALL_MASKS: [ViewMask; 4] = [
    ViewMask(0b11),
    ViewMask(0b01),
    ViewMask(0b10),
    ViewMask::APEX,
];

#[test]
fn delete_of_last_row_retracts_observation() {
    for agg in AggOp::ALL {
        let (mut ds, facet, mut maintainer, mut catalog) = setup(agg, &ALL_MASKS);
        let before = view_signature(&ds, &facet, ViewMask(0b11)).len();
        // Group (d0=1, d1=0) has exactly one row: observation o2.
        let mut delta = Delta::new();
        obs_delete(&mut delta, "o2", &[1, 0], 7);
        let (_, report) = maintainer
            .apply_and_maintain(&mut ds, delta, &mut catalog)
            .unwrap();
        assert_views_match(&ds, &facet, &ALL_MASKS, &format!("{agg} last-row delete"));
        let after = view_signature(&ds, &facet, ViewMask(0b11)).len();
        assert_eq!(
            after,
            before - 1,
            "{agg}: the group's observation is retracted"
        );
        assert!(
            report.per_view.iter().any(|c| c.rows_retracted > 0),
            "{agg}: a retraction is reported"
        );
        assert_eq!(catalog[0].1, after, "catalog row count tracks the view");
    }
}

#[test]
fn min_max_delete_triggers_per_group_reevaluation() {
    for agg in [AggOp::Min, AggOp::Max] {
        let (mut ds, facet, mut maintainer, mut catalog) = setup(agg, &ALL_MASKS);
        // Group (0,0) = {10, 1}: delete one contributor; the other remains.
        let mut delta = Delta::new();
        obs_delete(&mut delta, "o3", &[0, 0], 1);
        let (_, report) = maintainer
            .apply_and_maintain(&mut ds, delta, &mut catalog)
            .unwrap();
        assert_views_match(&ds, &facet, &ALL_MASKS, &format!("{agg} delete"));
        let base_view_cost = &report.per_view[0];
        assert_eq!(base_view_cost.strategy, MaintenanceStrategy::Counting);
        assert!(
            base_view_cost.groups_reevaluated >= 1,
            "{agg}: deletes force per-group re-evaluation, got {base_view_cost:?}"
        );
    }
}

#[test]
fn min_max_pure_inserts_patch_without_reevaluation() {
    for agg in [AggOp::Min, AggOp::Max] {
        let (mut ds, facet, mut maintainer, mut catalog) = setup(agg, &ALL_MASKS);
        let mut delta = Delta::new();
        obs_delta(
            &mut delta,
            "n0",
            &[0, 0],
            if agg == AggOp::Min { -3 } else { 99 },
        );
        let (_, report) = maintainer
            .apply_and_maintain(&mut ds, delta, &mut catalog)
            .unwrap();
        assert_views_match(&ds, &facet, &ALL_MASKS, &format!("{agg} insert"));
        for cost in &report.per_view {
            assert_eq!(
                cost.groups_reevaluated, 0,
                "{agg}: pure inserts patch in place"
            );
            assert_eq!(cost.strategy, MaintenanceStrategy::Counting);
        }
    }
}

#[test]
fn avg_patches_sum_and_count_components() {
    let (mut ds, facet, mut maintainer, mut catalog) = setup(AggOp::Avg, &ALL_MASKS);
    let mut delta = Delta::new();
    obs_delta(&mut delta, "n0", &[0, 0], 4); // group (0,0): sum 11→15, count 2→3
    let (_, report) = maintainer
        .apply_and_maintain(&mut ds, delta, &mut catalog)
        .unwrap();
    assert_views_match(&ds, &facet, &ALL_MASKS, "avg insert");
    let base = &report.per_view[0];
    assert_eq!(base.strategy, MaintenanceStrategy::Counting);
    assert_eq!(
        base.groups_reevaluated, 0,
        "AVG is patched via SUM+COUNT, not re-evaluated"
    );
    // Both components of the (0,0) group changed: 2 triples each.
    assert_eq!(base.triples_touched, 4);

    // Deletes also patch arithmetically (stored COUNT witnesses emptiness).
    let mut delta = Delta::new();
    obs_delete(&mut delta, "n0", &[0, 0], 4);
    let (_, report) = maintainer
        .apply_and_maintain(&mut ds, delta, &mut catalog)
        .unwrap();
    assert_views_match(&ds, &facet, &ALL_MASKS, "avg delete");
    assert_eq!(report.per_view[0].groups_reevaluated, 0);
}

#[test]
fn off_mask_dimension_update_is_a_noop_for_that_view() {
    let (mut ds, facet, mut maintainer, mut catalog) = setup(AggOp::Sum, &ALL_MASKS);
    // Move o1 from d1=1 to d1=2 — dimension 1 only.
    let node = Term::blank("o1");
    let mut delta = Delta::new();
    delta.delete(node.clone(), iri("dim1"), iri("v1_1"));
    delta.insert(node, iri("dim1"), iri("v1_2"));
    let (_, report) = maintainer
        .apply_and_maintain(&mut ds, delta, &mut catalog)
        .unwrap();
    assert_views_match(&ds, &facet, &ALL_MASKS, "off-mask dim move");

    let by_view = |mask: ViewMask| {
        report
            .per_view
            .iter()
            .find(|c| c.view == mask)
            .unwrap_or_else(|| panic!("cost for {mask}"))
    };
    // Views retaining dimension 1 change...
    assert!(by_view(ViewMask(0b11)).triples_touched > 0);
    assert!(by_view(ViewMask(0b10)).triples_touched > 0);
    // ...views that project it away see an exact cancellation.
    assert_eq!(
        by_view(ViewMask(0b01)).triples_touched,
        0,
        "d0-only view untouched"
    );
    assert_eq!(by_view(ViewMask::APEX).triples_touched, 0, "apex untouched");
}

#[test]
fn new_group_creates_observation_node() {
    for agg in AggOp::ALL {
        let (mut ds, facet, mut maintainer, mut catalog) = setup(agg, &ALL_MASKS);
        let before = view_signature(&ds, &facet, ViewMask(0b11)).len();
        let mut delta = Delta::new();
        obs_delta(&mut delta, "n0", &[3, 3], 42); // unseen dimension values
        let (_, report) = maintainer
            .apply_and_maintain(&mut ds, delta, &mut catalog)
            .unwrap();
        assert_views_match(&ds, &facet, &ALL_MASKS, &format!("{agg} new group"));
        assert_eq!(
            view_signature(&ds, &facet, ViewMask(0b11)).len(),
            before + 1
        );
        assert!(report.per_view.iter().any(|c| c.rows_inserted > 0));
    }
}

#[test]
fn non_star_facets_fall_back_to_full_refresh() {
    // A two-hop (chain) pattern: ?o dim0 ?d0 . ?d0 weight ?m — not a star.
    let pattern = GroupPattern::triples(vec![
        TriplePattern::new(
            PatternTerm::var("o"),
            PatternTerm::iri(format!("{NS}dim0")),
            PatternTerm::var("d0"),
        ),
        TriplePattern::new(
            PatternTerm::var("d0"),
            PatternTerm::iri(format!("{NS}weight")),
            PatternTerm::var("m"),
        ),
    ]);
    let facet = Facet::new(
        "chain",
        vec![Dimension::new("d0")],
        pattern,
        "m",
        AggOp::Sum,
    )
    .unwrap();
    let mut ds = Dataset::new();
    ds.insert(None, &Term::blank("o0"), &iri("dim0"), &iri("a"));
    ds.insert(None, &iri("a"), &iri("weight"), &Term::literal_int(3));
    let mask = ViewMask(0b1);
    let v = materialize_view(&mut ds, &facet, mask).unwrap();
    let mut catalog = vec![(mask, v.stats.rows)];

    let mut maintainer = Maintainer::new(&facet);
    assert!(!maintainer.is_incremental());
    let mut delta = Delta::new();
    delta.insert(Term::blank("o1"), iri("dim0"), iri("b"));
    delta.insert(iri("b"), iri("weight"), Term::literal_int(9));
    let (_, report) = maintainer
        .apply_and_maintain(&mut ds, delta, &mut catalog)
        .unwrap();
    assert_eq!(
        report.per_view[0].strategy,
        MaintenanceStrategy::FullRefresh
    );
    assert_views_match(&ds, &facet, &[mask], "non-star refresh");
    assert_eq!(catalog[0].1, 2, "catalog rows refreshed");
}

/// A full refresh writes the view graphs `materialize_views` writes: the
/// same dictionary, graph names, id triples and catalog rows as
/// re-materializing a clone taken just before the refresh. Some measures
/// are `xsd:double`s whose SUM depends on the order it adds in, so a
/// refresh that evaluates each view on its own, instead of rolling the
/// coarser views up, writes different literals.
#[test]
fn full_refresh_writes_what_materialize_views_writes() {
    // Two ways into a full refresh: `rows = None`, and a star-facet
    // delta with a plain-string measure, which counting cannot patch.
    for string_measure in [false, true] {
        // Enough groups that label order ("…_10" < "…_2") differs from
        // row order.
        let facet = facet(3, AggOp::Avg);
        let masks = [ViewMask(0b111), ViewMask::APEX, ViewMask(0b001)];
        let mut ds = Dataset::new();
        let mut seed = Delta::new();
        for i in 0..40u8 {
            obs_delta(
                &mut seed,
                &format!("o{i}"),
                &[i % 13, i % 3, i % 5],
                i64::from(i),
            );
        }
        // 1e16 + 1.0 rounds back to 1e16, so the finest group (20, 0, 0)
        // loses the 1.0 while a direct sum that meets -1e16 between them
        // keeps it: the APEX view and the `d0 = 20` group of the 0b001
        // view.
        for (label, dims, measure) in [
            ("x0", [20, 0, 0], 1e16),
            ("x1", [20, 1, 0], -1e16),
            ("x2", [20, 0, 0], 1.0),
        ] {
            let measure = Term::Literal(Literal::double(measure));
            obs_delta_term(&mut seed, label, &dims, measure);
        }
        ds.apply(seed);
        let views = materialize_views(&mut ds, &facet, &masks).unwrap();
        let mut catalog: Vec<(ViewMask, usize)> = masks
            .iter()
            .zip(&views)
            .map(|(&mask, view)| (mask, view.stats.rows))
            .collect();
        // A counting pass first, so the refresh below interns only what
        // it writes.
        let mut maintainer = Maintainer::new(&facet);
        let mut delta = Delta::new();
        obs_delta(&mut delta, "n0", &[13, 0, 0], 7);
        maintainer
            .apply_and_maintain(&mut ds, delta, &mut catalog)
            .unwrap();
        let mut delta = Delta::new();
        obs_delete(&mut delta, "o5", &[5, 2, 0], 5);
        obs_delta(&mut delta, "n1", &[2, 1, 4], 11);
        if string_measure {
            obs_delta_term(&mut delta, "s0", &[3, 0, 1], Term::literal_str("n/a"));
        }
        let applied = maintainer.apply(&mut ds, delta);
        assert!(applied.rows.is_some(), "a star facet reports its rows");
        let rows = applied.rows.filter(|_| string_measure);

        let mut reference = ds.clone();
        let rematerialized = materialize_views(&mut reference, &facet, &masks).unwrap();
        let report = maintainer
            .maintain(&mut ds, rows.as_ref(), &mut catalog)
            .unwrap()
            .report;
        for cost in &report.per_view {
            assert_eq!(cost.strategy, MaintenanceStrategy::FullRefresh);
        }

        let input = format!("string measure: {string_measure}");
        assert!(ds.dict().iter().eq(reference.dict().iter()), "{input}");
        assert_eq!(ds.graph_names(), reference.graph_names(), "{input}");
        for name in reference.graph_names() {
            let (got, want) = (ds.graph(Some(name)), reference.graph(Some(name)));
            assert!(got.unwrap().iter().eq(want.unwrap().iter()), "{input}");
        }
        assert_eq!(ds.estimated_bytes(), reference.estimated_bytes());
        let rows: Vec<usize> = rematerialized.iter().map(|v| v.stats.rows).collect();
        assert_eq!(
            catalog.iter().map(|&(_, rows)| rows).collect::<Vec<_>>(),
            rows
        );
    }
}

#[test]
fn non_star_facets_skip_the_scan_phase() {
    // A FILTER makes the pattern a non-star: `apply` only mutates the
    // store and reports no binding delta.
    let mut facet = facet(2, AggOp::Sum);
    facet
        .pattern
        .elements
        .push(sofos_sparql::PatternElement::Filter(
            sofos_sparql::Expr::int(1),
        ));
    let mut maintainer = Maintainer::new(&facet);
    assert!(!maintainer.is_incremental());
    let mut ds = Dataset::new();
    let mut delta = Delta::new();
    obs_delta(&mut delta, "o0", &[0, 1], 3);
    let outcome = maintainer.apply(&mut ds, delta);
    assert!(outcome.rows.is_none(), "full refresh regime");
    assert_eq!(outcome.changes.default_graph.inserted.len(), 3);
    assert_eq!(ds.default_graph().len(), 3);
}

#[test]
fn multi_valued_dimensions_keep_multiplicities_straight() {
    // An observation with two values for dim0 contributes two rows.
    let (mut ds, facet, mut maintainer, mut catalog) = setup(AggOp::Count, &ALL_MASKS);
    let node = Term::blank("o0");
    let mut delta = Delta::new();
    delta.insert(node.clone(), iri("dim0"), iri("v0_9"));
    let (_, _) = maintainer
        .apply_and_maintain(&mut ds, delta, &mut catalog)
        .unwrap();
    assert_views_match(&ds, &facet, &ALL_MASKS, "dim value added");

    // Removing it again restores the original views.
    let mut delta = Delta::new();
    delta.delete(node, iri("dim0"), iri("v0_9"));
    let (_, _) = maintainer
        .apply_and_maintain(&mut ds, delta, &mut catalog)
        .unwrap();
    assert_views_match(&ds, &facet, &ALL_MASKS, "dim value removed");
}

/// One randomized update operation.
#[derive(Debug, Clone)]
enum Op {
    InsertObs { dims: Vec<u8>, measure: i64 },
    DeleteObs { index: usize },
    MoveDim { index: usize, dim: usize, value: u8 },
    SetMeasure { index: usize, measure: i64 },
    DropDimTriple { index: usize, dim: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (proptest::collection::vec(0u8..4, 3), -20i64..20)
            .prop_map(|(dims, measure)| Op::InsertObs { dims, measure }),
        (0usize..64).prop_map(|index| Op::DeleteObs { index }),
        (0usize..64, 0usize..3, 0u8..4).prop_map(|(index, dim, value)| Op::MoveDim {
            index,
            dim,
            value
        }),
        (0usize..64, -20i64..20).prop_map(|(index, measure)| Op::SetMeasure { index, measure }),
        (0usize..64, 0usize..3).prop_map(|(index, dim)| Op::DropDimTriple { index, dim }),
    ]
}

/// One randomized batch of the twin-dataset proptests: `(insert?, dims,
/// measure)` per op; a delete picks a live observation by `measure`.
type BatchOps = Vec<(bool, Vec<u8>, i64)>;

fn arb_batches() -> impl Strategy<Value = Vec<BatchOps>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                proptest::bool::weighted(0.7),
                proptest::collection::vec(0u8..4, 3),
                -20i64..20,
            ),
            1..8,
        ),
        1..6,
    )
}

/// An empty dataset with `masks` materialized, and its catalog.
fn empty_with_views(facet: &Facet, masks: &[ViewMask]) -> (Dataset, Vec<(ViewMask, usize)>) {
    let mut ds = Dataset::new();
    let catalog = masks
        .iter()
        .map(|&mask| {
            (
                mask,
                materialize_view(&mut ds, facet, mask).unwrap().stats.rows,
            )
        })
        .collect();
    (ds, catalog)
}

/// Build one batch's delta. Twin datasets each rebuild it from their own
/// `next`/`live` bookkeeping so both intern identically.
fn build_delta(
    ops: &[(bool, Vec<u8>, i64)],
    next: &mut usize,
    live: &mut Vec<Option<(Vec<u8>, i64)>>,
) -> Delta {
    let mut delta = Delta::new();
    for (insert, dims, measure) in ops {
        if *insert {
            obs_delta(&mut delta, &format!("p{next}"), dims, *measure);
            live.push(Some((dims.clone(), *measure)));
            *next += 1;
        } else if !live.is_empty() {
            let slot = measure.unsigned_abs() as usize % live.len();
            if let Some((dims, measure)) = live[slot].take() {
                obs_delete(&mut delta, &format!("p{slot}"), &dims, measure);
            }
        }
    }
    delta
}

/// [`Maintainer::apply`] every batch of `chunk` and merge their row deltas.
fn apply_chunk(
    maintainer: &mut Maintainer,
    ds: &mut Dataset,
    chunk: &[BatchOps],
    next: &mut usize,
    live: &mut Vec<Option<(Vec<u8>, i64)>>,
) -> RowDelta {
    let mut merged = RowDelta::default();
    for ops in chunk {
        let outcome = maintainer.apply(ds, build_delta(ops, next, live));
        merged.merge(outcome.rows.as_ref().expect("star facet"));
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Batching is exact: across batch-size × delta-mix grids, one
    /// dataset runs one `maintain` per delta (`apply_and_maintain`), the
    /// other coalesces `batch_size` deltas into a merged row delta and runs
    /// one `maintain` over it. View graphs (and catalog row counts) must
    /// agree at every batch boundary.
    #[test]
    fn pipelined_maintenance_equals_serial(
        batches in arb_batches(),
        batch_size in 1usize..5,
    ) {
        let facet = facet(3, AggOp::Avg); // SUM+COUNT exercise both patch paths
        let masks = [ViewMask(0b111), ViewMask(0b010), ViewMask::APEX];
        let (mut per_delta_ds, mut per_delta_catalog) = empty_with_views(&facet, &masks);
        let (mut batched_ds, mut batched_catalog) = empty_with_views(&facet, &masks);
        let mut per_delta = Maintainer::new(&facet);
        let mut batched = Maintainer::new(&facet);

        let (mut next_a, mut live_a) = (0usize, Vec::new());
        let (mut next_b, mut live_b) = (0usize, Vec::new());
        for chunk in batches.chunks(batch_size) {
            for ops in chunk {
                let delta = build_delta(ops, &mut next_a, &mut live_a);
                per_delta
                    .apply_and_maintain(&mut per_delta_ds, delta, &mut per_delta_catalog)
                    .expect("per-delta maintenance succeeds");
            }
            let merged =
                apply_chunk(&mut batched, &mut batched_ds, chunk, &mut next_b, &mut live_b);
            batched
                .maintain(&mut batched_ds, Some(&merged), &mut batched_catalog)
                .expect("batched maintenance succeeds");

            for &mask in &masks {
                prop_assert_eq!(
                    view_signature(&per_delta_ds, &facet, mask),
                    view_signature(&batched_ds, &facet, mask),
                    "batch={} view {} diverged",
                    batch_size, mask
                );
            }
        }
        prop_assert_eq!(per_delta_catalog, batched_catalog);
    }

    /// Posting-list group location is bit-equal to the run walk it
    /// replaced: across batch-size × delta-mix grids, a dataset
    /// maintained by the planner and one maintained by its run-walking
    /// reference (`Maintainer::run_walk_reference`, a hidden test hook)
    /// end up with identical view graphs and catalogs at every batch
    /// boundary.
    #[test]
    fn bitmap_planning_equals_run_walk(
        batches in arb_batches(),
        batch_size in 1usize..5,
    ) {
        let facet = facet(3, AggOp::Avg); // SUM+COUNT exercise both patch paths
        let masks = [ViewMask(0b111), ViewMask(0b010), ViewMask::APEX];
        let (mut walk_ds, mut walk_catalog) = empty_with_views(&facet, &masks);
        let (mut bitmap_ds, mut bitmap_catalog) = empty_with_views(&facet, &masks);
        let mut walk = Maintainer::run_walk_reference(&facet);
        let mut bitmap = Maintainer::new(&facet);

        let (mut next_a, mut live_a) = (0usize, Vec::new());
        let (mut next_b, mut live_b) = (0usize, Vec::new());
        for chunk in batches.chunks(batch_size) {
            // Both sides coalesce the chunk and run one pass; only the
            // group lookup differs.
            let merged_a = apply_chunk(&mut walk, &mut walk_ds, chunk, &mut next_a, &mut live_a);
            walk.maintain(&mut walk_ds, Some(&merged_a), &mut walk_catalog)
                .expect("run-walk maintenance succeeds");
            let merged_b =
                apply_chunk(&mut bitmap, &mut bitmap_ds, chunk, &mut next_b, &mut live_b);
            bitmap
                .maintain(&mut bitmap_ds, Some(&merged_b), &mut bitmap_catalog)
                .expect("bitmap maintenance succeeds");

            for &mask in &masks {
                prop_assert_eq!(
                    view_signature(&walk_ds, &facet, mask),
                    view_signature(&bitmap_ds, &facet, mask),
                    "batch={} view {} diverged",
                    batch_size, mask
                );
            }
        }
        prop_assert_eq!(walk_catalog, bitmap_catalog);
    }

    /// The acceptance property: for random update batches, maintained
    /// view graphs equal views re-materialized from scratch — for all
    /// five aggregation operators, whether a batch is maintained by
    /// counting or by a full refresh (`rows = None`, bit `b` of
    /// `refresh` set for batch `b`).
    #[test]
    fn maintenance_equals_rematerialization(
        seed_obs in proptest::collection::vec(
            (proptest::collection::vec(0u8..4, 3), -20i64..20), 0..12),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 1..6), 1..4),
        agg_idx in 0usize..5,
        refresh in 0u8..16,
    ) {
        let agg = AggOp::ALL[agg_idx];
        let facet = facet(3, agg);
        let masks = [
            ViewMask(0b111),
            ViewMask(0b101),
            ViewMask(0b010),
            ViewMask::APEX,
        ];

        // Live observation bookkeeping mirrors what the updates do so
        // deletes/moves can reference real triples: dimension values,
        // measure, and which dimension triples are still present.
        type LiveObs = (Vec<u8>, i64, Vec<bool>);
        let mut live: Vec<Option<LiveObs>> = Vec::new();
        let mut ds = Dataset::new();
        let mut seed = Delta::new();
        for (dims, measure) in seed_obs {
            let label = format!("s{}", live.len());
            obs_delta(&mut seed, &label, &dims, measure);
            live.push(Some((dims.clone(), measure, vec![true; 3])));
        }
        ds.apply(seed);

        let mut catalog = Vec::new();
        for &mask in &masks {
            let v = materialize_view(&mut ds, &facet, mask).unwrap();
            catalog.push((mask, v.stats.rows));
        }
        let mut maintainer = Maintainer::new(&facet);

        for (batch, ops) in batches.into_iter().enumerate() {
            let mut delta = Delta::new();
            for op in ops {
                match op {
                    Op::InsertObs { dims, measure } => {
                        let label = format!("s{}", live.len());
                        obs_delta(&mut delta, &label, &dims, measure);
                        live.push(Some((dims, measure, vec![true; 3])));
                    }
                    Op::DeleteObs { index } => {
                        let slot = index.checked_rem(live.len()).unwrap_or(0);
                        if let Some(Some((dims, measure, present))) = live.get(slot).cloned() {
                            let node = Term::blank(format!("s{slot}"));
                            for (d, v) in dims.iter().enumerate() {
                                if present[d] {
                                    delta.delete(
                                        node.clone(),
                                        iri(format!("dim{d}")),
                                        iri(format!("v{d}_{v}")),
                                    );
                                }
                            }
                            delta.delete(node, iri("measure"), Term::literal_int(measure));
                            live[slot] = None;
                        }
                    }
                    Op::MoveDim { index, dim, value } => {
                        let slot = index.checked_rem(live.len()).unwrap_or(0);
                        if let Some(Some((dims, _, present))) = live.get(slot).cloned() {
                            let node = Term::blank(format!("s{slot}"));
                            if present[dim] {
                                delta.delete(
                                    node.clone(),
                                    iri(format!("dim{dim}")),
                                    iri(format!("v{dim}_{}", dims[dim])),
                                );
                            }
                            delta.insert(
                                node,
                                iri(format!("dim{dim}")),
                                iri(format!("v{dim}_{value}")),
                            );
                            if let Some(Some(obs)) = live.get_mut(slot) {
                                obs.0[dim] = value;
                                obs.2[dim] = true;
                            }
                        }
                    }
                    Op::SetMeasure { index, measure } => {
                        let slot = index.checked_rem(live.len()).unwrap_or(0);
                        if let Some(Some((_, old, _))) = live.get(slot).cloned() {
                            let node = Term::blank(format!("s{slot}"));
                            delta.delete(node.clone(), iri("measure"), Term::literal_int(old));
                            delta.insert(node, iri("measure"), Term::literal_int(measure));
                            if let Some(Some(obs)) = live.get_mut(slot) {
                                obs.1 = measure;
                            }
                        }
                    }
                    Op::DropDimTriple { index, dim } => {
                        let slot = index.checked_rem(live.len()).unwrap_or(0);
                        if let Some(Some((dims, _, present))) = live.get(slot).cloned() {
                            if present[dim] {
                                let node = Term::blank(format!("s{slot}"));
                                delta.delete(
                                    node,
                                    iri(format!("dim{dim}")),
                                    iri(format!("v{dim}_{}", dims[dim])),
                                );
                                if let Some(Some(obs)) = live.get_mut(slot) {
                                    obs.2[dim] = false;
                                }
                            }
                        }
                    }
                }
            }
            if delta.is_empty() {
                continue;
            }
            if refresh >> batch & 1 == 1 {
                maintainer.apply(&mut ds, delta);
                let outcome = maintainer
                    .maintain(&mut ds, None, &mut catalog)
                    .expect("full refresh succeeds");
                for cost in &outcome.report.per_view {
                    prop_assert_eq!(cost.strategy, MaintenanceStrategy::FullRefresh);
                }
            } else {
                maintainer
                    .apply_and_maintain(&mut ds, delta, &mut catalog)
                    .expect("maintenance succeeds");
            }
            // Fidelity after *every* batch, not only at the end.
            let reference = reference_signatures(&ds, &facet, &masks);
            for (&mask, expected) in masks.iter().zip(&reference) {
                let actual = view_signature(&ds, &facet, mask);
                prop_assert_eq!(
                    &actual, expected,
                    "agg {} view {} diverged", agg, mask
                );
            }
            // Catalog row counts stay exact.
            for &(mask, rows) in &catalog {
                prop_assert_eq!(
                    rows,
                    view_signature(&ds, &facet, mask).len(),
                    "agg {} view {} row count drifted", agg, mask
                );
            }
        }
    }
}
