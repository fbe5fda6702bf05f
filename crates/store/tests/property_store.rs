//! Property tests across the store's public API: statistics agree with
//! naive recomputation through every mutation path; inference is monotone
//! and idempotent on random schema graphs.

use proptest::prelude::*;
use sofos_rdf::vocab::{rdf, rdfs};
use sofos_rdf::{FxHashSet, Graph, Term, TermId, Triple};
use sofos_store::persist::snapshot::{decode_snapshot, encode_snapshot};
use sofos_store::{Dataset, Delta, GraphStats};

/// Ground truth for [`GraphStats`], given the predicate of every
/// distinct triple: the size of the distinct-triple set and the
/// predicates carrying at least one triple.
fn naive_stats<P: Eq + std::hash::Hash>(predicates: impl IntoIterator<Item = P>) -> GraphStats {
    let mut triples = 0;
    let mut distinct = FxHashSet::default();
    for p in predicates {
        triples += 1;
        distinct.insert(p);
    }
    GraphStats {
        triples,
        distinct_predicates: distinct.len(),
    }
}

/// Predicate `i` of the churn test: the first two are the RDFS
/// vocabulary, so the closure step has something to infer.
fn churn_pred(i: u32) -> Term {
    match i {
        0 => Term::iri(rdf::TYPE),
        1 => Term::iri(rdfs::SUB_CLASS_OF),
        _ => Term::iri(format!("http://e/p{i}")),
    }
}

fn churn_node(i: u32) -> Term {
    Term::iri(format!("http://e/n{i}"))
}

proptest! {
    /// GraphStats must agree with a naive single-pass recomputation.
    #[test]
    fn stats_agree_with_naive(
        triples in proptest::collection::vec((0u32..12, 0u32..5, 0u32..12), 0..120)
    ) {
        let mut ds = Dataset::new();
        for (s, p, o) in &triples {
            ds.insert(
                None,
                &Term::iri(format!("http://e/s{s}")),
                &Term::iri(format!("http://e/p{p}")),
                &Term::iri(format!("http://e/o{o}")),
            );
        }
        let distinct: FxHashSet<(u32, u32, u32)> = triples.iter().copied().collect();
        prop_assert_eq!(
            GraphStats::compute(ds.default_graph()),
            naive_stats(distinct.iter().map(|&(_, p, _)| p))
        );
    }

    /// The statistics read off the store stay exact through every path
    /// that mutates a default graph: `Dataset::apply` batches (re-inserts,
    /// deletes of absent triples, deletes of a predicate's last triple),
    /// a bulk `load` into a fresh dataset, RDFS materialization, and a
    /// persist snapshot → recover round trip (`load_encoded`).
    #[test]
    fn stats_track_every_mutation_path(
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), 0u32..6, 0u32..4, 0u32..6), 0..24),
            1..6,
        )
    ) {
        let mut ds = Dataset::new();
        let mut model: FxHashSet<(u32, u32, u32)> = FxHashSet::default();
        let model_stats =
            |model: &FxHashSet<(u32, u32, u32)>| naive_stats(model.iter().map(|&(_, p, _)| p));
        for batch in &batches {
            let mut delta = Delta::new();
            for &(insert, s, p, o) in batch {
                if insert {
                    delta.insert(churn_node(s), churn_pred(p), churn_node(o));
                    model.insert((s, p, o));
                } else {
                    delta.delete(churn_node(s), churn_pred(p), churn_node(o));
                    model.remove(&(s, p, o));
                }
            }
            ds.apply(delta);
            prop_assert_eq!(GraphStats::compute(ds.default_graph()), model_stats(&model));
        }

        // Empty out one live predicate: its last triple's delete must drop
        // it from the count.
        if let Some(&(_, gone, _)) = model.iter().min() {
            let mut delta = Delta::new();
            for &(s, p, o) in model.iter().filter(|t| t.1 == gone) {
                delta.delete(churn_node(s), churn_pred(p), churn_node(o));
            }
            model.retain(|t| t.1 != gone);
            ds.apply(delta);
            prop_assert_eq!(GraphStats::compute(ds.default_graph()), model_stats(&model));
        }

        let mut graph = Graph::new();
        for &(s, p, o) in &model {
            graph.insert(Triple::new_unchecked(churn_node(s), churn_pred(p), churn_node(o)));
        }
        let mut loaded = Dataset::new();
        loaded.load(None, &graph);
        prop_assert_eq!(GraphStats::compute(loaded.default_graph()), model_stats(&model));

        // The closure's output is not modelled here; the triples it leaves
        // in the store are the ground truth.
        loaded.materialize_rdfs();
        let closed: Vec<[TermId; 3]> = loaded.default_graph().iter().collect();
        let closed_stats = naive_stats(closed.iter().map(|&[_, p, _]| p));
        prop_assert!(closed_stats.triples >= model.len());
        prop_assert_eq!(GraphStats::compute(loaded.default_graph()), closed_stats.clone());

        let recovered = decode_snapshot(&encode_snapshot(&loaded, 1, &[]))
            .expect("a fresh snapshot decodes")
            .into_dataset();
        prop_assert_eq!(GraphStats::compute(recovered.default_graph()), closed_stats);
    }

    /// RDFS closure on random class hierarchies: monotone, idempotent, and
    /// complete for reachability (every instance is typed with every
    /// superclass reachable from its direct type).
    #[test]
    fn rdfs_closure_matches_reachability(
        edges in proptest::collection::vec((0u32..8, 0u32..8), 0..16),
        typings in proptest::collection::vec((0u32..10, 0u32..8), 0..20),
    ) {
        let mut ds = Dataset::new();
        let sub_class = Term::iri(rdfs::SUB_CLASS_OF);
        let type_p = Term::iri(rdf::TYPE);
        for (a, b) in &edges {
            ds.insert(
                None,
                &Term::iri(format!("http://e/C{a}")),
                &sub_class,
                &Term::iri(format!("http://e/C{b}")),
            );
        }
        for (x, c) in &typings {
            ds.insert(
                None,
                &Term::iri(format!("http://e/x{x}")),
                &type_p,
                &Term::iri(format!("http://e/C{c}")),
            );
        }
        let before = ds.default_graph().len();
        let first = ds.materialize_rdfs();
        let after = ds.default_graph().len();
        prop_assert_eq!(after, before + first.inferred);

        // Idempotent.
        let second = ds.materialize_rdfs();
        prop_assert_eq!(second.inferred, 0);

        // Reachability check: BFS over the subclass graph.
        let mut reach: Vec<FxHashSet<u32>> = (0..8)
            .map(|c| {
                let mut seen = FxHashSet::default();
                let mut stack = vec![c];
                while let Some(cur) = stack.pop() {
                    for &(a, b) in &edges {
                        if a == cur && seen.insert(b) {
                            stack.push(b);
                        }
                    }
                }
                seen
            })
            .collect();
        for (x, c) in &typings {
            let expected: &mut FxHashSet<u32> = &mut reach[*c as usize];
            expected.insert(*c);
            for target in expected.iter() {
                let s = ds.dict().get_id(&Term::iri(format!("http://e/x{x}")));
                let p = ds.dict().get_id(&type_p);
                let o = ds.dict().get_id(&Term::iri(format!("http://e/C{target}")));
                let (Some(s), Some(p), Some(o)) = (s, p, o) else {
                    return Err(TestCaseError::fail("terms must be interned"));
                };
                prop_assert!(
                    ds.default_graph().contains(&[s, p, o]),
                    "x{x} must be typed C{target} (direct type C{c})"
                );
            }
        }
    }
}
