//! Correctness checks, all outside the timed regions.
//!
//! Read workloads compare answers with an oracle computed on the base
//! graph alone. Write workloads compare *state*: the served base graph
//! must equal a private replay of the acknowledged deltas, and every
//! served view graph must equal its re-materialization from that base.
//! Every mismatch counts as one wrong answer.

use sofos_cube::{Facet, ViewMask};
use sofos_materialize::materialize_view;
use sofos_rdf::vocab::sofos;
use sofos_rdf::Term;
use sofos_sparql::{parse_query, Evaluator, QueryResults};
use sofos_store::{Dataset, GraphStore};
use std::collections::BTreeMap;

/// Base-graph answers for every catalogue query, split over two threads.
pub fn oracle(base: &Dataset, texts: &[String]) -> Vec<QueryResults> {
    let evaluate = |texts: &[String]| -> Vec<QueryResults> {
        texts
            .iter()
            .map(|text| {
                let query = parse_query(text).expect("catalogue query parses");
                Evaluator::new(base)
                    .evaluate(&query)
                    .expect("catalogue query evaluates on the base graph")
            })
            .collect()
    };
    let (left, right) = texts.split_at(texts.len() / 2);
    std::thread::scope(|scope| {
        let right = scope.spawn(|| evaluate(right));
        let mut all = evaluate(left);
        all.extend(right.join().expect("oracle thread"));
        all
    })
}

/// A graph as a sorted list of N-Triples lines (term level, so two
/// datasets with different dictionaries compare equal).
fn graph_lines(ds: &Dataset, graph: &GraphStore) -> Vec<String> {
    let mut lines: Vec<String> = graph
        .iter()
        .map(|[s, p, o]| format!("{} {} {}", ds.term(s), ds.term(p), ds.term(o)))
        .collect();
    lines.sort_unstable();
    lines
}

/// Do two datasets hold the same default graph?
pub fn base_graphs_equal(a: &Dataset, b: &Dataset) -> bool {
    a.default_graph().len() == b.default_graph().len()
        && graph_lines(a, a.default_graph()) == graph_lines(b, b.default_graph())
}

/// A view graph as a sorted multiset of rows, each row the sorted
/// `(predicate, object)` pairs of one observation node. Blank-node labels
/// differ between maintenance and re-materialization; the rows must not.
fn view_signature(ds: &Dataset, facet: &Facet, mask: ViewMask) -> Option<Vec<Vec<String>>> {
    let name = ds
        .dict()
        .get_id(&Term::iri(sofos::view_graph(&facet.id, mask.0)))?;
    let graph = ds.graph(Some(name))?;
    let mut rows: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for [s, p, o] in graph.iter() {
        rows.entry(s.0)
            .or_default()
            .push(format!("{} {}", ds.term(p), ds.term(o)));
    }
    let mut rows: Vec<Vec<String>> = rows
        .into_values()
        .map(|mut row| {
            row.sort_unstable();
            row
        })
        .collect();
    rows.sort_unstable();
    Some(rows)
}

/// The expected state after a write workload: the base graph after the
/// acknowledged deltas, with the catalog's views materialized afresh.
pub struct Expected {
    dataset: Dataset,
    masks: Vec<ViewMask>,
}

impl Expected {
    /// `replayed` is the base graph with every acknowledged delta applied.
    pub fn new(mut replayed: Dataset, facet: &Facet, masks: Vec<ViewMask>) -> Expected {
        for &mask in &masks {
            materialize_view(&mut replayed, facet, mask).expect("reference materialization");
        }
        Expected {
            dataset: replayed,
            masks,
        }
    }

    /// Mismatches between `served` and the expected state: one for the
    /// base graph, one per view, one for the catalog.
    pub fn mismatches(
        &self,
        served: &Dataset,
        catalog: &[(ViewMask, usize)],
        facet: &Facet,
        context: &str,
    ) -> u64 {
        let mut wrong = 0u64;
        if !base_graphs_equal(served, &self.dataset) {
            eprintln!("check failed ({context}): base graph differs from the replayed deltas");
            wrong += 1;
        }
        let served_masks: Vec<ViewMask> = catalog.iter().map(|v| v.0).collect();
        if served_masks != self.masks {
            eprintln!(
                "check failed ({context}): catalog {served_masks:?} != {:?}",
                self.masks
            );
            wrong += 1;
        }
        for &mask in &self.masks {
            let expected = view_signature(&self.dataset, facet, mask);
            let actual = view_signature(served, facet, mask);
            if expected.is_none() || actual != expected {
                eprintln!(
                    "check failed ({context}): view {mask} differs from its re-materialization"
                );
                wrong += 1;
            } else if let Some(&(_, rows)) = catalog.iter().find(|v| v.0 == mask) {
                if Some(rows) != actual.map(|r| r.len()) {
                    eprintln!("check failed ({context}): view {mask} catalog row count is stale");
                    wrong += 1;
                }
            }
        }
        wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{catalogue, Fixture, CUBE_SMOKE};
    use crate::stream;
    use sofos_maintain::Maintainer;

    #[test]
    fn maintained_views_match_and_a_corrupted_view_is_caught() {
        let queries = catalogue();
        let fixture = Fixture::build(CUBE_SMOKE, 1, true, &queries);
        let batches = stream::batches(&fixture.base, &fixture.facet, 1, &stream::CYCLE, 3);

        let mut served = fixture.expanded.clone();
        let mut catalog = fixture.catalog.clone();
        let mut maintainer = Maintainer::new(&fixture.facet);
        let mut replayed = fixture.base.clone();
        for batch in &batches {
            maintainer
                .apply_and_maintain(&mut served, batch.delta.clone(), &mut catalog)
                .unwrap();
            replayed.apply(batch.delta.clone());
        }
        let masks = catalog.iter().map(|v| v.0).collect();
        let expected = Expected::new(replayed, &fixture.facet, masks);
        assert_eq!(
            expected.mismatches(&served, &catalog, &fixture.facet, "ok"),
            0
        );

        // The served state misses the last delta's view maintenance.
        let mut stale = fixture.expanded.clone();
        let mut stale_catalog = fixture.catalog.clone();
        let mut maintainer = Maintainer::new(&fixture.facet);
        for batch in &batches[..2] {
            maintainer
                .apply_and_maintain(&mut stale, batch.delta.clone(), &mut stale_catalog)
                .unwrap();
        }
        stale.apply(batches[2].delta.clone());
        assert!(expected.mismatches(&stale, &stale_catalog, &fixture.facet, "stale") > 0);
    }

    #[test]
    fn oracle_answers_every_catalogue_query() {
        let queries = catalogue();
        let fixture = Fixture::build(CUBE_SMOKE, 1, false, &queries);
        assert_eq!(oracle(&fixture.base, &queries).len(), queries.len());
    }
}
