//! Graph statistics: the base-graph cardinalities the cost models read.
//!
//! Three of the paper's cost models are direct statistics of a (view) graph:
//! `#triples` (`|G_Vi|`), `#nodes` (`|I_i ∪ B_i ∪ L_i|`), and
//! `#aggregated values` (result count, computed by the evaluator); those
//! are sized per view by `sofos-materialize`. The learned cost model also
//! consumes base-graph statistics (§3.1): its size and the mean
//! relationship frequency, which [`GraphStats`] provides.
//!
//! [`GraphStats::compute`] reads the figures the [`GraphStore`] already
//! maintains exactly, so statistics cost nothing on the write path or in
//! a snapshot clone.

use crate::index::GraphStore;

/// Whole-graph statistics snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Total triples.
    pub triples: usize,
    /// Distinct predicates.
    pub distinct_predicates: usize,
}

impl GraphStats {
    /// Read the statistics off the store in O(1): no pass over triples.
    pub fn compute(store: &GraphStore) -> GraphStats {
        GraphStats {
            triples: store.len(),
            distinct_predicates: store.distinct_predicates(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofos_rdf::TermId;

    fn t(s: u32, p: u32, o: u32) -> [TermId; 3] {
        [TermId(s), TermId(p), TermId(o)]
    }

    fn sample_store() -> GraphStore {
        let mut g = GraphStore::new();
        // Predicate 10: star around subjects 1,2 (4 triples).
        g.insert(t(1, 10, 100));
        g.insert(t(1, 10, 101));
        g.insert(t(2, 10, 100));
        g.insert(t(2, 10, 102));
        // Predicate 11: single triple.
        g.insert(t(3, 11, 100));
        g
    }

    #[test]
    fn totals() {
        let stats = GraphStats::compute(&sample_store());
        assert_eq!(stats.triples, 5);
        assert_eq!(stats.distinct_predicates, 2);
    }

    #[test]
    fn per_predicate_breakdown() {
        // A predicate counts while it has a triple, and leaves with its
        // last one; removing one of several keeps it.
        let mut g = sample_store();
        assert!(g.remove(&t(1, 10, 100)));
        assert_eq!(GraphStats::compute(&g).distinct_predicates, 2);
        assert!(g.remove(&t(3, 11, 100)));
        let stats = GraphStats::compute(&g);
        assert_eq!(stats.triples, 3);
        assert_eq!(stats.distinct_predicates, 1);
    }

    #[test]
    fn empty_graph_estimates_zero() {
        assert_eq!(
            GraphStats::compute(&GraphStore::new()),
            GraphStats::default()
        );
    }

    /// Reference statistics from a full pass over the triples.
    fn recount(store: &GraphStore) -> GraphStats {
        let preds: std::collections::BTreeSet<TermId> = store.iter().map(|[_, p, _]| p).collect();
        GraphStats {
            triples: store.iter().count(),
            distinct_predicates: preds.len(),
        }
    }

    #[test]
    fn tracker_agrees_with_compute_under_churn() {
        // The store's counters are the incrementally maintained figures:
        // they must agree with a full recount after every insert/remove.
        let mut store = GraphStore::new();
        // Deterministic insert/remove mix, including re-inserts.
        let mut ops: Vec<(bool, [TermId; 3])> = Vec::new();
        for i in 0u32..200 {
            ops.push((true, t(i % 9, i % 4, i % 13)));
        }
        for i in 0u32..120 {
            ops.push((false, t((i * 3) % 9, i % 4, (i * 7) % 13)));
        }
        for i in 0u32..60 {
            ops.push((true, t((i * 5) % 9, (i + 1) % 4, i % 13)));
        }
        for (is_insert, triple) in ops {
            if is_insert {
                store.insert(triple);
            } else {
                store.remove(&triple);
            }
            assert_eq!(GraphStats::compute(&store), recount(&store));
        }
    }

    #[test]
    fn tracker_from_store_matches_compute() {
        // A bulk-loaded store reports the same figures as one built
        // triple by triple, and both agree with a recount.
        let incremental = sample_store();
        let mut bulk = GraphStore::new();
        bulk.bulk_load(incremental.iter().collect());
        assert_eq!(GraphStats::compute(&bulk), recount(&bulk));
        assert_eq!(
            GraphStats::compute(&bulk),
            GraphStats::compute(&incremental)
        );
    }

    #[test]
    fn tracker_shared_node_refcounts() {
        let mut g = GraphStore::new();
        // 1 appears as subject and object of different triples, both
        // under predicate 10.
        g.insert(t(1, 10, 2));
        g.insert(t(2, 10, 1));
        assert_eq!(GraphStats::compute(&g).distinct_predicates, 1);
        assert!(g.remove(&t(1, 10, 2)));
        // Predicate 10 survives while one triple still uses it.
        assert_eq!(
            GraphStats::compute(&g),
            GraphStats {
                triples: 1,
                distinct_predicates: 1
            }
        );
        assert!(g.remove(&t(2, 10, 1)));
        assert_eq!(GraphStats::compute(&g), GraphStats::default());
    }
}
