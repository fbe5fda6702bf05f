//! Term-level triples and a small deterministic graph container.
//!
//! [`Graph`] is the interchange representation used by parsers, generators
//! and tests; the query-servicing indexed store lives in `sofos-store`.

use crate::error::RdfError;
use crate::term::Term;
use std::collections::BTreeSet;
use std::fmt;

/// An RDF triple over concrete [`Term`]s.
///
/// Position constraints (§3: `(s,p,o) ∈ (I∪B) × I × (I∪B∪L)`) are enforced
/// by [`Triple::new`]; the `new_unchecked` escape hatch exists for code that
/// guarantees them structurally.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject: an IRI or blank node.
    pub subject: Term,
    /// Predicate: always an IRI.
    pub predicate: Term,
    /// Object: any term.
    pub object: Term,
}

impl Triple {
    /// Create a triple, enforcing RDF position constraints.
    pub fn new(subject: Term, predicate: Term, object: Term) -> Result<Triple, RdfError> {
        if subject.is_literal() {
            return Err(RdfError::InvalidPosition("literal in subject position"));
        }
        if !predicate.is_iri() {
            return Err(RdfError::InvalidPosition("non-IRI in predicate position"));
        }
        Ok(Triple {
            subject,
            predicate,
            object,
        })
    }

    /// Create a triple without checking positions.
    pub fn new_unchecked(subject: Term, predicate: Term, object: Term) -> Triple {
        Triple {
            subject,
            predicate,
            object,
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::ntriples::write_triple(self, f)
    }
}

/// A set of triples with deterministic (sorted) iteration order.
///
/// Backing storage is a `BTreeSet`, so insertion is `O(log n)` and iteration
/// yields triples in `Ord` order — which keeps serialized output, test
/// fixtures and generator snapshots stable across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    triples: BTreeSet<Triple>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Insert a triple; returns `true` if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        self.triples.insert(triple)
    }

    /// Membership test.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.triples.contains(triple)
    }

    /// Remove a triple; returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        self.triples.remove(triple)
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Iterate in deterministic sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    /// Merge another graph into this one.
    pub fn extend(&mut self, other: Graph) {
        self.triples.extend(other.triples);
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Graph {
        Graph {
            triples: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Graph {
    type Item = Triple;
    type IntoIter = std::collections::btree_set::IntoIter<Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.triples.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new_unchecked(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    #[test]
    fn position_constraints() {
        assert!(Triple::new(Term::literal_int(1), Term::iri("p"), Term::iri("o")).is_err());
        assert!(Triple::new(Term::iri("s"), Term::blank("p"), Term::iri("o")).is_err());
        assert!(Triple::new(Term::iri("s"), Term::literal_str("p"), Term::iri("o")).is_err());
        assert!(Triple::new(Term::blank("s"), Term::iri("p"), Term::literal_int(1)).is_ok());
    }

    #[test]
    fn graph_set_semantics() {
        let mut g = Graph::new();
        assert!(g.insert(t("s", "p", "o")));
        assert!(!g.insert(t("s", "p", "o")), "duplicate insert is a no-op");
        assert_eq!(g.len(), 1);
        assert!(g.contains(&t("s", "p", "o")));
        assert!(g.remove(&t("s", "p", "o")));
        assert!(g.is_empty());
    }

    #[test]
    fn iteration_is_sorted_and_deterministic() {
        let mut g = Graph::new();
        g.insert(t("b", "p", "o"));
        g.insert(t("a", "p", "o"));
        g.insert(t("c", "p", "o"));
        let subjects: Vec<String> = g
            .iter()
            .map(|tr| tr.subject.as_iri().unwrap().as_str().to_string())
            .collect();
        assert_eq!(subjects, ["a", "b", "c"]);
    }

    #[test]
    fn extend_merges() {
        let mut g1: Graph = [t("a", "p", "o")].into_iter().collect();
        let g2: Graph = [t("b", "p", "o"), t("a", "p", "o")].into_iter().collect();
        g1.extend(g2);
        assert_eq!(g1.len(), 2);
    }

    #[test]
    fn display_is_ntriples_shaped() {
        assert_eq!(t("s", "p", "o").to_string(), "<s> <p> <o> .");
    }
}
