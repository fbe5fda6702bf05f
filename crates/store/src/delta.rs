//! The transactional write path: [`Delta`] batches and [`ChangeSet`]s.
//!
//! SOFOS materializes views once over a frozen graph; turning the
//! reproduction into a *serving* system needs a principled update path.
//! A [`Delta`] is a batch of term-level insert/delete operations against
//! any graph of the dataset. [`crate::Dataset::apply`] pushes the batch
//! into the permutation indexes' write overlays (folded into sorted delta
//! and tombstone slices at the next publish) and emits a [`ChangeSet`]: the *net*
//! triple changes per graph, with intra-batch insert/delete pairs
//! cancelled. The change set is what downstream consumers — above all the
//! `sofos-maintain` view-maintenance engine — use to propagate base-graph
//! updates into materialized views without re-evaluating them.

use crate::pattern::EncodedTriple;
use sofos_rdf::{FxHashMap, Term, TermId};

/// Insert or delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Add the triple (no-op if already present).
    Insert,
    /// Remove the triple (no-op if absent).
    Delete,
}

/// One term-level operation of a [`Delta`].
#[derive(Debug, Clone)]
pub struct DeltaOp {
    /// Target graph: `None` is the default graph, `Some(iri)` a named one.
    pub graph: Option<Term>,
    /// Insert or delete.
    pub kind: OpKind,
    /// Subject, predicate, object.
    pub triple: [Term; 3],
}

/// A batch of updates, applied atomically-in-order by
/// [`crate::Dataset::apply`].
#[derive(Debug, Clone, Default)]
pub struct Delta {
    pub(crate) ops: Vec<DeltaOp>,
}

impl Delta {
    /// An empty batch.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Queue an insert into the default graph.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) -> &mut Delta {
        self.push(None, OpKind::Insert, s, p, o)
    }

    /// Queue a delete from the default graph.
    pub fn delete(&mut self, s: Term, p: Term, o: Term) -> &mut Delta {
        self.push(None, OpKind::Delete, s, p, o)
    }

    /// Queue an insert into a named graph.
    pub fn insert_into(&mut self, graph: Term, s: Term, p: Term, o: Term) -> &mut Delta {
        self.push(Some(graph), OpKind::Insert, s, p, o)
    }

    /// Queue a delete from a named graph.
    pub fn delete_from(&mut self, graph: Term, s: Term, p: Term, o: Term) -> &mut Delta {
        self.push(Some(graph), OpKind::Delete, s, p, o)
    }

    fn push(&mut self, graph: Option<Term>, kind: OpKind, s: Term, p: Term, o: Term) -> &mut Delta {
        self.ops.push(DeltaOp {
            graph,
            kind,
            triple: [s, p, o],
        });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterate the queued operations in application order.
    pub fn ops(&self) -> impl Iterator<Item = &DeltaOp> {
        self.ops.iter()
    }

    /// Append another batch's operations.
    pub fn extend(&mut self, other: Delta) {
        self.ops.extend(other.ops);
    }
}

/// Net triple changes of one graph after a batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphChanges {
    /// Triples that are present after the batch but were not before.
    pub inserted: Vec<EncodedTriple>,
    /// Triples that were present before the batch but are not after.
    pub removed: Vec<EncodedTriple>,
}

impl GraphChanges {
    /// True when the batch did not change this graph.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.removed.is_empty()
    }

    /// `inserted + removed` — the size of the net change.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.removed.len()
    }

    /// Cancel intra-batch insert/delete pairs *by multiplicity*. The store
    /// deduplicates, so a triple's effective ops alternate insert/delete;
    /// the net effect is one insert when it gained presence, one removal
    /// when it lost it, nothing when the counts tie (state unchanged).
    fn coalesce(&mut self) {
        use std::collections::BTreeMap;
        let mut net: BTreeMap<EncodedTriple, i32> = BTreeMap::new();
        for t in &self.inserted {
            *net.entry(*t).or_insert(0) += 1;
        }
        for t in &self.removed {
            *net.entry(*t).or_insert(0) -= 1;
        }
        self.inserted.clear();
        self.removed.clear();
        for (t, n) in net {
            match n.cmp(&0) {
                std::cmp::Ordering::Greater => self.inserted.push(t),
                std::cmp::Ordering::Less => self.removed.push(t),
                std::cmp::Ordering::Equal => {}
            }
        }
    }
}

/// The net effect of one [`crate::Dataset::apply`] call, per graph.
#[derive(Debug, Clone, Default)]
pub struct ChangeSet {
    /// Changes to the default graph (the base graph `G`).
    pub default_graph: GraphChanges,
    /// Changes to named graphs, keyed by interned graph name.
    pub named: FxHashMap<TermId, GraphChanges>,
    /// Operations that were no-ops (inserting a present triple, deleting
    /// an absent one) — useful for update-stream accounting.
    pub noops: usize,
}

impl ChangeSet {
    /// True when the batch changed nothing.
    pub fn is_empty(&self) -> bool {
        self.default_graph.is_empty() && self.named.values().all(GraphChanges::is_empty)
    }

    /// Total net changes across all graphs.
    pub fn len(&self) -> usize {
        self.default_graph.len() + self.named.values().map(GraphChanges::len).sum::<usize>()
    }

    /// The changes of one graph (`None` = default graph).
    pub fn graph(&self, name: Option<TermId>) -> Option<&GraphChanges> {
        match name {
            None => Some(&self.default_graph),
            Some(id) => self.named.get(&id),
        }
    }

    pub(crate) fn graph_mut(&mut self, name: Option<TermId>) -> &mut GraphChanges {
        match name {
            None => &mut self.default_graph,
            Some(id) => self.named.entry(id).or_default(),
        }
    }

    pub(crate) fn coalesce(&mut self) {
        self.default_graph.coalesce();
        for changes in self.named.values_mut() {
            changes.coalesce();
        }
        self.named.retain(|_, c| !c.is_empty());
    }

    /// Fold another change set (from a *later* apply in the same batch)
    /// into this one. Appending the raw vectors and re-coalescing nets
    /// the two sequential change sets correctly, because coalescing is
    /// multiplicity arithmetic over the concatenated op streams.
    pub fn absorb(&mut self, other: &ChangeSet) {
        self.default_graph
            .inserted
            .extend_from_slice(&other.default_graph.inserted);
        self.default_graph
            .removed
            .extend_from_slice(&other.default_graph.removed);
        for (name, changes) in &other.named {
            let mine = self.graph_mut(Some(*name));
            mine.inserted.extend_from_slice(&changes.inserted);
            mine.removed.extend_from_slice(&changes.removed);
        }
        self.noops += other.noops;
        self.coalesce();
    }
}
