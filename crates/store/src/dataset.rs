//! The [`Dataset`]: one dictionary, a default graph, and named graphs.
//!
//! This is the paper's expanded graph `G+` (§3.1): after materialization the
//! base knowledge graph is augmented with one named graph per view. Sharing
//! a single dictionary across graphs means query evaluation joins on ids
//! regardless of which graph a pattern targets.

use crate::delta::{ChangeSet, Delta, OpKind};
use crate::graphmap::GraphMap;
use crate::index::GraphStore;
use crate::pattern::EncodedTriple;
use sofos_rdf::{Dictionary, Graph, Term, TermId};
use std::sync::Arc;

/// Identifies a graph inside a [`Dataset`]: `None` is the default graph,
/// `Some(id)` a named graph keyed by the interned IRI of its name.
pub type GraphName = Option<TermId>;

/// An RDF dataset: default graph + named graphs over a shared dictionary.
///
/// The dictionary sits behind an [`Arc`] with copy-on-write semantics:
/// cloning a dataset — which the epoch store does once per published
/// snapshot — shares the (large, append-only) term table. Together with
/// the `Arc`-shared index slices ([`crate::index::PermIndex`]: run,
/// delta and tombstones, with the writer's overlay folded into them by
/// [`Dataset::freeze`] before the clone), the `Arc`-shared bitmap
/// containers of the posting lists and the chunked copy-on-write
/// named-graph map ([`GraphMap`]), the clone costs O(predicates +
/// graph-map chunks) and nothing per triple or per pending write:
/// untouched view graphs cost nothing per clone, no matter how many are
/// materialized. The dataset keeps no statistics of its own to
/// copy; [`crate::GraphStats::compute`] reads them off the default graph.
/// The *writer's* first genuinely-new-term intern after a publish
/// re-copies the term table (lookups of known terms never detach), so a
/// batch that mints fresh terms pays for the dictionary twice: once for
/// the copy, and once more when the snapshot that still owns the old
/// table is freed. At 10^5 triples with a durable eager writer and one
/// reader, the free alone measured p90 17 ms and at most 56 ms per
/// publish, and the copy is most of the writer's own 25–43 ms per batch.
/// [`crate::EpochStore`] keeps the free off readers and out of callers'
/// locks (its writer-only reclaim step); the copy stays on the writer.
#[derive(Debug, Default, Clone)]
pub struct Dataset {
    dict: Arc<Dictionary>,
    default_graph: GraphStore,
    named: GraphMap,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Dataset {
        Dataset::default()
    }

    /// Shared term dictionary (read access).
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Shared term dictionary (intern access). Detaches from any snapshot
    /// still sharing the dictionary (copy-on-write).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        Arc::make_mut(&mut self.dict)
    }

    /// Intern a term into the shared dictionary. Known terms resolve
    /// through the shared `Arc` without detaching it; only a genuinely
    /// new term pays the copy-on-write (see [`Dataset::dict_mut`]).
    pub fn intern(&mut self, term: &Term) -> TermId {
        if let Some(id) = self.dict.get_id(term) {
            return id;
        }
        self.dict_mut().intern(term)
    }

    /// Intern an IRI string (typical for graph names and predicates).
    pub fn intern_iri(&mut self, iri: &str) -> TermId {
        self.intern(&Term::iri(iri))
    }

    /// Resolve an id to its term (panics on ids from another dictionary).
    pub fn term(&self, id: TermId) -> &Term {
        self.dict.term_unchecked(id)
    }

    /// Insert an encoded triple into a graph, creating the graph if needed.
    pub fn insert_encoded(&mut self, graph: GraphName, triple: EncodedTriple) -> bool {
        match graph {
            None => self.default_graph.insert(triple),
            Some(name) => self.named.entry_or_default(name).insert(triple),
        }
    }

    /// Remove an encoded triple from a graph; returns `true` if present.
    pub fn remove_encoded(&mut self, graph: GraphName, triple: &EncodedTriple) -> bool {
        match graph {
            None => self.default_graph.remove(triple),
            Some(name) => self.named.get_mut(name).is_some_and(|g| g.remove(triple)),
        }
    }

    /// Intern three terms and insert the triple into a graph.
    pub fn insert(&mut self, graph: GraphName, s: &Term, p: &Term, o: &Term) -> bool {
        let triple = [self.intern(s), self.intern(p), self.intern(o)];
        self.insert_encoded(graph, triple)
    }

    /// Remove a term-level triple; `false` when any term is unknown (an
    /// unknown term cannot appear in any triple).
    pub fn remove(&mut self, graph: GraphName, s: &Term, p: &Term, o: &Term) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.get_id(s),
            self.dict.get_id(p),
            self.dict.get_id(o),
        ) else {
            return false;
        };
        self.remove_encoded(graph, &[s, p, o])
    }

    /// Apply a batched [`Delta`] — the transactional write path of the
    /// living graph. Operations run in order into the indexes' write
    /// overlays (see [`crate::index::PermIndex`]); no-ops (inserting a
    /// present triple, deleting an absent one) are counted but have no
    /// effect. Returns the **net** [`ChangeSet`] per
    /// graph, with intra-batch insert/delete pairs cancelled — the input
    /// the view-maintenance engine consumes.
    pub fn apply(&mut self, delta: Delta) -> ChangeSet {
        let mut changes = ChangeSet::default();
        for op in delta.ops {
            let [s, p, o] = &op.triple;
            let (graph, applied, triple) = match op.kind {
                OpKind::Insert => {
                    let graph = op.graph.as_ref().map(|g| self.intern(g));
                    let triple = [self.intern(s), self.intern(p), self.intern(o)];
                    (graph, self.insert_encoded(graph, triple), triple)
                }
                OpKind::Delete => {
                    // Like [`Dataset::remove`]: resolve without interning —
                    // a term the dictionary has never seen cannot appear in
                    // any triple, and no-op deletes must not grow the
                    // (never garbage-collected) dictionary.
                    let ids = (
                        op.graph.as_ref().map(|g| self.dict.get_id(g)),
                        self.dict.get_id(s),
                        self.dict.get_id(p),
                        self.dict.get_id(o),
                    );
                    match ids {
                        (graph @ (None | Some(Some(_))), Some(s), Some(p), Some(o)) => {
                            let graph = graph.flatten();
                            let triple = [s, p, o];
                            (graph, self.remove_encoded(graph, &triple), triple)
                        }
                        _ => {
                            changes.noops += 1;
                            continue;
                        }
                    }
                }
            };
            if !applied {
                changes.noops += 1;
                continue;
            }
            let graph_changes = changes.graph_mut(graph);
            match op.kind {
                OpKind::Insert => graph_changes.inserted.push(triple),
                OpKind::Delete => graph_changes.removed.push(triple),
            }
        }
        changes.coalesce();
        changes
    }

    /// Load a term-level [`Graph`] into a dataset graph (bulk path).
    pub fn load(&mut self, graph: GraphName, data: &Graph) {
        let mut encoded: Vec<EncodedTriple> = Vec::with_capacity(data.len());
        for t in data.iter() {
            encoded.push([
                self.intern(&t.subject),
                self.intern(&t.predicate),
                self.intern(&t.object),
            ]);
        }
        self.load_encoded(graph, encoded);
    }

    /// Load already-encoded triples into a graph — the bulk path snapshot
    /// recovery uses. The ids must come from this dataset's dictionary
    /// (recovery rebuilds the dictionary first, reproducing the ids the
    /// snapshot was encoded under).
    pub fn load_encoded(&mut self, graph: GraphName, encoded: Vec<EncodedTriple>) {
        let store = match graph {
            None => &mut self.default_graph,
            Some(name) => self.named.entry_or_default(name),
        };
        if store.is_empty() {
            store.bulk_load(encoded);
        } else {
            for t in encoded {
                store.insert(t);
            }
        }
    }

    /// The default graph (the paper's base knowledge graph `G`).
    pub fn default_graph(&self) -> &GraphStore {
        &self.default_graph
    }

    /// Resolve a graph name to its store, if present.
    pub fn graph(&self, name: GraphName) -> Option<&GraphStore> {
        match name {
            None => Some(&self.default_graph),
            Some(id) => self.named.get(id),
        }
    }

    /// Create an empty named graph (no-op if it exists).
    pub fn create_graph(&mut self, name: TermId) {
        self.named.entry_or_default(name);
    }

    /// Drop a named graph; returns `true` if it existed. The dictionary is
    /// intentionally not garbage-collected (see `Dictionary` docs).
    pub fn drop_graph(&mut self, name: TermId) -> bool {
        self.named.remove(name)
    }

    /// Iterate the names of all named graphs (deterministic: sorted by id).
    pub fn graph_names(&self) -> Vec<TermId> {
        self.named.names_sorted()
    }

    /// The named-graph map (chunk-sharing diagnostics live on it).
    pub fn named_graphs(&self) -> &GraphMap {
        &self.named
    }

    /// Total triples across the default and all named graphs.
    pub fn total_triples(&self) -> usize {
        self.default_graph.len() + self.named.values().map(GraphStore::len).sum::<usize>()
    }

    /// Estimated heap bytes: dictionary + all graph indexes. This is the
    /// figure the experiments report as storage / space amplification.
    pub fn estimated_bytes(&self) -> usize {
        self.dict.estimated_bytes()
            + self.default_graph.estimated_bytes()
            + self
                .named
                .values()
                .map(GraphStore::estimated_bytes)
                .sum::<usize>()
    }

    /// Register predicates for per-(predicate, value) posting lists on
    /// one graph (see [`crate::posting`]). No-op when the graph does not
    /// exist; idempotent when it does.
    pub fn register_value_preds(&mut self, graph: GraphName, preds: &[TermId]) {
        let store = match graph {
            None => Some(&mut self.default_graph),
            Some(name) => self.named.get_mut(name),
        };
        if let Some(store) = store {
            store.register_value_preds(preds);
        }
    }

    /// Posting-list observability figures summed across the default and
    /// all named graphs (the `sofos_index_*` gauges read this).
    pub fn posting_stats(&self) -> crate::posting::PostingStats {
        let mut total = self.default_graph.posting_stats();
        for store in self.named.values() {
            total.merge(store.posting_stats());
        }
        total
    }

    /// Index entries not yet merged into the runs — delta and tombstone
    /// slices — summed over the default and all named graphs (the
    /// `sofos_index_unmerged_entries` gauge reads this).
    pub fn unmerged_entries(&self) -> usize {
        self.default_graph.unmerged_entries()
            + self
                .named
                .values()
                .map(GraphStore::unmerged_entries)
                .sum::<usize>()
    }

    /// Pending writes in the graphs' overlays, summed like
    /// [`Dataset::unmerged_entries`]; zero after [`Dataset::freeze`].
    pub fn overlay_entries(&self) -> usize {
        self.default_graph.overlay_entries()
            + self
                .named
                .values()
                .map(GraphStore::overlay_entries)
                .sum::<usize>()
    }

    /// Fold every graph's pending writes into its sorted index slices
    /// ([`GraphStore::freeze`]), so a clone copies no index entry and
    /// reads slices only. [`crate::EpochStore`] does this before it
    /// clones the master into a snapshot. Graphs without pending writes
    /// are not touched, and named-graph chunks holding only such graphs
    /// stay shared with earlier snapshots.
    pub fn freeze(&mut self) {
        self.default_graph.freeze();
        self.named
            .update_where(|g| g.overlay_entries() > 0, GraphStore::freeze);
    }

    /// Force-merge all graphs' index deltas.
    pub fn optimize(&mut self) {
        self.default_graph.optimize();
        for store in self.named.values_mut() {
            store.optimize();
        }
    }

    /// Materialize the RDFS closure of the default graph in place
    /// (see [`crate::inference`]).
    pub fn materialize_rdfs(&mut self) -> crate::inference::InferenceStats {
        crate::inference::materialize_rdfs(&mut self.default_graph, &self.dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IdPattern;

    fn term(s: &str) -> Term {
        Term::iri(format!("http://e/{s}"))
    }

    #[test]
    fn default_and_named_graphs_are_disjoint() {
        let mut ds = Dataset::new();
        ds.insert(None, &term("s"), &term("p"), &term("o"));
        let g1 = ds.intern_iri("http://e/g1");
        ds.insert(Some(g1), &term("s"), &term("p"), &term("o2"));

        assert_eq!(ds.default_graph().len(), 1);
        assert_eq!(ds.graph(Some(g1)).unwrap().len(), 1);
        assert_eq!(ds.total_triples(), 2);
        // Same dictionary: the subject id is shared.
        let s_id = ds.dict().get_id(&term("s")).unwrap();
        assert_eq!(
            ds.default_graph()
                .scan(IdPattern::new(Some(s_id), None, None))
                .count(),
            1
        );
        assert_eq!(
            ds.graph(Some(g1))
                .unwrap()
                .scan(IdPattern::new(Some(s_id), None, None))
                .count(),
            1
        );
    }

    #[test]
    fn load_bulk_and_incremental_agree() {
        use sofos_rdf::{Graph, Triple};
        let mut g = Graph::new();
        for i in 0..20 {
            g.insert(Triple::new_unchecked(
                term(&format!("s{i}")),
                term("p"),
                Term::literal_int(i),
            ));
        }
        let mut ds1 = Dataset::new();
        ds1.load(None, &g);
        let mut ds2 = Dataset::new();
        for t in g.iter() {
            ds2.insert(None, &t.subject, &t.predicate, &t.object);
        }
        assert_eq!(ds1.default_graph().len(), 20);
        assert_eq!(ds2.default_graph().len(), 20);
    }

    #[test]
    fn drop_graph_removes_content() {
        let mut ds = Dataset::new();
        let g1 = ds.intern_iri("http://e/g1");
        ds.insert(Some(g1), &term("s"), &term("p"), &term("o"));
        assert!(ds.graph(Some(g1)).is_some());
        assert!(ds.drop_graph(g1));
        assert!(ds.graph(Some(g1)).is_none());
        assert!(!ds.drop_graph(g1), "second drop is a no-op");
        assert_eq!(ds.total_triples(), 0);
    }

    #[test]
    fn graph_names_are_sorted() {
        let mut ds = Dataset::new();
        let b = ds.intern_iri("http://e/b");
        let a = ds.intern_iri("http://e/a");
        ds.create_graph(b);
        ds.create_graph(a);
        let names = ds.graph_names();
        assert_eq!(names.len(), 2);
        assert!(names[0] < names[1]);
    }

    #[test]
    fn bytes_include_dictionary_and_indexes() {
        let mut ds = Dataset::new();
        let before = ds.estimated_bytes();
        ds.insert(None, &term("subject"), &term("predicate"), &term("object"));
        assert!(ds.estimated_bytes() > before);
    }

    #[test]
    fn posting_stats_aggregate_across_graphs() {
        let mut ds = Dataset::new();
        ds.insert(None, &term("s"), &term("p"), &term("o"));
        let g1 = ds.intern_iri("http://e/g1");
        ds.insert(Some(g1), &term("s2"), &term("p"), &term("o"));
        let base_only = ds.posting_stats();
        assert_eq!(base_only.posting_lists, 2, "one pred list per graph");
        assert!(base_only.updates >= 2);

        let p = ds.dict().get_id(&term("p")).unwrap();
        ds.register_value_preds(Some(g1), &[p]);
        let with_values = ds.posting_stats();
        assert_eq!(with_values.posting_lists, 3, "plus one value list");
        assert!(with_values.bytes > 0);

        // Registering on a missing graph is a quiet no-op.
        let ghost = ds.intern_iri("http://e/ghost");
        ds.register_value_preds(Some(ghost), &[p]);
        assert_eq!(ds.posting_stats().posting_lists, 3);
    }

    #[test]
    fn missing_named_graph_is_none() {
        let mut ds = Dataset::new();
        let ghost = ds.intern_iri("http://e/ghost");
        assert!(ds.graph(Some(ghost)).is_none());
    }

    #[test]
    fn apply_reports_net_changes_and_noops() {
        let mut ds = Dataset::new();
        ds.insert(None, &term("s0"), &term("p"), &term("o0"));

        let mut delta = Delta::new();
        delta
            .insert(term("s1"), term("p"), term("o1")) // new
            .insert(term("s0"), term("p"), term("o0")) // already present: no-op
            .delete(term("s0"), term("p"), term("o0")) // present: removed
            .insert(term("s2"), term("p"), term("o2")) // new...
            .delete(term("s2"), term("p"), term("o2")) // ...cancelled in-batch
            .delete(term("ghost"), term("p"), term("o")); // absent: no-op
        let changes = ds.apply(delta);

        assert_eq!(changes.default_graph.inserted.len(), 1);
        assert_eq!(changes.default_graph.removed.len(), 1);
        assert_eq!(changes.noops, 2);
        assert_eq!(ds.default_graph().len(), 1);
        let s1 = ds.dict().get_id(&term("s1")).unwrap();
        assert_eq!(changes.default_graph.inserted[0][0], s1);
    }

    #[test]
    fn apply_routes_named_graphs() {
        let mut ds = Dataset::new();
        let g = Term::iri("http://e/g1");
        let mut delta = Delta::new();
        delta.insert_into(g.clone(), term("s"), term("p"), term("o"));
        delta.insert(term("s"), term("p"), term("o"));
        let changes = ds.apply(delta);
        let g_id = ds.dict().get_id(&g).unwrap();
        assert_eq!(changes.graph(Some(g_id)).unwrap().inserted.len(), 1);
        assert_eq!(changes.default_graph.inserted.len(), 1);
        assert_eq!(ds.graph(Some(g_id)).unwrap().len(), 1);
        assert_eq!(ds.default_graph().len(), 1);

        let mut delta = Delta::new();
        delta.delete_from(g.clone(), term("s"), term("p"), term("o"));
        let changes = ds.apply(delta);
        assert_eq!(changes.graph(Some(g_id)).unwrap().removed.len(), 1);
        assert!(ds.graph(Some(g_id)).unwrap().is_empty());
    }

    #[test]
    fn incremental_stats_match_full_recomputation() {
        // Statistics read off the default graph agree with a full pass
        // over its triples after every mutation path.
        use crate::stats::GraphStats;
        use sofos_rdf::Triple;
        fn recount(ds: &Dataset) -> GraphStats {
            let g = ds.default_graph();
            let preds: std::collections::BTreeSet<TermId> = g.iter().map(|[_, p, _]| p).collect();
            GraphStats {
                triples: g.iter().count(),
                distinct_predicates: preds.len(),
            }
        }
        let stats = |ds: &Dataset| GraphStats::compute(ds.default_graph());

        let mut ds = Dataset::new();
        // Build through every mutation path: load, insert, apply, remove.
        let mut g = Graph::new();
        for i in 0..12 {
            g.insert(Triple::new_unchecked(
                term(&format!("s{}", i % 4)),
                term(&format!("p{}", i % 3)),
                Term::literal_int(i % 5),
            ));
        }
        ds.load(None, &g);
        assert_eq!(stats(&ds), recount(&ds));

        ds.insert(None, &term("s9"), &term("p0"), &term("s0"));
        assert_eq!(stats(&ds), recount(&ds));

        let mut delta = Delta::new();
        delta
            .delete(term("s9"), term("p0"), term("s0"))
            .insert(term("sA"), term("pZ"), term("oA"))
            .delete(term("s0"), term("p0"), term("s0")); // maybe absent: no-op ok
        ds.apply(delta);
        assert_eq!(stats(&ds), recount(&ds));
        assert_eq!(stats(&ds).distinct_predicates, 4);

        assert!(ds.remove(None, &term("sA"), &term("pZ"), &term("oA")));
        assert_eq!(stats(&ds), recount(&ds));
        // Removing the only pZ triple drops the predicate entirely.
        assert_eq!(stats(&ds).distinct_predicates, 3);
    }

    #[test]
    fn remove_with_unknown_terms_is_noop() {
        let mut ds = Dataset::new();
        ds.insert(None, &term("s"), &term("p"), &term("o"));
        assert!(!ds.remove(None, &term("never-seen"), &term("p"), &term("o")));
        assert_eq!(ds.default_graph().len(), 1);
    }

    #[test]
    fn coalesce_nets_by_multiplicity_not_membership() {
        // insert / delete / insert of an initially-absent triple: the net
        // effect is ONE insert — a set-based cancellation would wrongly
        // report no change at all.
        let mut ds = Dataset::new();
        let mut delta = Delta::new();
        delta
            .insert(term("s"), term("p"), term("o"))
            .delete(term("s"), term("p"), term("o"))
            .insert(term("s"), term("p"), term("o"));
        let changes = ds.apply(delta);
        assert_eq!(changes.default_graph.inserted.len(), 1);
        assert!(changes.default_graph.removed.is_empty());
        assert!(ds.default_graph().len() == 1);

        // Symmetric: delete / insert / delete of a present triple nets to
        // one removal.
        let mut delta = Delta::new();
        delta
            .delete(term("s"), term("p"), term("o"))
            .insert(term("s"), term("p"), term("o"))
            .delete(term("s"), term("p"), term("o"));
        let changes = ds.apply(delta);
        assert!(changes.default_graph.inserted.is_empty());
        assert_eq!(changes.default_graph.removed.len(), 1);
        assert!(ds.default_graph().is_empty());
    }

    #[test]
    fn noop_deletes_do_not_grow_the_dictionary() {
        let mut ds = Dataset::new();
        ds.insert(None, &term("s"), &term("p"), &term("o"));
        let dict_before = ds.dict().len();
        let mut delta = Delta::new();
        delta.delete(term("ghost-s"), term("ghost-p"), term("ghost-o"));
        delta.delete_from(term("ghost-g"), term("s"), term("p"), term("o"));
        let changes = ds.apply(delta);
        assert_eq!(changes.noops, 2);
        assert_eq!(
            ds.dict().len(),
            dict_before,
            "deletes of never-seen terms must not intern them"
        );
    }
}
