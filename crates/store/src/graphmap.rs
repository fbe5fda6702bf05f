//! A chunked copy-on-write map from graph name to [`GraphStore`].
//!
//! The epoch store clones the writer's master dataset once per published
//! epoch. With the named graphs in a plain `HashMap`, every clone walks
//! every entry and clones every [`GraphStore`] (cheap individually —
//! `Arc`-shared runs — but O(graph-count) in aggregate), so publish cost
//! grows with the catalog. The [`GraphMap`] makes the clone O(1) in the
//! graph count: names hash into a fixed number of *chunks*, each an
//! `Arc`-shared hash map, so
//!
//! * **clone** copies `CHUNKS` `Arc` pointers — independent of how many
//!   view graphs are materialized;
//! * **mutation** detaches only the touched chunk (`Arc::make_mut`),
//!   re-cloning just the graphs that happen to share it — untouched
//!   chunks stay shared with every snapshot;
//! * **reads** are one modulo plus one hash lookup, exactly as before.
//!
//! This is the "persistent named-graph map" escape hatch the ROADMAP
//! tracked since PR 3: a batch that patches two views re-clones (at most)
//! two chunks' worth of graph headers instead of the whole catalog.

use crate::index::GraphStore;
use sofos_rdf::{FxHashMap, TermId};
use std::sync::Arc;
use std::sync::OnceLock;

/// Chunk fan-out. Small enough that an empty map is a handful of pointer
/// copies, large enough that typical catalogs (tens of views) rarely
/// co-locate two hot graphs in one chunk.
const CHUNKS: usize = 32;

/// The shared all-empty chunk every fresh map points at — a new dataset
/// allocates no per-chunk tables until a named graph actually exists.
fn empty_chunk() -> &'static Arc<FxHashMap<TermId, GraphStore>> {
    static EMPTY: OnceLock<Arc<FxHashMap<TermId, GraphStore>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(FxHashMap::default()))
}

/// Chunked-CoW name → graph map (see module docs).
#[derive(Debug, Clone)]
pub struct GraphMap {
    chunks: Vec<Arc<FxHashMap<TermId, GraphStore>>>,
    /// Total graphs across chunks (kept so `len` is O(1)).
    len: usize,
}

impl Default for GraphMap {
    fn default() -> GraphMap {
        GraphMap {
            chunks: vec![Arc::clone(empty_chunk()); CHUNKS],
            len: 0,
        }
    }
}

impl GraphMap {
    #[inline]
    fn chunk_of(name: TermId) -> usize {
        name.0 as usize % CHUNKS
    }

    /// Number of named graphs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no named graph exists.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Look up a graph (read-only; never detaches a chunk).
    pub fn get(&self, name: TermId) -> Option<&GraphStore> {
        self.chunks[Self::chunk_of(name)].get(&name)
    }

    /// Mutable lookup. Detaches the owning chunk only when the graph
    /// exists — probing for an absent name never copies anything.
    pub fn get_mut(&mut self, name: TermId) -> Option<&mut GraphStore> {
        let chunk = &mut self.chunks[Self::chunk_of(name)];
        if !chunk.contains_key(&name) {
            return None;
        }
        Arc::make_mut(chunk).get_mut(&name)
    }

    /// The graph under `name`, created empty if absent.
    pub fn entry_or_default(&mut self, name: TermId) -> &mut GraphStore {
        let chunk = &mut self.chunks[Self::chunk_of(name)];
        if !chunk.contains_key(&name) {
            self.len += 1;
        }
        Arc::make_mut(chunk).entry(name).or_default()
    }

    /// Remove a graph; returns `true` if it existed. Absent names never
    /// detach a chunk.
    pub fn remove(&mut self, name: TermId) -> bool {
        let chunk = &mut self.chunks[Self::chunk_of(name)];
        if !chunk.contains_key(&name) {
            return false;
        }
        Arc::make_mut(chunk).remove(&name);
        self.len -= 1;
        true
    }

    /// All graph names, sorted (deterministic iteration order).
    pub fn names_sorted(&self) -> Vec<TermId> {
        let mut names: Vec<TermId> = self.chunks.iter().flat_map(|c| c.keys().copied()).collect();
        names.sort_unstable();
        names
    }

    /// Iterate all graphs (arbitrary order).
    pub fn values(&self) -> impl Iterator<Item = &GraphStore> {
        self.chunks.iter().flat_map(|c| c.values())
    }

    /// Mutably iterate all graphs. Detaches every non-empty chunk — meant
    /// for rare whole-dataset passes (`Dataset::optimize`), not the write
    /// path.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut GraphStore> {
        self.chunks
            .iter_mut()
            .filter(|c| !c.is_empty())
            .flat_map(|c| Arc::make_mut(c).values_mut())
    }

    /// Apply `update` to every graph `pick` selects, detaching only the
    /// chunks that hold one: the others stay shared with every clone.
    pub(crate) fn update_where(
        &mut self,
        pick: impl Fn(&GraphStore) -> bool,
        mut update: impl FnMut(&mut GraphStore),
    ) {
        for chunk in &mut self.chunks {
            if chunk.values().any(&pick) {
                Arc::make_mut(chunk)
                    .values_mut()
                    .filter(|g| pick(g))
                    .for_each(&mut update);
            }
        }
    }

    /// How many chunks this map still shares with `other` — the measure
    /// of how cheap the divergence between two clones was.
    pub fn shared_chunks(&self, other: &GraphMap) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Total chunk fan-out (the denominator for [`GraphMap::shared_chunks`]).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> TermId {
        TermId(n)
    }

    #[test]
    fn empty_maps_share_the_static_chunk() {
        let a = GraphMap::default();
        let b = GraphMap::default();
        assert_eq!(a.shared_chunks(&b), a.chunk_count());
        assert!(a.is_empty());
        assert_eq!(a.names_sorted(), Vec::<TermId>::new());
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut map = GraphMap::default();
        map.entry_or_default(id(7)).insert([id(1), id(2), id(3)]);
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(id(7)).unwrap().len(), 1);
        assert!(map.get(id(8)).is_none());
        assert!(map.get_mut(id(8)).is_none());
        assert!(map.remove(id(7)));
        assert!(!map.remove(id(7)), "second remove is a no-op");
        assert!(map.is_empty());
    }

    #[test]
    fn clone_shares_untouched_chunks() {
        let mut map = GraphMap::default();
        // Two graphs in (very likely) different chunks.
        map.entry_or_default(id(1)).insert([id(1), id(2), id(3)]);
        map.entry_or_default(id(2)).insert([id(4), id(5), id(6)]);
        let snapshot = map.clone();
        assert_eq!(snapshot.shared_chunks(&map), map.chunk_count());

        // Mutating one graph detaches exactly its chunk.
        map.entry_or_default(id(1)).insert([id(7), id(8), id(9)]);
        assert_eq!(snapshot.shared_chunks(&map), map.chunk_count() - 1);
        // The snapshot is frozen.
        assert_eq!(snapshot.get(id(1)).unwrap().len(), 1);
        assert_eq!(map.get(id(1)).unwrap().len(), 2);
        assert_eq!(map.get(id(2)).unwrap().len(), 1);
    }

    #[test]
    fn probing_absent_names_never_detaches() {
        let mut map = GraphMap::default();
        map.entry_or_default(id(3)).insert([id(1), id(1), id(1)]);
        let snapshot = map.clone();
        assert!(map.get_mut(id(100)).is_none());
        assert!(!map.remove(id(101)));
        assert_eq!(snapshot.shared_chunks(&map), map.chunk_count());
    }

    #[test]
    fn names_are_sorted_across_chunks() {
        let mut map = GraphMap::default();
        for n in [90u32, 3, 41, 17, 64] {
            map.entry_or_default(id(n));
        }
        let names = map.names_sorted();
        assert_eq!(names.len(), 5);
        assert!(names.windows(2).all(|w| w[0] < w[1]));
    }
}
