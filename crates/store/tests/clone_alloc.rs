//! A `Dataset` clone — one per published epoch — allocates nothing per
//! triple and nothing per pending write: the index slices (run, delta and
//! tombstones) and the dictionary are shared by `Arc`, and a publish folds
//! the writer's overlay into the slices before it clones, so the heap cost
//! of cloning a published snapshot is bounded by the predicate count, not
//! by the graph size or by what is still unmerged.
//!
//! This file is its own test binary because it installs a counting global
//! allocator. Counts are kept per thread, so allocations made by the test
//! harness's other threads cannot reach them.

use sofos_rdf::{Graph, Term, Triple};
use sofos_store::{Dataset, Delta, EpochStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is a
// const-initialised thread-local `Cell` update, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bound every clone must stay under, at every graph size.
const CLONE_BYTES_MAX: usize = 8 * 1024;

/// Bytes allocated on this thread while cloning `ds`.
fn clone_bytes(ds: &Dataset) -> usize {
    let before = ALLOCATED.with(Cell::get);
    let copy = ds.clone();
    let bytes = ALLOCATED.with(Cell::get) - before;
    drop(copy);
    bytes
}

fn pred(p: usize) -> Term {
    Term::iri(format!("http://e/p{p}"))
}

fn obs(i: usize) -> Term {
    Term::iri(format!("http://e/obs{i}"))
}

/// A cube-shaped default graph: each observation carries four dimension
/// values and one measure, five predicates in all.
fn cube(observations: usize) -> Dataset {
    let mut graph = Graph::new();
    for i in 0..observations {
        for d in 0..4 {
            let value = Term::iri(format!("http://e/d{d}v{}", (i * (d + 3)) % 50));
            graph.insert(Triple::new_unchecked(obs(i), pred(d), value));
        }
        graph.insert(Triple::new_unchecked(
            obs(i),
            pred(4),
            Term::literal_int(i as i64),
        ));
    }
    let mut ds = Dataset::new();
    ds.load(None, &graph);
    ds
}

#[test]
fn clone_allocates_nothing_per_triple() {
    for observations in [200, 20_000] {
        let store = EpochStore::new(cube(observations));
        let triples = store.pin().dataset().default_graph().len();
        assert_eq!(triples, observations * 5);
        let bulk = clone_bytes(store.pin().dataset());
        println!("{triples} triples: clone after bulk load allocates {bulk} B");
        assert!(
            bulk < CLONE_BYTES_MAX,
            "{triples} triples: clone allocated {bulk} B"
        );

        // A published delta leaves inserts and tombstones unmerged, in
        // slices the clone shares rather than copies.
        let mut delta = Delta::new();
        for i in 0..16 {
            delta.insert(obs(observations + i), pred(i % 5), Term::literal_int(7));
        }
        for i in 0..8 {
            delta.delete(obs(i), pred(4), Term::literal_int(i as i64));
        }
        let (changes, _) = store.apply(delta);
        assert_eq!(changes.default_graph.inserted.len(), 16);
        assert_eq!(changes.default_graph.removed.len(), 8);
        let snapshot = store.pin();
        assert_eq!(snapshot.dataset().unmerged_entries(), 24);
        assert_eq!(snapshot.dataset().overlay_entries(), 0);
        let churned = clone_bytes(snapshot.dataset());
        println!("{triples} triples: clone after a 16+8 delta allocates {churned} B");
        assert_eq!(
            churned, bulk,
            "{triples} triples: the unmerged delta is shared, not copied"
        );
    }
}
