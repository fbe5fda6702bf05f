//! # sofos-store — dictionary-encoded indexed triple store
//!
//! The storage substrate SOFOS runs on (the paper assumes "any RDF triple
//! store with SPARQL query processing"; we build one). Architecture:
//!
//! * terms are interned to dense `u32` ids by `sofos_rdf::Dictionary`;
//! * a [`GraphStore`] holds one RDF graph as three *permutation indexes*
//!   ([`index::PermIndex`]) — SPO, POS and OSP orderings — each a sorted
//!   run plus sorted delta and tombstone slices, all `Arc`-shared, under a
//!   small write overlay frozen into the slices at publish; the slices are
//!   merged into the run when they grow.
//!   Together they answer all eight triple-pattern binding shapes with
//!   prefix range scans (see [`pattern`]);
//! * [`bitmap::Bitmap`] is a vendored roaring-style compressed bitmap;
//!   [`posting::PostingLists`] builds per-predicate and per-(predicate,
//!   value) subject bitmaps on it inside every [`GraphStore`], maintained
//!   incrementally by the store's own mutation paths and never persisted
//!   (derived state, rebuilt from triples on recovery);
//! * a [`Dataset`] is the paper's expanded graph `G+`: the base graph plus
//!   one named graph per materialized view, all sharing one dictionary;
//! * [`stats::GraphStats`] holds the base-graph size and predicate count
//!   the cost models read, derived on demand from the store's own
//!   counters (no second copy is maintained on the write path);
//! * [`delta::Delta`] / [`Dataset::apply`] are the transactional update
//!   path: batched inserts *and deletes* flow through the index overlays
//!   and come back out as a net [`delta::ChangeSet`] per graph —
//!   the input to `sofos-maintain`'s incremental view maintenance;
//! * [`epoch::EpochStore`] makes the dataset concurrent: readers pin
//!   immutable epoch [`epoch::Snapshot`]s while the single writer builds
//!   the next epoch and publishes it in three steps — log, swap, reclaim
//!   (see `crates/store/README.md` for the pin → publish → retire
//!   lifecycle).

pub mod bitmap;
pub mod dataset;
pub mod delta;
pub mod epoch;
pub mod graphmap;
pub mod index;
pub mod inference;
pub mod pattern;
pub mod persist;
pub mod posting;
pub mod stats;

pub use bitmap::{Bitmap, Ranks};
pub use dataset::{Dataset, GraphName};
pub use delta::{ChangeSet, Delta, DeltaOp, GraphChanges, OpKind};
pub use epoch::{
    EpochStore, LoggedTxn, PinnedSnapshot, PreparedTxn, PublishedTxn, Snapshot, WriteTxn,
};
pub use graphmap::GraphMap;
pub use index::{GraphStore, Perm, ScanCursor};
pub use inference::{materialize_rdfs, InferenceStats};
pub use pattern::{EncodedTriple, IdPattern};
pub use persist::{DurabilityConfig, PersistError, PersistStats, Persister, Recovered};
pub use posting::{PostingLists, PostingStats};
pub use stats::GraphStats;
