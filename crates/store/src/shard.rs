//! Subject-hash sharding: per-shard epoch stamps over one graph.
//!
//! A [`ShardRouter`] deterministically assigns every subject id to one of
//! `N` shards by Fx-hashing the id. Sharding does **not** split the
//! permutation indexes — POS/OSP orderings interleave subjects, so the
//! read path always sees one logical graph — nor any write or
//! maintenance work: its one job is the epoch store's per-shard epoch counters
//! ([`crate::epoch::EpochStore`]), so a lazily-maintained view can tell
//! exactly which shards changed in the epochs it missed.
//!
//! Hashing (rather than range-partitioning) the subject id keeps shards
//! balanced under the dense first-seen id assignment of the dictionary:
//! consecutive ids — which correlate strongly with insertion batches —
//! scatter uniformly.

use crate::delta::ChangeSet;
use crate::pattern::EncodedTriple;
use sofos_rdf::hash::FxHasher;
use sofos_rdf::TermId;
use std::hash::Hasher;

/// Deterministic subject → shard assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards (at least 1).
    pub fn new(shards: usize) -> ShardRouter {
        assert!(shards >= 1, "a store needs at least one shard");
        ShardRouter { shards }
    }

    /// The single-shard router: everything routes to shard 0 (the
    /// serialized baseline configuration).
    pub fn single() -> ShardRouter {
        ShardRouter::new(1)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning a subject.
    #[inline]
    pub fn shard_of(&self, subject: TermId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let mut hasher = FxHasher::default();
        hasher.write_u32(subject.0);
        (hasher.finish() % self.shards as u64) as usize
    }

    /// Which shards a net [`ChangeSet`] touched (across the default and
    /// all named graphs — view-graph rows live on their observation
    /// node's shard). `touched[i]` is true when shard `i` changed.
    pub fn touched_shards(&self, changes: &ChangeSet) -> Vec<bool> {
        let mut touched = vec![false; self.shards];
        let mut mark = |triples: &[EncodedTriple]| {
            for t in triples {
                touched[self.shard_of(t[0])] = true;
            }
        };
        mark(&changes.default_graph.inserted);
        mark(&changes.default_graph.removed);
        for graph in changes.named.values() {
            mark(&graph.inserted);
            mark(&graph.removed);
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofos_rdf::Term;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let router = ShardRouter::new(4);
        for i in 0..1000u32 {
            let s = router.shard_of(TermId(i));
            assert!(s < 4);
            assert_eq!(s, router.shard_of(TermId(i)), "stable per id");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let router = ShardRouter::single();
        assert_eq!(router.shards(), 1);
        for i in 0..100u32 {
            assert_eq!(router.shard_of(TermId(i)), 0);
        }
    }

    #[test]
    fn dense_ids_balance_across_shards() {
        // The dictionary hands out dense sequential ids; hashing must not
        // leave any shard starved (a range partition would put the whole
        // latest batch on one shard).
        let router = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4000u32 {
            counts[router.shard_of(TermId(i))] += 1;
        }
        for &c in &counts {
            assert!(
                (500..=1500).contains(&c),
                "shard sizes badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn touched_shards_reflect_changeset_subjects() {
        use crate::delta::Delta;
        use crate::Dataset;
        let mut ds = Dataset::new();
        let router = ShardRouter::new(4);
        let mut delta = Delta::new();
        delta.insert(
            Term::iri("http://e/s1"),
            Term::iri("http://e/p"),
            Term::iri("http://e/o"),
        );
        let changes = ds.apply(delta);
        let touched = router.touched_shards(&changes);
        let s1 = ds.dict().get_id(&Term::iri("http://e/s1")).unwrap();
        assert_eq!(touched.iter().filter(|&&t| t).count(), 1);
        assert!(touched[router.shard_of(s1)]);
    }
}
