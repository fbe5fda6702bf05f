//! Posting lists: per-predicate (and per-(predicate, value)) bitmaps of
//! subject ids, kept inside every [`crate::index::GraphStore`].
//!
//! Two tiers, both maintained *incrementally* by the store's own mutation
//! methods — every write path (`insert`, `remove`, `bulk_load`,
//! [`crate::dataset::Dataset::apply`], epoch publishes) flows through
//! those, so the lists are never stale and snapshot clones carry a
//! consistent index for free:
//!
//! * **Per-predicate** (always on): for each predicate, a [`Bitmap`] of
//!   the subjects carrying at least one triple with it, plus the exact
//!   triple count. Feeds `GraphStore::count`'s pure-predicate fast path
//!   and the maintenance planner's star-leg candidate filter.
//! * **Per-(predicate, value)** (opt-in via registration): for
//!   *registered* predicates, one bitmap of subjects per distinct object
//!   value. This is the group-location index — intersecting the bitmaps
//!   of a view's dimension values finds its group observation sub-linearly
//!   in view size. Registration is cheap and idempotent
//!   ([`crate::index::GraphStore::register_value_preds`]); the maintenance
//!   engine registers each view graph's dimension + type predicates on
//!   first contact.
//!
//! Maintenance invariants (subjects may carry several values per
//! predicate, e.g. multi-valued legs):
//!
//! * insert `(s,p,o)` → `preds[p].triples += 1`, `subjects.insert(s)`;
//!   registered: `values[(p,o)].insert(s)`.
//! * remove `(s,p,o)` → `preds[p].triples -= 1`; `subjects.remove(s)`
//!   only when no `(s,p,*)` triple remains (the store passes that fact
//!   in); registered: `values[(p,o)].remove(s)` unconditionally — the
//!   triple itself is unique.
//! * Empty bitmaps and zero-count predicates are dropped, so two stores
//!   with equal content have equal posting lists.
//!
//! Nothing here is persisted: the index is derived state, rebuilt from
//! triples on recovery (bulk loads rebuild in one pass; registrations are
//! re-applied by the maintenance engine on first use). That keeps the
//! epoch-log format untouched and recovery unable to observe a
//! triples/index divergence.

use crate::bitmap::Bitmap;
use crate::pattern::EncodedTriple;
use sofos_rdf::{FxHashMap, FxHashSet, TermId};

/// Always-on per-predicate posting entry.
#[derive(Debug, Clone, Default)]
pub struct PredPosting {
    /// Subjects with at least one triple under this predicate.
    pub subjects: Bitmap,
    /// Exact number of triples under this predicate.
    pub triples: u64,
}

/// Aggregated posting-list figures for observability
/// (`sofos_index_*` gauges) and memory accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostingStats {
    /// Number of posting lists (per-predicate + per-value bitmaps).
    pub posting_lists: usize,
    /// Estimated heap bytes held by the lists.
    pub bytes: usize,
    /// Monotonic count of index mutations on this store.
    pub updates: u64,
}

impl PostingStats {
    /// Combine stats across stores.
    pub fn merge(&mut self, other: PostingStats) {
        self.posting_lists += other.posting_lists;
        self.bytes += other.bytes;
        self.updates += other.updates;
    }
}

/// The posting lists of one graph (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct PostingLists {
    preds: FxHashMap<TermId, PredPosting>,
    /// Predicates registered for per-value tracking.
    value_preds: FxHashSet<TermId>,
    /// `(registered predicate, object)` → subjects holding that value.
    values: FxHashMap<(TermId, TermId), Bitmap>,
    updates: u64,
}

impl PostingLists {
    /// Record an inserted triple (the store already deduplicated).
    pub fn note_insert(&mut self, triple: &EncodedTriple) {
        let [s, p, o] = *triple;
        self.updates += 1;
        let entry = self.preds.entry(p).or_default();
        entry.triples += 1;
        entry.subjects.insert(s.0);
        if self.value_preds.contains(&p) {
            self.values.entry((p, o)).or_default().insert(s.0);
        }
    }

    /// Record a removed triple. `last_for_subject_pred` says whether the
    /// subject has no `(s,p,*)` triple left *after* the removal — only
    /// then does it leave the predicate's subject bitmap.
    pub fn note_remove(&mut self, triple: &EncodedTriple, last_for_subject_pred: bool) {
        let [s, p, o] = *triple;
        self.updates += 1;
        if let Some(entry) = self.preds.get_mut(&p) {
            entry.triples -= 1;
            if last_for_subject_pred {
                entry.subjects.remove(s.0);
            }
            if entry.triples == 0 {
                self.preds.remove(&p);
            }
        }
        if self.value_preds.contains(&p) {
            if let Some(bm) = self.values.get_mut(&(p, o)) {
                bm.remove(s.0);
                if bm.is_empty() {
                    self.values.remove(&(p, o));
                }
            }
        }
    }

    /// Drop all lists (registrations survive) and re-note `triples` —
    /// the bulk-load / recovery rebuild path.
    pub fn rebuild(&mut self, triples: &[EncodedTriple]) {
        self.preds.clear();
        self.values.clear();
        self.updates += 1;
        for t in triples {
            let [s, p, o] = *t;
            let entry = self.preds.entry(p).or_default();
            entry.triples += 1;
            entry.subjects.insert(s.0);
            if self.value_preds.contains(&p) {
                self.values.entry((p, o)).or_default().insert(s.0);
            }
        }
    }

    /// Mark predicates for per-value tracking; returns the ones that were
    /// not registered before (the caller backfills those from its index).
    pub fn register(&mut self, preds: &[TermId]) -> Vec<TermId> {
        preds
            .iter()
            .copied()
            .filter(|p| self.value_preds.insert(*p))
            .collect()
    }

    /// Backfill one registered predicate from existing triples
    /// (`(s, o)` pairs under that predicate).
    pub fn backfill(&mut self, pred: TermId, pairs: impl Iterator<Item = (TermId, TermId)>) {
        self.updates += 1;
        for (s, o) in pairs {
            self.values.entry((pred, o)).or_default().insert(s.0);
        }
    }

    /// Whether a predicate is registered for per-value tracking.
    pub fn is_registered(&self, pred: TermId) -> bool {
        self.value_preds.contains(&pred)
    }

    /// Subjects with at least one triple under `pred`.
    pub fn subjects(&self, pred: TermId) -> Option<&Bitmap> {
        self.preds.get(&pred).map(|e| &e.subjects)
    }

    /// Exact triple count under `pred`.
    pub fn triples_for(&self, pred: TermId) -> u64 {
        self.preds.get(&pred).map_or(0, |e| e.triples)
    }

    /// Number of predicates with at least one triple (zero-count entries
    /// are dropped, so this is exact under deletes).
    pub(crate) fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// Subjects holding object `value` under registered `pred` (`None`
    /// when no subject does — or the predicate is unregistered, which the
    /// caller distinguishes via [`PostingLists::is_registered`]).
    pub fn value_subjects(&self, pred: TermId, value: TermId) -> Option<&Bitmap> {
        self.values.get(&(pred, value))
    }

    /// Aggregated figures for observability and memory accounting.
    pub fn stats(&self) -> PostingStats {
        let pred_bytes: usize = self
            .preds
            .values()
            .map(|e| 16 + e.subjects.estimated_bytes())
            .sum();
        let value_bytes: usize = self
            .values
            .values()
            .map(|bm| 16 + bm.estimated_bytes())
            .sum();
        PostingStats {
            posting_lists: self.preds.len() + self.values.len(),
            bytes: pred_bytes + value_bytes,
            updates: self.updates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> EncodedTriple {
        [TermId(s), TermId(p), TermId(o)]
    }

    #[test]
    fn pred_tier_tracks_subjects_and_counts() {
        let mut pl = PostingLists::default();
        pl.note_insert(&t(1, 10, 100));
        pl.note_insert(&t(1, 10, 101)); // multi-valued: same subject twice
        pl.note_insert(&t(2, 10, 100));
        assert_eq!(pl.triples_for(TermId(10)), 3);
        let subjects = pl.subjects(TermId(10)).unwrap();
        assert_eq!(subjects.cardinality(), 2);

        // Removing one of the subject's two values keeps it listed.
        pl.note_remove(&t(1, 10, 100), false);
        assert!(pl.subjects(TermId(10)).unwrap().contains(1));
        assert_eq!(pl.triples_for(TermId(10)), 2);
        // Removing the last one drops it.
        pl.note_remove(&t(1, 10, 101), true);
        assert!(!pl.subjects(TermId(10)).unwrap().contains(1));

        // Last triple under the predicate drops the entry entirely.
        pl.note_remove(&t(2, 10, 100), true);
        assert!(pl.subjects(TermId(10)).is_none());
        assert_eq!(pl.triples_for(TermId(10)), 0);
    }

    #[test]
    fn value_tier_only_tracks_registered_preds() {
        let mut pl = PostingLists::default();
        pl.note_insert(&t(1, 10, 100));
        assert!(pl.value_subjects(TermId(10), TermId(100)).is_none());

        assert_eq!(pl.register(&[TermId(10)]), vec![TermId(10)]);
        assert!(pl.register(&[TermId(10)]).is_empty(), "idempotent");
        pl.backfill(TermId(10), [(TermId(1), TermId(100))].into_iter());
        pl.note_insert(&t(2, 10, 100));
        let bm = pl.value_subjects(TermId(10), TermId(100)).unwrap();
        assert!(bm.contains(1) && bm.contains(2));

        pl.note_remove(&t(1, 10, 100), true);
        pl.note_remove(&t(2, 10, 100), true);
        assert!(
            pl.value_subjects(TermId(10), TermId(100)).is_none(),
            "empty value bitmaps are dropped"
        );
    }

    #[test]
    fn rebuild_replays_triples_and_keeps_registrations() {
        let mut pl = PostingLists::default();
        pl.register(&[TermId(10)]);
        pl.note_insert(&t(9, 9, 9));
        pl.rebuild(&[t(1, 10, 100), t(2, 10, 101)]);
        assert_eq!(pl.triples_for(TermId(9)), 0, "rebuild starts clean");
        assert_eq!(pl.triples_for(TermId(10)), 2);
        assert!(pl
            .value_subjects(TermId(10), TermId(100))
            .unwrap()
            .contains(1));
        assert!(pl.stats().updates > 0);
    }

    #[test]
    fn stats_count_lists_and_bytes() {
        let mut pl = PostingLists::default();
        assert_eq!(pl.stats(), PostingStats::default());
        pl.register(&[TermId(10)]);
        pl.note_insert(&t(1, 10, 100));
        pl.note_insert(&t(1, 11, 100));
        let stats = pl.stats();
        assert_eq!(stats.posting_lists, 3, "two pred lists + one value list");
        assert!(stats.bytes > 0);
        assert_eq!(stats.updates, 2);

        let mut total = PostingStats::default();
        total.merge(stats);
        total.merge(stats);
        assert_eq!(total.posting_lists, 6);
    }
}
