//! Permutation indexes and the per-graph store.
//!
//! Each [`PermIndex`] keeps the graph's triples in one of three sort orders
//! (SPO, POS, OSP) as an LSM-lite pair: a large sorted *run* (`Vec`) plus a
//! small *delta* (`BTreeSet`) absorbing inserts. When the delta outgrows a
//! threshold it is merged into the run. Prefix range scans over both halves
//! are merged on the fly, so readers always see one sorted stream. A
//! [`ScanCursor`] answers a sequence of scans, galloping forward through a
//! run while their prefixes ascend instead of searching all of it.
//!
//! The three orders cover all eight triple-pattern shapes exactly (no
//! residual filtering):
//!
//! | bound      | index | prefix      |
//! |------------|-------|-------------|
//! | s p o      | SPO   | `[s, p, o]` |
//! | s p ?      | SPO   | `[s, p]`    |
//! | s ? ?      | SPO   | `[s]`       |
//! | ? p o      | POS   | `[p, o]`    |
//! | ? p ?      | POS   | `[p]`       |
//! | ? ? o      | OSP   | `[o]`       |
//! | s ? o      | OSP   | `[o, s]`    |
//! | ? ? ?      | SPO   | `[]`        |

use crate::bitmap::Bitmap;
use crate::pattern::{EncodedTriple, IdPattern};
use crate::posting::{PostingLists, PostingStats};
use sofos_rdf::TermId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Delta is merged into the run once it exceeds
/// `max(MERGE_MIN, run.len() / MERGE_RATIO)` entries.
const MERGE_MIN: usize = 4096;
const MERGE_RATIO: usize = 8;

/// The three triple orderings kept by a [`GraphStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perm {
    /// Subject, predicate, object.
    Spo,
    /// Predicate, object, subject.
    Pos,
    /// Object, subject, predicate.
    Osp,
}

impl Perm {
    /// Reorder an `(s,p,o)` triple into this permutation's key order.
    #[inline]
    pub fn permute(self, t: EncodedTriple) -> EncodedTriple {
        match self {
            Perm::Spo => t,
            Perm::Pos => [t[1], t[2], t[0]],
            Perm::Osp => [t[2], t[0], t[1]],
        }
    }

    /// Restore an `(s,p,o)` triple from this permutation's key order.
    #[inline]
    pub fn invert(self, k: EncodedTriple) -> EncodedTriple {
        match self {
            Perm::Spo => k,
            Perm::Pos => [k[2], k[0], k[1]],
            Perm::Osp => [k[1], k[2], k[0]],
        }
    }
}

/// One sort order over the graph's triples: sorted run + B-tree delta,
/// plus a tombstone set masking deletions from the run until the next
/// merge folds them away (classic LSM delete handling).
///
/// The run is behind an [`Arc`] so cloning an index — the epoch-snapshot
/// publish path ([`crate::epoch::EpochStore`]) clones every graph per
/// batch — shares the large sorted body and copies only the small delta
/// and tombstone sets. Mutation never writes through the `Arc`: inserts
/// and removes land in the owned B-trees, and a merge *replaces* the run
/// wholesale, so pinned snapshots keep reading the run they captured.
#[derive(Debug, Clone)]
pub struct PermIndex {
    perm: Perm,
    run: Arc<Vec<EncodedTriple>>,
    delta: BTreeSet<EncodedTriple>,
    tombstones: BTreeSet<EncodedTriple>,
}

impl PermIndex {
    /// An empty index with the given ordering.
    pub fn new(perm: Perm) -> PermIndex {
        PermIndex {
            perm,
            run: Arc::new(Vec::new()),
            delta: BTreeSet::new(),
            tombstones: BTreeSet::new(),
        }
    }

    /// This index's ordering.
    pub fn perm(&self) -> Perm {
        self.perm
    }

    /// Insert an `(s,p,o)` triple. The caller (the [`GraphStore`]) is
    /// responsible for cross-structure duplicate checks.
    fn insert(&mut self, triple: EncodedTriple) {
        let key = self.perm.permute(triple);
        self.tombstones.remove(&key);
        if self.run.binary_search(&key).is_err() {
            self.delta.insert(key);
        }
        if self.delta.len() >= MERGE_MIN.max(self.run.len() / MERGE_RATIO) {
            self.merge();
        }
    }

    /// Remove an `(s,p,o)` triple: drop it from the delta, or tombstone it
    /// when it lives in the run.
    fn remove(&mut self, triple: &EncodedTriple) {
        let key = self.perm.permute(*triple);
        if !self.delta.remove(&key) && self.run.binary_search(&key).is_ok() {
            self.tombstones.insert(key);
        }
    }

    /// Membership test for an `(s,p,o)` triple.
    fn contains(&self, triple: &EncodedTriple) -> bool {
        let key = self.perm.permute(*triple);
        if self.tombstones.contains(&key) {
            return false;
        }
        self.delta.contains(&key) || self.run.binary_search(&key).is_ok()
    }

    /// Fold the delta into the run and drop tombstoned entries
    /// (single merge pass, preserves order).
    pub fn merge(&mut self) {
        if self.delta.is_empty() && self.tombstones.is_empty() {
            return;
        }
        let delta = std::mem::take(&mut self.delta);
        let tombstones = std::mem::take(&mut self.tombstones);
        let mut merged = Vec::with_capacity(self.run.len() + delta.len());
        // Pinned snapshots may share the run: merge reads it by reference
        // and installs a fresh `Arc`, leaving theirs untouched.
        let mut run_iter = self.run.iter().copied().peekable();
        let mut delta_iter = delta.into_iter().peekable();
        loop {
            let next = match (run_iter.peek(), delta_iter.peek()) {
                (Some(a), Some(b)) => {
                    if a <= b {
                        run_iter.next().expect("peeked")
                    } else {
                        delta_iter.next().expect("peeked")
                    }
                }
                (Some(_), None) => run_iter.next().expect("peeked"),
                (None, Some(_)) => delta_iter.next().expect("peeked"),
                (None, None) => break,
            };
            if !tombstones.contains(&next) {
                merged.push(next);
            }
        }
        self.run = Arc::new(merged);
    }

    /// Bulk-build from already-deduplicated triples (generator fast path).
    fn bulk_load(&mut self, triples: &[EncodedTriple]) {
        let mut keys: Vec<EncodedTriple> = triples.iter().map(|t| self.perm.permute(*t)).collect();
        keys.sort_unstable();
        self.run = Arc::new(keys);
        self.delta.clear();
        self.tombstones.clear();
    }

    /// The `(low, high)` key bounds matching a prefix of bound values.
    fn prefix_bounds(prefix: &[TermId]) -> (EncodedTriple, EncodedTriple) {
        let mut low = [TermId(0); 3];
        let mut high = [TermId(u32::MAX); 3];
        for (i, &v) in prefix.iter().enumerate() {
            low[i] = v;
            high[i] = v;
        }
        (low, high)
    }

    /// Scan all triples whose permuted key starts with `prefix`, yielding
    /// `(s,p,o)` triples in permuted-key order.
    pub fn scan_prefix(&self, prefix: &[TermId]) -> PrefixScan<'_> {
        self.seek_prefix(prefix, &mut None)
    }

    /// [`PermIndex::scan_prefix`] that resumes from `seek`, the high key
    /// bound of the last prefix read here and the run position just past
    /// it. A prefix sorting after that bound gallops forward from the
    /// position; any other prefix binary-searches the whole run. Either
    /// way `seek` is left just past `prefix`.
    fn seek_prefix(&self, prefix: &[TermId], seek: &mut Seek) -> PrefixScan<'_> {
        debug_assert!(prefix.len() <= 3);
        let (low, high) = Self::prefix_bounds(prefix);
        let start = match *seek {
            Some((last, end)) if low > last => gallop(&self.run, end, |k| *k < low),
            _ => self.run.partition_point(|k| *k < low),
        };
        let end = gallop(&self.run, start, |k| *k <= high);
        *seek = Some((high, end));
        self.scan_run_range(start, end, low, high)
    }

    fn scan_run_range(
        &self,
        start: usize,
        end: usize,
        low: EncodedTriple,
        high: EncodedTriple,
    ) -> PrefixScan<'_> {
        PrefixScan {
            perm: self.perm,
            run: &self.run[start..end],
            run_pos: 0,
            delta: self.delta.range(low..=high),
            delta_next: None,
            tombstones: &self.tombstones,
        }
    }

    /// Number of triples whose key starts with `prefix` (without yielding).
    pub fn count_prefix(&self, prefix: &[TermId]) -> usize {
        let (low, high) = Self::prefix_bounds(prefix);
        let start = self.run.partition_point(|k| *k < low);
        let end = self.run.partition_point(|k| *k <= high);
        (end - start) + self.delta.range(low..=high).count()
            - self.tombstones.range(low..=high).count()
    }

    /// Heap footprint estimate: 12 bytes per run entry, ~48 per delta /
    /// tombstone entry (B-tree node overhead).
    pub fn estimated_bytes(&self) -> usize {
        self.run.len() * 12 + (self.delta.len() + self.tombstones.len()) * 48
    }
}

/// The first position at or after `from` whose key fails `before`, for a
/// predicate that holds on a prefix of `run` (as `partition_point`
/// requires) and on every key before `from`. Steps of doubling length
/// from `from` bracket the answer, then a binary search finds it, so the
/// cost grows with the log of the distance travelled, not of the run.
fn gallop(run: &[EncodedTriple], from: usize, before: impl Fn(&EncodedTriple) -> bool) -> usize {
    let mut low = from;
    let mut step = 1;
    let mut high = from;
    while high < run.len() && before(&run[high]) {
        low = high + 1;
        high = low + step;
        step *= 2;
    }
    let high = high.min(run.len());
    low + run[low..high].partition_point(before)
}

/// Sorted merge of the run slice and the delta range for one prefix scan.
pub struct PrefixScan<'a> {
    perm: Perm,
    run: &'a [EncodedTriple],
    run_pos: usize,
    delta: std::collections::btree_set::Range<'a, EncodedTriple>,
    delta_next: Option<&'a EncodedTriple>,
    tombstones: &'a BTreeSet<EncodedTriple>,
}

impl<'a> Iterator for PrefixScan<'a> {
    type Item = EncodedTriple;

    fn next(&mut self) -> Option<EncodedTriple> {
        loop {
            if self.delta_next.is_none() {
                self.delta_next = self.delta.next();
            }
            let run_head = self.run.get(self.run_pos);
            let key = match (run_head, self.delta_next) {
                (Some(r), Some(d)) => {
                    if r <= d {
                        self.run_pos += 1;
                        *r
                    } else {
                        self.delta_next = None;
                        *d
                    }
                }
                (Some(r), None) => {
                    self.run_pos += 1;
                    *r
                }
                (None, Some(d)) => {
                    self.delta_next = None;
                    *d
                }
                (None, None) => return None,
            };
            if !self.tombstones.contains(&key) {
                return Some(self.perm.invert(key));
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let lower = self.run.len() - self.run_pos;
        (lower, None)
    }
}

/// Where a [`ScanCursor`] left one permutation index: the high key bound
/// of the last prefix read and the run position just past it.
type Seek = Option<(EncodedTriple, usize)>;

/// A cursor that answers [`GraphStore::scan`] for a sequence of patterns,
/// remembering per permutation index where the last scan ended. Patterns
/// whose index prefixes come in ascending order — the subjects of a join
/// leg probed in subject order, say — gallop forward from there, so a run
/// of probes costs about one forward pass over the index instead of one
/// binary search of the whole index each. A prefix not after the last one
/// on its index is answered by a fresh binary search, as by
/// [`GraphStore::scan`]. Every scan yields what `scan` yields, in the same
/// order.
pub struct ScanCursor<'a> {
    store: &'a GraphStore,
    spo: Seek,
    pos: Seek,
    osp: Seek,
}

impl<'a> ScanCursor<'a> {
    /// The triples matching `pattern`, exactly as [`GraphStore::scan`].
    pub fn scan(&mut self, pattern: IdPattern) -> PrefixScan<'a> {
        let g = self.store;
        match (pattern.s, pattern.p, pattern.o) {
            (Some(s), Some(p), Some(o)) => g.spo.seek_prefix(&[s, p, o], &mut self.spo),
            (Some(s), Some(p), None) => g.spo.seek_prefix(&[s, p], &mut self.spo),
            (Some(s), None, Some(o)) => g.osp.seek_prefix(&[o, s], &mut self.osp),
            (Some(s), None, None) => g.spo.seek_prefix(&[s], &mut self.spo),
            (None, Some(p), Some(o)) => g.pos.seek_prefix(&[p, o], &mut self.pos),
            (None, Some(p), None) => g.pos.seek_prefix(&[p], &mut self.pos),
            (None, None, Some(o)) => g.osp.seek_prefix(&[o], &mut self.osp),
            (None, None, None) => g.spo.seek_prefix(&[], &mut self.spo),
        }
    }
}

/// One RDF graph: three permutation indexes, posting lists, and a triple
/// count.
#[derive(Debug, Clone)]
pub struct GraphStore {
    spo: PermIndex,
    pos: PermIndex,
    osp: PermIndex,
    /// Bitmap posting lists (per-predicate subjects, registered
    /// per-value subjects), maintained by every mutation below — see
    /// [`crate::posting`].
    posting: PostingLists,
    len: usize,
}

impl Default for GraphStore {
    fn default() -> Self {
        GraphStore::new()
    }
}

impl GraphStore {
    /// An empty graph store.
    pub fn new() -> GraphStore {
        GraphStore {
            spo: PermIndex::new(Perm::Spo),
            pos: PermIndex::new(Perm::Pos),
            osp: PermIndex::new(Perm::Osp),
            posting: PostingLists::default(),
            len: 0,
        }
    }

    /// Insert an encoded triple; returns `true` if it was new.
    pub fn insert(&mut self, triple: EncodedTriple) -> bool {
        if self.spo.contains(&triple) {
            return false;
        }
        self.spo.insert(triple);
        self.pos.insert(triple);
        self.osp.insert(triple);
        self.posting.note_insert(&triple);
        self.len += 1;
        true
    }

    /// Remove a triple; returns `true` if it was present.
    pub fn remove(&mut self, triple: &EncodedTriple) -> bool {
        if !self.spo.contains(triple) {
            return false;
        }
        self.spo.remove(triple);
        self.pos.remove(triple);
        self.osp.remove(triple);
        // The subject leaves the predicate's posting bitmap only when no
        // (s, p, *) triple survives — multi-valued predicates keep it.
        let last = self.spo.count_prefix(&triple[..2]) == 0;
        self.posting.note_remove(triple, last);
        self.len -= 1;
        true
    }

    /// Replace the contents from a batch (deduplicates; fastest load path).
    pub fn bulk_load(&mut self, mut triples: Vec<EncodedTriple>) {
        triples.sort_unstable();
        triples.dedup();
        self.len = triples.len();
        self.spo.bulk_load(&triples);
        self.pos.bulk_load(&triples);
        self.osp.bulk_load(&triples);
        self.posting.rebuild(&triples);
    }

    /// Membership test.
    pub fn contains(&self, triple: &EncodedTriple) -> bool {
        self.spo.contains(triple)
    }

    /// Number of triples (the paper's `|G_Vi|` for cost model #2).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Force-merge all deltas (called after bulk insert phases).
    pub fn optimize(&mut self) {
        self.spo.merge();
        self.pos.merge();
        self.osp.merge();
    }

    /// Scan triples matching an [`IdPattern`], dispatching to the index
    /// that turns the bound positions into a key prefix.
    pub fn scan(&self, pattern: IdPattern) -> PrefixScan<'_> {
        self.scan_cursor().scan(pattern)
    }

    /// A cursor for many scans in a row: scans whose index prefixes
    /// ascend gallop forward instead of searching the whole index (see
    /// [`ScanCursor`]).
    pub fn scan_cursor(&self) -> ScanCursor<'_> {
        ScanCursor {
            store: self,
            spo: None,
            pos: None,
            osp: None,
        }
    }

    /// Exact number of matches for a pattern, computed from index ranges
    /// without materializing results. Pure-predicate shapes short-circuit
    /// through the posting lists: `(?, p, ?)` reads the maintained triple
    /// count and `(?, p, o)` on a registered predicate reads a bitmap
    /// cardinality — both O(1) after the hash lookup, no range scan.
    pub fn count(&self, pattern: IdPattern) -> usize {
        match (pattern.s, pattern.p, pattern.o) {
            (Some(s), Some(p), Some(o)) => self.spo.count_prefix(&[s, p, o]),
            (Some(s), Some(p), None) => self.spo.count_prefix(&[s, p]),
            (Some(s), None, Some(o)) => self.osp.count_prefix(&[o, s]),
            (Some(s), None, None) => self.spo.count_prefix(&[s]),
            (None, Some(p), Some(o)) => {
                if self.posting.is_registered(p) {
                    // (s, p, o) is unique, so the subjects-with-value
                    // bitmap's cardinality IS the triple count.
                    self.posting
                        .value_subjects(p, o)
                        .map_or(0, |bm| bm.cardinality() as usize)
                } else {
                    self.pos.count_prefix(&[p, o])
                }
            }
            (None, Some(p), None) => self.posting.triples_for(p) as usize,
            (None, None, Some(o)) => self.osp.count_prefix(&[o]),
            (None, None, None) => self.len,
        }
    }

    /// Iterate every triple in SPO order.
    pub fn iter(&self) -> PrefixScan<'_> {
        self.scan(IdPattern::ANY)
    }

    /// Heap footprint estimate across the three indexes plus the posting
    /// lists (index side of the storage-amplification accounting).
    pub fn estimated_bytes(&self) -> usize {
        self.spo.estimated_bytes()
            + self.pos.estimated_bytes()
            + self.osp.estimated_bytes()
            + self.posting.stats().bytes
    }

    // --- posting-list surface -------------------------------------------

    /// Register predicates for per-(predicate, value) posting lists,
    /// backfilling from existing triples. Idempotent; already-registered
    /// predicates cost one hash probe.
    pub fn register_value_preds(&mut self, preds: &[TermId]) {
        for pred in self.posting.register(preds) {
            let pairs: Vec<(TermId, TermId)> = self
                .pos
                .scan_prefix(&[pred])
                .map(|[s, _, o]| (s, o))
                .collect();
            self.posting.backfill(pred, pairs.into_iter());
        }
    }

    /// Whether `pred` is registered for per-value posting lists.
    pub fn has_value_pred(&self, pred: TermId) -> bool {
        self.posting.is_registered(pred)
    }

    /// Number of distinct predicates, read off the per-predicate posting
    /// entries in O(1).
    pub fn distinct_predicates(&self) -> usize {
        self.posting.pred_count()
    }

    /// Subjects with at least one triple under `pred` (always maintained).
    pub fn pred_subjects(&self, pred: TermId) -> Option<&Bitmap> {
        self.posting.subjects(pred)
    }

    /// Subjects holding object `value` under *registered* `pred` —
    /// `None` means no subject does (or the predicate is unregistered;
    /// check [`GraphStore::has_value_pred`] first).
    pub fn value_subjects(&self, pred: TermId, value: TermId) -> Option<&Bitmap> {
        self.posting.value_subjects(pred, value)
    }

    /// Posting-list observability figures for this graph.
    pub fn posting_stats(&self) -> PostingStats {
        self.posting.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> EncodedTriple {
        [TermId(s), TermId(p), TermId(o)]
    }

    #[test]
    fn permutations_invert() {
        let triple = t(1, 2, 3);
        for perm in [Perm::Spo, Perm::Pos, Perm::Osp] {
            assert_eq!(perm.invert(perm.permute(triple)), triple);
        }
        assert_eq!(Perm::Pos.permute(t(1, 2, 3)), t(2, 3, 1));
        assert_eq!(Perm::Osp.permute(t(1, 2, 3)), t(3, 1, 2));
    }

    #[test]
    fn insert_and_contains() {
        let mut g = GraphStore::new();
        assert!(g.insert(t(1, 2, 3)));
        assert!(!g.insert(t(1, 2, 3)), "duplicate rejected");
        assert!(g.contains(&t(1, 2, 3)));
        assert!(!g.contains(&t(1, 2, 4)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn all_eight_pattern_shapes() {
        let mut g = GraphStore::new();
        for (s, p, o) in [
            (1, 10, 100),
            (1, 10, 101),
            (1, 11, 100),
            (2, 10, 100),
            (2, 11, 102),
        ] {
            g.insert(t(s, p, o));
        }
        let pat = |s: Option<u32>, p: Option<u32>, o: Option<u32>| IdPattern {
            s: s.map(TermId),
            p: p.map(TermId),
            o: o.map(TermId),
        };
        let collect = |p: IdPattern| -> Vec<EncodedTriple> { g.scan(p).collect() };

        assert_eq!(collect(pat(None, None, None)).len(), 5);
        assert_eq!(collect(pat(Some(1), None, None)).len(), 3);
        assert_eq!(collect(pat(None, Some(10), None)).len(), 3);
        assert_eq!(collect(pat(None, None, Some(100))).len(), 3);
        assert_eq!(collect(pat(Some(1), Some(10), None)).len(), 2);
        assert_eq!(collect(pat(Some(1), None, Some(100))).len(), 2);
        assert_eq!(collect(pat(None, Some(10), Some(100))).len(), 2);
        assert_eq!(collect(pat(Some(2), Some(11), Some(102))).len(), 1);
        assert_eq!(collect(pat(Some(9), None, None)).len(), 0);
    }

    #[test]
    fn counts_match_scans() {
        let mut g = GraphStore::new();
        for i in 0..100u32 {
            g.insert(t(i % 7, i % 3, i));
        }
        for s in [None, Some(1u32)] {
            for p in [None, Some(2u32)] {
                for o in [None, Some(9u32)] {
                    let pat = IdPattern {
                        s: s.map(TermId),
                        p: p.map(TermId),
                        o: o.map(TermId),
                    };
                    assert_eq!(g.count(pat), g.scan(pat).count(), "pattern {pat:?}");
                }
            }
        }
    }

    #[test]
    fn scan_yields_sorted_unique_triples() {
        let mut g = GraphStore::new();
        // Insert in reverse to exercise delta ordering.
        for i in (0..50u32).rev() {
            g.insert(t(i, 1, 2));
        }
        let all: Vec<EncodedTriple> = g.iter().collect();
        assert_eq!(all.len(), 50);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(all, sorted, "scan output is sorted and duplicate-free");
    }

    #[test]
    fn merge_preserves_content() {
        let mut idx = PermIndex::new(Perm::Spo);
        for i in 0..10 {
            idx.insert(t(i, 0, 0));
        }
        idx.merge();
        for i in 10..20 {
            idx.insert(t(i, 0, 0));
        }
        let seen: Vec<EncodedTriple> = idx.scan_prefix(&[]).collect();
        assert_eq!(seen.len(), 20);
        for i in 0..20 {
            assert!(idx.contains(&t(i, 0, 0)));
        }
    }

    #[test]
    fn bulk_load_deduplicates() {
        let mut g = GraphStore::new();
        g.bulk_load(vec![t(1, 2, 3), t(1, 2, 3), t(4, 5, 6)]);
        assert_eq!(g.len(), 2);
        assert!(g.contains(&t(1, 2, 3)));
        assert!(g.contains(&t(4, 5, 6)));
        // Inserts still work after a bulk load.
        assert!(g.insert(t(7, 8, 9)));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn optimize_is_transparent() {
        let mut g = GraphStore::new();
        for i in 0..100u32 {
            g.insert(t(i, i % 5, i % 11));
        }
        let before: Vec<EncodedTriple> = g.iter().collect();
        g.optimize();
        let after: Vec<EncodedTriple> = g.iter().collect();
        assert_eq!(before, after);
    }

    #[test]
    fn remove_from_delta_and_run() {
        let mut g = GraphStore::new();
        // Goes to the delta.
        g.insert(t(1, 2, 3));
        assert!(g.remove(&t(1, 2, 3)));
        assert!(!g.contains(&t(1, 2, 3)));
        assert_eq!(g.len(), 0);
        assert!(!g.remove(&t(1, 2, 3)), "double remove is a no-op");

        // Goes to the run, then tombstoned.
        g.insert(t(4, 5, 6));
        g.optimize();
        assert!(g.remove(&t(4, 5, 6)));
        assert!(!g.contains(&t(4, 5, 6)));
        assert_eq!(g.scan(IdPattern::ANY).count(), 0);
        assert_eq!(g.count(IdPattern::ANY), 0);

        // Merge folds the tombstone away; reinsertion works.
        g.optimize();
        assert!(g.insert(t(4, 5, 6)));
        assert!(g.contains(&t(4, 5, 6)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn reinsert_after_tombstone_without_merge() {
        let mut g = GraphStore::new();
        g.insert(t(1, 1, 1));
        g.optimize(); // into the run
        g.remove(&t(1, 1, 1)); // tombstone
        assert!(g.insert(t(1, 1, 1)), "reinsert clears the tombstone");
        assert!(g.contains(&t(1, 1, 1)));
        assert_eq!(g.scan(IdPattern::ANY).count(), 1);
        assert_eq!(g.count(IdPattern::ANY), 1);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn bytes_scale_with_size() {
        let mut g = GraphStore::new();
        let empty = g.estimated_bytes();
        for i in 0..1000u32 {
            g.insert(t(i, 0, 0));
        }
        assert!(g.estimated_bytes() > empty);
    }

    #[test]
    fn posting_lists_track_subjects_per_predicate() {
        let mut g = GraphStore::new();
        g.insert(t(1, 10, 100));
        g.insert(t(1, 10, 101)); // multi-valued leg
        g.insert(t(2, 10, 100));
        g.insert(t(3, 11, 100));

        let subjects = g.pred_subjects(TermId(10)).unwrap();
        assert_eq!(subjects.cardinality(), 2);
        assert!(subjects.contains(1) && subjects.contains(2));
        assert!(g.pred_subjects(TermId(12)).is_none());

        // Removing one of subject 1's two values keeps it listed; removing
        // the last drops it.
        g.remove(&t(1, 10, 100));
        assert!(g.pred_subjects(TermId(10)).unwrap().contains(1));
        g.remove(&t(1, 10, 101));
        assert!(!g.pred_subjects(TermId(10)).unwrap().contains(1));
    }

    #[test]
    fn value_pred_registration_backfills_and_tracks() {
        let mut g = GraphStore::new();
        g.insert(t(1, 10, 100));
        g.insert(t(2, 10, 100));
        assert!(!g.has_value_pred(TermId(10)));
        assert!(g.value_subjects(TermId(10), TermId(100)).is_none());

        g.register_value_preds(&[TermId(10)]);
        assert!(g.has_value_pred(TermId(10)));
        let bm = g.value_subjects(TermId(10), TermId(100)).unwrap();
        assert!(
            bm.contains(1) && bm.contains(2),
            "backfill covers old triples"
        );

        g.insert(t(3, 10, 100));
        g.remove(&t(1, 10, 100));
        let bm = g.value_subjects(TermId(10), TermId(100)).unwrap();
        assert!(!bm.contains(1) && bm.contains(3), "incremental upkeep");

        // The registered count fast path stays exact.
        let pat = IdPattern::new(None, Some(TermId(10)), Some(TermId(100)));
        assert_eq!(g.count(pat), g.scan(pat).count());
    }

    #[test]
    fn posting_bytes_are_included_in_estimate() {
        let mut g = GraphStore::new();
        for i in 0..100u32 {
            g.insert(t(i, 1, i % 5));
        }
        let without_values = g.estimated_bytes();
        g.register_value_preds(&[TermId(1)]);
        assert!(g.posting_stats().posting_lists > 1);
        assert!(
            g.estimated_bytes() > without_values,
            "value posting lists show up in the memory estimate"
        );
    }

    #[test]
    fn bulk_load_rebuilds_posting_lists() {
        let mut g = GraphStore::new();
        g.register_value_preds(&[TermId(10)]);
        g.insert(t(9, 9, 9));
        g.bulk_load(vec![t(1, 10, 100), t(2, 10, 101)]);
        assert!(g.pred_subjects(TermId(9)).is_none(), "old lists are gone");
        assert_eq!(g.pred_subjects(TermId(10)).unwrap().cardinality(), 2);
        assert!(
            g.value_subjects(TermId(10), TermId(101))
                .unwrap()
                .contains(2),
            "registration survives the bulk load"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_triple() -> impl Strategy<Value = EncodedTriple> {
        (0u32..20, 0u32..6, 0u32..20).prop_map(|(s, p, o)| [TermId(s), TermId(p), TermId(o)])
    }

    fn arb_pattern() -> impl Strategy<Value = IdPattern> {
        (
            proptest::option::of(0u32..20),
            proptest::option::of(0u32..6),
            proptest::option::of(0u32..20),
        )
            .prop_map(|(s, p, o)| IdPattern {
                s: s.map(TermId),
                p: p.map(TermId),
                o: o.map(TermId),
            })
    }

    /// The index the module table assigns to a pattern's shape, which
    /// fixes the order a scan yields its matches in.
    fn index_of(pattern: IdPattern) -> Perm {
        match (pattern.s, pattern.p, pattern.o) {
            (_, None, Some(_)) => Perm::Osp,
            (None, Some(_), _) => Perm::Pos,
            _ => Perm::Spo,
        }
    }

    proptest! {
        /// The golden store invariant: index-dispatched scans agree with a
        /// naive filter over the full triple set, for every pattern shape.
        #[test]
        fn scan_agrees_with_naive_filter(
            triples in proptest::collection::vec(arb_triple(), 0..200),
            pattern in arb_pattern(),
        ) {
            let mut g = GraphStore::new();
            let mut reference: Vec<EncodedTriple> = Vec::new();
            for tr in &triples {
                if g.insert(*tr) {
                    reference.push(*tr);
                }
            }
            reference.sort_unstable();
            let expected: Vec<EncodedTriple> =
                reference.iter().copied().filter(|t| pattern.matches(t)).collect();
            let mut actual: Vec<EncodedTriple> = g.scan(pattern).collect();
            actual.sort_unstable();
            prop_assert_eq!(actual, expected);
            prop_assert_eq!(g.count(pattern), g.scan(pattern).count());
        }

        /// Mixed inserts and removes: the store agrees with a reference
        /// set model on contains / scan / count, across merges.
        #[test]
        fn deletes_agree_with_set_model(
            ops in proptest::collection::vec(
                (proptest::bool::weighted(0.7), arb_triple(), proptest::bool::ANY),
                0..300,
            ),
            pattern in arb_pattern(),
        ) {
            let mut g = GraphStore::new();
            // Register every predicate the generator can mint so the
            // per-value posting lists (and their count fast path) are
            // exercised across the whole mutation sequence.
            let preds: Vec<TermId> = (0u32..6).map(TermId).collect();
            g.register_value_preds(&preds);
            let mut model: std::collections::BTreeSet<EncodedTriple> =
                std::collections::BTreeSet::new();
            for (is_insert, triple, merge_after) in ops {
                if is_insert {
                    prop_assert_eq!(g.insert(triple), model.insert(triple));
                } else {
                    prop_assert_eq!(g.remove(&triple), model.remove(&triple));
                }
                if merge_after {
                    g.optimize();
                }
            }
            prop_assert_eq!(g.len(), model.len());
            let expected: Vec<EncodedTriple> =
                model.iter().copied().filter(|t| pattern.matches(t)).collect();
            // Scans yield in the dispatched index's key order (SPO/POS/OSP
            // depending on the pattern shape), so compare as sorted sets.
            let mut actual: Vec<EncodedTriple> = g.scan(pattern).collect();
            actual.sort_unstable();
            prop_assert_eq!(&actual, &expected);
            prop_assert_eq!(g.count(pattern), expected.len());

            // The posting lists stayed consistent with the model: exact
            // per-predicate triple counts and subject bitmaps.
            for &p in &preds {
                let triples: Vec<&EncodedTriple> =
                    model.iter().filter(|t| t[1] == p).collect();
                prop_assert_eq!(g.count(IdPattern::new(None, Some(p), None)), triples.len());
                let subjects: std::collections::BTreeSet<u32> =
                    triples.iter().map(|t| t[0].0).collect();
                let bitmap: std::collections::BTreeSet<u32> = g
                    .pred_subjects(p)
                    .map(|bm| bm.iter().collect())
                    .unwrap_or_default();
                prop_assert_eq!(bitmap, subjects);
            }
        }

        /// A scan cursor reads what a plain scan reads, triples and order,
        /// for all eight pattern shapes interleaved on one cursor, over a
        /// run overlaid by a pending delta and tombstones. The patterns
        /// come in generated order (prefixes going back), or sorted so
        /// each index sees ascending prefixes, and some are repeated.
        #[test]
        fn subject_cursor_agrees_with_scans(
            run in proptest::collection::vec(arb_triple(), 0..300),
            ops in proptest::collection::vec((proptest::bool::ANY, arb_triple()), 0..60),
            probes in proptest::collection::vec((arb_pattern(), 1usize..3), 0..40),
            sorted in proptest::bool::ANY,
        ) {
            let mut g = GraphStore::new();
            g.bulk_load(run);
            for (insert, triple) in ops {
                if insert {
                    g.insert(triple);
                } else {
                    g.remove(&triple);
                }
            }
            let mut patterns: Vec<IdPattern> = probes
                .into_iter()
                .flat_map(|(pattern, times)| std::iter::repeat_n(pattern, times))
                .collect();
            if sorted {
                // Sort each index's patterns among the slots they hold, so
                // shapes stay interleaved and every index sees ascending
                // prefixes.
                for perm in [Perm::Spo, Perm::Pos, Perm::Osp] {
                    let slots: Vec<usize> =
                        (0..patterns.len()).filter(|&i| index_of(patterns[i]) == perm).collect();
                    let mut mine: Vec<IdPattern> = slots.iter().map(|&i| patterns[i]).collect();
                    mine.sort_by_key(|p| {
                        let low = |v: Option<TermId>| v.unwrap_or(TermId(0));
                        perm.permute([low(p.s), low(p.p), low(p.o)])
                    });
                    for (&i, p) in slots.iter().zip(mine) {
                        patterns[i] = p;
                    }
                }
            }
            let mut cursor = g.scan_cursor();
            for pattern in patterns {
                let read: Vec<EncodedTriple> = cursor.scan(pattern).collect();
                let scan: Vec<EncodedTriple> = g.scan(pattern).collect();
                let perm = index_of(pattern);
                let mut naive: Vec<EncodedTriple> =
                    g.iter().filter(|t| pattern.matches(t)).collect();
                naive.sort_unstable_by_key(|t| perm.permute(*t));
                prop_assert_eq!(&read, &scan, "pattern {:?}", pattern);
                prop_assert_eq!(&read, &naive, "pattern {:?}", pattern);
            }
        }

        /// Bulk load and incremental insert build identical stores.
        #[test]
        fn bulk_load_equals_incremental(
            triples in proptest::collection::vec(arb_triple(), 0..200),
        ) {
            let mut incremental = GraphStore::new();
            for tr in &triples {
                incremental.insert(*tr);
            }
            let mut bulk = GraphStore::new();
            bulk.bulk_load(triples);
            prop_assert_eq!(incremental.len(), bulk.len());
            let a: Vec<EncodedTriple> = incremental.iter().collect();
            let b: Vec<EncodedTriple> = bulk.iter().collect();
            prop_assert_eq!(a, b);
        }
    }
}
