//! Permutation indexes and the per-graph store.
//!
//! Each [`PermIndex`] keeps the graph's triples in one of three sort orders
//! (SPO, POS, OSP) in three sorted slices, each shared by [`Arc`]: a large
//! *run*, a small *delta* of keys the run lacks, and *tombstones* masking
//! run keys that were removed. The open write transaction's inserts and
//! removes go to a small per-index *overlay* (key → present) instead;
//! [`GraphStore::freeze`] folds it into the delta and tombstones in one
//! linear merge, which is what a publish does before cloning
//! ([`crate::epoch::WriteTxn::prepare`]), so a published snapshot reads
//! sorted slices only. Once the delta, tombstones and overlay together
//! reach `max(64, run / 8)` entries, the graph merges them into its runs.
//! A prefix scan walks the run and delta ranges in step and skips
//! tombstones by a lockstep walk, so readers see one sorted stream. A
//! [`ScanCursor`] answers a sequence of scans, galloping forward through
//! every slice while their prefixes ascend instead of searching all of
//! them.
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
use std::collections::btree_map::{self, BTreeMap, Entry};
use std::iter::Peekable;
use std::sync::Arc;

/// A graph merges its unmerged entries (delta, tombstones and overlay)
/// into its runs once they reach `max(MERGE_MIN, run.len() / MERGE_RATIO)`.
const MERGE_MIN: usize = 64;
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

/// A sorted slice of keys, shared by every snapshot that holds it. Its
/// length sits in the pointer, so a scan learns that the slice is empty
/// without reading the shared allocation.
type Slice = Arc<[EncodedTriple]>;

/// One sort order over the graph's triples: a sorted run, a sorted delta
/// of keys the run lacks and sorted tombstones masking run keys, plus the
/// writer's overlay of changes not yet folded into them.
///
/// The three slices are behind [`Arc`]s, so cloning an index — the
/// epoch-snapshot publish path ([`crate::epoch::EpochStore`]) clones
/// every graph per batch — copies none of them, and the overlay is empty
/// by then. Mutation never writes through an `Arc`: inserts and removes
/// land in the owned overlay, and a freeze or a merge *replaces* slices
/// wholesale, so pinned snapshots keep reading the slices they captured.
#[derive(Debug, Clone)]
pub struct PermIndex {
    perm: Perm,
    /// Held as a `Vec` so that a merge or bulk load installs the vector it
    /// built without copying it.
    run: Arc<Vec<EncodedTriple>>,
    /// Sorted, disjoint from the run.
    delta: Slice,
    /// Sorted, a subset of the run.
    tombstones: Slice,
    /// Keys whose presence differs from the slices': `true` for a key the
    /// slices lack, `false` for one they hold.
    overlay: BTreeMap<EncodedTriple, bool>,
}

impl PermIndex {
    /// An empty index with the given ordering.
    pub fn new(perm: Perm) -> PermIndex {
        PermIndex {
            perm,
            run: Arc::default(),
            delta: Slice::default(),
            tombstones: Slice::default(),
            overlay: BTreeMap::new(),
        }
    }

    /// This index's ordering.
    pub fn perm(&self) -> Perm {
        self.perm
    }

    /// Insert an `(s,p,o)` triple the index does not hold. The caller (the
    /// [`GraphStore`]) checks membership first.
    fn insert(&mut self, triple: EncodedTriple) {
        match self.overlay.entry(self.perm.permute(triple)) {
            // Removed earlier in this transaction: the slices hold it.
            Entry::Occupied(removed) => {
                debug_assert!(!removed.get());
                removed.remove();
            }
            Entry::Vacant(slot) => {
                slot.insert(true);
            }
        }
    }

    /// Remove an `(s,p,o)` triple the index holds.
    fn remove(&mut self, triple: &EncodedTriple) {
        match self.overlay.entry(self.perm.permute(*triple)) {
            // Inserted earlier in this transaction: the slices lack it.
            Entry::Occupied(inserted) => {
                debug_assert!(inserted.get());
                inserted.remove();
            }
            Entry::Vacant(slot) => {
                slot.insert(false);
            }
        }
    }

    /// Membership test for an `(s,p,o)` triple.
    fn contains(&self, triple: &EncodedTriple) -> bool {
        let key = self.perm.permute(*triple);
        if let Some(&present) = self.overlay.get(&key) {
            return present;
        }
        self.delta.binary_search(&key).is_ok()
            || (self.run.binary_search(&key).is_ok()
                && self.tombstones.binary_search(&key).is_err())
    }

    /// Delta and tombstone entries plus overlay entries: what a merge
    /// would fold into the run.
    fn unmerged(&self) -> usize {
        self.delta.len() + self.tombstones.len() + self.overlay.len()
    }

    /// Fold the overlay into new delta and tombstone slices in one pass
    /// over the three, leaving the overlay empty.
    fn freeze(&mut self) {
        if self.overlay.is_empty() {
            return;
        }
        let overlay = std::mem::take(&mut self.overlay);
        let mut delta = Vec::with_capacity(self.delta.len() + overlay.len());
        let mut tombstones = Vec::with_capacity(self.tombstones.len() + overlay.len());
        let (mut d, mut t) = (0, 0);
        for (key, present) in overlay {
            d = copy_below(&self.delta, d, &key, &mut delta);
            t = copy_below(&self.tombstones, t, &key, &mut tombstones);
            if present {
                // The slices lack the key: it is a tombstoned run key or
                // new to the delta.
                if self.tombstones.get(t) == Some(&key) {
                    t += 1;
                } else {
                    delta.push(key);
                }
            } else if self.delta.get(d) == Some(&key) {
                d += 1;
            } else {
                tombstones.push(key);
            }
        }
        delta.extend_from_slice(&self.delta[d..]);
        tombstones.extend_from_slice(&self.tombstones[t..]);
        self.delta = delta.into();
        self.tombstones = tombstones.into();
    }

    /// Fold the overlay, the delta and the tombstones into a new run
    /// (one pass, copying the run in stretches between their keys).
    pub fn merge(&mut self) {
        self.freeze();
        if self.delta.is_empty() && self.tombstones.is_empty() {
            return;
        }
        let (run, delta, tombstones) = (&self.run, &self.delta, &self.tombstones);
        let mut merged = Vec::with_capacity(run.len() + delta.len() - tombstones.len());
        let (mut d, mut t, mut from) = (0, 0, 0);
        loop {
            // Delta keys are not in the run and tombstones are, so the two
            // never share a key.
            let (key, tombstone) = match (delta.get(d), tombstones.get(t)) {
                (Some(dk), Some(tk)) if tk < dk => (tk, true),
                (Some(dk), _) => (dk, false),
                (None, Some(tk)) => (tk, true),
                (None, None) => break,
            };
            from = copy_below(run, from, key, &mut merged);
            if tombstone {
                debug_assert_eq!(run.get(from), Some(key));
                from += 1;
                t += 1;
            } else {
                merged.push(*key);
                d += 1;
            }
        }
        merged.extend_from_slice(&run[from..]);
        self.run = Arc::new(merged);
        self.delta = Slice::default();
        self.tombstones = Slice::default();
    }

    /// Bulk-build from already-deduplicated triples (generator fast path).
    fn bulk_load(&mut self, triples: &[EncodedTriple]) {
        let mut keys: Vec<EncodedTriple> = triples.iter().map(|t| self.perm.permute(*t)).collect();
        keys.sort_unstable();
        *self = PermIndex {
            run: Arc::new(keys),
            ..PermIndex::new(self.perm)
        };
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
        self.seek_prefix(prefix, &mut Seek::default())
    }

    /// [`PermIndex::scan_prefix`] that resumes from `seek`, the high key
    /// bound of the last prefix read here and the position just past it in
    /// each slice. A prefix sorting after that bound gallops forward from
    /// the positions; any other prefix binary-searches each whole slice.
    /// Either way `seek` is left just past `prefix`.
    fn seek_prefix<'s>(&'s self, prefix: &[TermId], seek: &mut Seek) -> PrefixScan<'s> {
        debug_assert!(prefix.len() <= 3);
        let (low, high) = Self::prefix_bounds(prefix);
        let resume = seek.last.is_some_and(|last| low > last);
        let [run, delta, tombstones] = &mut seek.ends;
        let run = seek_slice(&self.run, resume, low, high, run);
        // A merged index has neither, and skips both with one branch.
        let (delta, tombstones) = if self.delta.is_empty() && self.tombstones.is_empty() {
            (&[][..], &[][..])
        } else {
            (
                seek_slice(&self.delta, resume, low, high, delta),
                seek_slice(&self.tombstones, resume, low, high, tombstones),
            )
        };
        let slices = Slices {
            run,
            delta,
            tombstones,
        };
        seek.last = Some(high);
        PrefixScan {
            perm: self.perm,
            slices,
            overlay: if self.overlay.is_empty() {
                None
            } else {
                Overlaid::over(self.overlay.range(low..=high))
            },
        }
    }

    /// Number of triples whose key starts with `prefix` (without yielding).
    pub fn count_prefix(&self, prefix: &[TermId]) -> usize {
        let (low, high) = Self::prefix_bounds(prefix);
        let within = |slice: &[EncodedTriple]| {
            slice.partition_point(|k| *k <= high) - slice.partition_point(|k| *k < low)
        };
        // Tombstones are run keys, and every overlay removal is a key the
        // slices hold, so neither subtraction can underflow.
        let slices = within(&self.run) + within(&self.delta) - within(&self.tombstones);
        self.overlay.range(low..=high).fold(
            slices,
            |n, (_, &present)| if present { n + 1 } else { n - 1 },
        )
    }

    /// Heap footprint estimate: 12 bytes per run, delta and tombstone
    /// entry, ~48 per overlay entry (B-tree node overhead).
    pub fn estimated_bytes(&self) -> usize {
        (self.run.len() + self.delta.len() + self.tombstones.len()) * 12 + self.overlay.len() * 48
    }
}

/// The range of `slice` between `low` and `high`, galloping forward from
/// `pos` when `resume` is set and binary-searching the whole slice
/// otherwise; `pos` is left just past the range.
#[inline]
fn seek_slice<'s>(
    slice: &'s [EncodedTriple],
    resume: bool,
    low: EncodedTriple,
    high: EncodedTriple,
    pos: &mut usize,
) -> &'s [EncodedTriple] {
    let start = if resume {
        gallop(slice, *pos, |k| *k < low)
    } else {
        slice.partition_point(|k| *k < low)
    };
    *pos = gallop(slice, start, |k| *k <= high);
    &slice[start..*pos]
}

/// Copy the keys of `slice` from `from` up to the first one not below
/// `key` into `out`, galloping to it; returns that key's position.
fn copy_below(
    slice: &[EncodedTriple],
    from: usize,
    key: &EncodedTriple,
    out: &mut Vec<EncodedTriple>,
) -> usize {
    let end = gallop(slice, from, |k| k < key);
    out.extend_from_slice(&slice[from..end]);
    end
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

/// One prefix's ranges of the three slices of a [`PermIndex`].
struct Slices<'a> {
    run: &'a [EncodedTriple],
    delta: &'a [EncodedTriple],
    tombstones: &'a [EncodedTriple],
}

impl Iterator for Slices<'_> {
    type Item = EncodedTriple;

    /// The run and delta ranges merged in key order, tombstoned run keys
    /// skipped as the walk meets them.
    #[inline]
    fn next(&mut self) -> Option<EncodedTriple> {
        loop {
            let key = match (self.run.split_first(), self.delta.split_first()) {
                (Some((&r, rest)), Some((&d, _))) if r < d => {
                    self.run = rest;
                    r
                }
                (_, Some((&d, rest))) => {
                    self.delta = rest;
                    d
                }
                (Some((&r, rest)), None) => {
                    self.run = rest;
                    r
                }
                (None, None) => return None,
            };
            match self.tombstones.split_first() {
                Some((&t, rest)) if t == key => self.tombstones = rest,
                _ => return Some(key),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // The tombstones left are all run keys still ahead.
        let left = self.run.len() + self.delta.len() - self.tombstones.len();
        (left, Some(left))
    }
}

/// One prefix scan: the index's slices, overlaid by the writer's pending
/// changes when there are any.
pub struct PrefixScan<'a> {
    perm: Perm,
    slices: Slices<'a>,
    /// `None` when the overlay holds nothing in the scan's range, as on
    /// every published snapshot. Boxed to keep the snapshot's scans small.
    overlay: Option<Box<Overlaid<'a>>>,
}

/// The writer's overlay over one prefix scan.
struct Overlaid<'a> {
    range: Peekable<btree_map::Range<'a, EncodedTriple, bool>>,
    /// The slices' next key, peeked while merging in the overlay.
    slice_next: Option<EncodedTriple>,
}

impl<'a> Overlaid<'a> {
    /// The overlay's entries in one scan's range, if there are any.
    fn over(range: btree_map::Range<'a, EncodedTriple, bool>) -> Option<Box<Overlaid<'a>>> {
        let mut range = range.peekable();
        range.peek()?;
        Some(Box::new(Overlaid {
            range,
            slice_next: None,
        }))
    }

    /// The next key of `slices` with the overlay applied: its insertions
    /// merged in, its removals skipped. Out of line, so that
    /// [`PrefixScan::next`] stays small enough to inline into readers.
    #[inline(never)]
    fn next(&mut self, slices: &mut Slices<'a>) -> Option<EncodedTriple> {
        loop {
            if self.slice_next.is_none() {
                self.slice_next = slices.next();
            }
            match (self.slice_next, self.range.peek()) {
                (slice_key, Some(&(&key, &present))) if slice_key.is_none_or(|s| key <= s) => {
                    self.range.next();
                    if slice_key == Some(key) {
                        self.slice_next = None;
                    }
                    if present {
                        return Some(key);
                    }
                }
                (slice_key, _) => {
                    self.slice_next = None;
                    return slice_key;
                }
            }
        }
    }
}

impl Iterator for PrefixScan<'_> {
    type Item = EncodedTriple;

    // Inlinable, like `Slices::next`, so that readers in other crates
    // (the evaluator's joins) step through a snapshot's slices without a
    // call per key.
    #[inline]
    fn next(&mut self) -> Option<EncodedTriple> {
        let key = match &mut self.overlay {
            None => self.slices.next(),
            Some(overlay) => overlay.next(&mut self.slices),
        };
        key.map(|k| self.perm.invert(k))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.overlay {
            None => self.slices.size_hint(),
            Some(_) => (0, None),
        }
    }
}

/// Where a [`ScanCursor`] left one permutation index: the high key bound
/// of the last prefix read and, in the run, delta and tombstone slices,
/// the position just past it.
#[derive(Clone, Copy, Default)]
struct Seek {
    last: Option<EncodedTriple>,
    ends: [usize; 3],
}

/// A cursor that answers [`GraphStore::scan`] for a sequence of patterns,
/// remembering per permutation index where the last scan ended in each of
/// its slices. Patterns whose index prefixes come in ascending order — the
/// subjects of a join leg probed in subject order, say — gallop every
/// slice forward from there, so a run of probes costs about one forward
/// pass over the index instead of one binary search of the whole index
/// each. A prefix not after the last one on its index is answered by a
/// fresh binary search, as by [`GraphStore::scan`]. Every scan yields what
/// `scan` yields, in the same order.
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
        self.merge_if_due();
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
        self.merge_if_due();
        true
    }

    /// Merge the indexes once their unmerged entries reach the threshold.
    /// The three indexes take every mutation and merge together, so one
    /// of them decides for all.
    fn merge_if_due(&mut self) {
        if self.spo.unmerged() >= MERGE_MIN.max(self.spo.run.len() / MERGE_RATIO) {
            self.optimize();
        }
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

    /// Fold the writer's overlay into the indexes' delta and tombstone
    /// slices, so that a clone shares every slice and its scans read
    /// slices only. A graph without pending writes is left as it is.
    pub fn freeze(&mut self) {
        self.spo.freeze();
        self.pos.freeze();
        self.osp.freeze();
    }

    /// Triples in the delta and tombstone slices (each index holds the
    /// same number): the unmerged part a published snapshot reads.
    pub fn unmerged_entries(&self) -> usize {
        self.spo.delta.len() + self.spo.tombstones.len()
    }

    /// Pending writes in the overlay, not yet folded by
    /// [`GraphStore::freeze`].
    pub fn overlay_entries(&self) -> usize {
        self.spo.overlay.len()
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
            spo: Seek::default(),
            pos: Seek::default(),
            osp: Seek::default(),
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
    fn freeze_folds_the_overlay_into_shared_slices() {
        let mut g = GraphStore::new();
        g.bulk_load((0..200u32).map(|i| t(i, i % 3, i % 7)).collect());
        for i in 0..20u32 {
            g.remove(&t(i, i % 3, i % 7));
            g.insert(t(1000 + i, 1, 1));
        }
        // Re-insert a tombstoned key and remove a delta key, both in the
        // overlay over frozen slices.
        g.freeze();
        g.insert(t(0, 0, 0));
        g.remove(&t(1000, 1, 1));
        let before: Vec<EncodedTriple> = g.iter().collect();
        assert_eq!(g.overlay_entries(), 2);
        assert_eq!(g.unmerged_entries(), 40);

        g.freeze();
        assert_eq!(g.overlay_entries(), 0);
        assert_eq!(
            g.unmerged_entries(),
            38,
            "each overlay entry cancels a slice entry"
        );
        assert_eq!(g.iter().collect::<Vec<_>>(), before);
        assert_eq!(g.count(IdPattern::ANY), before.len());

        let snapshot = g.clone();
        for (a, b) in [(&g.spo, &snapshot.spo), (&g.pos, &snapshot.pos)] {
            assert!(Arc::ptr_eq(&a.run, &b.run));
            assert!(Arc::ptr_eq(&a.delta, &b.delta));
            assert!(Arc::ptr_eq(&a.tombstones, &b.tombstones));
        }
        // The writer's next change leaves the snapshot's slices as they are.
        g.insert(t(5000, 0, 0));
        g.freeze();
        assert!(!snapshot.contains(&t(5000, 0, 0)));
        assert_eq!(snapshot.iter().collect::<Vec<_>>(), before);
    }

    /// Removes with no inserts reach the merge threshold too: tombstones
    /// never outgrow `max(MERGE_MIN, run / MERGE_RATIO)`, publish after
    /// publish, and the merges shrink the run.
    #[test]
    fn delete_only_streams_merge() {
        let mut g = GraphStore::new();
        g.bulk_load((0..4000u32).map(|i| t(i, i % 5, i % 11)).collect());
        for i in 0..4000u32 {
            assert!(g.remove(&t(i, i % 5, i % 11)));
            if i % 16 == 15 {
                g.freeze();
            }
            let bound = MERGE_MIN.max(g.spo.run.len() / MERGE_RATIO);
            assert!(
                g.unmerged_entries() + g.overlay_entries() < bound,
                "after {} removes: {} tombstones over a run of {}",
                i + 1,
                g.unmerged_entries(),
                g.spo.run.len()
            );
        }
        assert!(g.is_empty());
        assert!(
            g.spo.run.len() < MERGE_MIN,
            "merges dropped the removed keys"
        );
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
        /// set model on contains / scan / count, across freezes (as a
        /// publish makes), forced merges and the merges the threshold
        /// triggers, both with pending writes in the overlay and with all
        /// of them frozen into slices.
        #[test]
        fn deletes_agree_with_set_model(
            ops in proptest::collection::vec(
                (proptest::bool::weighted(0.7), arb_triple(), 0u8..10),
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
            for (is_insert, triple, step) in ops {
                if is_insert {
                    prop_assert_eq!(g.insert(triple), model.insert(triple));
                } else {
                    prop_assert_eq!(g.remove(&triple), model.remove(&triple));
                }
                match step {
                    0 => g.optimize(),
                    1 | 2 => g.freeze(),
                    _ => {}
                }
            }
            prop_assert_eq!(g.len(), model.len());
            let expected: Vec<EncodedTriple> =
                model.iter().copied().filter(|t| pattern.matches(t)).collect();
            let mut frozen = g.clone();
            frozen.freeze();
            prop_assert_eq!(frozen.overlay_entries(), 0);
            for store in [&g, &frozen] {
                // Scans yield in the dispatched index's key order
                // (SPO/POS/OSP depending on the pattern shape), so compare
                // as sorted sets.
                let mut actual: Vec<EncodedTriple> = store.scan(pattern).collect();
                actual.sort_unstable();
                prop_assert_eq!(&actual, &expected);
                prop_assert_eq!(store.count(pattern), expected.len());
                for t in &model {
                    prop_assert!(store.contains(t));
                }
            }

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

        /// A scan cursor reads what a plain scan reads and what a set
        /// model holds, triples and order, for all eight pattern shapes
        /// interleaved on one cursor. The store is a run overlaid by
        /// removes and inserts, frozen into delta and tombstone slices at
        /// one point and left in the overlay after it (a merge may fire in
        /// between); the same store fully frozen is read too. The patterns
        /// come in generated order (prefixes going back), or sorted so
        /// each index sees ascending prefixes, and some are repeated, so
        /// the cursor's positions in every slice are exercised.
        #[test]
        fn subject_cursor_agrees_with_scans(
            run in proptest::collection::vec(arb_triple(), 0..300),
            ops in proptest::collection::vec(
                (proptest::bool::ANY, arb_triple(), 0usize..1000),
                0..100,
            ),
            freeze_at in 0usize..100,
            probes in proptest::collection::vec((arb_pattern(), 1usize..3), 0..40),
            sorted in proptest::bool::ANY,
        ) {
            let mut g = GraphStore::new();
            g.bulk_load(run.clone());
            let mut model: std::collections::BTreeSet<EncodedTriple> = run.into_iter().collect();
            for (i, (insert, triple, pick)) in ops.into_iter().enumerate() {
                if i == freeze_at {
                    g.freeze();
                }
                if insert {
                    prop_assert_eq!(g.insert(triple), model.insert(triple));
                } else if let Some(&victim) = model.iter().nth(pick % model.len().max(1)) {
                    prop_assert!(g.remove(&victim));
                    model.remove(&victim);
                }
            }
            let mut frozen = g.clone();
            frozen.freeze();
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
            for store in [&g, &frozen] {
                let mut cursor = store.scan_cursor();
                for &pattern in &patterns {
                    let read: Vec<EncodedTriple> = cursor.scan(pattern).collect();
                    let scan: Vec<EncodedTriple> = store.scan(pattern).collect();
                    let perm = index_of(pattern);
                    let mut naive: Vec<EncodedTriple> =
                        model.iter().copied().filter(|t| pattern.matches(t)).collect();
                    naive.sort_unstable_by_key(|t| perm.permute(*t));
                    prop_assert_eq!(&read, &scan, "pattern {:?}", pattern);
                    prop_assert_eq!(&read, &naive, "pattern {:?}", pattern);
                    prop_assert_eq!(store.count(pattern), naive.len());
                }
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
