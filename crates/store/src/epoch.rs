//! Epoch snapshots: overlap maintenance and query serving.
//!
//! The single-writer [`crate::Dataset`] stalls every reader for the length
//! of a maintenance batch. The [`EpochStore`] removes that stall with the
//! classic epoch-snapshot discipline:
//!
//! * **pin** — readers call [`EpochStore::pin`] and get an immutable
//!   [`Snapshot`] (an `Arc`): the full dataset — indexes *and*
//!   materialized view graphs — exactly as of one published epoch.
//!   Pinning is a read-lock acquire plus an `Arc` clone; it never waits
//!   for a writer's batch, only for the (nanosecond-scale) pointer swap
//!   of a publish.
//! * **publish** — the single writer mutates its private master dataset
//!   inside a [`WriteTxn`] and then publishes: the master's pending index
//!   writes are frozen into sorted slices ([`crate::Dataset::freeze`]),
//!   then the master is cloned into a fresh snapshot (cheap — every index
//!   slice and the dictionary are `Arc`-shared, see
//!   [`crate::index::PermIndex`] and [`crate::Dataset`]) and swapped in
//!   atomically. A snapshot therefore scans sorted slices only, never a
//!   B-tree. Readers pinned to older epochs are undisturbed; new pins see
//!   the new epoch.
//! * **retire** — when the last reader of an old snapshot drops its
//!   `Arc`, the snapshot's memory is released and the store's retired
//!   counter ticks. Nothing is ever freed under a reader, and a publish
//!   frees the snapshot it supersedes only after releasing the lock that
//!   [`EpochStore::pin`] takes.
//!
//! Consistency guarantee (property-tested in `tests/epoch_concurrency.rs`):
//! because the writer is serialized and snapshots are complete immutable
//! values, every pinned snapshot equals the state after some *prefix* of
//! the committed transactions — readers never observe a half-applied
//! batch.

use crate::dataset::Dataset;
use crate::delta::{ChangeSet, Delta};
use crate::persist::Persister;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// One published epoch: an immutable dataset plus epoch bookkeeping.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    dataset: Dataset,
    /// Set at publish time. A prepared-but-never-published snapshot (the
    /// rollback path) must not count toward the retire accounting.
    published: std::sync::atomic::AtomicBool,
    retired: Arc<AtomicU64>,
}

impl Snapshot {
    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The immutable dataset as of this epoch. Evaluate queries against
    /// it exactly as against a live [`Dataset`].
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        // The last reader just left this epoch: it is now retired.
        // Never-published snapshots (aborted prepares) don't count —
        // they were never part of the published/retired ledger.
        if *self.published.get_mut() {
            self.retired.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A pinned snapshot: clone-cheap, releases its epoch on the last drop.
pub type PinnedSnapshot = Arc<Snapshot>;

/// The concurrent store: one writer, any number of snapshot readers.
#[derive(Debug)]
pub struct EpochStore {
    /// The currently-published snapshot; replaced wholesale on publish.
    current: RwLock<PinnedSnapshot>,
    /// The writer's master dataset — the mutable truth. The mutex also
    /// serializes writers (the store is single-writer by design).
    master: Mutex<Dataset>,
    /// The epoch of the latest publish.
    epoch: AtomicU64,
    /// Snapshots published so far (including the initial one).
    published: AtomicU64,
    /// Snapshots whose last reader has dropped.
    retired: Arc<AtomicU64>,
    /// Durable side, when the store runs with a data directory. Publishes
    /// append + fsync a log record *before* the pointer swap, so the log
    /// always covers every state a reader could have observed.
    persist: Option<Arc<Persister>>,
}

impl EpochStore {
    /// Wrap a dataset, publishing it as epoch 0.
    pub fn new(dataset: Dataset) -> EpochStore {
        EpochStore::build(dataset, 0, None)
    }

    /// Wrap a *recovered* dataset: the initial snapshot publishes at the
    /// recovered epoch (not 0) and every subsequent publish is durably
    /// logged through `persister`. The caller must already have written a
    /// baseline snapshot covering `dataset`'s dictionary (see
    /// [`Persister::baseline`]).
    pub fn recovered(dataset: Dataset, epoch: u64, persister: Arc<Persister>) -> EpochStore {
        EpochStore::build(dataset, epoch, Some(persister))
    }

    fn build(mut dataset: Dataset, epoch: u64, persist: Option<Arc<Persister>>) -> EpochStore {
        dataset.freeze();
        let retired = Arc::new(AtomicU64::new(0));
        let snapshot = Arc::new(Snapshot {
            epoch,
            dataset: dataset.clone(),
            published: std::sync::atomic::AtomicBool::new(true),
            retired: Arc::clone(&retired),
        });
        EpochStore {
            current: RwLock::new(snapshot),
            master: Mutex::new(dataset),
            epoch: AtomicU64::new(epoch),
            published: AtomicU64::new(1),
            retired,
            persist,
        }
    }

    /// The durable side, when this store has one.
    pub fn persister(&self) -> Option<&Arc<Persister>> {
        self.persist.as_ref()
    }

    /// Pin the current epoch. The returned snapshot is immutable and
    /// remains valid (and allocated) until the last clone drops.
    pub fn pin(&self) -> PinnedSnapshot {
        Arc::clone(&self.current.read().expect("epoch lock poisoned"))
    }

    /// The latest published epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Snapshots published so far (including the initial epoch 0).
    pub fn published_snapshots(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Old snapshots fully released by their readers.
    pub fn retired_snapshots(&self) -> u64 {
        self.retired.load(Ordering::Relaxed)
    }

    /// Snapshots still alive (pinned by a reader, or current).
    pub fn live_snapshots(&self) -> u64 {
        self.published_snapshots() - self.retired_snapshots()
    }

    /// Begin a write transaction: exclusive access to the master dataset.
    /// Nothing becomes visible to readers until [`WriteTxn::publish`];
    /// dropping the transaction without publishing keeps the previous
    /// epoch current (see `WriteTxn` docs for the rollback contract).
    pub fn begin(&self) -> WriteTxn<'_> {
        WriteTxn {
            guard: self.master.lock().expect("writer lock poisoned"),
            store: self,
            // Accumulate net changes only when a publish must log them —
            // `Durability::None` pays nothing on the write path.
            changes: self.persist.is_some().then(ChangeSet::default),
        }
    }

    /// Convenience: apply one delta transactionally and publish. Returns
    /// the net changes and the new epoch.
    pub fn apply(&self, delta: Delta) -> (ChangeSet, u64) {
        let mut txn = self.begin();
        let changes = txn.dataset().apply(delta);
        txn.touch_changes(&changes);
        let epoch = txn.publish();
        (changes, epoch)
    }
}

/// An open write transaction on an [`EpochStore`].
///
/// Mutations go to the writer's master dataset and are invisible to
/// readers until [`WriteTxn::publish`] swaps in a new snapshot. Any
/// number of deltas can be applied before that publish — each reported
/// through [`WriteTxn::touch_changes`] — and readers never observe a
/// state between two of them: one master clone and one pointer swap pay
/// for the whole batch. Dropping the transaction without publishing is
/// the rollback path: readers keep the previous epoch forever-unaware,
/// but the *master* retains whatever was mutated — a caller aborting
/// mid-transaction must first undo its partial writes (e.g. drop
/// half-materialized view graphs) so the master stays logically equal to
/// the published state. Interned dictionary terms are exempt: the
/// dictionary is append-only and ghost terms are invisible to every read
/// path.
pub struct WriteTxn<'a> {
    guard: MutexGuard<'a, Dataset>,
    store: &'a EpochStore,
    /// Net base changes accumulated for the epoch log; `Some` only when
    /// the store is durable. Every caller routes its change sets through
    /// [`WriteTxn::touch_changes`], which is what feeds this.
    changes: Option<ChangeSet>,
}

impl<'a> WriteTxn<'a> {
    /// The master dataset (mutable).
    pub fn dataset(&mut self) -> &mut Dataset {
        &mut self.guard
    }

    /// Report a base change set applied inside this transaction. On a
    /// durable store this accumulates the changes the publish will log;
    /// on an in-memory store it is a no-op.
    pub fn touch_changes(&mut self, changes: &ChangeSet) {
        if let Some(accumulated) = &mut self.changes {
            accumulated.absorb(changes);
        }
    }

    /// Publish the master as the next epoch and return its number.
    ///
    /// Equivalent to `self.prepare().publish()`. Callers holding a
    /// latency-sensitive lock of their own should [`WriteTxn::prepare`]
    /// first — the snapshot clone happens there — and swap inside their
    /// critical section with the (pointer-swap-cheap) publish.
    pub fn publish(self) -> u64 {
        self.prepare().publish()
    }

    /// Build the next epoch's snapshot — the expensive part of a publish
    /// (freezing the master's pending index writes, then cloning it) —
    /// without making it visible yet. The returned [`PreparedTxn`] still
    /// holds the writer lock; its `publish` is a pointer swap.
    pub fn prepare(mut self) -> PreparedTxn<'a> {
        self.guard.freeze();
        let epoch = self.store.epoch.load(Ordering::Acquire) + 1;
        let snapshot = Arc::new(Snapshot {
            epoch,
            dataset: self.guard.clone(),
            published: std::sync::atomic::AtomicBool::new(false),
            retired: Arc::clone(&self.store.retired),
        });
        PreparedTxn {
            guard: self.guard,
            store: self.store,
            snapshot,
            epoch,
            changes: self.changes,
        }
    }
}

/// A write transaction whose next-epoch snapshot is fully built: all that
/// remains is the atomic pointer swap. Dropping without publishing keeps
/// the previous epoch current (same rollback contract as [`WriteTxn`]).
pub struct PreparedTxn<'a> {
    /// Held (not read) until publish so the store stays single-writer
    /// across prepare → publish.
    guard: MutexGuard<'a, Dataset>,
    store: &'a EpochStore,
    snapshot: Arc<Snapshot>,
    epoch: u64,
    /// Net base changes to log at publish (durable stores only).
    changes: Option<ChangeSet>,
}

impl PreparedTxn<'_> {
    /// The epoch number this publish will install.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Swap the prepared snapshot in (O(1); safe inside caller-held
    /// latency-sensitive critical sections).
    ///
    /// On a durable store the epoch-log record is appended and fsync'd
    /// *before* the swap — the write-ahead half of the recovery
    /// guarantee. A log I/O failure panics rather than publishing: the
    /// caller is about to acknowledge this batch, and acknowledging a
    /// write the log cannot cover would silently break the durability
    /// contract.
    pub fn publish(self) -> u64 {
        self.publish_with_catalog(None)
    }

    /// [`PreparedTxn::publish`], also recording a view-catalog change in
    /// the same log record (`None` carries the previous catalog forward).
    pub fn publish_with_catalog(self, catalog: Option<&[(u64, u64)]>) -> u64 {
        let mut snapshot_due = false;
        if let Some(persister) = &self.store.persist {
            let changes = self.changes.clone().unwrap_or_default();
            match persister.log_publish(self.epoch, self.guard.dict(), &changes, catalog) {
                Ok(due) => snapshot_due = due,
                Err(e) => panic!(
                    "durability failure: epoch {} cannot be logged, refusing to publish: {e}",
                    self.epoch
                ),
            }
        }
        let published = Arc::clone(&self.snapshot);
        self.snapshot
            .published
            .store(true, std::sync::atomic::Ordering::Release);
        let superseded = {
            let mut current = self.store.current.write().expect("epoch lock poisoned");
            std::mem::replace(&mut *current, self.snapshot)
        };
        self.store.epoch.store(self.epoch, Ordering::Release);
        self.store.published.fetch_add(1, Ordering::Relaxed);
        // Released outside the `current` lock: when no reader pins the
        // old epoch this frees its whole dataset, and `pin` must not wait
        // for that.
        drop(superseded);
        if snapshot_due {
            if let Some(persister) = &self.store.persist {
                // Snapshot from the just-published immutable clone, still
                // under the writer lock (`self.guard` lives to the end of
                // this call) so no later batch can be half-visible in it.
                // Failure is non-fatal: the log still covers everything,
                // recovery just replays a longer tail.
                if let Err(e) = persister.snapshot(published.dataset(), self.epoch) {
                    eprintln!("sofos-store: snapshot at epoch {} failed: {e}", self.epoch);
                }
            }
        }
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofos_rdf::Term;

    fn term(s: &str) -> Term {
        Term::iri(format!("http://e/{s}"))
    }

    fn delta_inserting(names: &[&str]) -> Delta {
        let mut delta = Delta::new();
        for n in names {
            delta.insert(term(n), term("p"), term("o"));
        }
        delta
    }

    #[test]
    fn pin_sees_published_state_only() {
        let store = EpochStore::new(Dataset::new());
        let before = store.pin();
        assert_eq!(before.epoch(), 0);
        assert!(before.dataset().default_graph().is_empty());

        let (changes, epoch) = store.apply(delta_inserting(&["s1"]));
        assert_eq!(epoch, 1);
        assert_eq!(changes.default_graph.inserted.len(), 1);

        // The old pin is frozen; a new pin sees the write.
        assert!(before.dataset().default_graph().is_empty());
        let after = store.pin();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.dataset().default_graph().len(), 1);
    }

    #[test]
    fn unpublished_transactions_stay_invisible() {
        let store = EpochStore::new(Dataset::new());
        {
            let mut txn = store.begin();
            txn.dataset()
                .insert(None, &term("s"), &term("p"), &term("o"));
            // Dropped without publish.
        }
        assert_eq!(store.epoch(), 0);
        assert!(store.pin().dataset().default_graph().is_empty());
        // The master retains the write: the next publish exposes it. This
        // is the documented contract — rollbacks must undo their writes.
        store.begin().publish();
        assert_eq!(store.pin().dataset().default_graph().len(), 1);
    }

    #[test]
    fn aborted_prepares_do_not_corrupt_retire_accounting() {
        let store = EpochStore::new(Dataset::new());
        {
            let txn = store.begin();
            let prepared = txn.prepare();
            assert_eq!(prepared.epoch(), 1);
            // Dropped without publish: the built snapshot dies unseen.
        }
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.published_snapshots(), 1);
        assert_eq!(store.retired_snapshots(), 0, "aborts are not retirements");
        assert_eq!(store.live_snapshots(), 1);
        // Epochs only advance on publish: the next real one takes the
        // number the abort prepared but never consumed.
        let (_, epoch) = store.apply(delta_inserting(&["a"]));
        assert_eq!(epoch, 1);
        assert_eq!(store.live_snapshots(), 1, "epoch 0 retired cleanly");
    }

    #[test]
    fn snapshots_retire_when_last_reader_drops() {
        let store = EpochStore::new(Dataset::new());
        let pinned = store.pin();
        store.apply(delta_inserting(&["x"]));
        // Epoch 0 is still pinned; epoch 1 is current.
        assert_eq!(store.published_snapshots(), 2);
        assert_eq!(store.retired_snapshots(), 0);
        assert_eq!(store.live_snapshots(), 2);
        drop(pinned);
        assert_eq!(store.retired_snapshots(), 1);
        assert_eq!(store.live_snapshots(), 1);
    }

    #[test]
    fn batch_txn_coalesces_deltas_into_one_epoch() {
        let store = EpochStore::new(Dataset::new());
        let reader = store.pin();
        let mut txn = store.begin();
        for i in 0..5 {
            let changes = txn.dataset().apply(delta_inserting(&[&format!("s{i}")]));
            txn.touch_changes(&changes);
        }
        // Nothing visible until the single publish.
        assert_eq!(store.epoch(), 0);
        assert!(store.pin().dataset().default_graph().is_empty());
        let epoch = txn.publish();
        assert_eq!(epoch, 1, "five deltas, one epoch");
        assert_eq!(store.pin().dataset().default_graph().len(), 5);
        assert_eq!(store.published_snapshots(), 2);
        // The pre-batch pin never saw an intermediate state.
        assert!(reader.dataset().default_graph().is_empty());
    }

    #[test]
    fn batch_publish_shares_untouched_graph_chunks() {
        // The chunked-CoW named-graph map keeps snapshot clones O(1) in
        // the graph count: a batch that touches no named graph leaves
        // every chunk shared with the previous epoch.
        let mut dataset = Dataset::new();
        for i in 0..10 {
            let name = dataset.intern_iri(&format!("http://e/g{i}"));
            dataset.insert(Some(name), &term("s"), &term("p"), &term("o"));
        }
        let store = EpochStore::new(dataset);
        let before = store.pin();
        store.apply(delta_inserting(&["only-default-graph"]));
        let after = store.pin();
        let map_before = before.dataset().named_graphs();
        let map_after = after.dataset().named_graphs();
        assert_eq!(map_after.len(), 10);
        assert_eq!(
            map_before.shared_chunks(map_after),
            map_after.chunk_count(),
            "a default-graph-only epoch re-clones no named graph"
        );

        // A write to one named graph detaches its chunk alone: the publish
        // freezes that graph and leaves every other chunk shared.
        let mut txn = store.begin();
        let g0 = txn.dataset().intern_iri("http://e/g0");
        txn.dataset()
            .insert(Some(g0), &term("s2"), &term("p"), &term("o"));
        txn.publish();
        let last = store.pin();
        assert_eq!(
            map_after.shared_chunks(last.dataset().named_graphs()),
            map_after.chunk_count() - 1
        );
        assert_eq!(last.dataset().overlay_entries(), 0);
        assert_eq!(
            last.dataset().unmerged_entries(),
            12,
            "one pending triple per graph, two in g0"
        );
    }

    #[test]
    fn concurrent_readers_never_block_on_a_writer() {
        // Readers pin and scan while a writer publishes many epochs; every
        // observed triple count must equal some batch prefix (0..=N).
        let store = std::sync::Arc::new(EpochStore::new(Dataset::new()));
        let batches = 50usize;
        std::thread::scope(|scope| {
            let reader_store = std::sync::Arc::clone(&store);
            let reader = scope.spawn(move || {
                let mut last = 0usize;
                for _ in 0..200 {
                    let snap = reader_store.pin();
                    let len = snap.dataset().default_graph().len();
                    assert!(len >= last, "epochs are monotonic");
                    assert!(len <= batches, "never more than all batches");
                    last = len;
                }
            });
            for i in 0..batches {
                store.apply(delta_inserting(&[&format!("s{i}")]));
            }
            reader.join().expect("reader ran clean");
        });
        assert_eq!(store.epoch(), batches as u64);
        assert_eq!(store.pin().dataset().default_graph().len(), batches);
    }
}
