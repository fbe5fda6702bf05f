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
//!   inside a [`WriteTxn`] and then publishes in three steps.
//!   [`WriteTxn::prepare`] freezes the master's pending index writes into
//!   sorted slices ([`crate::Dataset::freeze`]) and clones the master into
//!   the next snapshot (cheap — every index slice and the dictionary are
//!   `Arc`-shared, see [`crate::index::PermIndex`] and [`crate::Dataset`]),
//!   so a snapshot scans sorted slices only, never a B-tree.
//!   [`PreparedTxn::log`] appends and fsyncs the epoch-log record on a
//!   durable store. [`LoggedTxn::publish`] swaps the snapshot in: no I/O,
//!   no free. Readers pinned to older epochs are undisturbed; new pins
//!   see the new epoch.
//! * **retire** — a publish puts the superseded snapshot on the store's
//!   reclaim list instead of dropping it. A snapshot on the list that no
//!   reader pins any more is *retired* ([`EpochStore::retired_snapshots`])
//!   the moment its last reader lets go, but its memory is released only
//!   by the writer: [`PublishedTxn`]'s reclaim step (after the caller's
//!   own locks are gone, still under the writer lock) writes a cadence
//!   snapshot when one is due and then frees every listed snapshot no
//!   reader holds. A reader therefore never runs a snapshot's destructor
//!   — one that owns a whole dictionary copy can take tens of
//!   milliseconds to free — and the memory held back is the snapshots
//!   still pinned at the last publish plus those released since.
//!
//! Consistency guarantee (property-tested in `tests/epoch_concurrency.rs`):
//! because the writer is serialized and snapshots are complete immutable
//! values, every pinned snapshot equals the state after some *prefix* of
//! the committed transactions — readers never observe a half-applied
//! batch.

use crate::dataset::Dataset;
use crate::delta::{ChangeSet, Delta};
use crate::persist::{PersistError, Persister};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// One published epoch: an immutable dataset plus its epoch number.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    dataset: Dataset,
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

/// A pinned snapshot: clone-cheap, keeps its epoch alive while held.
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
    /// Superseded snapshots the writer has not freed yet: pushed and
    /// swept by the reclaim step only, read by the lifecycle accessors.
    reclaim: Mutex<Vec<PinnedSnapshot>>,
    /// Superseded snapshots the reclaim step has freed.
    freed: AtomicU64,
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
        let snapshot = Arc::new(Snapshot {
            epoch,
            dataset: dataset.clone(),
        });
        EpochStore {
            current: RwLock::new(snapshot),
            master: Mutex::new(dataset),
            epoch: AtomicU64::new(epoch),
            published: AtomicU64::new(1),
            reclaim: Mutex::new(Vec::new()),
            freed: AtomicU64::new(0),
            persist,
        }
    }

    /// The durable side, when this store has one.
    pub fn persister(&self) -> Option<&Arc<Persister>> {
        self.persist.as_ref()
    }

    /// Pin the current epoch. The returned snapshot is immutable and
    /// remains valid (and allocated) until the last clone drops and the
    /// writer's next reclaim step frees it.
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

    /// Superseded snapshots no reader holds any more: freed by the
    /// writer, or on the reclaim list with no pin left.
    pub fn retired_snapshots(&self) -> u64 {
        let list = self.reclaim.lock().expect("reclaim list poisoned");
        let unpinned = list.iter().filter(|s| Arc::strong_count(s) == 1).count();
        self.freed.load(Ordering::Relaxed) + unpinned as u64
    }

    /// Snapshots still alive (pinned by a reader, or current).
    pub fn live_snapshots(&self) -> u64 {
        // Retired first: `published` only grows, and it counts the
        // current snapshot, so the difference never underflows.
        let retired = self.retired_snapshots();
        self.published_snapshots() - retired
    }

    /// Superseded snapshots still allocated: pinned by a reader, or
    /// released since the writer's last reclaim step.
    pub fn awaiting_reclaim(&self) -> usize {
        self.reclaim.lock().expect("reclaim list poisoned").len()
    }

    /// Begin a write transaction: exclusive access to the master dataset.
    /// Nothing becomes visible to readers until it is published;
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

    /// Convenience: apply one delta transactionally and publish (all
    /// three steps, see [`WriteTxn::publish`]). Returns the net changes
    /// and the new epoch.
    ///
    /// A durable store whose log append fails publishes nothing and turns
    /// read-only ([`Persister::failure`] names the cause): the call then
    /// returns an empty change set and the unchanged epoch.
    pub fn apply(&self, delta: Delta) -> (ChangeSet, u64) {
        let mut txn = self.begin();
        let changes = txn.dataset().apply(delta);
        txn.touch_changes(&changes);
        match txn.publish() {
            Ok(epoch) => (changes, epoch),
            Err(_) => (ChangeSet::default(), self.epoch()),
        }
    }
}

/// An open write transaction on an [`EpochStore`].
///
/// Mutations go to the writer's master dataset and are invisible to
/// readers until the transaction is published. Any number of deltas can
/// be applied before that publish — each reported through
/// [`WriteTxn::touch_changes`] — and readers never observe a state
/// between two of them: one master clone and one pointer swap pay for the
/// whole batch. Dropping the transaction without publishing is the
/// rollback path: readers keep the previous epoch forever-unaware, but
/// the *master* retains whatever was mutated — a caller aborting
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

    /// Publish the master as the next epoch and return its number: all
    /// three steps in one call (see [`PreparedTxn::publish`]).
    pub fn publish(self) -> Result<u64, PersistError> {
        self.prepare().publish()
    }

    /// Build the next epoch's snapshot — the expensive part of a publish
    /// (freezing the master's pending index writes, then cloning it) —
    /// without making it visible yet. The returned [`PreparedTxn`] still
    /// holds the writer lock.
    pub fn prepare(mut self) -> PreparedTxn<'a> {
        self.guard.freeze();
        let epoch = self.store.epoch.load(Ordering::Acquire) + 1;
        let snapshot = Arc::new(Snapshot {
            epoch,
            dataset: self.guard.clone(),
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

/// A write transaction whose next-epoch snapshot is fully built. Publish
/// it in three steps: [`PreparedTxn::log`] (I/O, before any
/// latency-sensitive lock of the caller's), [`LoggedTxn::publish`] (the
/// pointer swap, inside it) and [`PublishedTxn::reclaim`] (frees, after
/// it). Dropping without logging keeps the previous epoch current (same
/// rollback contract as [`WriteTxn`]).
pub struct PreparedTxn<'a> {
    /// Held (not read) until reclaim so the store stays single-writer
    /// across all three steps.
    guard: MutexGuard<'a, Dataset>,
    store: &'a EpochStore,
    snapshot: Arc<Snapshot>,
    epoch: u64,
    /// Net base changes to log (durable stores only).
    changes: Option<ChangeSet>,
}

impl<'a> PreparedTxn<'a> {
    /// The epoch number this publish will install.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Step 1: on a durable store, append the epoch-log record (with
    /// `catalog` as the view-catalog change, `None` carrying the previous
    /// catalog forward) and fsync it — the write-ahead half of the
    /// recovery guarantee. An in-memory store does nothing here.
    ///
    /// A log I/O error is returned, not raised: nothing is published, the
    /// persister refuses every later append (so a torn tail never has an
    /// acknowledged record after it) and the master is reset to the
    /// published snapshot — the store is read-only from then on, and
    /// readers keep the last published epoch.
    pub fn log(mut self, catalog: Option<&[(u64, u64)]>) -> Result<LoggedTxn<'a>, PersistError> {
        let mut snapshot_due = false;
        if let Some(persister) = &self.store.persist {
            let changes = self.changes.take().unwrap_or_default();
            match persister.log_publish(self.epoch, self.guard.dict(), &changes, catalog) {
                Ok(due) => snapshot_due = due,
                Err(e) => {
                    *self.guard = self.store.pin().dataset().clone();
                    return Err(e);
                }
            }
        }
        Ok(LoggedTxn {
            guard: self.guard,
            store: self.store,
            snapshot: self.snapshot,
            epoch: self.epoch,
            snapshot_due,
        })
    }

    /// All three steps in one call, for callers with no lock of their own
    /// to keep short. Returns the published epoch.
    pub fn publish(self) -> Result<u64, PersistError> {
        Ok(self.log(None)?.publish().reclaim())
    }
}

/// A prepared transaction whose log record is durable: all that remains
/// is the pointer swap.
pub struct LoggedTxn<'a> {
    guard: MutexGuard<'a, Dataset>,
    store: &'a EpochStore,
    snapshot: Arc<Snapshot>,
    epoch: u64,
    /// The persister's snapshot cadence came due with this record.
    snapshot_due: bool,
}

impl<'a> LoggedTxn<'a> {
    /// Step 2: swap the prepared snapshot in. O(1), no I/O and no free —
    /// safe inside a caller's latency-sensitive critical section. The
    /// superseded snapshot is handed to the returned [`PublishedTxn`],
    /// whose reclaim step lists it.
    pub fn publish(self) -> PublishedTxn<'a> {
        // Counted before the swap, so `published - retired` never dips
        // below the one current snapshot.
        self.store.published.fetch_add(1, Ordering::Relaxed);
        let superseded = {
            let mut current = self.store.current.write().expect("epoch lock poisoned");
            std::mem::replace(&mut *current, self.snapshot)
        };
        self.store.epoch.store(self.epoch, Ordering::Release);
        PublishedTxn {
            _guard: self.guard,
            store: self.store,
            epoch: self.epoch,
            superseded: Some(superseded),
            snapshot_due: self.snapshot_due,
        }
    }
}

/// A published epoch whose writer lock is still held: step 3, the
/// reclaim, is left. Run it with [`PublishedTxn::reclaim`] once the
/// caller's own locks are released; dropping the value runs it too.
#[must_use = "dropping a PublishedTxn runs the reclaim step where it drops"]
pub struct PublishedTxn<'a> {
    /// Held (not read) until the reclaim step has run.
    _guard: MutexGuard<'a, Dataset>,
    store: &'a EpochStore,
    epoch: u64,
    superseded: Option<PinnedSnapshot>,
    snapshot_due: bool,
}

impl PublishedTxn<'_> {
    /// The epoch this transaction published.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Step 3: write the cadence snapshot if one is due, then list the
    /// superseded snapshot and free every listed snapshot no reader
    /// holds. Releases the writer lock and returns the published epoch.
    pub fn reclaim(self) -> u64 {
        self.epoch
    }

    fn reclaim_now(&mut self) {
        if std::mem::take(&mut self.snapshot_due) {
            if let Some(persister) = &self.store.persist {
                // The just-published snapshot, still under the writer
                // lock so no later batch can be half-visible in it.
                // Failure is non-fatal: the log still covers everything,
                // recovery just replays a longer tail.
                let published = self.store.pin();
                if let Err(e) = persister.snapshot(published.dataset(), self.epoch) {
                    eprintln!("sofos-store: snapshot at epoch {} failed: {e}", self.epoch);
                }
            }
        }
        let unpinned = {
            let mut list = self.store.reclaim.lock().expect("reclaim list poisoned");
            list.extend(self.superseded.take());
            // A listed snapshot with no other owner cannot gain one: pins
            // clone `current` only, and no reader holds this one.
            let (unpinned, pinned): (Vec<_>, Vec<_>) = list
                .drain(..)
                .partition(|snapshot| Arc::strong_count(snapshot) == 1);
            *list = pinned;
            self.store
                .freed
                .fetch_add(unpinned.len() as u64, Ordering::Relaxed);
            unpinned
        };
        // Freed outside the list lock, so the lifecycle accessors never
        // wait for a dictionary free.
        drop(unpinned);
    }
}

impl Drop for PublishedTxn<'_> {
    fn drop(&mut self) {
        self.reclaim_now();
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
        store.begin().publish().expect("in-memory publish");
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
    fn released_snapshots_wait_for_the_writer_to_reclaim() {
        let store = EpochStore::new(Dataset::new());
        let pinned = store.pin();
        store.apply(delta_inserting(&["x"]));
        assert_eq!(store.awaiting_reclaim(), 1, "epoch 0 is still pinned");
        // The reader lets go: epoch 0 is retired at once, but the reader
        // frees nothing — the snapshot stays listed for the writer.
        drop(pinned);
        assert_eq!(store.retired_snapshots(), 1);
        assert_eq!(store.awaiting_reclaim(), 1);
        // The next publish's reclaim step frees it; the snapshot that
        // publish supersedes has no reader and goes at once.
        store.apply(delta_inserting(&["y"]));
        assert_eq!(store.awaiting_reclaim(), 0);
        assert_eq!(store.retired_snapshots(), 2);
        assert_eq!(store.live_snapshots(), 1);
    }

    #[test]
    fn publish_steps_swap_before_reclaim() {
        let store = EpochStore::new(Dataset::new());
        let mut txn = store.begin();
        let changes = txn.dataset().apply(delta_inserting(&["s"]));
        txn.touch_changes(&changes);
        let logged = txn.prepare().log(None).expect("in-memory log is a no-op");
        assert_eq!(store.epoch(), 0, "logging publishes nothing");
        let published = logged.publish();
        // Swapped: readers see the epoch while the writer still holds
        // the superseded snapshot for its reclaim step.
        assert_eq!(store.pin().epoch(), 1);
        assert_eq!(store.awaiting_reclaim(), 0);
        assert_eq!(store.retired_snapshots(), 0);
        assert_eq!(published.reclaim(), 1);
        assert_eq!(store.retired_snapshots(), 1);
        assert_eq!(store.awaiting_reclaim(), 0);
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
        let epoch = txn.publish().expect("in-memory publish");
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
        txn.publish().expect("in-memory publish");
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
