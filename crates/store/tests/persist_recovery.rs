//! Crash-point properties of the durable epoch store: wherever a crash
//! lands — between prepare and publish, mid-log-append, mid-snapshot —
//! recovery must land on **exactly** the state of some published epoch
//! (never a torn or invented state), and an acknowledged publish must
//! never be lost.
//!
//! Crashes are simulated from the outside: run a durable store, drop it,
//! then damage the on-disk files the way an interrupted write would
//! (truncate the log at an arbitrary byte, corrupt or orphan snapshot
//! files) and recover from what's left.

use proptest::prelude::*;
use sofos_rdf::Term;
use sofos_store::{
    Dataset, Delta, DurabilityConfig, EncodedTriple, EpochStore, Persister, Recovered,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One generated operation: insert (true) or delete of `s --p--> o`.
type Op = (bool, u8, u8, u8);

fn op_delta(ops: &[Op]) -> Delta {
    let mut delta = Delta::new();
    for &(insert, s, p, o) in ops {
        let s = Term::iri(format!("http://e/s{s}"));
        let p = Term::iri(format!("http://e/p{p}"));
        let o = Term::iri(format!("http://e/o{o}"));
        if insert {
            delta.insert(s, p, o);
        } else {
            delta.delete(s, p, o);
        }
    }
    delta
}

/// The default graph's triples, sorted — the state fingerprint.
fn fingerprint(dataset: &Dataset) -> Vec<EncodedTriple> {
    dataset.default_graph().iter().collect()
}

/// Serial reference: the fingerprint after every prefix of the stream.
fn prefix_states(batches: &[Vec<Op>]) -> Vec<Vec<EncodedTriple>> {
    let mut dataset = Dataset::new();
    let mut states = vec![fingerprint(&dataset)];
    for batch in batches {
        dataset.apply(op_delta(batch));
        states.push(fingerprint(&dataset));
    }
    states
}

/// A unique scratch directory (std-only; removed by each test's cleanup).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sofos-recover-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

fn config(dir: &Path, snapshot_every: u64) -> DurabilityConfig {
    // fsync off: these tests crash the *process state*, not the kernel,
    // so buffered writes are always visible to the recovering open.
    DurabilityConfig::new(dir)
        .snapshot_every(snapshot_every)
        .fsync(false)
}

/// Open a fresh durable store on `dir` (baselining an empty dataset,
/// exactly as the engine does on a fresh data dir).
fn fresh_store(dir: &Path, snapshot_every: u64) -> EpochStore {
    let (persister, recovered) =
        Persister::open(config(dir, snapshot_every)).expect("fresh dir opens");
    assert!(recovered.is_none(), "fresh dir must not recover");
    let dataset = Dataset::new();
    persister
        .baseline(&dataset, 0, &[])
        .expect("baseline writes");
    EpochStore::recovered(dataset, 0, Arc::new(persister))
}

/// Recover whatever is on disk.
fn recover(dir: &Path) -> Recovered {
    let (_persister, recovered) = Persister::open(config(dir, 1 << 30)).expect("recovery opens");
    recovered.expect("prior state exists")
}

/// Apply the full stream durably, then drop the store (a "clean crash":
/// everything reached the files, nothing was closed gracefully — there
/// is no graceful close; the log is append-only).
fn run_stream(dir: &Path, batches: &[Vec<Op>], snapshot_every: u64) {
    let store = fresh_store(dir, snapshot_every);
    for batch in batches {
        store.apply(op_delta(batch));
    }
}

proptest! {
    /// Truncating the log at ANY byte (a crash mid-append, or a torn
    /// final sector) recovers exactly a published prefix: the recovered
    /// epoch indexes the serial prefix states, and the torn tail is
    /// counted and discarded.
    #[test]
    fn torn_log_recovers_a_published_prefix(
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (proptest::bool::weighted(0.7), 0u8..12, 0u8..4, 0u8..12),
                0..6,
            ),
            1..8,
        ),
        cut_fraction in 0.0f64..1.0,
    ) {
        let dir = scratch_dir("torn");
        run_stream(&dir, &batches, 1 << 30);
        let expected = prefix_states(&batches);

        let log_path = dir.join("epoch.log");
        let full_len = fs::metadata(&log_path).expect("log exists").len();
        // fraction ∈ [0, 1) over full_len + 1 positions ⇒ cut ∈ [0, full_len].
        let cut = (((full_len + 1) as f64) * cut_fraction) as u64;
        let cut = cut.min(full_len);
        fs::OpenOptions::new()
            .write(true)
            .open(&log_path)
            .expect("log opens")
            .set_len(cut)
            .expect("truncates");

        let rec = recover(&dir);
        prop_assert!(rec.epoch as usize <= batches.len());
        prop_assert_eq!(
            fingerprint(&rec.dataset),
            expected[rec.epoch as usize].clone(),
            "recovered state is not the serial prefix at epoch {}", rec.epoch
        );
        if cut == full_len {
            prop_assert_eq!(rec.epoch as usize, batches.len(), "nothing cut, nothing lost");
            prop_assert_eq!(rec.truncated_bytes, 0);
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// With a snapshot cadence in play, recovery = newest snapshot + the
    /// log tail past it — and always lands on the full stream when the
    /// files are intact.
    #[test]
    fn snapshot_plus_tail_recovers_everything(
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (proptest::bool::weighted(0.7), 0u8..10, 0u8..3, 0u8..10),
                0..5,
            ),
            1..10,
        ),
        snapshot_every in 1u64..4,
    ) {
        let dir = scratch_dir("cadence");
        run_stream(&dir, &batches, snapshot_every);
        let expected = prefix_states(&batches);

        let rec = recover(&dir);
        prop_assert_eq!(rec.epoch as usize, batches.len());
        prop_assert_eq!(fingerprint(&rec.dataset), expected[batches.len()].clone());
        prop_assert!(
            rec.snapshot_epoch > 0 || batches.len() < snapshot_every as usize,
            "a cadence snapshot should have been taken"
        );
        // Replay covered exactly the epochs past the snapshot.
        prop_assert_eq!(
            rec.replayed_records,
            batches.len() as u64 - rec.snapshot_epoch
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// A crash mid-snapshot leaves either a `.tmp` orphan or a damaged
    /// newest file; recovery ignores both and falls back to the previous
    /// snapshot plus a longer log tail — still the exact final state.
    #[test]
    fn damaged_snapshot_falls_back_to_log(
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (proptest::bool::weighted(0.7), 0u8..10, 0u8..3, 0u8..10),
                1..5,
            ),
            2..8,
        ),
        damage_kind in 0u8..3,
    ) {
        let dir = scratch_dir("midsnap");
        run_stream(&dir, &batches, 2);
        let expected = prefix_states(&batches);

        // Find the newest complete snapshot and damage it the way an
        // interrupted writer would have.
        let mut snapshots: Vec<PathBuf> = fs::read_dir(&dir)
            .expect("dir lists")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                    n.starts_with("snapshot-") && n.ends_with(".bin")
                })
            })
            .collect();
        snapshots.sort();
        if let Some(newest) = snapshots.last() {
            match damage_kind {
                0 => {
                    // Torn write: half the file.
                    let len = fs::metadata(newest).expect("meta").len();
                    fs::OpenOptions::new()
                        .write(true)
                        .open(newest)
                        .expect("opens")
                        .set_len(len / 2)
                        .expect("truncates");
                }
                1 => {
                    // Bit rot: flip a payload byte (past the 8-byte frame
                    // header so the length still reads).
                    let mut bytes = fs::read(newest).expect("reads");
                    if bytes.len() > 9 {
                        let mid = bytes.len() / 2;
                        bytes[mid] ^= 0xFF;
                        fs::write(newest, bytes).expect("writes");
                    }
                }
                _ => {
                    // Crash before the rename: the snapshot never made it
                    // out of its tmp name.
                    let tmp = newest.with_extension("bin.tmp");
                    fs::rename(newest, tmp).expect("renames");
                }
            }
        }

        let rec = recover(&dir);
        prop_assert_eq!(rec.epoch as usize, batches.len());
        prop_assert_eq!(fingerprint(&rec.dataset), expected[batches.len()].clone());
        fs::remove_dir_all(&dir).ok();
    }
}

/// A crash between log-append and pointer-swap: the record is durable
/// but the batch was never acknowledged. Recovery may include it — the
/// superset guarantee — and must land exactly on its state, not between
/// states.
#[test]
fn logged_but_unswapped_batch_recovers_as_superset() {
    let dir = scratch_dir("unswapped");
    let batches: Vec<Vec<Op>> = vec![
        vec![(true, 1, 0, 1), (true, 2, 0, 2)],
        vec![(true, 3, 1, 4), (false, 1, 0, 1)],
    ];
    run_stream(&dir, &batches, 1 << 30);

    // Simulate the torn publish: append epoch 3's record through the
    // persister (exactly what `publish` does first), then "crash" before
    // any pointer swap by dropping everything.
    {
        let (persister, recovered) = Persister::open(config(&dir, 1 << 30)).expect("opens");
        let mut dataset = recovered.expect("state exists").dataset;
        let changes = dataset.apply(op_delta(&[(true, 9, 2, 9)]));
        persister
            .log_publish(3, dataset.dict(), &changes, None)
            .expect("append succeeds");
    }

    let rec = recover(&dir);
    let mut reference = Dataset::new();
    for batch in &batches {
        reference.apply(op_delta(batch));
    }
    reference.apply(op_delta(&[(true, 9, 2, 9)]));
    assert_eq!(rec.epoch, 3, "the logged-but-unacknowledged epoch recovers");
    assert_eq!(fingerprint(&rec.dataset), fingerprint(&reference));
    fs::remove_dir_all(&dir).ok();
}

/// A crash between prepare and publish: the transaction mutated the
/// master but never appended a record. Recovery must NOT see it.
#[test]
fn prepared_but_unpublished_batch_is_invisible() {
    let dir = scratch_dir("prepared");
    let store = fresh_store(&dir, 1 << 30);
    store.apply(op_delta(&[(true, 1, 0, 1)]));

    {
        let mut txn = store.begin();
        let changes = txn.dataset().apply(op_delta(&[(true, 7, 1, 7)]));
        txn.touch_changes(&changes);
        let _prepared = txn.prepare();
        // Dropped here: prepared, never published, never logged.
    }
    drop(store);

    let rec = recover(&dir);
    let mut reference = Dataset::new();
    reference.apply(op_delta(&[(true, 1, 0, 1)]));
    assert_eq!(rec.epoch, 1);
    assert_eq!(
        fingerprint(&rec.dataset),
        fingerprint(&reference),
        "an unpublished prepare must leave no durable trace"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A failed append (half a frame reaches the file) publishes nothing,
/// resets the master and turns the store read-only: a later append can
/// never land behind the torn bytes, so recovery keeps exactly the
/// acknowledged batches.
#[test]
fn failed_append_turns_the_store_read_only() {
    let dir = scratch_dir("failed-append");
    let store = fresh_store(&dir, 1 << 30);
    store.apply(op_delta(&[(true, 1, 0, 1)]));
    let acknowledged = fingerprint(store.pin().dataset());
    let persister = Arc::clone(store.persister().expect("durable store"));

    persister.fail_next_append();
    let mut txn = store.begin();
    let changes = txn.dataset().apply(op_delta(&[(true, 2, 0, 2)]));
    txn.touch_changes(&changes);
    assert!(txn.publish().is_err(), "the failed append is reported");
    assert!(persister.failure().is_some());
    assert_eq!(store.epoch(), 1);
    assert_eq!(fingerprint(store.pin().dataset()), acknowledged);
    // The master is back at the published state, not the failed batch.
    assert_eq!(fingerprint(store.begin().dataset()), acknowledged);

    // Every later append is refused; `apply` reports the unchanged epoch.
    let log_len = fs::metadata(dir.join("epoch.log")).expect("log").len();
    let (changes, epoch) = store.apply(op_delta(&[(true, 3, 0, 3)]));
    assert_eq!((changes.default_graph.inserted.len(), epoch), (0, 1));
    assert_eq!(
        fs::metadata(dir.join("epoch.log")).expect("log").len(),
        log_len
    );
    drop(store);

    let rec = recover(&dir);
    assert!(rec.truncated_bytes > 0, "the torn half-frame is cut off");
    assert_eq!(rec.epoch, 1);
    assert_eq!(fingerprint(&rec.dataset), acknowledged);
    fs::remove_dir_all(&dir).ok();
}

/// Named view graphs and the catalog ride snapshots bit-exactly (the
/// log's catalog entries carry identity; contents come from snapshots).
#[test]
fn snapshot_preserves_views_and_catalog() {
    let dir = scratch_dir("views");
    let mut dataset = Dataset::new();
    dataset.apply(op_delta(&[(true, 1, 0, 1), (true, 2, 1, 3)]));
    let view = dataset.intern_iri("http://e/view1");
    let s = dataset.intern(&Term::iri("http://e/s1"));
    dataset.insert_encoded(Some(view), [s, s, s]);

    {
        let (persister, recovered) = Persister::open(config(&dir, 1 << 30)).expect("opens");
        assert!(recovered.is_none());
        persister
            .baseline(&dataset, 5, &[(3, 1)])
            .expect("baseline writes");
    }

    let rec = recover(&dir);
    assert_eq!(rec.epoch, 5);
    assert_eq!(rec.snapshot_epoch, 5);
    assert_eq!(rec.replayed_records, 0);
    assert_eq!(rec.catalog, vec![(3, 1)]);
    assert_eq!(fingerprint(&rec.dataset), fingerprint(&dataset));
    assert_eq!(rec.dataset.graph_names(), vec![view]);
    let graph = |ds: &Dataset| -> Vec<EncodedTriple> {
        ds.graph(Some(view)).expect("view graph").iter().collect()
    };
    assert_eq!(graph(&rec.dataset), graph(&dataset));
    fs::remove_dir_all(&dir).ok();
}

/// Durable and in-memory stores produce bit-identical published states
/// for the same stream (`Durability::None` is behavior-preserving, and
/// the durable hooks never perturb the data path).
#[test]
fn durable_stream_matches_in_memory_stream() {
    let dir = scratch_dir("twin");
    let batches: Vec<Vec<Op>> = (0..20)
        .map(|i| {
            (0..4)
                .map(|j| {
                    let n = (i * 4 + j) as u8;
                    (!n.is_multiple_of(5), n % 19, n % 3, n % 13)
                })
                .collect()
        })
        .collect();

    let durable = fresh_store(&dir, 4);
    let memory = EpochStore::new(Dataset::new());
    for batch in &batches {
        let (_, d_epoch) = durable.apply(op_delta(batch));
        let (_, m_epoch) = memory.apply(op_delta(batch));
        assert_eq!(d_epoch, m_epoch);
    }
    assert_eq!(
        fingerprint(durable.pin().dataset()),
        fingerprint(memory.pin().dataset())
    );

    drop(durable);
    let rec = recover(&dir);
    assert_eq!(rec.epoch as usize, batches.len());
    assert_eq!(
        fingerprint(&rec.dataset),
        fingerprint(memory.pin().dataset()),
        "recovery reproduces the in-memory stream's final state"
    );
    fs::remove_dir_all(&dir).ok();
}
