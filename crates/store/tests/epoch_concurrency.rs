//! Property: concurrent readers of an [`EpochStore`] observe only
//! epoch-consistent states.
//!
//! K reader threads pin snapshots while a writer applies a batch stream;
//! every observed state must equal the state after some *serial prefix*
//! of the stream — readers can be stale, but they can never see a
//! half-applied batch or a state that no prefix produces. The check is
//! exact: epoch numbers count applied batches, so each pinned snapshot is
//! compared against the independently-computed state of *its own* prefix,
//! and per-reader epochs must be monotone (time never runs backwards for
//! a single reader).

use proptest::prelude::*;
use sofos_rdf::Term;
use sofos_store::{Dataset, Delta, EncodedTriple, EpochStore};

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
/// Dictionary ids are deterministic in apply order, so the reference and
/// the concurrent store assign identical encodings.
fn prefix_states(batches: &[Vec<Op>]) -> Vec<Vec<EncodedTriple>> {
    let mut dataset = Dataset::new();
    let mut states = vec![fingerprint(&dataset)];
    for batch in batches {
        dataset.apply(op_delta(batch));
        states.push(fingerprint(&dataset));
    }
    states
}

/// Run the concurrent schedule: one writer applying `batches`, `readers`
/// threads pinning and fingerprinting as fast as they can. Panics (and
/// thus fails the test) on any inconsistent observation.
fn run_concurrent(batches: &[Vec<Op>], readers: usize, pins_per_reader: usize) {
    let store = std::sync::Arc::new(EpochStore::new(Dataset::new()));
    let expected = prefix_states(batches);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(readers);
        for _ in 0..readers {
            let store = std::sync::Arc::clone(&store);
            let expected = &expected;
            handles.push(scope.spawn(move || {
                let mut last_epoch = 0u64;
                for _ in 0..pins_per_reader {
                    let snapshot = store.pin();
                    let epoch = snapshot.epoch();
                    assert!(epoch >= last_epoch, "a reader's epochs went backwards");
                    last_epoch = epoch;
                    let observed = fingerprint(snapshot.dataset());
                    assert_eq!(
                        observed, expected[epoch as usize],
                        "epoch {epoch} is not the serial prefix state"
                    );
                }
            }));
        }
        for batch in batches {
            store.apply(op_delta(batch));
        }
        for handle in handles {
            handle.join().expect("reader observed only prefix states");
        }
    });
    // The writer's final publish is the full stream.
    assert_eq!(store.epoch() as usize, batches.len());
    assert_eq!(
        fingerprint(store.pin().dataset()),
        expected[batches.len()],
        "the final epoch equals the fully-applied stream"
    );
}

proptest! {
    /// The tentpole invariant, under arbitrary insert/delete streams.
    #[test]
    fn concurrent_reads_equal_serial_prefixes(
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (proptest::bool::weighted(0.7), 0u8..12, 0u8..4, 0u8..12),
                0..8,
            ),
            1..12,
        ),
    ) {
        run_concurrent(&batches, 3, 40);
    }
}

#[test]
fn long_stream_with_many_readers() {
    // A heavier deterministic schedule than the proptest cases: enough
    // batches that readers genuinely interleave mid-stream.
    let batches: Vec<Vec<Op>> = (0..60)
        .map(|i| {
            (0..6)
                .map(|j| {
                    let n = (i * 6 + j) as u8;
                    (!n.is_multiple_of(5), n % 23, n % 3, n % 17)
                })
                .collect()
        })
        .collect();
    run_concurrent(&batches, 4, 150);
}

#[test]
fn retire_accounting_converges() {
    // After every reader drops its pins, only the current snapshot is
    // live, no matter how the run interleaved.
    let store = std::sync::Arc::new(EpochStore::new(Dataset::new()));
    std::thread::scope(|scope| {
        let reader_store = std::sync::Arc::clone(&store);
        let reader = scope.spawn(move || {
            let mut held = Vec::new();
            for _ in 0..50 {
                held.push(reader_store.pin());
            }
            drop(held);
        });
        for i in 0..30 {
            store.apply(op_delta(&[(true, i as u8, 0, i as u8)]));
        }
        reader.join().expect("reader ran clean");
    });
    assert_eq!(store.live_snapshots(), 1, "only the current epoch survives");
    assert_eq!(store.published_snapshots() - store.retired_snapshots(), 1);
}
