//! Durable epochs: an append-only epoch log plus periodic snapshots.
//!
//! The epoch store's publish protocol is "log, fsync, *then* swap the
//! epoch pointer" — so the on-disk log always covers every state a
//! reader could ever have observed. Recovery is the inverse: load the
//! newest snapshot that decodes, replay the log records with a higher
//! epoch, and truncate any torn tail left by a crash mid-append.
//!
//! ## The write-ahead superset guarantee
//!
//! Because the log record is durable *before* `publish()` swaps the
//! pointer, a crash between the two can leave one final batch that was
//! logged but never acknowledged. Recovery replays it anyway: the
//! recovered state is always *some prefix of the logged batches* that is
//! a **superset of every acknowledged publish**. That is the standard
//! WAL contract — an unacknowledged write may or may not survive, an
//! acknowledged one always does — and it is why the crash-point property
//! tests assert "recovery lands on exactly a published epoch" where
//! *published* means "covered by a complete log record".
//!
//! A failed append or fsync is returned to the publisher, which publishes
//! nothing. It may leave a torn frame at the log's end, and recovery
//! truncates the log there — dropping anything appended after it. So the
//! first failure turns the [`Persister`] read-only: it refuses every later
//! append, and no acknowledged record can ever sit behind a torn one.
//!
//! ## Dictionary lineage
//!
//! The dictionary is append-only and dense: ids are assigned in
//! first-seen order. Each log record carries the "dictionary tail" — the
//! terms this batch interned — and `dict_start`, the dictionary length
//! the record expects. Replaying tails in order reproduces identical
//! ids, which is what lets triples live on disk as bare id triples.
//! This also creates the one subtle recovery invariant: anything that
//! interns terms *outside* the logged write path (above all view
//! re-materialization after recovery) must be followed by a fresh
//! baseline snapshot before serving, or the next recovery would find a
//! gap between the snapshot's dictionary and the first log record's
//! `dict_start`. [`Persister::baseline`] exists for exactly that; a
//! record whose `dict_start` is not the dictionary's length means that
//! invariant was violated externally, and replay stops at the last
//! consistent record rather than guessing. It stops as well at a record
//! whose ids the dictionary would not resolve.
//!
//! ## What is (and is not) persisted
//!
//! Log records capture *base* mutations — the coalesced [`ChangeSet`] of
//! each published batch — plus the view catalog as `(mask, rows)` pairs.
//! View *contents* are not logged per batch (view maintenance writes to
//! view graphs directly, outside the change-set path); snapshots capture
//! them in full, and after replaying any log tail the engine layer
//! re-materializes the catalog's views from the recovered base, which is
//! bit-equal to maintained state by the maintenance engine's own
//! correctness contract.

pub mod encode;
pub mod log;
pub mod snapshot;

pub use encode::DecodeError;
pub use log::{GraphOps, Record};
pub use snapshot::SnapshotData;

use crate::dataset::Dataset;
use crate::delta::ChangeSet;
use sofos_rdf::{Dictionary, FxHashSet, TermId};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Name of the append-only epoch log inside the data directory.
pub const LOG_FILE: &str = "epoch.log";

/// How many snapshots [`Persister`] keeps on disk (newest first). Two,
/// so a damaged newest snapshot still leaves a recovery point.
pub const SNAPSHOTS_KEPT: usize = 2;

/// Where and how to persist. Passed to `EngineBuilder::durability`.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Data directory; created if missing.
    pub dir: PathBuf,
    /// Write a full snapshot every this many published batches.
    pub snapshot_every: u64,
    /// Fsync the log on every publish (and snapshots on write). Turning
    /// this off trades crash durability for throughput — the log is
    /// still written, but a power loss may lose recent acknowledged
    /// batches. Tests and benches use it to isolate encoding cost.
    pub fsync: bool,
}

impl DurabilityConfig {
    /// Durable-by-default config: fsync on, snapshot every 64 publishes.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            snapshot_every: 64,
            fsync: true,
        }
    }

    /// Override the snapshot cadence.
    pub fn snapshot_every(mut self, publishes: u64) -> DurabilityConfig {
        self.snapshot_every = publishes.max(1);
        self
    }

    /// Override fsync behavior.
    pub fn fsync(mut self, on: bool) -> DurabilityConfig {
        self.fsync = on;
        self
    }
}

/// Why persistence could not be opened or written.
#[derive(Debug)]
pub enum PersistError {
    /// An I/O operation failed; the context names it.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// An earlier log append failed, so the log takes no more records
    /// (see [`Persister::failure`]).
    ReadOnly {
        /// The earlier failure.
        cause: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { context, source } => write!(f, "{context}: {source}"),
            PersistError::ReadOnly { cause } => {
                write!(f, "epoch log is read-only after a failed append ({cause})")
            }
        }
    }
}

impl std::error::Error for PersistError {}

fn io_err(context: impl Into<String>) -> impl FnOnce(io::Error) -> PersistError {
    let context = context.into();
    move |source| PersistError::Io { context, source }
}

/// What recovery found in a data directory.
#[derive(Debug)]
pub struct Recovered {
    /// The rebuilt dataset (base + named graphs as captured/replayed).
    pub dataset: Dataset,
    /// The epoch the recovered state corresponds to.
    pub epoch: u64,
    /// The view catalog at that epoch, as `(mask_bits, rows)`.
    pub catalog: Vec<(u64, u64)>,
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Log records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn-tail bytes truncated from the log.
    pub truncated_bytes: u64,
}

/// Counters exposed through `/metrics` (and the E12 bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Highest epoch with a durable log record.
    pub persisted_epoch: u64,
    /// Current size of the epoch log in bytes.
    pub log_bytes: u64,
    /// Fsync calls issued (log + snapshots).
    pub fsyncs: u64,
    /// Snapshots written this run.
    pub snapshots: u64,
    /// Records replayed at open (0 for a fresh directory).
    pub replayed_records: u64,
    /// Torn bytes truncated at open.
    pub truncated_bytes: u64,
}

/// True when `dir` holds prior state (a log or any complete snapshot) —
/// the server uses this to decide between "resume" and "fresh boot".
pub fn has_state(dir: &Path) -> bool {
    if dir.join(LOG_FILE).is_file() {
        return true;
    }
    snapshot::list_snapshots(dir)
        .map(|s| !s.is_empty())
        .unwrap_or(false)
}

struct Inner {
    log: fs::File,
    /// Dictionary length the log covers; the next record's `dict_start`.
    persisted_terms: usize,
    /// Last catalog written (explicitly or carried); snapshots reuse it.
    last_catalog: Vec<(u64, u64)>,
    publishes_since_snapshot: u64,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("persisted_terms", &self.persisted_terms)
            .field("publishes_since_snapshot", &self.publishes_since_snapshot)
            .finish_non_exhaustive()
    }
}

/// The durable side of the epoch store: owns the open log file and the
/// snapshot cadence. One per data directory; shared via `Arc` between
/// the epoch store (publish path) and the engine (stats, baseline).
#[derive(Debug)]
pub struct Persister {
    config: DurabilityConfig,
    inner: Mutex<Inner>,
    // Lock-free mirrors so `/metrics` never contends with the writer.
    persisted_epoch: AtomicU64,
    log_bytes: AtomicU64,
    fsyncs: AtomicU64,
    snapshots: AtomicU64,
    replayed_records: u64,
    truncated_bytes: u64,
    /// The first failed append; once set, every later append is refused.
    failure: OnceLock<String>,
    /// Test seam: the next append writes half its frame, then fails.
    fail_next_append: AtomicBool,
}

impl Persister {
    /// Open a data directory: recover whatever is there, truncate any
    /// torn log tail, and leave the log open for append.
    ///
    /// Returns `None` for the recovery half when the directory held no
    /// prior state (fresh boot) — the caller must then seed durability
    /// with [`Persister::baseline`] before the first publish, so the
    /// first log record's `dict_start` has a snapshot to stand on.
    pub fn open(config: DurabilityConfig) -> Result<(Persister, Option<Recovered>), PersistError> {
        fs::create_dir_all(&config.dir)
            .map_err(io_err(format!("create data dir {}", config.dir.display())))?;

        let had_state = has_state(&config.dir);
        let snapshot_data = snapshot::load_newest(&config.dir).map_err(io_err("list snapshots"))?;

        let log_path = config.dir.join(LOG_FILE);
        let log_bytes_on_disk = match fs::read(&log_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(format!("read {}", log_path.display()))(e)),
        };
        let scan = log::scan(&log_bytes_on_disk);
        let truncated_bytes = log_bytes_on_disk.len() as u64 - scan.valid_len;

        // Rebuild state: snapshot first, then the log tail past it.
        let (mut dataset, mut epoch, mut catalog, snapshot_epoch) = match snapshot_data {
            Some(data) => {
                let epoch = data.epoch;
                let catalog = data.catalog.clone();
                (data.into_dataset(), epoch, catalog, epoch)
            }
            None => (Dataset::new(), 0, Vec::new(), 0),
        };
        let mut replayed_records = 0u64;
        for record in &scan.records {
            if record.epoch <= snapshot_epoch {
                continue;
            }
            if record.dict_start != dataset.dict().len() as u64 || !ids_in_range(&dataset, record) {
                // Mixed lineage (see module docs) or ids the dictionary
                // would not hold: stop at the last consistent record
                // instead of applying wrong ids.
                break;
            }
            apply_record(&mut dataset, record);
            epoch = record.epoch;
            if let Some(entries) = &record.catalog {
                catalog = entries.clone();
            }
            replayed_records += 1;
        }

        // Physically truncate the torn tail, then open for append.
        let log = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&log_path)
            .map_err(io_err(format!("open {}", log_path.display())))?;
        if truncated_bytes > 0 {
            log.set_len(scan.valid_len)
                .map_err(io_err("truncate torn log tail"))?;
        }

        let persister = Persister {
            inner: Mutex::new(Inner {
                log,
                persisted_terms: dataset.dict().len(),
                last_catalog: catalog.clone(),
                publishes_since_snapshot: 0,
            }),
            persisted_epoch: AtomicU64::new(epoch),
            log_bytes: AtomicU64::new(scan.valid_len),
            fsyncs: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            replayed_records,
            truncated_bytes,
            failure: OnceLock::new(),
            fail_next_append: AtomicBool::new(false),
            config,
        };
        let recovered = had_state.then_some(Recovered {
            dataset,
            epoch,
            catalog,
            snapshot_epoch,
            replayed_records,
            truncated_bytes,
        });
        Ok((persister, recovered))
    }

    /// The configuration this persister was opened with.
    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }

    /// Durably log one published batch: build the record (dictionary
    /// tail + coalesced changes + optional explicit catalog), append its
    /// frame, and fsync — all before the caller may swap the epoch
    /// pointer. Returns `true` when the snapshot cadence says the caller
    /// should follow up with [`Persister::snapshot`].
    ///
    /// A failed write or fsync may leave part of the frame on disk.
    /// Recovery truncates such a torn tail, which would drop every record
    /// appended after it, so the first failure turns the log read-only:
    /// every later call returns [`PersistError::ReadOnly`] without
    /// touching the file.
    pub fn log_publish(
        &self,
        epoch: u64,
        dict: &Dictionary,
        changes: &ChangeSet,
        catalog: Option<&[(u64, u64)]>,
    ) -> Result<bool, PersistError> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(cause) = self.failure.get() {
            return Err(PersistError::ReadOnly {
                cause: cause.clone(),
            });
        }
        let record = Record::from_changes(
            epoch,
            dict,
            inner.persisted_terms,
            changes,
            catalog.map(|c| c.to_vec()),
        );
        let bytes = log::frame(&record.encode_payload());
        let written = if self.fail_next_append.swap(false, Ordering::Relaxed) {
            inner
                .log
                .write_all(&bytes[..bytes.len() / 2])
                .and_then(|()| {
                    Err(io::Error::new(
                        io::ErrorKind::StorageFull,
                        "injected append failure",
                    ))
                })
        } else {
            inner.log.write_all(&bytes)
        };
        let durable = written
            .map_err(io_err("append epoch log record"))
            .and_then(|()| {
                if self.config.fsync {
                    inner.log.sync_data().map_err(io_err("fsync epoch log"))?;
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            });
        if let Err(e) = durable {
            // Set once under `inner`: the first failure is the cause.
            let _ = self.failure.set(e.to_string());
            return Err(e);
        }
        inner.persisted_terms = dict.len();
        if let Some(entries) = catalog {
            inner.last_catalog = entries.to_vec();
        }
        inner.publishes_since_snapshot += 1;
        let snapshot_due = inner.publishes_since_snapshot >= self.config.snapshot_every;
        self.persisted_epoch.store(epoch, Ordering::Release);
        self.log_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(snapshot_due)
    }

    /// Write a cadence snapshot of `dataset` at `epoch` (the catalog is
    /// the last one logged). Crash-atomic; old snapshots beyond
    /// [`SNAPSHOTS_KEPT`] are pruned.
    pub fn snapshot(&self, dataset: &Dataset, epoch: u64) -> Result<(), PersistError> {
        let mut inner = self.inner.lock().unwrap();
        let catalog = inner.last_catalog.clone();
        self.write_snapshot_locked(&mut inner, dataset, epoch, &catalog)
    }

    /// Write a *baseline* snapshot: a full capture that also re-anchors
    /// the log's dictionary coverage at `dataset`'s current dictionary.
    /// Required after any out-of-band interning — fresh boot (terms from
    /// initial load + offline materialization) and post-recovery view
    /// re-materialization — before the next publish.
    pub fn baseline(
        &self,
        dataset: &Dataset,
        epoch: u64,
        catalog: &[(u64, u64)],
    ) -> Result<(), PersistError> {
        let mut inner = self.inner.lock().unwrap();
        inner.persisted_terms = dataset.dict().len();
        inner.last_catalog = catalog.to_vec();
        self.write_snapshot_locked(&mut inner, dataset, epoch, catalog)
    }

    fn write_snapshot_locked(
        &self,
        inner: &mut Inner,
        dataset: &Dataset,
        epoch: u64,
        catalog: &[(u64, u64)],
    ) -> Result<(), PersistError> {
        snapshot::write_snapshot(&self.config.dir, dataset, epoch, catalog, self.config.fsync)
            .map_err(io_err("write snapshot"))?;
        snapshot::retain_newest(&self.config.dir, SNAPSHOTS_KEPT)
            .map_err(io_err("prune old snapshots"))?;
        inner.publishes_since_snapshot = 0;
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        if self.config.fsync {
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The failed append that turned this log read-only, if any.
    pub fn failure(&self) -> Option<&str> {
        self.failure.get().map(String::as_str)
    }

    /// Make the next [`Persister::log_publish`] write half its frame and
    /// then fail, as a full device would: the seam the engine's
    /// storage-failure tests inject through.
    #[doc(hidden)]
    pub fn fail_next_append(&self) {
        self.fail_next_append.store(true, Ordering::Relaxed);
    }

    /// Lock-free stats for `/metrics` and the E12 bench.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            persisted_epoch: self.persisted_epoch.load(Ordering::Acquire),
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            replayed_records: self.replayed_records,
            truncated_bytes: self.truncated_bytes,
        }
    }
}

/// Whether replaying `record` onto `dataset`, whose dictionary holds
/// `record.dict_start` terms, resolves every id: its tail interns only
/// fresh terms, and its ids stay below `dict_start + dict_tail.len()`.
fn ids_in_range(dataset: &Dataset, record: &Record) -> bool {
    let mut tail = FxHashSet::default();
    let mut terms = record.dict_tail.iter();
    let fresh = terms.all(|term| dataset.dict().get_id(term).is_none() && tail.insert(term));
    let len = record.dict_start + record.dict_tail.len() as u64;
    let in_range = |id: &TermId| u64::from(id.0) < len;
    let mut names = record.graphs.iter().filter_map(|ops| ops.graph.as_ref());
    let mut triples = record
        .graphs
        .iter()
        .flat_map(|ops| ops.inserted.iter().chain(&ops.removed));
    fresh && names.all(in_range) && triples.all(|triple| triple.iter().all(in_range))
}

/// Replay one record's mutations onto a dataset whose dictionary length
/// equals the record's `dict_start` and which resolves the record's ids
/// (the caller checks both).
fn apply_record(dataset: &mut Dataset, record: &Record) {
    for term in &record.dict_tail {
        dataset.intern(term);
    }
    for ops in &record.graphs {
        for triple in &ops.inserted {
            dataset.insert_encoded(ops.graph, *triple);
        }
        for triple in &ops.removed {
            dataset.remove_encoded(ops.graph, triple);
        }
    }
}
