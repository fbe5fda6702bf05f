//! The operations every workload is built from, each timed from outside:
//! the read op (`parse_query` + `Engine::query` + walk the rows), the
//! update op (`Engine::update`), and their *replays by layer* — the same
//! work done again through the crates' public functions, one span per
//! layer, so the traced pass can say where an op's time goes.

use crate::trace::Recorder;
use sofos_core::{results_equivalent, Engine};
use sofos_cube::{Facet, ViewMask};
use sofos_maintain::Maintainer;
use sofos_rewrite::{analyze_query, best_view, rewrite_query};
use sofos_sparql::{parse_query, Evaluator, Query, QueryResults};
use sofos_store::{Dataset, Delta, DurabilityConfig, OpKind, Persister};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Every `CHECK_EVERY`th answer of a read workload meets the oracle.
pub const CHECK_EVERY: u64 = 16;
/// Every `REPLAY_EVERY`th traced read op is replayed by layer.
pub const REPLAY_EVERY: u64 = 8;

/// FNV-1a, for `client.plan_hash`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hash a pick sequence.
    pub fn write_picks(&mut self, picks: &[u16]) {
        for pick in picks {
            self.write(&pick.to_le_bytes());
        }
    }

    /// The low 48 bits: exact as an `f64`, so the hash can be a metric.
    pub fn metric(self) -> f64 {
        (self.0 & ((1 << 48) - 1)) as f64
    }
}

/// Hash one delta's operations in order.
pub fn hash_delta(hash: &mut Fnv, delta: &Delta) {
    for op in delta.ops() {
        hash.write(match op.kind {
            OpKind::Insert => b"+",
            OpKind::Delete => b"-",
        });
        for term in &op.triple {
            hash.write(term.to_string().as_bytes());
        }
    }
}

/// What a decomposed read replay needs: the catalog and one snapshot
/// pinned through `Engine::snapshot` before the pass.
pub struct ReadReplay {
    pub facet: Facet,
    pub views: Vec<(ViewMask, usize)>,
    pub pinned: Dataset,
}

/// Sums over the replays of one thread, for
/// `rewrite.view_rows_per_result_row`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayRows {
    pub view_rows: u64,
    pub result_rows: u64,
}

impl ReadReplay {
    /// Replay one query by layer under a `decomposed` span.
    pub fn replay(&self, text: &str, rec: &mut Recorder, rows: &mut ReplayRows) {
        if let Ok(query) = parse_query(text) {
            rec.span("decomposed", |rec| self.layers(&query, rec, rows));
        }
    }

    /// The layers `Engine::query` goes through, one span each, inside
    /// whatever span is open: analyze → best view → rewrite → evaluate.
    /// Returns the evaluated answer.
    pub fn layers(
        &self,
        query: &Query,
        rec: &mut Recorder,
        rows: &mut ReplayRows,
    ) -> Option<QueryResults> {
        let analysis = rec.span("rewrite.analyze", |_| analyze_query(&self.facet, query));
        let analysis = analysis.ok()?;
        let view = rec.span("rewrite.best_view", |_| {
            best_view(&self.views, analysis.required)
        });
        let rewritten = view.map(|view| {
            rec.span("rewrite.rewrite", |_| {
                rewrite_query(&self.facet, &analysis, view)
            })
        });
        let results = rec.span("sparql.eval", |_| {
            Evaluator::new(&self.pinned).evaluate(rewritten.as_ref().unwrap_or(query))
        });
        let results = results.ok()?;
        if let Some(view) = view {
            let catalog_rows = self.views.iter().find(|(m, _)| *m == view).map(|v| v.1);
            rows.view_rows += catalog_rows.unwrap_or(0) as u64;
            rows.result_rows += results.len() as u64;
        }
        Some(results)
    }
}

/// One closed-loop reader thread.
pub struct Reader<'a> {
    pub engine: &'a Engine,
    pub texts: &'a [String],
    pub picks: &'a [u16],
    /// Base-graph answers per catalogue query; `None` when the data moves
    /// under the reader and no fixed oracle exists.
    pub oracle: Option<&'a [QueryResults]>,
    pub replay: Option<&'a ReadReplay>,
}

/// What one reader thread saw.
#[derive(Debug, Default)]
pub struct ReadStats {
    pub latencies_ns: Vec<u64>,
    pub failed: u64,
    pub wrong: u64,
    pub result_rows: u64,
    pub replayed: ReplayRows,
}

impl ReadStats {
    pub fn attempted(&self) -> u64 {
        self.latencies_ns.len() as u64 + self.failed
    }

    pub fn merge(&mut self, other: ReadStats) {
        self.latencies_ns.extend(other.latencies_ns);
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.result_rows += other.result_rows;
        self.replayed.view_rows += other.replayed.view_rows;
        self.replayed.result_rows += other.replayed.result_rows;
    }
}

impl Reader<'_> {
    /// Issue ops back to back for `window`, or until `stop` is raised.
    /// Time spent checking answers and replaying by layer is outside the
    /// timed op and is given back to the window.
    pub fn run(
        &self,
        thread: u64,
        rec: &mut Recorder,
        window: Duration,
        stop: Option<&AtomicBool>,
    ) -> ReadStats {
        let mut stats = ReadStats::default();
        let mut deadline = Instant::now() + window;
        let mut n = 0u64;
        while Instant::now() < deadline && !stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            let pick = self.picks[n as usize % self.picks.len()] as usize;
            let text = &self.texts[pick];
            n += 1;
            rec.set_request((thread << 32) | n);

            let start = Instant::now();
            let answer = rec.span("op.query", |rec| {
                let query = rec.span("sparql.parse", |_| parse_query(text))?;
                let answer = rec.span("core.query", |_| self.engine.query(&query))?;
                // Walk the rows, as a client that uses its answer would.
                let mut cells = 0usize;
                for row in &answer.results.rows {
                    cells += row.iter().filter(|cell| cell.is_some()).count();
                }
                black_box(cells);
                Ok::<_, sofos_sparql::SparqlError>(answer)
            });
            let elapsed = start.elapsed();

            let Ok(answer) = answer else {
                stats.failed += 1;
                continue;
            };
            stats.latencies_ns.push(elapsed.as_nanos() as u64);
            stats.result_rows += answer.results.len() as u64;

            let untimed = Instant::now();
            if let Some(oracle) = self.oracle.filter(|_| n.is_multiple_of(CHECK_EVERY)) {
                if !results_equivalent(&answer.results, &oracle[pick]) {
                    stats.wrong += 1;
                }
            }
            drop(answer);
            if let Some(replay) = self.replay.filter(|_| n.is_multiple_of(REPLAY_EVERY)) {
                replay.replay(text, rec, &mut stats.replayed);
            }
            if stop.is_none() {
                deadline += untimed.elapsed();
            }
        }
        stats
    }
}

/// One update batch, prepared before the timed region.
#[derive(Debug, Clone)]
pub struct Batch {
    pub delta: Delta,
    /// Observation-level operations (1, 16 or 256).
    pub obs_ops: usize,
    /// N-Triples bytes of the delta — the user data of write amplification.
    pub ntriples_bytes: usize,
}

impl Batch {
    pub fn new(delta: Delta, obs_ops: usize) -> Batch {
        let ntriples_bytes = delta
            .ops()
            .map(|op| {
                // "s p o .\n"
                op.triple
                    .iter()
                    .map(|t| t.to_string().len() + 1)
                    .sum::<usize>()
                    + 2
            })
            .sum();
        Batch {
            delta,
            obs_ops,
            ntriples_bytes,
        }
    }

    pub fn triples(&self) -> usize {
        self.delta.len()
    }
}

/// Private copies the traced writer replays each delta on, layer by layer.
pub struct WriteReplay {
    /// Sees `Dataset::apply` alone.
    plain: Dataset,
    /// Sees `Maintainer::apply_and_maintain`.
    maintained: Dataset,
    maintainer: Maintainer,
    views: Vec<(ViewMask, usize)>,
    /// A private epoch log with the engine's durability settings, fed the
    /// change set of `plain`; `None` when the engine under test is not
    /// durable.
    log: Option<Persister>,
    epoch: u64,
}

impl WriteReplay {
    /// Private copies of `snapshot` — the served `G+`, taken through
    /// `Engine::snapshot` while no writer runs. A fresh `Maintainer` may
    /// take over view graphs another one maintained: it never reuses a
    /// blank-node label that is in use.
    pub fn new(
        snapshot: Dataset,
        facet: &Facet,
        views: &[(ViewMask, usize)],
        durability: Option<DurabilityConfig>,
    ) -> WriteReplay {
        let log = durability.map(|config| {
            let (log, _) = Persister::open(config).expect("private epoch log opens");
            // Anchor the log's dictionary at the snapshot's, as a durable
            // engine does at boot, so records carry only new terms.
            log.baseline(&snapshot, 0, &[])
                .expect("private epoch log takes a baseline");
            log
        });
        WriteReplay {
            plain: snapshot.clone(),
            maintained: snapshot,
            maintainer: Maintainer::new(facet),
            views: views.to_vec(),
            log,
            epoch: 0,
        }
    }

    /// Replay the deltas of a pass, each under a `decomposed` span that
    /// carries the op id its live update had (`request_base + position`).
    /// Every delta is replayed, not every eighth: the private copies must
    /// see the whole stream or later deletes would miss their targets.
    /// This runs after the pass: a writer that stopped to replay — and to
    /// fsync a second log — between its updates would time a different
    /// system.
    pub fn replay_all(&mut self, batches: &[Batch], request_base: u64, rec: &mut Recorder) {
        for (i, batch) in batches.iter().enumerate() {
            rec.set_request(request_base + i as u64 + 1);
            self.replay(&batch.delta, rec);
        }
    }

    fn replay(&mut self, delta: &Delta, rec: &mut Recorder) {
        let for_plain = delta.clone();
        let for_maintained = delta.clone();
        rec.span("decomposed", |rec| {
            let changes = rec.span("store.apply", |_| self.plain.apply(for_plain));
            if let Some(log) = &self.log {
                self.epoch += 1;
                rec.span("store.persist.log_publish", |_| {
                    log.log_publish(self.epoch, self.plain.dict(), &changes, None)
                        .expect("private epoch log appends")
                });
            }
            rec.span("maintain.apply_and_maintain", |_| {
                self.maintainer
                    .apply_and_maintain(&mut self.maintained, for_maintained, &mut self.views)
                    .expect("private maintenance runs")
            });
        });
    }
}

/// One acknowledged batch.
#[derive(Debug, Clone, Copy)]
pub struct Acked {
    /// The op id its spans carry.
    pub request: u64,
    /// Observation-level operations in the batch.
    pub obs_ops: usize,
    pub latency_ns: u64,
}

/// What the writer saw.
#[derive(Debug, Default)]
pub struct WriteStats {
    pub acked: Vec<Acked>,
    pub failed: u64,
    pub triples: u64,
    pub ntriples_bytes: u64,
}

impl WriteStats {
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.acked.iter().map(|a| a.latency_ns).collect()
    }
}

/// Apply `batches` in order through `Engine::update` until `window` has
/// passed (or the batches run out). Returns how many were consumed; the
/// update at position `i` carries op id `request_base + i + 1`.
pub fn write_loop(
    engine: &Engine,
    batches: &[Batch],
    rec: &mut Recorder,
    request_base: u64,
    window: Duration,
    stats: &mut WriteStats,
) -> usize {
    let deadline = Instant::now() + window;
    let mut used = 0usize;
    for batch in batches {
        if Instant::now() >= deadline {
            break;
        }
        used += 1;
        let request = request_base + used as u64;
        rec.set_request(request);
        let delta = batch.delta.clone();
        let start = Instant::now();
        let result = rec.span("op.update", |rec| {
            rec.span("core.update", |_| engine.update(delta))
        });
        let elapsed = start.elapsed();
        match result {
            Ok(()) => {
                stats.acked.push(Acked {
                    request,
                    obs_ops: batch.obs_ops,
                    latency_ns: elapsed.as_nanos() as u64,
                });
                stats.triples += batch.triples() as u64;
                stats.ntriples_bytes += batch.ntriples_bytes as u64;
            }
            Err(_) => stats.failed += 1,
        }
    }
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofos_rdf::Term;

    #[test]
    fn fnv_metric_is_exact_in_f64() {
        let mut h = Fnv::default();
        h.write(b"sofos");
        let m = h.metric();
        assert_eq!(m as u64 as f64, m);
        assert!(m < (1u64 << 48) as f64);
    }

    #[test]
    fn batch_counts_ntriples_bytes() {
        let mut delta = Delta::new();
        delta.insert(Term::iri("a"), Term::iri("b"), Term::literal_int(1));
        let line = format!(
            "{} {} {} .\n",
            Term::iri("a"),
            Term::iri("b"),
            Term::literal_int(1)
        );
        assert_eq!(Batch::new(delta, 1).ntriples_bytes, line.len());
    }
}
