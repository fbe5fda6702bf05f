//! The one front door: [`Engine`], the SOFOS serving engine over an epoch
//! store.
//!
//! SOFOS's demo value is letting a user flip one knob (cost model, budget,
//! λ, staleness bound) and watch the trade-off move. Every such knob is a
//! builder call on the one engine:
//!
//! ```
//! use sofos_core::{Engine, StalenessPolicy};
//! use sofos_workload::synthetic;
//!
//! let g = synthetic::generate(&synthetic::Config::default());
//! let engine = Engine::builder()
//!     .dataset(g.dataset.clone())
//!     .facet(g.default_facet().clone())
//!     .staleness(StalenessPolicy::bounded(4, 2))
//!     .build()
//!     .unwrap();
//! assert_eq!(engine.backend_name(), "epoch");
//! ```
//!
//! Readers pin immutable snapshots of an [`EpochStore`] and never wait for
//! the writer; one writer applies each batch, plans and applies every
//! view's patch, and publishes the batch as a single epoch (the write and
//! read paths live in `engine/epoch.rs`). The staleness policies — eager /
//! lazy-on-hit / invalidate / bounded — are the [`crate::policy`] state
//! machines (pending-log cursors, freshness tagging, flush accounting)
//! expressed over epochs, next to the sliding demand/churn windows the
//! adaptive layer ([`crate::adaptive`]) reads. The conformance suite
//! (`crates/core/tests/engine_conformance.rs`) checks every answer against
//! a plain [`Dataset`] that the same deltas are applied to.
//!
//! Wall-clock staleness ([`StalenessPolicy::Bounded`]'s `max_lag_ms`) is
//! driven by an injected [`Clock`] ([`EngineBuilder::clock`]), so
//! bounded-staleness behaviour is property-testable with a
//! [`crate::policy::ManualClock`].

mod epoch;

use crate::metrics::EngineInstruments;
use crate::policy::{system_clock, Clock, Freshness, StalenessPolicy};
use epoch::{ServingState, WriterSide};
use sofos_cube::{Facet, ViewMask};
use sofos_materialize::materialize_view;
use sofos_sparql::QueryResults;
use sofos_store::{Dataset, DurabilityConfig, EpochStore, Persister};
use sofos_telemetry::MetricsHandle;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Serving types
// ---------------------------------------------------------------------------

/// Where a query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Rewritten against a materialized view.
    View(ViewMask),
    /// Fell back to the base graph.
    BaseGraph,
}

/// One query's answer inside an engine.
#[derive(Debug, Clone)]
pub struct SessionAnswer {
    /// Where the query was answered.
    pub route: Route,
    /// The results.
    pub results: QueryResults,
    /// Maintenance time this query triggered (lazy repairs, forced
    /// bounded flushes), µs.
    pub maintenance_us: u64,
    /// How fresh the served state was (always fresh outside the bounded
    /// policy).
    pub freshness: Freshness,
}

/// What a [`Engine::swap_views`] actually changed.
#[derive(Debug, Clone)]
pub struct ViewChurn {
    /// Views materialized by the swap, in catalog order.
    pub added: Vec<ViewMask>,
    /// Views dropped by the swap.
    pub retired: Vec<ViewMask>,
    /// Views present before and after (maintenance state preserved).
    pub kept: Vec<ViewMask>,
    /// Wall time spent materializing the added views (µs).
    pub materialize_us: u64,
    /// Wall time spent dropping the retired views (µs).
    pub drop_us: u64,
}

impl ViewChurn {
    /// Views touched by the swap (`added + retired`) — 0 means the
    /// re-selection confirmed the standing set.
    pub fn churned(&self) -> usize {
        self.added.len() + self.retired.len()
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Accepted by [`EngineBuilder::backend`] and ignored, fields included:
/// the engine has one backend, the epoch store. Both exist only because
/// the claim benchmark's fixture (`benchmarks/sofos-e2e/src/fixture.rs`)
/// spells `Backend::Epoch { shards, threads }`, and only a
/// benchmark-maintenance change may edit that fixture; ROADMAP direction
/// 1(e) deletes all three together.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    /// The epoch store.
    Epoch {
        /// Ignored.
        shards: usize,
        /// Ignored.
        threads: usize,
    },
}

/// What [`EngineBuilder::build`] can reject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineBuildError {
    /// No dataset was provided.
    MissingDataset,
    /// No facet was provided.
    MissingFacet,
    /// Opening, recovering, or baselining the durable store failed.
    Persistence(String),
}

impl std::fmt::Display for EngineBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineBuildError::MissingDataset => {
                f.write_str("Engine::builder() needs a dataset (EngineBuilder::dataset)")
            }
            EngineBuildError::MissingFacet => {
                f.write_str("Engine::builder() needs a facet (EngineBuilder::facet)")
            }
            EngineBuildError::Persistence(detail) => {
                write!(f, "durable store failed to open: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineBuildError {}

/// What crash recovery did while building a durable engine — `None` on
/// [`Engine::recovery`] means the data directory was fresh (or the
/// engine is in-memory) and serving started from the builder's dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch serving resumed at (the newest epoch the log covers).
    pub epoch: u64,
    /// The epoch of the snapshot recovery started from (0 = none).
    pub snapshot_epoch: u64,
    /// Log records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Bytes of torn log tail truncated (an interrupted final append).
    pub truncated_bytes: u64,
    /// Catalog views rebuilt from the recovered base graph (replaying a
    /// log tail only restores base mutations; view graphs are exact in
    /// snapshots, so a non-empty tail forces re-materialization).
    pub rematerialized_views: usize,
}

/// Builder for [`Engine`] — dataset and facet are required, everything
/// else has serving defaults (empty catalog, eager staleness, system
/// clock, in-memory store).
pub struct EngineBuilder {
    dataset: Option<Dataset>,
    facet: Option<Facet>,
    catalog: Vec<(ViewMask, usize)>,
    policy: StalenessPolicy,
    clock: Option<Arc<dyn Clock>>,
    metrics: Option<MetricsHandle>,
    durability: Option<DurabilityConfig>,
}

impl EngineBuilder {
    /// The (expanded) dataset to serve — `G+` when the catalog's views
    /// are already materialized into named graphs.
    pub fn dataset(mut self, dataset: Dataset) -> EngineBuilder {
        self.dataset = Some(dataset);
        self
    }

    /// The analytical facet.
    pub fn facet(mut self, facet: Facet) -> EngineBuilder {
        self.facet = Some(facet);
        self
    }

    /// The view catalog (mask + row count), as produced by
    /// [`crate::offline::OfflineOutcome::view_catalog`]. The views must
    /// already be materialized in the dataset. Defaults to empty (every
    /// query falls back to the base graph).
    pub fn catalog(mut self, catalog: Vec<(ViewMask, usize)>) -> EngineBuilder {
        self.catalog = catalog;
        self
    }

    /// The staleness policy (default: [`StalenessPolicy::Eager`]).
    pub fn staleness(mut self, policy: StalenessPolicy) -> EngineBuilder {
        self.policy = policy;
        self
    }

    /// Accepts a [`Backend`] and ignores it (see there).
    pub fn backend(self, _backend: Backend) -> EngineBuilder {
        self
    }

    /// The clock driving wall-clock staleness bounds (default:
    /// [`crate::policy::SystemClock`]). Inject a
    /// [`crate::policy::ManualClock`] to test `max_lag_ms` behaviour.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> EngineBuilder {
        self.clock = Some(clock);
        self
    }

    /// The metrics handle the engine records into (default: a fresh
    /// enabled [`MetricsHandle`]). Inject a shared handle to aggregate
    /// several engines into one registry, or
    /// [`MetricsHandle::disabled`] to skip recording entirely.
    pub fn metrics(mut self, metrics: MetricsHandle) -> EngineBuilder {
        self.metrics = Some(metrics);
        self
    }

    /// Persist every published epoch under `config.dir` and recover from
    /// it on the next build (default: in-memory only; see
    /// `sofos_store::persist` for the log/snapshot format).
    ///
    /// When the directory already holds state, the *recovered* dataset
    /// and catalog replace whatever the builder was given, and
    /// [`Engine::recovery`] reports what replaying the log did.
    pub fn durability(mut self, config: DurabilityConfig) -> EngineBuilder {
        self.durability = Some(config);
        self
    }

    /// Assemble the engine.
    pub fn build(self) -> Result<Engine, EngineBuildError> {
        let dataset = self.dataset.ok_or(EngineBuildError::MissingDataset)?;
        let facet = self.facet.ok_or(EngineBuildError::MissingFacet)?;
        let (store, views, recovery) = match self.durability {
            None => (EpochStore::new(dataset), self.catalog, None),
            Some(config) => open_durable(config, dataset, self.catalog, &facet)?,
        };
        Ok(Engine {
            store,
            writer: Mutex::new(WriterSide::new(&facet)),
            serving: Mutex::new(ServingState::new(views)),
            facet,
            policy: self.policy,
            clock: self.clock.unwrap_or_else(system_clock),
            metrics: EngineInstruments::new(self.metrics.unwrap_or_default()),
            recovery,
        })
    }
}

/// Open the durable epoch store: recover the directory's state (newest
/// snapshot + log-tail replay) or, on a fresh directory, anchor the log
/// at the builder's dataset with a baseline snapshot.
///
/// Returns the store plus the catalog serving must start from — the
/// recovered one when the directory held state, the builder's otherwise.
type DurableOpen = (EpochStore, Vec<(ViewMask, usize)>, Option<RecoveryReport>);

fn open_durable(
    config: DurabilityConfig,
    dataset: Dataset,
    catalog: Vec<(ViewMask, usize)>,
    facet: &Facet,
) -> Result<DurableOpen, EngineBuildError> {
    let persist_err = |e: sofos_store::PersistError| EngineBuildError::Persistence(e.to_string());
    let (persister, recovered) = Persister::open(config).map_err(persist_err)?;
    let persister = Arc::new(persister);
    match recovered {
        None => {
            // Fresh directory: the builder's dataset IS the initial
            // state, and its terms (offline materialization included)
            // were interned outside the logged path — a baseline
            // snapshot re-anchors the log's dictionary coverage so the
            // first record's dict tail starts where this dataset ends.
            let pairs: Vec<(u64, u64)> = catalog
                .iter()
                .map(|&(mask, rows)| (mask.0, rows as u64))
                .collect();
            persister
                .baseline(&dataset, 0, &pairs)
                .map_err(persist_err)?;
            Ok((EpochStore::recovered(dataset, 0, persister), catalog, None))
        }
        Some(rec) => {
            // Existing state: the directory's history wins over whatever
            // the builder was given for a fresh boot.
            let mut dataset = rec.dataset;
            let mut catalog: Vec<(ViewMask, usize)> = rec
                .catalog
                .iter()
                .map(|&(mask, rows)| (ViewMask(mask), rows as usize))
                .collect();
            let mut rematerialized = 0usize;
            if rec.replayed_records > 0 {
                // The log tail only covers base-graph mutations (and
                // catalog identity); view graph *contents* are exact only
                // in full snapshots. Drop every named graph the snapshot
                // carried — including views the replayed tail retired —
                // and rebuild the recovered catalog from the recovered
                // base. Maintenance correctness makes this bit-equal to
                // the views the crashed process served.
                for name in dataset.graph_names() {
                    dataset.drop_graph(name);
                }
                for entry in catalog.iter_mut() {
                    let view = materialize_view(&mut dataset, facet, entry.0).map_err(|e| {
                        EngineBuildError::Persistence(format!(
                            "re-materializing view {:#x} after replay: {e}",
                            entry.0 .0
                        ))
                    })?;
                    entry.1 = view.stats.rows;
                    rematerialized += 1;
                }
                // Re-materialization interned outside the log: re-anchor
                // before the next publish or replay would hit dictionary
                // gaps on the *next* recovery.
                let pairs: Vec<(u64, u64)> = catalog
                    .iter()
                    .map(|&(mask, rows)| (mask.0, rows as u64))
                    .collect();
                persister
                    .baseline(&dataset, rec.epoch, &pairs)
                    .map_err(persist_err)?;
            }
            let report = RecoveryReport {
                epoch: rec.epoch,
                snapshot_epoch: rec.snapshot_epoch,
                replayed_records: rec.replayed_records,
                truncated_bytes: rec.truncated_bytes,
                rematerialized_views: rematerialized,
            };
            Ok((
                EpochStore::recovered(dataset, rec.epoch, persister),
                catalog,
                Some(report),
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// The SOFOS serving engine: concurrent readers on pinned epoch
/// snapshots, one writer, every [`StalenessPolicy`].
///
/// Construct with [`Engine::builder`]. All methods take `&self`: an
/// `Arc<Engine>` can be shared across reader and writer threads. The
/// serving operations ([`Engine::query`], [`Engine::update`],
/// [`Engine::swap_views`], [`Engine::flush`]) and the adaptive-layer
/// observations live in `engine/epoch.rs`.
pub struct Engine {
    store: EpochStore,
    facet: Facet,
    policy: StalenessPolicy,
    clock: Arc<dyn Clock>,
    writer: Mutex<WriterSide>,
    serving: Mutex<ServingState>,
    /// Pre-registered telemetry instruments (serve latency, freshness
    /// lag, epoch lifecycle, pipeline phase timings).
    metrics: EngineInstruments,
    recovery: Option<RecoveryReport>,
}

impl Engine {
    /// Start building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            dataset: None,
            facet: None,
            catalog: Vec::new(),
            policy: StalenessPolicy::Eager,
            clock: None,
            metrics: None,
            durability: None,
        }
    }

    /// Whether this engine persists published epochs
    /// ([`EngineBuilder::durability`]).
    pub fn durability_enabled(&self) -> bool {
        self.store.persister().is_some()
    }

    /// What crash recovery did at build time: `Some` iff the engine is
    /// durable *and* its data directory already held state.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The facet.
    pub fn facet(&self) -> &Facet {
        &self.facet
    }

    /// The staleness policy.
    pub fn policy(&self) -> StalenessPolicy {
        self.policy
    }

    /// The engine's metrics handle: serve-latency and freshness-lag
    /// histograms, flush/epoch/maintenance counters, recent events —
    /// everything the engine records while serving. Snapshot it at any
    /// time ([`MetricsHandle::snapshot`]) and render to JSON or
    /// Prometheus text.
    pub fn metrics(&self) -> &MetricsHandle {
        self.metrics.handle()
    }

    /// The engine clock's current time (ms) — the injected
    /// [`Clock`]'s reading, also used to timestamp telemetry events.
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// A handle on the injected [`Clock`] — the time source deadline-
    /// driven work (e.g. anytime re-selection budgets) must run against
    /// so `ManualClock` tests stay deterministic.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// `"epoch"`: the value of the `backend` label on every metric the
    /// engine records, which dashboards and the claim benchmark look
    /// gauges up by.
    pub fn backend_name(&self) -> &'static str {
        crate::metrics::BACKEND_LABEL
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("backend", &self.backend_name())
            .field("policy", &self.policy)
            .field("facet", &self.facet.id)
            .field("views", &self.views().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::offline::{run_offline, SizedLattice};
    use crate::policy::ManualClock;
    use crate::validate::results_equivalent;
    use sofos_cost::CostModelKind;
    use sofos_cube::AggOp;
    use sofos_rdf::Term;
    use sofos_select::WorkloadProfile;
    use sofos_sparql::Evaluator;
    use sofos_store::Delta;
    use sofos_workload::{synthetic, GeneratedQuery};

    fn built(
        policy: StalenessPolicy,
        clock: Option<Arc<dyn Clock>>,
    ) -> (Engine, Vec<GeneratedQuery>) {
        let g = synthetic::generate(&synthetic::Config {
            observations: 120,
            agg: AggOp::Avg, // SUM+COUNT components: all aggs derivable except MIN/MAX
            ..synthetic::Config::default()
        });
        let facet = g.facets[0].clone();
        let mut ds = g.dataset;
        let sized = SizedLattice::compute(&ds, &facet).unwrap();
        let profile = WorkloadProfile::uniform(&sized.lattice);
        let offline = run_offline(
            &mut ds,
            &sized,
            &profile,
            CostModelKind::AggValues,
            &EngineConfig::default(),
        )
        .unwrap();
        let workload = sofos_workload::generate_workload(
            &ds,
            &facet,
            &sofos_workload::WorkloadConfig {
                num_queries: 10,
                ..Default::default()
            },
        );
        let mut builder = Engine::builder()
            .dataset(ds)
            .facet(facet)
            .catalog(offline.view_catalog())
            .staleness(policy);
        if let Some(clock) = clock {
            builder = builder.clock(clock);
        }
        (builder.build().expect("engine builds"), workload)
    }

    fn setup(policy: StalenessPolicy) -> (Engine, Vec<GeneratedQuery>) {
        built(policy, None)
    }

    /// One update batch: fresh observations landing on rotating groups.
    fn session_delta(batch: usize) -> Delta {
        use sofos_workload::synthetic::NS;
        let mut delta = Delta::new();
        for i in 0..3usize {
            let node = Term::blank(format!("u{batch}_{i}"));
            for d in 0..3usize {
                delta.insert(
                    node.clone(),
                    Term::iri(format!("{NS}dim{d}")),
                    Term::iri(format!("{NS}v{d}_{}", (batch + i + d) % 3)),
                );
            }
            delta.insert(
                node,
                Term::iri(format!("{NS}measure")),
                Term::literal_int(100 + (batch * 7 + i) as i64),
            );
        }
        delta
    }

    fn assert_answers_match_base(engine: &Engine, workload: &[GeneratedQuery]) {
        for q in workload {
            let answer = engine.query(&q.query).expect("engine query runs");
            let snapshot = engine.snapshot();
            let reference = Evaluator::new(&snapshot)
                .evaluate(&q.query)
                .expect("base evaluation runs");
            assert!(
                results_equivalent(&answer.results, &reference),
                "engine answer diverged from base graph for {}",
                q.text
            );
        }
    }

    #[test]
    fn builder_requires_dataset_and_facet() {
        assert_eq!(
            Engine::builder().build().unwrap_err(),
            EngineBuildError::MissingDataset
        );
        let g = synthetic::generate(&synthetic::Config::default());
        assert_eq!(
            Engine::builder().dataset(g.dataset).build().unwrap_err(),
            EngineBuildError::MissingFacet
        );
        assert!(EngineBuildError::MissingDataset
            .to_string()
            .contains("dataset"));
    }

    #[test]
    fn backend_names_and_display() {
        let (engine, _) = setup(StalenessPolicy::Eager);
        assert_eq!(engine.backend_name(), "epoch");
        assert!(format!("{engine:?}").contains("epoch"));
    }

    #[test]
    fn eager_engine_maintains_views_on_update_on_both_backends() {
        let (engine, workload) = setup(StalenessPolicy::Eager);
        for batch in 0..3 {
            engine.update(session_delta(batch)).unwrap();
            assert_eq!(engine.stale_views(), 0, "eager never goes stale");
        }
        assert_eq!(engine.update_batches(), 3);
        assert_eq!(engine.epoch(), 3, "one epoch per eager batch");
        assert!(!engine.maintenance().per_view.is_empty());
        assert_answers_match_base(&engine, &workload);
        let (hits, _) = engine.routing_counts();
        assert!(hits > 0, "rewriter still routes to views");
    }

    #[test]
    fn lazy_engine_repairs_views_on_first_hit_on_both_backends() {
        let (engine, workload) = setup(StalenessPolicy::LazyOnHit);
        let views_before = engine.views().len();
        engine.update(session_delta(0)).unwrap();
        assert_eq!(
            engine.stale_views(),
            views_before,
            "updates leave every view stale under lazy"
        );
        assert!(
            engine.maintenance().per_view.is_empty(),
            "no maintenance at update time"
        );
        assert_answers_match_base(&engine, &workload);
        assert!(
            !engine.maintenance().per_view.is_empty(),
            "query hits triggered lazy repairs"
        );
        assert!(
            engine.stale_views() < views_before,
            "hit views are repaired"
        );

        // A second pass over the same workload triggers no further
        // repairs.
        let repairs = engine.maintenance().per_view.len();
        assert_answers_match_base(&engine, &workload);
        assert_eq!(engine.maintenance().per_view.len(), repairs);
    }

    #[test]
    fn invalidate_engine_drops_views_and_falls_back_on_both_backends() {
        let (engine, workload) = setup(StalenessPolicy::Invalidate);
        assert!(!engine.views().is_empty());
        engine.update(session_delta(0)).unwrap();
        assert!(engine.views().is_empty(), "catalog dropped");
        assert!(
            engine.snapshot().graph_names().is_empty(),
            "view graphs are gone"
        );
        assert_answers_match_base(&engine, &workload);
        let (hits, fallbacks) = engine.routing_counts();
        assert_eq!(hits, 0);
        assert_eq!(fallbacks, workload.len());
    }

    #[test]
    fn engine_tracks_window_profile_and_rates() {
        let (engine, workload) = setup(StalenessPolicy::Eager);
        assert_eq!(engine.window_profile().total_weight(), 0.0);
        assert_eq!(engine.observed_rates(), sofos_cost::UpdateRates::FROZEN);

        for q in &workload {
            engine.query(&q.query).unwrap();
        }
        let profile = engine.window_profile();
        assert_eq!(profile.total_weight(), workload.len() as f64);

        engine.update(session_delta(0)).unwrap();
        let rates = engine.observed_rates();
        // session_delta inserts 3 complete 4-triple stars (3 dims +
        // measure).
        assert!((rates.inserts_per_round - 3.0).abs() < 1e-9, "{rates:?}");
        assert_eq!(rates.deletes_per_round, 0.0);
    }

    #[test]
    fn engine_tracks_per_group_churn() {
        let (engine, _workload) = setup(StalenessPolicy::Eager);
        assert!(engine.churn_profile().is_empty());
        engine.update(session_delta(0)).unwrap();
        let profile = engine.churn_profile();
        assert!(!profile.is_empty());
        assert!(profile.values().all(|&w| w > 0.0));
    }

    #[test]
    fn swap_views_reports_churn_and_stays_consistent_on_both_backends() {
        let (engine, workload) = setup(StalenessPolicy::Eager);
        let before: Vec<ViewMask> = engine.views().iter().map(|(m, _)| *m).collect();
        assert!(!before.is_empty());

        // Swap to: keep the first standing view, add the apex (not
        // selected by the offline pass here), retire the rest.
        let kept = before[0];
        assert!(
            !before.contains(&ViewMask::APEX),
            "test needs the apex to be a genuine addition"
        );
        let target = [kept, ViewMask::APEX];
        let churn = engine.swap_views(&target).unwrap();
        assert_eq!(churn.added, vec![ViewMask::APEX]);
        assert_eq!(churn.kept, vec![kept]);
        assert_eq!(churn.retired.len(), before.len() - 1);
        assert_eq!(churn.churned(), 1 + before.len() - 1);
        assert_eq!(engine.views().len(), 2);
        assert_eq!(
            engine.snapshot().graph_names().len(),
            2,
            "one named graph per catalog view after the swap"
        );
        // The swapped catalog still serves correct answers.
        assert_answers_match_base(&engine, &workload);
    }

    #[test]
    fn swap_views_across_updates_keeps_answers_fresh() {
        let (engine, workload) = setup(StalenessPolicy::LazyOnHit);
        engine.update(session_delta(0)).unwrap();
        // Swap while every standing view is stale: new views
        // materialize from the *updated* base graph, kept ones repair
        // lazily.
        let kept = engine.views()[0].0;
        engine.swap_views(&[kept, ViewMask::APEX]).unwrap();
        engine.update(session_delta(1)).unwrap();
        assert_answers_match_base(&engine, &workload);
    }

    #[test]
    fn bounded_epoch_coalesces_batches_into_one_epoch_and_tags_reads() {
        let (engine, workload) = setup(StalenessPolicy::bounded(3, 10));
        // Two buffered batches: nothing published, reads lag and say so.
        engine.update(session_delta(0)).unwrap();
        engine.update(session_delta(1)).unwrap();
        assert_eq!(engine.epoch(), 0, "buffered batches publish nothing");
        assert_eq!(engine.buffered_updates(), 2);
        let answer = engine.query(&workload[0].query).unwrap();
        assert_eq!(answer.freshness.lag, 2);
        assert!(!answer.freshness.is_fresh());
        assert_eq!(answer.freshness.epoch, 0);

        // The third batch crosses max_batches: one flush, ONE epoch.
        engine.update(session_delta(2)).unwrap();
        assert_eq!(engine.epoch(), 1, "three batches, one epoch");
        assert_eq!(engine.buffered_updates(), 0);
        assert!(!engine.maintenance().per_view.is_empty());
        assert_eq!(engine.stale_views(), 0, "flush maintains every view");
        let answer = engine.query(&workload[0].query).unwrap();
        assert!(answer.freshness.is_fresh());
        assert_eq!(answer.freshness.epoch, 1);
        assert_answers_match_base(&engine, &workload);

        // The pipeline split was measured.
        let telemetry = engine.pipeline_telemetry().expect("always measured");
        assert!(telemetry.serial_us + telemetry.parallel_work_us > 0);
        assert!(telemetry.serial_fraction().is_some());
    }

    #[test]
    fn bounded_epoch_lag_budget_forces_single_batch_flushes_at_serve_time() {
        let (engine, workload) = setup(StalenessPolicy::bounded(100, 1));
        for batch in 0..3 {
            engine.update(session_delta(batch)).unwrap();
        }
        assert_eq!(engine.buffered_updates(), 3, "3 > budget 1, unserved");
        // The read trips the budget: serve-path flushes drain one batch
        // per check until the lag is within budget — two single-batch
        // epochs here, not one three-batch epoch.
        let answer = engine.query(&workload[0].query).unwrap();
        assert!(
            answer.freshness.lag <= 1,
            "no read is served past max_epoch_lag"
        );
        assert_eq!(
            engine.epoch(),
            2,
            "the forced flush published one epoch per drained batch"
        );
        assert_eq!(engine.buffered_updates(), 1, "within budget, one left");
        engine.flush().unwrap();
        assert_answers_match_base(&engine, &workload);
    }

    #[test]
    fn flush_repairs_lazy_stale_views_on_both_backends() {
        let (engine, workload) = setup(StalenessPolicy::LazyOnHit);
        engine.update(session_delta(0)).unwrap();
        assert!(engine.stale_views() > 0, "update left views stale");
        engine.flush().unwrap();
        assert_eq!(
            engine.stale_views(),
            0,
            "flush drains ALL deferred maintenance, not just buffers"
        );
        // No repair happens at query time now: the flush did it all.
        let repairs = engine.maintenance().per_view.len();
        assert_answers_match_base(&engine, &workload);
        assert_eq!(engine.maintenance().per_view.len(), repairs);
    }

    #[test]
    fn explicit_flush_drains_the_buffer() {
        let (engine, workload) = setup(StalenessPolicy::bounded(100, 100));
        engine.flush().expect("empty flush is a no-op");
        assert_eq!(engine.epoch(), 0);
        engine.update(session_delta(0)).unwrap();
        engine.flush().unwrap();
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.buffered_updates(), 0);
        assert_answers_match_base(&engine, &workload);
    }

    #[test]
    fn wall_clock_bound_forces_service_before_serving_on_both_backends() {
        let clock = ManualClock::shared(0);
        let (engine, workload) = built(
            // Generous batch/epoch budgets: only the clock can trip.
            StalenessPolicy::bounded_ms(100, 100, 50),
            Some(clock.clone() as Arc<dyn Clock>),
        );
        engine.update(session_delta(0)).unwrap();
        engine.update(session_delta(1)).unwrap();

        // Within the wall-clock budget: served stale, tagged.
        clock.advance(50);
        let answer = engine.query(&workload[0].query).unwrap();
        assert_eq!(answer.freshness.lag, 2, "tag carries the buffered lag");

        // Past the budget: the serve path flushes first.
        clock.advance(1);
        let answer = engine.query(&workload[0].query).unwrap();
        assert_eq!(
            engine.buffered_updates(),
            0,
            "the clock check drained the buffer"
        );
        assert!(answer.freshness.is_fresh());
        assert_answers_match_base(&engine, &workload);
    }

    #[test]
    fn readers_overlap_a_writing_engine() {
        let (engine, workload) = setup(StalenessPolicy::Eager);
        let engine = std::sync::Arc::new(engine);
        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for r in 0..3 {
                let engine = std::sync::Arc::clone(&engine);
                let workload = &workload;
                readers.push(scope.spawn(move || {
                    for i in 0..20 {
                        let q = &workload[(r + i) % workload.len()];
                        let answer = engine.query(&q.query).expect("query runs");
                        assert!(answer.results.len() < 10_000);
                    }
                }));
            }
            for batch in 0..5 {
                engine.update(session_delta(batch)).expect("update runs");
            }
            for handle in readers {
                handle.join().expect("reader ran clean");
            }
        });
        // After the dust settles, answers are exact.
        assert_answers_match_base(&engine, &workload);
    }
}
