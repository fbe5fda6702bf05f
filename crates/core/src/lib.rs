//! # sofos-core — the SOFOS engine
//!
//! Ties the workspace together into the system of the paper's Figure 2:
//!
//! * the **offline module** ([`offline`]) sizes the facet's view lattice
//!   from one evaluation, builds a cost model (training the learned one
//!   on measured view-query times), runs greedy view selection under a
//!   budget, and materializes the chosen views into the expanded graph
//!   `G+`;
//! * the **engine** ([`engine`]) is the online module and the one front
//!   door: [`Engine::query`] answers through the rewriter when a
//!   materialized view covers the query and from the base graph
//!   otherwise, and [`Engine::update`] keeps the views fresh under a
//!   [`StalenessPolicy`]. Readers pin epoch snapshots while one writer
//!   publishes epochs; the policy machinery ([`policy`]) includes
//!   wall-clock bounded staleness driven by an injectable [`Clock`];
//! * the **adaptive layer** ([`adaptive`]) watches the engine's sliding
//!   workload/update profile ([`DriftDetector`]) and re-selects + swaps
//!   the materialized set when it drifts ([`Reselector`]);
//! * the **comparison runner** ([`compare`]) repeats offline + online for
//!   each cost model on identical workloads — [`measure_workload`] times
//!   every query through an [`Engine`] and validates view answers against
//!   the base graph — and tabulates query time vs. space amplification
//!   ([`report`]).
//!
//! ```
//! use sofos_core::{compare_cost_models, EngineConfig};
//! use sofos_cost::CostModelKind;
//! use sofos_workload::dbpedia;
//!
//! let g = dbpedia::generate(&dbpedia::Config {
//!     countries: 6, years: 2, ..dbpedia::Config::default()
//! });
//! let mut config = EngineConfig::default();
//! config.workload.num_queries = 5;
//! config.timing_reps = 1;
//! let report = compare_cost_models(
//!     g.name,
//!     &g.dataset,
//!     g.default_facet(),
//!     &[CostModelKind::Triples, CostModelKind::Nodes],
//!     &config,
//! )
//! .unwrap();
//! assert_eq!(report.models.len(), 2);
//! println!("{}", report.to_table());
//! ```
//!
//! ## Observability
//!
//! Every engine carries a [`MetricsHandle`] — a lock-free recording
//! surface for serve latency, freshness lag, maintenance pipeline
//! timings, and epoch lifecycle. Pass one through
//! [`EngineBuilder::metrics`] to share it with an exporter, or read the
//! engine's own via [`Engine::metrics`]:
//!
//! ```
//! use sofos_core::{Engine, MetricsHandle};
//! # use sofos_workload::dbpedia;
//! # let g = dbpedia::generate(&dbpedia::Config {
//! #     countries: 4, years: 2, ..dbpedia::Config::default()
//! # });
//! let engine = Engine::builder()
//!     .dataset(g.dataset)
//!     .facet(g.facets[0].clone())
//!     .metrics(MetricsHandle::new())
//!     .build()
//!     .unwrap();
//! engine.query(&sofos_sparql::parse_query(
//!     "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }").unwrap()).unwrap();
//! let snapshot = engine.metrics().snapshot();
//! println!("{}", snapshot.to_prometheus_text());
//! ```

pub mod adaptive;
pub mod compare;
pub mod config;
pub mod engine;
mod metrics;
pub mod offline;
pub mod policy;
pub mod report;
pub mod timing;
pub mod validate;

pub use adaptive::{DriftDetector, ReselectionReport, Reselector};
pub use compare::{compare_cost_models, measure_workload, OnlineOutcome};
pub use config::EngineConfig;
pub use engine::{
    Backend, Engine, EngineBuildError, EngineBuilder, RecoveryReport, Route, SessionAnswer,
    ViewChurn,
};
pub use offline::{build_model, run_offline, time_view_queries, OfflineOutcome, SizedLattice};
pub use policy::{Clock, Freshness, ManualClock, StalenessPolicy, SystemClock};
pub use report::{render_table, ComparisonReport, ModelRow};
pub use sofos_select::WorkloadProfile;
pub use sofos_store::DurabilityConfig;
pub use sofos_telemetry::{Event, EventKind, MetricsHandle, MetricsSnapshot};
pub use timing::{measure_median, measure_once, TimeSummary};
pub use validate::results_equivalent;

#[cfg(test)]
mod tests {
    use super::*;
    use compare::tests::offline_engine;
    use sofos_cost::CostModelKind;
    use sofos_workload::{dbpedia, generate_workload, GeneratedDataset, WorkloadConfig};

    fn small() -> GeneratedDataset {
        dbpedia::generate(&dbpedia::Config {
            countries: 8,
            years: 2,
            ..dbpedia::Config::default()
        })
    }

    /// Agg-values selection profiled on `num_queries` generated queries,
    /// served over `G+`; returns the workload too.
    fn offline_then_engine(
        g: &GeneratedDataset,
        num_queries: usize,
    ) -> (OfflineOutcome, Engine, Vec<sofos_workload::GeneratedQuery>) {
        let config = WorkloadConfig {
            num_queries,
            ..WorkloadConfig::default()
        };
        let workload = generate_workload(&g.dataset, g.default_facet(), &config);
        let profile = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));
        let (offline, engine) = offline_engine(
            &g.dataset,
            g.default_facet(),
            &profile,
            CostModelKind::AggValues,
            &EngineConfig::default(),
        );
        (offline, engine, workload)
    }

    #[test]
    fn offline_then_online_round_trip() {
        let g = small();
        let (offline, engine, workload) = offline_then_engine(&g, 8);
        assert_eq!(offline.materialized.len(), 4);
        let online = measure_workload(&engine, &workload, 1, &g.dataset).unwrap();
        assert!(online.all_valid);
        assert!(online.view_hits > 0);
    }

    #[test]
    fn adhoc_queries_work() {
        let g = small();
        let engine = Engine::builder()
            .dataset(g.dataset.clone())
            .facet(g.default_facet().clone())
            .build()
            .unwrap();
        let query =
            sofos_sparql::parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }").unwrap();
        let answer = engine.query(&query).unwrap();
        assert_eq!(answer.route, Route::BaseGraph, "not a facet query");
        assert_eq!(answer.results.len(), 1);
    }

    #[test]
    fn sofos_into_engine_bridges_to_serving() {
        let (_, engine, _) = offline_then_engine(&small(), 5);
        assert_eq!(engine.backend_name(), "epoch");
        assert_eq!(engine.views().len(), 4);
    }
}
