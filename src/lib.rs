//! # SOFOS — facade crate
//!
//! Re-exports the full SOFOS workspace behind a single dependency, so a
//! downstream user can `cargo add sofos` and reach every subsystem:
//!
//! ```
//! use sofos::core::Engine;         // the online module: the serving engine
//! use sofos::workload::dbpedia;    // dataset generators
//! use sofos::cost::CostModelKind;  // the six cost models
//! ```
//!
//! ## Architecture
//!
//! The workspace is layered bottom-up:
//!
//! * [`rdf`] — terms, dictionary interning, Turtle/N-Triples I/O;
//! * [`store`] — the triple store: three permutation indexes (sorted
//!   `Arc`-shared run, delta and tombstone slices) per graph, the dataset (`G+` = base graph + one named graph per view),
//!   live base-graph statistics, and the **transactional write path**
//!   ([`store::Delta`] / `Dataset::apply` → [`store::ChangeSet`]);
//! * [`sparql`] — parser, planner, and evaluator for the SPARQL subset;
//! * [`cube`] — facets `F = ⟨X̄, P, agg(u)⟩`, view masks, lattices, and
//!   query generation;
//! * [`cost`] — the six query-cost models of the paper (including the
//!   learned one), plus maintenance cost models
//!   ([`cost::MaintenanceCostModel`]) pricing per-view upkeep under an
//!   update stream;
//! * [`select`] — greedy budgeted view selection, optionally under the
//!   combined objective `query_cost + λ·maintenance_cost`
//!   ([`select::Objective`]);
//! * [`materialize`] — encodes view results as RDF observations inside
//!   named graphs of `G+`;
//! * [`rewrite`] — answers facet queries from materialized views;
//! * [`maintain`] — **incremental view maintenance** for a living `G+`:
//!   propagates change sets into view graphs with the counting algorithm
//!   (SUM/COUNT/AVG patched in place, MIN/MAX re-evaluated per group on
//!   deletes, emptied groups retracted — except the apex's implicit
//!   group, which survives like SPARQL says it must) and reports
//!   per-view [`maintain::MaintenanceCost`];
//! * [`workload`] — dataset generators, query workloads, and zipf-skewed
//!   update streams;
//! * [`core`] — ties it together: the offline phase (size → select →
//!   materialize), the cost-model comparison measured through the engine,
//!   and the **one front door** that answers every query — [`core::Engine`],
//!   built via
//!   `Engine::builder().dataset(..).facet(..).catalog(..).staleness(..)
//!   .clock(..)`. The engine serves interleaved updates and queries
//!   under a [`core::StalenessPolicy`] (eager, lazy-on-hit, or
//!   bounded — by batch count, epoch lag, *and* wall-clock
//!   `max_lag_ms` via an injectable [`core::Clock`]): readers pin
//!   immutable epoch snapshots while one writer publishes batched
//!   epochs, the policies run on [`core::policy`], and a conformance
//!   property suite checks every answer against a plain dataset fed the
//!   same deltas. On top sits the adaptive layer: sliding workload/update
//!   profiles, [`core::DriftDetector`], and the [`core::Reselector`] that
//!   re-selects and swaps the materialized set when the workload drifts.
//!   Every engine also carries a
//!   lock-free telemetry layer ([`core::MetricsHandle`], from
//!   `sofos-telemetry`): serve latency and freshness-lag histograms,
//!   maintenance pipeline timings, epoch lifecycle gauges, and a bounded
//!   event ring, exportable as JSON or Prometheus text via
//!   `engine.metrics().snapshot()`;
//! * [`telemetry`] — the dependency-free metrics substrate the engine
//!   embeds (counters, gauges, histograms, Prometheus rendering) plus the
//!   hand-rolled [`telemetry::Json`] value shared by the bench reports
//!   and the server's wire format;
//! * [`server`] — the serving tier: a hand-rolled HTTP/1.1 front door
//!   ([`server::serve`]) that shares one `Arc<Engine>` across a fixed
//!   worker pool. `POST /query` answers with route, results, and
//!   freshness tags; `POST /update` ingests N-Triples deltas;
//!   `GET /metrics` renders Prometheus text; `GET /healthz` reports
//!   engine state. Admission control refuses with `503 Retry-After`
//!   beyond a configurable in-flight depth (and pending-log cap), so
//!   overload degrades into fast rejections instead of unbounded
//!   queueing; `ServerHandle::shutdown` drains gracefully.
//!
//! See the individual crates for the subsystem documentation.

pub use sofos_core as core;
pub use sofos_cost as cost;
pub use sofos_cube as cube;
pub use sofos_maintain as maintain;
pub use sofos_materialize as materialize;
pub use sofos_rdf as rdf;
pub use sofos_rewrite as rewrite;
pub use sofos_select as select;
pub use sofos_server as server;
pub use sofos_sparql as sparql;
pub use sofos_store as store;
pub use sofos_telemetry as telemetry;
pub use sofos_workload as workload;
