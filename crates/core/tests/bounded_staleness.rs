//! The bounded-staleness guarantee, as a property: across random
//! update/query interleavings and policy parameters, a `Bounded` engine
//! never serves a read older than `max_epoch_lag` epochs — nor, when a
//! wall-clock budget is set, older than `max_lag_ms` milliseconds under a
//! hand-driven clock — and once drained (flushed), answers are exactly
//! the base-graph answers.
//!
//! Beside the properties: eager behaves exactly as `bounded(1, 0)`, and a
//! reader racing the writer never counts the writer's in-flight delta as
//! buffered.

use proptest::prelude::*;
use sofos_core::{
    results_equivalent, run_offline, Clock, Engine, EngineConfig, EventKind, ManualClock, Route,
    SizedLattice, StalenessPolicy,
};
use sofos_cost::CostModelKind;
use sofos_cube::{AggOp, Facet, ViewMask};
use sofos_maintain::MaintenanceStrategy;
use sofos_rdf::Term;
use sofos_select::WorkloadProfile;
use sofos_sparql::Evaluator;
use sofos_store::{Dataset, Delta};
use sofos_workload::{generate_workload, synthetic, GeneratedQuery, WorkloadConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

struct Setup {
    expanded: Dataset,
    facet: Facet,
    catalog: Vec<(ViewMask, usize)>,
    workload: Vec<GeneratedQuery>,
}

/// The offline phase is by far the most expensive part of a case; build
/// it once and clone per case.
fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let g = synthetic::generate(&synthetic::Config {
            observations: 90,
            agg: AggOp::Avg,
            ..synthetic::Config::default()
        });
        let facet = g.facets[0].clone();
        let mut ds = g.dataset;
        let sized = SizedLattice::compute(&ds, &facet).expect("lattice sizes");
        let profile = WorkloadProfile::uniform(&sized.lattice);
        let offline = run_offline(
            &mut ds,
            &sized,
            &profile,
            CostModelKind::AggValues,
            &EngineConfig::default(),
        )
        .expect("offline phase runs");
        let workload = generate_workload(
            &ds,
            &facet,
            &WorkloadConfig {
                num_queries: 8,
                ..WorkloadConfig::default()
            },
        );
        Setup {
            catalog: offline.view_catalog(),
            expanded: ds,
            facet,
            workload,
        }
    })
}

/// One update batch: three fresh observations.
fn update_delta(batch: usize) -> Delta {
    use sofos_workload::synthetic::NS;
    let mut delta = Delta::new();
    for i in 0..3usize {
        let node = Term::blank(format!("b{batch}_{i}"));
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
            Term::literal_int(50 + (batch * 11 + i) as i64),
        );
    }
    delta
}

fn bounded_engine(policy: StalenessPolicy, clock: Arc<ManualClock>) -> Engine {
    let s = setup();
    Engine::builder()
        .dataset(s.expanded.clone())
        .facet(s.facet.clone())
        .catalog(s.catalog.clone())
        .staleness(policy)
        .clock(clock as Arc<dyn Clock>)
        .build()
        .expect("engine builds")
}

fn drain_and_verify(engine: &Engine) -> Result<(), TestCaseError> {
    let s = setup();
    engine.flush().expect("flush runs");
    prop_assert_eq!(engine.buffered_updates(), 0);
    let snapshot = engine.snapshot();
    let reference = Evaluator::new(&snapshot);
    for q in &s.workload {
        let answer = engine.query(&q.query).expect("query runs");
        prop_assert!(answer.freshness.is_fresh());
        let base = reference.evaluate(&q.query).expect("base evaluation runs");
        prop_assert!(
            results_equivalent(&answer.results, &base),
            "drained bounded engine diverged for {}",
            q.text
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every answered read carries a freshness tag within the configured
    /// lag budget, no matter how updates and queries interleave; a
    /// drained engine answers exactly.
    #[test]
    fn epoch_bounded_never_serves_past_the_lag_budget(
        ops in proptest::collection::vec(proptest::bool::weighted(0.6), 4..20),
        max_batches in 1usize..5,
        max_epoch_lag in 0u64..4,
    ) {
        let s = setup();
        let engine = bounded_engine(
            StalenessPolicy::bounded(max_batches, max_epoch_lag),
            ManualClock::shared(0),
        );
        let (mut batch, mut next_query) = (0usize, 0usize);
        for is_update in ops {
            if is_update {
                engine.update(update_delta(batch)).expect("update runs");
                batch += 1;
                prop_assert!(
                    engine.buffered_updates() < max_batches.max(1),
                    "the flush cadence caps the buffer"
                );
            } else {
                let q = &s.workload[next_query % s.workload.len()];
                next_query += 1;
                let answer = engine.query(&q.query).expect("query runs");
                prop_assert!(
                    answer.freshness.lag <= max_epoch_lag,
                    "served lag {} > budget {}",
                    answer.freshness.lag,
                    max_epoch_lag
                );
                prop_assert!(
                    answer.freshness.epoch <= engine.epoch(),
                    "the served epoch never leads the published one"
                );
            }
        }
        drain_and_verify(&engine)?;
    }

    /// Wall-clock budget (`max_lag_ms`), under a hand-driven clock: once
    /// the clock has moved past the budget since the last update, no
    /// view-routed read may serve buffered state.
    /// (Generous batch/epoch budgets ensure only the clock can trip.)
    #[test]
    fn bounded_wall_clock_budget_is_enforced(
        ops in proptest::collection::vec(
            (proptest::bool::weighted(0.5), 0u64..120), 4..16),
        max_lag_ms in 20u64..200,
    ) {
        let s = setup();
        let clock = ManualClock::shared(0);
        let engine = bounded_engine(
            StalenessPolicy::bounded_ms(100, 100, max_lag_ms),
            clock.clone(),
        );
        let mut last_update_at: Option<u64> = None;
        let (mut batch, mut next_query) = (0usize, 0usize);
        for (is_update, advance_ms) in &ops {
            clock.advance(*advance_ms);
            if *is_update {
                engine.update(update_delta(batch)).expect("update runs");
                batch += 1;
                last_update_at = Some(clock.now_ms());
            } else {
                let q = &s.workload[next_query % s.workload.len()];
                next_query += 1;
                let answer = engine.query(&q.query).expect("query runs");
                // If even the *newest* buffered update is older than
                // the budget, every buffered entry is, so a
                // view-routed answer must have been repaired/flushed
                // to lag 0 before serving.
                let all_stale = last_update_at
                    .is_some_and(|at| clock.now_ms().saturating_sub(at) > max_lag_ms);
                if all_stale && matches!(answer.route, Route::View(_)) {
                    prop_assert_eq!(
                        answer.freshness.lag,
                        0,
                        "a read past max_lag_ms={} served buffered state",
                        max_lag_ms
                    );
                }
            }
        }
        drain_and_verify(&engine)?;
    }
}

/// Per-view maintenance outcomes without their wall times.
fn maintained(engine: &Engine) -> Vec<(ViewMask, MaintenanceStrategy, usize, [usize; 2])> {
    engine
        .maintenance()
        .per_view
        .iter()
        .map(|c| {
            let groups = [c.groups_patched, c.groups_reevaluated];
            (c.view, c.strategy, c.triples_touched, groups)
        })
        .collect()
}

/// Eager is bounded staleness with a cadence of 1: driven with the same
/// deltas and queries, `Eager` and `bounded(1, 0)` publish the same
/// epochs, keep the same catalog, run the same maintenance and answer
/// alike, and neither records a flush: no update ever buffers a batch.
#[test]
fn eager_is_bounded_staleness_with_a_cadence_of_1() {
    let s = setup();
    let engines = [StalenessPolicy::Eager, StalenessPolicy::bounded(1, 0)]
        .map(|policy| bounded_engine(policy, ManualClock::shared(0)));
    let [eager, bounded] = &engines;
    let agree = |what: &str| {
        assert_eq!(eager.epoch(), bounded.epoch(), "epochs after {what}");
        assert_eq!(eager.views(), bounded.views(), "catalogs after {what}");
        assert_eq!(
            maintained(eager),
            maintained(bounded),
            "maintenance after {what}"
        );
    };
    for batch in 0..6 {
        for engine in &engines {
            engine.update(update_delta(batch)).expect("update runs");
        }
        agree(&format!("update {batch}"));
        for q in &s.workload {
            let [a, b] = engines
                .each_ref()
                .map(|e| e.query(&q.query).expect("query runs"));
            assert_eq!(a.route, b.route, "{}", q.text);
            assert_eq!(a.results, b.results, "{}", q.text);
            assert_eq!(a.freshness, b.freshness, "{}", q.text);
            assert!(a.freshness.is_fresh());
            agree(&q.text);
        }
    }
    assert!(
        !maintained(eager).is_empty(),
        "the updates maintained views"
    );
    for engine in &engines {
        let snapshot = engine.metrics().snapshot();
        for counter in ["sofos_flushes_total", "sofos_flushed_batches_total"] {
            let value = snapshot.counter_value(counter, &[("backend", "epoch")]);
            assert_eq!(value, Some(0), "{}: {counter}", engine.policy());
        }
        assert!(
            snapshot
                .events
                .iter()
                .all(|e| !matches!(e.kind, EventKind::Flush | EventKind::EpochPublish)),
            "{}: {:?}",
            engine.policy(),
            snapshot.events
        );
    }
}

/// An update that publishes its own delta never counts it as buffered,
/// so a reader racing the writer never sees it in `buffered_updates()`
/// or in a freshness tag: never above 0 under eager, and never 2 or more
/// under `bounded(2, 1)`, whose second update publishes both batches.
#[test]
fn readers_never_see_the_in_flight_delta_as_buffered() {
    let s = setup();
    for (policy, ceiling) in [
        (StalenessPolicy::Eager, 0u64),
        (StalenessPolicy::bounded(2, 1), 1),
    ] {
        let engine = bounded_engine(policy, ManualClock::shared(0));
        let done = AtomicBool::new(false);
        let worst = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let (mut worst, mut reads) = (0u64, 0usize);
                while !done.load(Ordering::Acquire) {
                    worst = worst.max(engine.buffered_updates() as u64);
                    let q = &s.workload[reads % s.workload.len()];
                    let answer = engine.query(&q.query).expect("query runs");
                    worst = worst.max(answer.freshness.lag);
                    reads += 1;
                }
                worst
            });
            for batch in 0..200 {
                engine.update(update_delta(batch)).expect("update runs");
            }
            done.store(true, Ordering::Release);
            reader.join().expect("reader ran clean")
        });
        assert!(
            worst <= ceiling,
            "{policy}: a reader saw {worst} buffered batches"
        );
    }
}
