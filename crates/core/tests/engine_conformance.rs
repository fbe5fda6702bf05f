//! Backend conformance: the serial and epoch backends are the SAME
//! engine, as a property.
//!
//! One scenario grid — staleness policy × delta mix × update/query
//! interleaving — drives a [`Backend::Serial`]
//! and a [`Backend::Epoch`] engine through identical operation sequences
//! (sharing one [`ManualClock`], so even wall-clock bounded staleness is
//! deterministic) and asserts:
//!
//! * **in-budget freshness** on every answered read, on both backends
//!   (batch-lag budget always; the wall-clock budget is additionally
//!   model-checked against the test's own enqueue-time mirror on the
//!   epoch backend);
//! * **bit-equal answers** between the backends at every read under the
//!   always-current policies (eager / lazy-on-hit / invalidate), and at
//!   every drained point under bounded staleness (where the backends
//!   legitimately serve different prefixes mid-stream: the serial backend
//!   applies base deltas immediately, the epoch backend buffers whole
//!   batches);
//! * **identical catalogs and exact answers** after a final drain, both
//!   backends agreeing with a from-scratch base evaluation.

use proptest::prelude::*;
use sofos_core::{
    results_equivalent, run_offline, Backend, Clock, Engine, EngineConfig, ManualClock, Route,
    SizedLattice, StalenessPolicy,
};
use sofos_cost::CostModelKind;
use sofos_cube::{AggOp, Facet, ViewMask};
use sofos_rdf::Term;
use sofos_select::WorkloadProfile;
use sofos_sparql::Evaluator;
use sofos_store::{Dataset, Delta};
use sofos_workload::{generate_workload, synthetic, GeneratedQuery, WorkloadConfig};
use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::OnceLock;

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

/// The triples of one synthetic observation star, reproducible from its
/// batch/slot indices — so a later delta can delete exactly what an
/// earlier one inserted (the delete half of the delta mix).
fn star_triples(batch: usize, slot: usize) -> Vec<(Term, Term, Term)> {
    use sofos_workload::synthetic::NS;
    let node = Term::blank(format!("c{batch}_{slot}"));
    let mut triples = Vec::with_capacity(4);
    for d in 0..3usize {
        triples.push((
            node.clone(),
            Term::iri(format!("{NS}dim{d}")),
            Term::iri(format!("{NS}v{d}_{}", (batch + slot + d) % 3)),
        ));
    }
    triples.push((
        node,
        Term::iri(format!("{NS}measure")),
        Term::literal_int(60 + (batch * 13 + slot) as i64),
    ));
    triples
}

/// One update batch of the scenario's delta mix: insert two fresh stars;
/// in the "churny" mix, also delete a star inserted two batches earlier.
fn conformance_delta(batch: usize, churny: bool) -> Delta {
    let mut delta = Delta::new();
    for slot in 0..2usize {
        for (s, p, o) in star_triples(batch, slot) {
            delta.insert(s, p, o);
        }
    }
    if churny && batch >= 2 {
        for (s, p, o) in star_triples(batch - 2, 0) {
            delta.delete(s, p, o);
        }
    }
    delta
}

fn policy_grid(idx: usize) -> StalenessPolicy {
    match idx {
        0 => StalenessPolicy::Eager,
        1 => StalenessPolicy::LazyOnHit,
        2 => StalenessPolicy::Invalidate,
        3 => StalenessPolicy::bounded(2, 1),
        _ => StalenessPolicy::bounded_ms(3, 2, 100),
    }
}

fn build_pair(policy: StalenessPolicy) -> (Engine, Engine, Arc<ManualClock>) {
    let s = setup();
    let clock = ManualClock::shared(0);
    let serial = Engine::builder()
        .dataset(s.expanded.clone())
        .facet(s.facet.clone())
        .catalog(s.catalog.clone())
        .staleness(policy)
        .backend(Backend::Serial)
        .clock(clock.clone() as Arc<dyn Clock>)
        .build()
        .expect("serial engine builds");
    let epoch = Engine::builder()
        .dataset(s.expanded.clone())
        .facet(s.facet.clone())
        .catalog(s.catalog.clone())
        .staleness(policy)
        .backend(Backend::Epoch {
            shards: 1,
            threads: 1,
        })
        .clock(clock.clone() as Arc<dyn Clock>)
        .build()
        .expect("epoch engine builds");
    (serial, epoch, clock)
}

fn mask_set(engine: &Engine) -> Vec<u64> {
    let mut masks: Vec<u64> = engine.views().iter().map(|(m, _)| m.0).collect();
    masks.sort_unstable();
    masks
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The conformance property (see module docs).
    #[test]
    fn serial_and_epoch_backends_conform(
        ops in proptest::collection::vec((proptest::bool::weighted(0.55), 0u64..80), 4..20),
        policy_idx in 0usize..5,
        churny in proptest::bool::ANY,
    ) {
        let s = setup();
        let policy = policy_grid(policy_idx);
        let always_current = !matches!(policy, StalenessPolicy::Bounded { .. });
        let (serial, epoch, clock) = build_pair(policy);

        // The test's own mirror of the epoch backend's buffered-batch
        // enqueue times, for model-checking the wall-clock budget.
        let mut enqueued: VecDeque<u64> = VecDeque::new();
        let (mut batch, mut next_query) = (0usize, 0usize);
        for (is_update, advance_ms) in ops {
            clock.advance(advance_ms);
            if is_update {
                let delta = conformance_delta(batch, churny);
                batch += 1;
                serial.update(delta.clone()).expect("serial update runs");
                epoch.update(delta).expect("epoch update runs");
                enqueued.push_back(clock.now_ms());
            } else {
                let q = &s.workload[next_query % s.workload.len()];
                next_query += 1;
                let a = serial.query(&q.query).expect("serial query runs");
                let b = epoch.query(&q.query).expect("epoch query runs");

                // In-budget freshness, on both backends.
                if let Some(budget) = policy.lag_budget() {
                    prop_assert!(a.freshness.lag <= budget, "serial lag {} > {budget}", a.freshness.lag);
                    prop_assert!(b.freshness.lag <= budget, "epoch lag {} > {budget}", b.freshness.lag);
                }
                // Wall-clock budget, model-checked against our enqueue
                // mirror (single-threaded: no racing updates).
                while enqueued.len() > epoch.buffered_updates() {
                    enqueued.pop_front();
                }
                if let Some(budget_ms) = policy.lag_budget_ms() {
                    if let Some(&oldest) = enqueued.front() {
                        prop_assert!(
                            clock.now_ms() - oldest <= budget_ms,
                            "epoch backend served with wall-clock lag {} > {budget_ms}ms",
                            clock.now_ms() - oldest
                        );
                    }
                }

                // Bit-equal answers whenever both backends serve the
                // latest state by construction.
                if always_current {
                    prop_assert!(
                        results_equivalent(&a.results, &b.results),
                        "backends diverged on {} under {policy}",
                        q.text
                    );
                    let same_route = matches!(
                        (a.route, b.route),
                        (Route::View(_), Route::View(_)) | (Route::BaseGraph, Route::BaseGraph)
                    );
                    prop_assert!(same_route, "routes diverged: {:?} vs {:?}", a.route, b.route);
                }
            }
        }

        // Drain both; the catalogs and every answer must now agree
        // bit-for-bit — and with a from-scratch base evaluation.
        serial.flush().expect("serial flush runs");
        epoch.flush().expect("epoch flush runs");
        prop_assert_eq!(mask_set(&serial), mask_set(&epoch), "catalogs diverged");
        prop_assert_eq!(serial.update_batches(), epoch.update_batches());
        let serial_snapshot = serial.snapshot();
        let reference = Evaluator::new(&serial_snapshot);
        for q in &s.workload {
            let a = serial.query(&q.query).expect("serial query runs");
            let b = epoch.query(&q.query).expect("epoch query runs");
            prop_assert!(a.freshness.is_fresh());
            prop_assert!(b.freshness.is_fresh());
            prop_assert!(
                results_equivalent(&a.results, &b.results),
                "drained backends diverged for {}",
                q.text
            );
            let base = reference.evaluate(&q.query).expect("base evaluation runs");
            prop_assert!(
                results_equivalent(&a.results, &base),
                "drained answers diverged from base for {}",
                q.text
            );
        }
    }
}
