//! Engine conformance against ground truth: the engine and a plain
//! reference [`Dataset`] receive the same deltas, and the engine's answers
//! must equal [`Evaluator`]'s over the reference.
//!
//! One scenario grid — staleness policy × delta mix × update/query
//! interleaving, under one [`ManualClock`] so even wall-clock bounded
//! staleness is deterministic — drives the engine and the reference
//! through identical operation sequences and asserts:
//!
//! * **exact answers** at every read under the always-current policies
//!   (eager / lazy-on-hit / invalidate), and at every read served fresh
//!   under bounded staleness — which is every read after a drain;
//! * **in-budget freshness** on every answered read: the batch-lag
//!   budget, and the wall-clock budget model-checked against the test's
//!   own enqueue-time mirror;
//! * after a final drain, **the initial catalog** (empty under invalidate
//!   once an update arrived) and exact answers everywhere.

use proptest::prelude::*;
use sofos_core::{
    results_equivalent, run_offline, Clock, Engine, EngineConfig, ManualClock, SizedLattice,
    StalenessPolicy,
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
    /// The base graph `G`: the reference the deltas are applied to.
    base: Dataset,
    /// `G+`: the base plus the materialized views the engine serves.
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
        let base = g.dataset;
        let mut expanded = base.clone();
        let sized = SizedLattice::compute(&expanded, &facet).expect("lattice sizes");
        let profile = WorkloadProfile::uniform(&sized.lattice);
        let offline = run_offline(
            &mut expanded,
            &sized,
            &profile,
            CostModelKind::AggValues,
            &EngineConfig::default(),
        )
        .expect("offline phase runs");
        let workload = generate_workload(
            &expanded,
            &facet,
            &WorkloadConfig {
                num_queries: 8,
                ..WorkloadConfig::default()
            },
        );
        Setup {
            base,
            catalog: offline.view_catalog(),
            expanded,
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

fn build(policy: StalenessPolicy, clock: Arc<ManualClock>) -> Engine {
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

fn mask_set(views: &[(ViewMask, usize)]) -> Vec<u64> {
    let mut masks: Vec<u64> = views.iter().map(|(m, _)| m.0).collect();
    masks.sort_unstable();
    masks
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The conformance property (see module docs).
    #[test]
    fn engine_conforms_to_a_reference_dataset(
        ops in proptest::collection::vec((proptest::bool::weighted(0.55), 0u64..80), 4..20),
        policy_idx in 0usize..5,
        churny in proptest::bool::ANY,
    ) {
        let s = setup();
        let policy = policy_grid(policy_idx);
        let always_current = !matches!(policy, StalenessPolicy::Bounded { .. });
        let clock = ManualClock::shared(0);
        let engine = build(policy, clock.clone());
        let mut reference = s.base.clone();

        // The test's own mirror of the engine's buffered-batch enqueue
        // times, for model-checking the wall-clock budget.
        let mut enqueued: VecDeque<u64> = VecDeque::new();
        let (mut batch, mut next_query) = (0usize, 0usize);
        for (is_update, advance_ms) in ops {
            clock.advance(advance_ms);
            if is_update {
                let delta = conformance_delta(batch, churny);
                batch += 1;
                reference.apply(delta.clone());
                engine.update(delta).expect("update runs");
                enqueued.push_back(clock.now_ms());
            } else {
                let q = &s.workload[next_query % s.workload.len()];
                next_query += 1;
                let answer = engine.query(&q.query).expect("query runs");

                if let Some(budget) = policy.lag_budget() {
                    prop_assert!(
                        answer.freshness.lag <= budget,
                        "served lag {} > {budget}",
                        answer.freshness.lag
                    );
                }
                // Wall-clock budget, model-checked against our enqueue
                // mirror (single-threaded: no racing updates).
                while enqueued.len() > engine.buffered_updates() {
                    enqueued.pop_front();
                }
                if let (Some(budget_ms), Some(&oldest)) = (policy.lag_budget_ms(), enqueued.front()) {
                    prop_assert!(
                        clock.now_ms() - oldest <= budget_ms,
                        "served with wall-clock lag {} > {budget_ms}ms",
                        clock.now_ms() - oldest
                    );
                }

                // A fresh answer reflects every update: it must equal the
                // reference's. The always-current policies never serve
                // anything else.
                prop_assert!(
                    !always_current || answer.freshness.is_fresh(),
                    "{policy} served a lagging answer"
                );
                if answer.freshness.is_fresh() {
                    let expected = Evaluator::new(&reference)
                        .evaluate(&q.query)
                        .expect("reference evaluation runs");
                    prop_assert!(
                        results_equivalent(&answer.results, &expected),
                        "answer diverged from the reference on {} under {policy}",
                        q.text
                    );
                }
            }
        }

        // Drain: the catalog is back to the initial one (or empty once
        // invalidate saw an update), and every answer is exact.
        engine.flush().expect("flush runs");
        prop_assert_eq!(engine.buffered_updates(), 0);
        prop_assert_eq!(engine.update_batches(), batch);
        let expected_catalog = if policy == StalenessPolicy::Invalidate && batch > 0 {
            Vec::new()
        } else {
            mask_set(&s.catalog)
        };
        prop_assert_eq!(mask_set(&engine.views()), expected_catalog, "catalog after drain");
        let evaluator = Evaluator::new(&reference);
        for q in &s.workload {
            let answer = engine.query(&q.query).expect("query runs");
            prop_assert!(answer.freshness.is_fresh());
            let expected = evaluator.evaluate(&q.query).expect("reference evaluation runs");
            prop_assert!(
                results_equivalent(&answer.results, &expected),
                "drained answer diverged from the reference for {}",
                q.text
            );
        }
    }
}
