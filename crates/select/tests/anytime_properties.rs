//! Properties of the anytime local-search selector, across random facets,
//! workload profiles, budgets, maintenance pressure, and RNG seeds:
//!
//! 1. **Never worse than the seed** — the returned outcome's combined cost
//!    is ≤ the seed selection's (whether the seed was greedy-on-a-sample
//!    or a caller-provided catalog), under any search budget.
//! 2. **Anytime monotonicity** — for the same RNG seed, a larger move
//!    budget never yields a strictly worse outcome.
//! 3. **λ = 0 agreement** — local search under a maintenance-aware
//!    objective with λ = 0 behaves exactly as under the query-only
//!    objective (same proposal stream, same outcome, zero upkeep).

use proptest::prelude::*;
use sofos_cost::{
    size_lattice, AggValuesCost, CostContext, TouchedGroupsMaintenance, TriplesCost, UpdateRates,
};
use sofos_cube::{AggOp, Dimension, Facet, Lattice, ViewMask};
use sofos_rdf::Term;
use sofos_select::{
    combined_cost, local_search_select, local_search_select_with, Budget, LocalSearchConfig,
    Objective, SearchBudget, WorkloadProfile,
};
use sofos_sparql::{GroupPattern, PatternTerm, TriplePattern};

fn setup(dims: usize, rows: usize) -> (sofos_store::Dataset, Facet) {
    let mut ds = sofos_store::Dataset::new();
    let m = Term::iri("http://e/m");
    for i in 0..rows {
        let obs = Term::blank(format!("o{i}"));
        for d in 0..dims {
            ds.insert(
                None,
                &obs,
                &Term::iri(format!("http://e/p{d}")),
                &Term::iri(format!("http://e/D{d}_{}", i % (d + 2))),
            );
        }
        ds.insert(None, &obs, &m, &Term::literal_int(i as i64));
    }
    let mut triples = Vec::new();
    let mut dimensions = Vec::new();
    for d in 0..dims {
        triples.push(TriplePattern::new(
            PatternTerm::var("o"),
            PatternTerm::iri(format!("http://e/p{d}")),
            PatternTerm::var(format!("d{d}")),
        ));
        dimensions.push(Dimension::new(format!("d{d}")));
    }
    triples.push(TriplePattern::new(
        PatternTerm::var("o"),
        PatternTerm::iri("http://e/m"),
        PatternTerm::var("u"),
    ));
    let facet = Facet::new(
        "t",
        dimensions,
        GroupPattern::triples(triples),
        "u",
        AggOp::Sum,
    )
    .unwrap();
    (ds, facet)
}

fn with_ctx<R>(dims: usize, rows: usize, f: impl FnOnce(&CostContext<'_>, &Lattice) -> R) -> R {
    let (ds, facet) = setup(dims, rows);
    let lattice = Lattice::new(facet.clone());
    let sized = size_lattice(&ds, &lattice).unwrap();
    let base = sofos_store::GraphStats::compute(ds.default_graph());
    let ctx = CostContext {
        facet: &facet,
        view_stats: &sized,
        base: &base,
    };
    f(&ctx, &lattice)
}

proptest! {
    #[test]
    fn local_search_never_worse_than_its_seed(
        dims in 1usize..=3,
        rows in 4usize..=20,
        k in 1usize..=4,
        raw_masks in proptest::collection::vec(0u64..8, 1..10),
        rng_seed in 0u64..1_000,
        max_moves in 0u64..400,
        seed_catalog in proptest::collection::vec(0u64..8, 0..4),
    ) {
        with_ctx(dims, rows, |ctx, lattice| {
            let num_views = lattice.num_views();
            let profile = WorkloadProfile::from_masks(
                raw_masks.iter().map(|&m| ViewMask(m % num_views)),
            );
            let initial: Vec<ViewMask> = {
                let mut views: Vec<ViewMask> =
                    seed_catalog.iter().map(|&m| ViewMask(m % num_views)).collect();
                views.dedup();
                views
            };
            let config = LocalSearchConfig {
                rng_seed,
                initial: if initial.is_empty() { None } else { Some(initial) },
                ..LocalSearchConfig::default()
            };
            let (outcome, report) = local_search_select(
                ctx,
                lattice,
                &AggValuesCost,
                &profile,
                Budget::Views(k),
                &config,
                &SearchBudget::moves(max_moves),
            );
            prop_assert!(
                report.final_cost <= report.seed_cost + 1e-9,
                "final {} > seed {}",
                report.final_cost,
                report.seed_cost
            );
            // The reported final cost is the outcome's actual cost.
            let objective = Objective::query_only(&AggValuesCost);
            let actual = combined_cost(ctx, &objective, &profile, &outcome.selected);
            prop_assert!((actual - report.final_cost).abs() <= 1e-9 * actual.abs().max(1.0));
            prop_assert!(outcome.selected.len() <= k);
            Ok(())
        })?;
    }

    #[test]
    fn longer_budgets_are_never_strictly_worse(
        dims in 1usize..=3,
        rows in 4usize..=20,
        k in 1usize..=4,
        raw_masks in proptest::collection::vec(0u64..8, 1..10),
        rng_seed in 0u64..1_000,
        short in 0u64..200,
        extra in 0u64..200,
        lambda in 0.0f64..4.0,
    ) {
        with_ctx(dims, rows, |ctx, lattice| {
            let num_views = lattice.num_views();
            let profile = WorkloadProfile::from_masks(
                raw_masks.iter().map(|&m| ViewMask(m % num_views)),
            );
            let rates = UpdateRates::new(3.0, 2.0);
            let objective = Objective::maintenance_aware(
                &AggValuesCost,
                &TouchedGroupsMaintenance,
                rates,
                lambda,
            );
            let config = LocalSearchConfig {
                rng_seed,
                ..LocalSearchConfig::default()
            };
            let run = |moves: u64| {
                local_search_select_with(
                    ctx,
                    lattice,
                    &objective,
                    &profile,
                    Budget::Views(k),
                    &config,
                    &SearchBudget::moves(moves),
                )
            };
            let (_, short_report) = run(short);
            let (_, long_report) = run(short + extra);
            prop_assert!(
                long_report.final_cost <= short_report.final_cost + 1e-9,
                "seed {rng_seed}: {} moves gave {}, {} moves gave {}",
                short + extra,
                long_report.final_cost,
                short,
                short_report.final_cost
            );
            Ok(())
        })?;
    }

    #[test]
    fn lambda_zero_agrees_with_query_only(
        dims in 1usize..=3,
        rows in 4usize..=20,
        k in 1usize..=4,
        raw_masks in proptest::collection::vec(0u64..8, 1..10),
        rng_seed in 0u64..1_000,
        max_moves in 0u64..400,
        inserts in 0.0f64..12.0,
        deletes in 0.0f64..12.0,
        use_triples_cost in proptest::bool::ANY,
    ) {
        with_ctx(dims, rows, |ctx, lattice| {
            let num_views = lattice.num_views();
            let profile = WorkloadProfile::from_masks(
                raw_masks.iter().map(|&m| ViewMask(m % num_views)),
            );
            let query: &dyn sofos_cost::CostModel = if use_triples_cost {
                &TriplesCost
            } else {
                &AggValuesCost
            };
            let rates = UpdateRates::new(inserts, deletes);
            let objective =
                Objective::maintenance_aware(query, &TouchedGroupsMaintenance, rates, 0.0);
            let config = LocalSearchConfig {
                rng_seed,
                ..LocalSearchConfig::default()
            };
            let budget = SearchBudget::moves(max_moves);
            let (frozen, frozen_report) = local_search_select(
                ctx, lattice, query, &profile, Budget::Views(k), &config, &budget,
            );
            let (combined, combined_report) = local_search_select_with(
                ctx, lattice, &objective, &profile, Budget::Views(k), &config, &budget,
            );
            prop_assert_eq!(&frozen, &combined, "lambda = 0 must be bit-identical");
            prop_assert_eq!(&frozen_report, &combined_report);
            prop_assert_eq!(combined.upkeep_cost, 0.0);
            Ok(())
        })?;
    }
}
