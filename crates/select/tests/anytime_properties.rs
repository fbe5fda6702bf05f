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
//! 4. **Budgets hold** — a move cap is never exceeded, and a deadline
//!    that has already passed returns the caller's catalog untouched.

mod common;

use common::with_ctx;
use proptest::prelude::*;
use sofos_cost::{AggValuesCost, TouchedGroupsMaintenance, TriplesCost, UpdateRates};
use sofos_cube::ViewMask;
use sofos_select::{
    combined_cost, local_search_select, Budget, LocalSearchConfig, Objective, SearchBudget,
    WorkloadProfile,
};
use std::sync::Arc;

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
                &Objective::query_only(&AggValuesCost),
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
            prop_assert!(report.moves_tried <= max_moves);
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
                local_search_select(
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
                ctx, lattice, &Objective::query_only(query), &profile, Budget::Views(k), &config, &budget,
            );
            let (combined, combined_report) = local_search_select(
                ctx, lattice, &objective, &profile, Budget::Views(k), &config, &budget,
            );
            prop_assert_eq!(&frozen, &combined, "lambda = 0 must be bit-identical");
            prop_assert_eq!(&frozen_report, &combined_report);
            prop_assert_eq!(combined.upkeep_cost, 0.0);
            Ok(())
        })?;
    }

    #[test]
    fn expired_deadline_returns_the_catalog_seed(
        dims in 1usize..=3,
        rows in 4usize..=20,
        k in 1usize..=4,
        raw_masks in proptest::collection::vec(0u64..8, 1..10),
        seed_catalog in proptest::collection::vec(0u64..8, 1..5),
        now_ms in 0u64..1_000,
        lambda in 0.0f64..4.0,
    ) {
        with_ctx(dims, rows, |ctx, lattice| {
            let num_views = lattice.num_views();
            let profile = WorkloadProfile::from_masks(
                raw_masks.iter().map(|&m| ViewMask(m % num_views)),
            );
            let mut catalog: Vec<ViewMask> = Vec::new();
            for &m in &seed_catalog {
                let view = ViewMask(m % num_views);
                if !catalog.contains(&view) {
                    catalog.push(view);
                }
            }
            let objective = Objective::maintenance_aware(
                &AggValuesCost,
                &TouchedGroupsMaintenance,
                UpdateRates::new(3.0, 2.0),
                lambda,
            );
            let config = LocalSearchConfig {
                initial: Some(catalog.clone()),
                ..LocalSearchConfig::default()
            };
            // A frozen clock at or past the deadline: the search must stop
            // before its first proposal.
            let deadline = SearchBudget::unlimited().with_deadline(Arc::new(move || now_ms), now_ms);
            let (outcome, report) = local_search_select(
                ctx, lattice, &objective, &profile, Budget::Views(k), &config, &deadline,
            );
            prop_assert!(report.budget_exhausted);
            prop_assert_eq!(report.moves_tried, 0);
            catalog.truncate(k);
            prop_assert_eq!(outcome.selected, catalog, "the catalog seed survives the interrupt");
            Ok(())
        })?;
    }
}

/// A search seeded from a catalog that misses the only demand finds a
/// covering view within a move cap.
#[test]
fn catalog_seeded_search_covers_a_moved_demand() {
    with_ctx(3, 24, |ctx, lattice| {
        let hot = lattice.base();
        let profile = WorkloadProfile::from_masks([hot]);
        let config = LocalSearchConfig {
            initial: Some(vec![ViewMask::APEX]),
            ..LocalSearchConfig::default()
        };
        let (outcome, report) = local_search_select(
            ctx,
            lattice,
            &Objective::query_only(&AggValuesCost),
            &profile,
            Budget::Views(1),
            &config,
            &SearchBudget::moves(2_000),
        );
        assert!(report.moves_tried <= 2_000);
        assert!(report.final_cost < report.seed_cost);
        assert!(
            outcome.selected.iter().any(|v| v.covers(hot)),
            "{:?}",
            outcome.selected
        );
    });
}
