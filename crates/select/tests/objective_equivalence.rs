//! Property: the maintenance-aware objective at λ = 0 reproduces the
//! frozen-graph selection *exactly* — same picks in the same order, same
//! costs — for both the greedy and the exhaustive selector, across random
//! facets, workload profiles, budgets, and update rates.

mod common;

use common::with_ctx;
use proptest::prelude::*;
use sofos_cost::{AggValuesCost, TouchedGroupsMaintenance, TriplesCost, UpdateRates};
use sofos_cube::ViewMask;
use sofos_select::{exhaustive_select, greedy_select, Budget, Objective, WorkloadProfile};

proptest! {
    #[test]
    fn lambda_zero_reproduces_frozen_outcomes(
        dims in 1usize..=3,
        rows in 4usize..=20,
        k in 0usize..=4,
        raw_masks in proptest::collection::vec(0u64..8, 1..10),
        inserts in 0.0f64..12.0,
        deletes in 0.0f64..12.0,
        use_triples_cost in proptest::bool::ANY,
    ) {
        with_ctx(dims, rows, |ctx, lattice| {
            let num_views = lattice.num_views();
            let profile = WorkloadProfile::from_masks(
                raw_masks.iter().map(|&m| ViewMask(m % num_views)),
            );
            let rates = UpdateRates::new(inserts, deletes);
            let query: &dyn sofos_cost::CostModel = if use_triples_cost {
                &TriplesCost
            } else {
                &AggValuesCost
            };
            let objective =
                Objective::maintenance_aware(query, &TouchedGroupsMaintenance, rates, 0.0);

            let query_only = Objective::query_only(query);
            let frozen = greedy_select(ctx, lattice, &query_only, &profile, Budget::Views(k));
            let combined = greedy_select(ctx, lattice, &objective, &profile, Budget::Views(k));
            prop_assert_eq!(&frozen, &combined);

            let frozen_oracle = exhaustive_select(ctx, lattice, &query_only, &profile, k, 1_000_000)
                .expect("small lattice fits the exhaustive caps");
            let combined_oracle = exhaustive_select(ctx, lattice, &objective, &profile, k, 1_000_000)
                .expect("small lattice fits the exhaustive caps");
            prop_assert_eq!(&frozen_oracle, &combined_oracle);
            Ok(())
        })?;
    }
}
