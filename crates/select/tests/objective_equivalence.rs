//! Property: the maintenance-aware objective at λ = 0 reproduces the
//! frozen-graph selection *exactly* — same picks in the same order, same
//! costs — for both the greedy and the exhaustive selector, across random
//! facets, workload profiles, budgets, and update rates.

use proptest::prelude::*;
use sofos_cost::{
    size_lattice, AggValuesCost, CostContext, TouchedGroupsMaintenance, TriplesCost, UpdateRates,
};
use sofos_cube::{AggOp, Dimension, Facet, Lattice, ViewMask};
use sofos_rdf::Term;
use sofos_select::{
    exhaustive_select, exhaustive_select_with, greedy_select, greedy_select_with, Budget,
    Objective, WorkloadProfile,
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
        let (ds, facet) = setup(dims, rows);
        let lattice = Lattice::new(facet.clone());
        let sized = size_lattice(&ds, &lattice).unwrap();
        let base = sofos_store::GraphStats::compute(ds.default_graph());
        let ctx = CostContext {
            facet: &facet,
            view_stats: &sized,
            base: &base,
        };
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

        let frozen = greedy_select(&ctx, &lattice, query, &profile, Budget::Views(k));
        let combined =
            greedy_select_with(&ctx, &lattice, &objective, &profile, Budget::Views(k));
        prop_assert_eq!(&frozen, &combined);

        let frozen_oracle = exhaustive_select(&ctx, &lattice, query, &profile, k, 1_000_000)
            .expect("small lattice fits the exhaustive caps");
        let combined_oracle =
            exhaustive_select_with(&ctx, &lattice, &objective, &profile, k, 1_000_000)
                .expect("small lattice fits the exhaustive caps");
        prop_assert_eq!(&frozen_oracle, &combined_oracle);
    }
}
