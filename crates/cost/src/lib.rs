//! # sofos-cost — the six cost models for view selection
//!
//! "A cost model is the main building block for selecting the views to
//! materialize, as it provides an estimate of the time for querying a
//! database with and without the materialized views" (§1). SOFOS's point is
//! that the relational proxy — rows ≈ time — "does not trivially hold in
//! the case of knowledge graphs" (§3), so it implements six alternatives
//! side by side (§3.1):
//!
//! 1. [`RandomCost`] — constant cost (random `k`-subset baseline);
//! 2. [`TriplesCost`] — `|G_Vi|`, the relational tuple count transplanted;
//! 3. [`AggValuesCost`] — `|Vi(G)|`, result-row count;
//! 4. [`NodesCost`] — `|Ii ∪ Bi ∪ Li|`, node count;
//! 5. [`LearnedCostModel`] — a deep regression over query encodings;
//! 6. [`UserDefinedCost`] — the user as a cost function.
//!
//! All implement [`CostModel`] over a [`CostContext`] holding the virtually
//! sized lattice ([`size_lattice`]) and base-graph statistics. The MLP
//! behind the learned model lives in [`nn`] (from scratch; no ML deps).
//!
//! Query cost is only half the trade-off on a living graph: the
//! [`maintenance`] module prices view *upkeep* ([`MaintenanceCostModel`]
//! over [`UpdateRates`]) so `sofos-select` can optimize the combined
//! objective `query_cost + λ · maintenance_cost`.

pub mod context;
pub mod features;
pub mod learned;
pub mod maintenance;
pub mod models;
pub mod nn;

pub use context::{size_lattice, CostContext};
pub use features::{feature_dim, view_features, Normalizer};
pub use learned::{
    regression_metrics, spearman, LearnedCostModel, RegressionMetrics, TrainingSample,
};
pub use maintenance::{
    FixedMaintenance, MaintenanceCostModel, TouchedGroupsMaintenance, UpdateRates,
};
pub use models::{
    AggValuesCost, CostModel, CostModelKind, NodesCost, RandomCost, TriplesCost, UserDefinedCost,
};
pub use nn::{Mlp, TrainConfig};

/// Build one of the stat-based models by kind. `Learned` and `UserDefined`
/// need extra inputs (training / explicit costs) and are constructed
/// directly; asking for them here returns `None`.
pub fn build_static_model(kind: CostModelKind, seed: u64) -> Option<Box<dyn CostModel>> {
    match kind {
        CostModelKind::Random => Some(Box::new(RandomCost::new(seed))),
        CostModelKind::Triples => Some(Box::new(TriplesCost)),
        CostModelKind::AggValues => Some(Box::new(AggValuesCost)),
        CostModelKind::Nodes => Some(Box::new(NodesCost)),
        CostModelKind::Learned | CostModelKind::UserDefined => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_factory_covers_stat_models() {
        for kind in [
            CostModelKind::Random,
            CostModelKind::Triples,
            CostModelKind::AggValues,
            CostModelKind::Nodes,
        ] {
            let model = build_static_model(kind, 42).expect("static model");
            assert_eq!(model.name(), kind.name());
        }
        assert!(build_static_model(CostModelKind::Learned, 0).is_none());
        assert!(build_static_model(CostModelKind::UserDefined, 0).is_none());
    }
}
