//! Engine configuration.

use sofos_cost::TrainConfig;
use sofos_cube::ViewMask;
use sofos_select::Budget;
use sofos_workload::WorkloadConfig;

/// Configuration of a SOFOS run (offline + online phases).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Materialization budget (`k` views or bytes).
    pub budget: Budget,
    /// Workload generation parameters (shared across cost models so every
    /// model is measured on the *same* queries).
    pub workload: WorkloadConfig,
    /// Per-query timing repetitions (median is reported); one extra warmup
    /// run is always performed.
    pub timing_reps: usize,
    /// Seed for selection randomness (random model / random selector).
    pub seed: u64,
    /// Training setup for the learned cost model.
    pub train: TrainConfig,
    /// Explicit views for the user-defined model (empty = pick the finest
    /// `k` views, a plausible naive user).
    pub user_views: Vec<ViewMask>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            budget: Budget::Views(4),
            workload: WorkloadConfig::default(),
            timing_reps: 3,
            seed: 42,
            train: TrainConfig::default(),
            user_views: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert_eq!(c.budget, Budget::Views(4));
        assert!(c.timing_reps >= 1);
    }
}
