//! The adaptive layer: drift detection and re-selection over a live
//! [`Engine`].
//!
//! Every engine tracks a *sliding* workload/update profile
//! (recent demanded masks and recent insert/delete pressure — see
//! [`crate::policy::ProfileWindows`]); a [`DriftDetector`] measures how
//! far that window's demand has moved from the profile the current
//! selection was optimized for; and a [`Reselector`] re-runs
//! maintenance-aware selection when the drift crosses a threshold,
//! swapping the materialized set transactionally
//! ([`Engine::swap_views`]) and reporting the churn.
//!
//! Because the surface is the [`Engine`], re-selection against a
//! concurrent serving loop is the same three calls as against a
//! single-threaded one.

use crate::config::EngineConfig;
use crate::engine::{Engine, ViewChurn};
use crate::offline::SizedLattice;
use crate::timing::measure_once;
use sofos_cost::CostModelKind;
use sofos_rdf::FxHashMap;
use sofos_select::{greedy_select, Objective, SelectionOutcome, WorkloadProfile};
use sofos_sparql::SparqlError;
use sofos_store::Dataset;

/// Measures how far the live workload has drifted from the profile the
/// current selection was optimized for.
///
/// Distance is total variation between the two *normalized* demand
/// distributions: `½ Σ_m |p(m) − q(m)| ∈ [0, 1]`. 0 means the window
/// replays the reference mix exactly; 1 means disjoint demand. The weight
/// scale of either profile cancels, so windows and references of
/// different lengths compare directly.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    /// Reference demand mass by mask (un-normalized —
    /// `total_variation` normalizes both sides).
    reference: FxHashMap<u64, f64>,
    threshold: f64,
}

impl DriftDetector {
    /// A detector anchored at `reference`, firing past `threshold`.
    pub fn new(reference: &WorkloadProfile, threshold: f64) -> DriftDetector {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "drift threshold must be in [0, 1], got {threshold}"
        );
        DriftDetector {
            reference: Self::mass(reference),
            threshold,
        }
    }

    /// A profile's demand mass by mask, the shape `total_variation`
    /// consumes (no normalization here — TV normalizes both sides).
    fn mass(profile: &WorkloadProfile) -> FxHashMap<u64, f64> {
        let mut mass: FxHashMap<u64, f64> = FxHashMap::default();
        for &(mask, w) in &profile.demands {
            *mass.entry(mask.0).or_insert(0.0) += w;
        }
        mass
    }

    /// Total-variation distance between the reference and `current`.
    /// Both empty → 0 (nothing moved); exactly one empty → 1.
    pub fn drift(&self, current: &WorkloadProfile) -> f64 {
        total_variation(&self.reference, &Self::mass(current))
    }

    /// True when `current` holds at least one observation and its drift
    /// exceeds the threshold.
    pub fn drifted(&self, current: &WorkloadProfile) -> bool {
        current.total_weight() >= 1.0 && self.drift(current) > self.threshold
    }

    /// Re-anchor at a new reference (after a re-selection).
    pub fn rebase(&mut self, reference: &WorkloadProfile) {
        self.reference = Self::mass(reference);
    }
}

/// Total-variation distance between two weighted distributions (both
/// normalized first). Both empty → 0; exactly one empty → 1.
fn total_variation(p: &FxHashMap<u64, f64>, q: &FxHashMap<u64, f64>) -> f64 {
    let p_total: f64 = p.values().sum();
    let q_total: f64 = q.values().sum();
    match (p_total > 0.0, q_total > 0.0) {
        (false, false) => return 0.0,
        (true, false) | (false, true) => return 1.0,
        (true, true) => {}
    }
    let mut masses: FxHashMap<u64, (f64, f64)> = FxHashMap::default();
    for (&key, &w) in p {
        masses.entry(key).or_default().0 += w / p_total;
    }
    for (&key, &w) in q {
        masses.entry(key).or_default().1 += w / q_total;
    }
    0.5 * masses.values().map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// One re-selection pass: what drove it, what was selected, what churned.
#[derive(Debug, Clone)]
pub struct ReselectionReport {
    /// Demand drift at the moment of re-selection.
    pub drift: f64,
    /// The new selection (combined-objective costs included).
    pub selection: SelectionOutcome,
    /// Catalog churn from the transactional swap.
    pub churn: ViewChurn,
    /// Wall time of the lattice re-sizing pass (µs): the growth-scaling
    /// refresh, or a full sizing when the given sizing was of an empty
    /// graph.
    pub sizing_us: u64,
    /// True when the sizing was refreshed by live
    /// [`sofos_store::GraphStats`] growth instead of re-evaluated.
    pub sizing_refreshed: bool,
    /// Wall time of the selection algorithm (µs).
    pub selection_us: u64,
}

impl ReselectionReport {
    /// Total re-selection overhead (µs): sizing + selection +
    /// materialization + drops.
    pub fn overhead_us(&self) -> u64 {
        self.sizing_us + self.selection_us + self.churn.materialize_us + self.churn.drop_us
    }
}

impl std::fmt::Display for ReselectionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drift {:.2} → {} views (+{} −{} ={}), {} µs overhead",
            self.drift,
            self.selection.selected.len(),
            self.churn.added.len(),
            self.churn.retired.len(),
            self.churn.kept.len(),
            self.overhead_us()
        )
    }
}

/// Adaptive re-selection: watches an engine's sliding workload/update
/// profile through a [`DriftDetector`] and, when the workload has moved,
/// re-runs maintenance-aware greedy selection over the lattice sizing,
/// refreshed by live graph growth, and swaps the materialized set
/// transactionally.
///
/// The maintenance term is the analytic
/// [`sofos_cost::TouchedGroupsMaintenance`] estimator, so λ keeps the
/// same (abstract, triples-scale) meaning across the whole run. Update
/// pressure is read from [`Engine::observed_rates`].
pub struct Reselector {
    kind: CostModelKind,
    config: EngineConfig,
    lambda: f64,
    detector: DriftDetector,
    sized: SizedLattice,
    reselections: usize,
}

impl Reselector {
    /// A re-selector optimizing `kind` + λ·maintenance under `config`'s
    /// budget, anchored at the profile the current selection served.
    ///
    /// `sized` is an offline sizing of the lattice (usually the one the
    /// current selection was made from). Re-sizing costs one evaluation of
    /// the base view plus the lattice's roll-up — as much as answering the
    /// finest query the facet has — so passes never re-size: each rescales
    /// the per-view rows/triples/bytes by the live
    /// [`sofos_store::GraphStats`] growth since `sized` was taken
    /// ([`SizedLattice::refreshed`]), and byte budgets keep pricing against
    /// the graph that actually exists. The scaling is uniform — it tracks
    /// size, not shape; build a fresh `Reselector` from a new sizing when
    /// the graph's *distribution* has changed. A sizing of an empty graph
    /// has nothing to scale, so passes size the snapshot afresh instead.
    pub fn new(
        kind: CostModelKind,
        config: EngineConfig,
        lambda: f64,
        reference: &WorkloadProfile,
        threshold: f64,
        sized: SizedLattice,
    ) -> Reselector {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda must be finite and non-negative, got {lambda}"
        );
        Reselector {
            kind,
            config,
            lambda,
            detector: DriftDetector::new(reference, threshold),
            sized,
            reselections: 0,
        }
    }

    /// Re-selections performed so far.
    pub fn reselections(&self) -> usize {
        self.reselections
    }

    /// Check the engine's sliding window against the reference profile;
    /// re-select only if demand drifted past the threshold. `Ok(None)`
    /// means the standing selection still fits.
    pub fn check(&mut self, engine: &Engine) -> Result<Option<ReselectionReport>, SparqlError> {
        let window = engine.window_profile();
        if !self.detector.drifted(&window) {
            return Ok(None);
        }
        self.reselect_for(engine, window).map(Some)
    }

    /// Unconditional re-selection against the current window (the
    /// always-reselect policy; also useful to force an initial swap).
    pub fn reselect(&mut self, engine: &Engine) -> Result<ReselectionReport, SparqlError> {
        let window = engine.window_profile();
        self.reselect_for(engine, window)
    }

    /// The sizing a re-selection prices against, its wall time (µs), and
    /// whether it was refreshed by growth (false: sized afresh, because
    /// the given sizing was of an empty graph).
    fn sizing(
        &self,
        snapshot: &Dataset,
        facet: &sofos_cube::Facet,
    ) -> Result<(SizedLattice, u64, bool), SparqlError> {
        if self.sized.base_stats.triples > 0 {
            let live = sofos_store::GraphStats::compute(snapshot.default_graph());
            let (us, refreshed) = measure_once(|| self.sized.refreshed(&live));
            Ok((refreshed, us, true))
        } else {
            let computed = SizedLattice::compute(snapshot, facet)?;
            let us = computed.sizing_us;
            Ok((computed, us, false))
        }
    }

    fn reselect_for(
        &mut self,
        engine: &Engine,
        window: WorkloadProfile,
    ) -> Result<ReselectionReport, SparqlError> {
        let drift = self.detector.drift(&window);
        // A cold window (no queries yet) has nothing to optimize for;
        // fall back to uniform demand rather than selecting nothing.
        let profile = if window.total_weight() > 0.0 {
            window.clone()
        } else {
            let lattice = sofos_cube::Lattice::new(engine.facet().clone());
            WorkloadProfile::uniform(&lattice)
        };

        // A consistent snapshot of the served dataset: cheap (a dataset
        // clone shares its indexes and dictionary by Arc and copies
        // nothing per triple), and the engine's serving loop keeps
        // running while sizing and selection think.
        let snapshot = engine.snapshot();
        let (sized, sizing_us, sizing_refreshed) = self.sizing(&snapshot, engine.facet())?;
        let (query_model, _history, _train_us) =
            crate::offline::build_model(self.kind, &sized, &snapshot, &self.config)?;
        // At λ = 0 the combined objective is the query-only one exactly.
        let objective = Objective::maintenance_aware(
            query_model.as_ref(),
            &sofos_cost::TouchedGroupsMaintenance,
            engine.observed_rates(),
            self.lambda,
        );
        let ctx = sized.context();
        let (selection_us, selection) = measure_once(|| {
            greedy_select(
                &ctx,
                &sized.lattice,
                &objective,
                &profile,
                self.config.budget,
            )
        });

        let churn = engine.swap_views(&selection.selected)?;
        // Anchor at the profile the new selection was *optimized for* —
        // not the raw window, which on a cold forced reselect is empty
        // and would make every subsequent query read as drift 1.0.
        self.detector.rebase(&profile);
        self.reselections += 1;
        let report = ReselectionReport {
            drift,
            selection,
            churn,
            sizing_us,
            sizing_refreshed,
            selection_us,
        };
        crate::metrics::record_reselection(
            engine.metrics(),
            engine.now_ms(),
            report.overhead_us(),
            report.to_string(),
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::{Engine, Route};
    use crate::offline::run_offline;
    use crate::policy::StalenessPolicy;
    use sofos_cube::{facet_query, AggOp, ViewMask};
    use sofos_rdf::Term;
    use sofos_select::Budget;
    use sofos_workload::synthetic;

    fn engine_setup(policy: StalenessPolicy) -> Engine {
        let g = synthetic::generate(&synthetic::Config {
            observations: 120,
            agg: AggOp::Avg,
            ..synthetic::Config::default()
        });
        let facet = g.facets[0].clone();
        let mut ds = g.dataset;
        let sized = SizedLattice::compute(&ds, &facet).unwrap();
        let profile = WorkloadProfile::uniform(&sized.lattice);
        let offline = run_offline(
            &mut ds,
            &sized,
            &profile,
            CostModelKind::AggValues,
            &EngineConfig::default(),
        )
        .unwrap();
        Engine::builder()
            .dataset(ds)
            .facet(facet)
            .catalog(offline.view_catalog())
            .staleness(policy)
            .build()
            .unwrap()
    }

    /// The engine's lattice sized over its current snapshot.
    fn sizing(engine: &Engine) -> SizedLattice {
        SizedLattice::compute(&engine.snapshot(), engine.facet()).unwrap()
    }

    fn session_delta(batch: usize) -> sofos_store::Delta {
        use sofos_workload::synthetic::NS;
        let mut delta = sofos_store::Delta::new();
        for i in 0..3usize {
            let node = Term::blank(format!("u{batch}_{i}"));
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
                Term::literal_int(100 + (batch * 7 + i) as i64),
            );
        }
        delta
    }

    #[test]
    fn drift_detector_measures_total_variation() {
        let a = WorkloadProfile::from_masks([ViewMask(1), ViewMask(1), ViewMask(2), ViewMask(2)]);
        let detector = DriftDetector::new(&a, 0.25);
        // Same mix, different scale: no drift.
        let same = WorkloadProfile::from_masks([ViewMask(1), ViewMask(2)]);
        assert!(detector.drift(&same).abs() < 1e-12);
        assert!(!detector.drifted(&same));
        // Half the mass moved from mask 2 to mask 3: TV = 0.25.
        let shifted =
            WorkloadProfile::from_masks([ViewMask(1), ViewMask(1), ViewMask(2), ViewMask(3)]);
        assert!((detector.drift(&shifted) - 0.25).abs() < 1e-12);
        // Disjoint demand: TV = 1.
        let disjoint = WorkloadProfile::from_masks([ViewMask(5)]);
        assert_eq!(detector.drift(&disjoint), 1.0);
        assert!(detector.drifted(&disjoint));
        // Empty windows never fire.
        let empty = WorkloadProfile { demands: vec![] };
        assert_eq!(detector.drift(&empty), 1.0);
        assert!(!detector.drifted(&empty));
    }

    #[test]
    fn total_variation_edges() {
        let empty = FxHashMap::default();
        let one: FxHashMap<u64, f64> = [(1u64, 1.0)].into_iter().collect();
        assert_eq!(total_variation(&empty, &empty), 0.0);
        assert_eq!(total_variation(&one, &empty), 1.0);
        assert!(total_variation(&one, &one).abs() < 1e-12);
    }

    #[test]
    fn reselector_fires_on_drift_and_recovers_view_hits() {
        let engine = engine_setup(StalenessPolicy::Eager);
        // Force a catalog that only answers apex queries.
        engine.swap_views(&[ViewMask::APEX]).unwrap();
        let apex_profile = WorkloadProfile::from_masks([ViewMask::APEX]);
        let mut reselector = Reselector::new(
            CostModelKind::AggValues,
            EngineConfig::default(),
            0.0,
            &apex_profile,
            0.5,
            sizing(&engine),
        );

        // The workload moves to the finest grouping, which the apex
        // cannot answer: every query falls back.
        let base_mask = ViewMask::full(engine.facet().dim_count());
        let q = facet_query(engine.facet(), base_mask, AggOp::Sum, vec![]);
        for _ in 0..6 {
            engine.query(&q).unwrap();
        }
        let (hits_before, fallbacks_before) = engine.routing_counts();
        assert_eq!(hits_before, 0);
        assert_eq!(fallbacks_before, 6);

        let report = reselector
            .check(&engine)
            .unwrap()
            .expect("profile moved entirely: drift 1.0 > threshold 0.5");
        assert_eq!(report.drift, 1.0);
        assert!(
            report
                .selection
                .selected
                .iter()
                .any(|v| v.covers(base_mask)),
            "re-selection must cover the new hot demand: {:?}",
            report.selection.selected
        );
        assert!(!report.churn.added.is_empty());
        assert_eq!(reselector.reselections(), 1);
        // The pass lands on the adaptive instruments.
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.counter_value("sofos_reselections_total", &[]), Some(1));

        // After the swap the same query routes to a view again.
        let answer = engine.query(&q).unwrap();
        assert!(matches!(answer.route, Route::View(_)));

        // And the detector is re-anchored: the same workload no longer
        // triggers another pass.
        assert!(reselector.check(&engine).unwrap().is_none());
    }

    #[test]
    fn reselector_reuses_cached_sizing() {
        let engine = engine_setup(StalenessPolicy::Eager);
        // Update pressure, so the λ = 1 maintenance term prices upkeep.
        for batch in 0..3 {
            engine.update(session_delta(batch)).unwrap();
        }
        assert!(!engine.observed_rates().is_frozen());
        let sized = SizedLattice::compute(&engine.snapshot(), engine.facet()).unwrap();
        engine.swap_views(&[ViewMask::APEX]).unwrap();
        let apex_profile = WorkloadProfile::from_masks([ViewMask::APEX]);
        let mut reselector = Reselector::new(
            CostModelKind::Triples,
            EngineConfig::default(),
            1.0,
            &apex_profile,
            0.5,
            sized,
        );

        let base_mask = ViewMask::full(engine.facet().dim_count());
        let q = facet_query(engine.facet(), base_mask, AggOp::Sum, vec![]);
        for _ in 0..4 {
            engine.query(&q).unwrap();
        }
        let report = reselector
            .check(&engine)
            .unwrap()
            .expect("disjoint demand triggers re-selection");
        assert!(
            report.sizing_refreshed,
            "cached sizing is refreshed, not re-evaluated"
        );
        assert!(report
            .selection
            .selected
            .iter()
            .any(|v| v.covers(base_mask)));
        let answer = engine.query(&q).unwrap();
        assert!(matches!(answer.route, Route::View(_)));

        // The report renders without hand-formatting.
        let line = report.to_string();
        assert!(line.starts_with("drift 1.00"), "{line}");
    }

    #[test]
    fn empty_cached_sizing_is_recomputed_not_scaled() {
        let facet = synthetic::generate(&synthetic::Config {
            observations: 12,
            ..synthetic::Config::default()
        })
        .facets[0]
            .clone();
        let empty = SizedLattice::compute(&Dataset::new(), &facet).unwrap();
        assert_eq!(empty.stats[&ViewMask::APEX].rows, 1);
        let engine = Engine::builder()
            .dataset(Dataset::new())
            .facet(facet)
            .build()
            .unwrap();
        // Load a cube into the empty graph after the sizing was cached.
        for batch in 0..4 {
            engine.update(session_delta(batch)).unwrap();
        }
        let mut reselector = Reselector::new(
            CostModelKind::AggValues,
            EngineConfig::default(),
            0.0,
            &WorkloadProfile::uniform(&empty.lattice),
            0.5,
            empty,
        );

        let snapshot = engine.snapshot();
        let (used, _, refreshed) = reselector.sizing(&snapshot, engine.facet()).unwrap();
        assert!(!refreshed, "an empty-graph sizing is not scaled");
        let fresh = SizedLattice::compute(&snapshot, engine.facet()).unwrap();
        assert_eq!(used.stats, fresh.stats);
        assert_eq!(used.base_stats, fresh.base_stats);
        assert_eq!(
            used.stats[&ViewMask::APEX].rows,
            1,
            "the apex stays one row"
        );

        let report = reselector.reselect(&engine).unwrap();
        assert!(!report.sizing_refreshed);
        assert!(!report.selection.selected.is_empty());
    }

    #[test]
    fn reselector_stays_quiet_without_drift() {
        let engine = engine_setup(StalenessPolicy::Eager);
        let workload = sofos_workload::generate_workload(
            &engine.snapshot(),
            engine.facet(),
            &sofos_workload::WorkloadConfig {
                num_queries: 10,
                ..Default::default()
            },
        );
        let reference = WorkloadProfile::from_masks(workload.iter().map(|q| q.required));
        let mut reselector = Reselector::new(
            CostModelKind::AggValues,
            EngineConfig::default(),
            1.0,
            &reference,
            0.5,
            sizing(&engine),
        );
        for q in &workload {
            engine.query(&q.query).unwrap();
        }
        assert!(
            reselector.check(&engine).unwrap().is_none(),
            "replaying the reference workload is not drift"
        );
        assert_eq!(reselector.reselections(), 0);
    }

    #[test]
    fn reselector_budget_variants() {
        // Byte budgets flow through the engine path exactly as view
        // budgets do.
        let engine = engine_setup(StalenessPolicy::Eager);
        engine.swap_views(&[ViewMask::APEX]).unwrap();
        let apex_profile = WorkloadProfile::from_masks([ViewMask::APEX]);
        let mut reselector = Reselector::new(
            CostModelKind::AggValues,
            EngineConfig {
                budget: Budget::Views(2),
                ..EngineConfig::default()
            },
            0.0,
            &apex_profile,
            0.5,
            sizing(&engine),
        );
        let base_mask = ViewMask::full(engine.facet().dim_count());
        let q = facet_query(engine.facet(), base_mask, AggOp::Sum, vec![]);
        for _ in 0..4 {
            engine.query(&q).unwrap();
        }
        let report = reselector.reselect(&engine).unwrap();
        assert!(report.selection.selected.len() <= 2, "budget respected");
    }

    #[test]
    fn reselection_is_greedy_over_the_refreshed_sizing() {
        // The one re-selection path: under λ > 0 a pass selects exactly
        // what greedy selects over the given sizing refreshed by live
        // growth, with the same objective and budget.
        let engine = engine_setup(StalenessPolicy::Eager);
        let sized = sizing(&engine);
        for batch in 0..3 {
            engine.update(session_delta(batch)).unwrap();
        }
        engine.swap_views(&[ViewMask::APEX]).unwrap();
        let base_mask = ViewMask::full(engine.facet().dim_count());
        let q = facet_query(engine.facet(), base_mask, AggOp::Sum, vec![]);
        for _ in 0..4 {
            engine.query(&q).unwrap();
        }

        let (kind, lambda) = (CostModelKind::Triples, 1.0);
        let config = EngineConfig {
            budget: Budget::Views(3),
            ..EngineConfig::default()
        };
        let snapshot = engine.snapshot();
        let live = sofos_store::GraphStats::compute(snapshot.default_graph());
        let refreshed = sized.refreshed(&live);
        assert!(refreshed.base_stats.triples > sized.base_stats.triples);
        let (model, _, _) =
            crate::offline::build_model(kind, &refreshed, &snapshot, &config).unwrap();
        let objective = Objective::maintenance_aware(
            model.as_ref(),
            &sofos_cost::TouchedGroupsMaintenance,
            engine.observed_rates(),
            lambda,
        );
        assert!(objective.is_active(), "updates make upkeep count");
        let expected = greedy_select(
            &refreshed.context(),
            &refreshed.lattice,
            &objective,
            &engine.window_profile(),
            config.budget,
        );

        let mut reselector = Reselector::new(
            kind,
            config,
            lambda,
            &WorkloadProfile::from_masks([ViewMask::APEX]),
            0.5,
            sized,
        );
        let report = reselector.reselect(&engine).unwrap();
        assert!(report.sizing_refreshed);
        assert_eq!(report.selection, expected);
        assert!(report.selection.upkeep_cost > 0.0);
    }
}
