//! The adaptive layer: drift detection and re-selection over a live
//! [`Engine`].
//!
//! Every engine tracks a *sliding* workload/update profile
//! (recent demanded masks, recent insert/delete pressure, per-group
//! churn — see [`crate::policy::ProfileWindows`]); a [`DriftDetector`]
//! measures how far that window has moved from the profile the current
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
use crate::policy::total_variation;
use crate::timing::measure_once;
use sofos_cost::{CalibratedMaintenance, CostModelKind};
use sofos_rdf::FxHashMap;
use sofos_select::{
    greedy_select_with, local_search_select_with, LocalSearchConfig, Objective, SearchBudget,
    SearchReport, SelectionOutcome, WorkloadProfile,
};
use sofos_sparql::SparqlError;
use std::sync::Arc;

/// Measures how far the live workload has drifted from the profile the
/// current selection was optimized for.
///
/// Distance is total variation between the two *normalized* demand
/// distributions: `½ Σ_m |p(m) − q(m)| ∈ [0, 1]`. 0 means the window
/// replays the reference mix exactly; 1 means disjoint demand. The weight
/// scale of either profile cancels, so windows and references of
/// different lengths compare directly.
///
/// Alongside demand, the detector can track update *locality*: a
/// per-group churn distribution ([`Engine::churn_profile`]) anchored by
/// [`DriftDetector::with_churn_reference`]. Maintenance hotspots then
/// register as drift even when query demand is perfectly steady — the
/// trigger maintenance-aware selection needs, since upkeep cost depends
/// on *which* groups churn, not only on how much.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    /// Reference demand mass by mask (un-normalized —
    /// `total_variation` normalizes both sides).
    reference: FxHashMap<u64, f64>,
    /// Churn reference; `None` disables the locality trigger.
    churn_reference: Option<FxHashMap<u64, f64>>,
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
            churn_reference: None,
            threshold,
        }
    }

    /// Anchor the locality trigger at a reference per-group churn
    /// distribution (typically [`Engine::churn_profile`] at selection
    /// time). Until set, churn never registers as drift.
    pub fn with_churn_reference(mut self, churn: &FxHashMap<u64, f64>) -> DriftDetector {
        self.set_churn_reference(churn);
        self
    }

    /// Re-anchor the churn reference (after a re-selection).
    pub fn set_churn_reference(&mut self, churn: &FxHashMap<u64, f64>) {
        self.churn_reference = Some(churn.clone());
    }

    /// True when a churn reference is anchored.
    pub(crate) fn has_churn_reference(&self) -> bool {
        self.churn_reference.is_some()
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

    /// The configured firing threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Total-variation distance between the reference and `current` —
    /// the same `total_variation` the churn trigger
    /// uses. Both empty → 0 (nothing moved); exactly one empty → 1.
    pub fn drift(&self, current: &WorkloadProfile) -> f64 {
        total_variation(&self.reference, &Self::mass(current))
    }

    /// True when `current` holds at least one observation and its drift
    /// exceeds the threshold.
    pub fn drifted(&self, current: &WorkloadProfile) -> bool {
        current.total_weight() >= 1.0 && self.drift(current) > self.threshold
    }

    /// Total-variation distance between the anchored churn reference and
    /// the current per-group churn distribution. 0 when no churn
    /// reference was set, or when neither side carries any churn —
    /// *locality* drift is undefined without churn, and an empty window
    /// must not read as "everything moved".
    pub fn churn_drift(&self, current: &FxHashMap<u64, f64>) -> f64 {
        let Some(reference) = &self.churn_reference else {
            return 0.0;
        };
        if current.values().all(|&w| w <= 0.0) {
            return 0.0;
        }
        total_variation(reference, current)
    }

    /// True when update locality moved past the threshold under a set
    /// churn reference — the maintenance-hotspot trigger, independent of
    /// demand.
    pub fn churn_drifted(&self, current: &FxHashMap<u64, f64>) -> bool {
        self.churn_drift(current) > self.threshold
    }

    /// Re-anchor at a new reference (after a re-selection).
    pub fn rebase(&mut self, reference: &WorkloadProfile) {
        self.reference = Self::mass(reference);
    }
}

/// One re-selection pass: what drove it, what was selected, what churned.
#[derive(Debug, Clone)]
pub struct ReselectionReport {
    /// Demand drift at the moment of re-selection.
    pub drift: f64,
    /// Update-locality (per-group churn) drift at the moment of
    /// re-selection; 0 when the locality trigger is off.
    pub locality_drift: f64,
    /// The new selection (combined-objective costs included).
    pub selection: SelectionOutcome,
    /// Catalog churn from the transactional swap.
    pub churn: ViewChurn,
    /// Wall time of the lattice re-sizing pass (µs) — the growth-scaling
    /// refresh when the sizing cache is on, the full per-view evaluation
    /// otherwise.
    pub sizing_us: u64,
    /// True when sizing came from the cache, refreshed by live
    /// [`sofos_store::GraphStats`] growth instead of re-evaluated.
    pub sizing_refreshed: bool,
    /// Wall time of the selection algorithm (µs).
    pub selection_us: u64,
    /// What the anytime local search did, when the pass ran under a
    /// [`Reselector::with_anytime_budget`]; `None` for greedy passes.
    pub search: Option<SearchReport>,
}

impl ReselectionReport {
    /// Total re-selection overhead (µs): sizing + selection +
    /// materialization + drops.
    pub fn overhead_us(&self) -> u64 {
        self.sizing_us + self.selection_us + self.churn.materialize_us + self.churn.drop_us
    }

    /// JSON object with the numbers bench reports record (selection masks
    /// as integers, drifts, churn counts, overhead breakdown).
    pub fn to_json_string(&self) -> String {
        let masks: Vec<String> = self
            .selection
            .selected
            .iter()
            .map(|m| m.0.to_string())
            .collect();
        let search = match &self.search {
            None => String::new(),
            Some(s) => format!(
                ",\"moves_tried\":{},\"moves_accepted\":{},\"restarts\":{},\"converged\":{}",
                s.moves_tried, s.moves_accepted, s.restarts, s.converged
            ),
        };
        format!(
            "{{\"drift\":{},\"locality_drift\":{},\"selected\":[{}],\"added\":{},\
             \"retired\":{},\"kept\":{},\"sizing_us\":{},\"sizing_refreshed\":{},\
             \"selection_us\":{},\"materialize_us\":{},\"drop_us\":{},\"overhead_us\":{}{}}}",
            self.drift,
            self.locality_drift,
            masks.join(","),
            self.churn.added.len(),
            self.churn.retired.len(),
            self.churn.kept.len(),
            self.sizing_us,
            self.sizing_refreshed,
            self.selection_us,
            self.churn.materialize_us,
            self.churn.drop_us,
            self.overhead_us(),
            search
        )
    }
}

impl std::fmt::Display for ReselectionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drift {:.2} (locality {:.2}) → {} views (+{} −{} ={}), {} µs overhead",
            self.drift,
            self.locality_drift,
            self.selection.selected.len(),
            self.churn.added.len(),
            self.churn.retired.len(),
            self.churn.kept.len(),
            self.overhead_us()
        )?;
        if let Some(s) = &self.search {
            write!(
                f,
                " [anytime: {} moves, {} accepted, {} restarts, {}]",
                s.moves_tried,
                s.moves_accepted,
                s.restarts,
                if s.converged {
                    "converged"
                } else {
                    "truncated"
                }
            )?;
        }
        Ok(())
    }
}

/// Budget for anytime re-selection passes ([`Reselector::with_anytime_budget`]):
/// a move cap and/or a wall deadline. The deadline is measured from pass
/// start on the engine's injected [`crate::policy::Clock`], so serving
/// budgets hold and `ManualClock` tests stay deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnytimeBudget {
    /// Cap on local-search moves per pass (`None` = uncapped).
    pub max_moves: Option<u64>,
    /// Wall budget per pass in clock milliseconds (`None` = no deadline).
    pub deadline_ms: Option<u64>,
}

impl AnytimeBudget {
    /// A move-capped budget.
    pub fn moves(max_moves: u64) -> AnytimeBudget {
        AnytimeBudget {
            max_moves: Some(max_moves),
            deadline_ms: None,
        }
    }

    /// A wall-deadline budget (milliseconds from pass start).
    pub fn deadline_ms(deadline_ms: u64) -> AnytimeBudget {
        AnytimeBudget {
            max_moves: None,
            deadline_ms: Some(deadline_ms),
        }
    }
}

/// Adaptive re-selection: watches an engine's sliding workload/update
/// profile through a [`DriftDetector`] and, when the workload has moved,
/// re-runs maintenance-aware selection over a freshly re-sized lattice
/// and swaps the materialized set transactionally.
///
/// The maintenance term defaults to the analytic
/// [`sofos_cost::TouchedGroupsMaintenance`] estimator, so λ keeps the
/// same (abstract, triples-scale) meaning across the whole run. Opting in
/// to [`Reselector::with_calibrated_maintenance`] instead fits
/// [`CalibratedMaintenance`] to the maintenance telemetry the engine has
/// accumulated so far — predictions move to real microseconds, and λ must
/// be chosen against that scale. Update pressure is read from
/// [`Engine::observed_rates`] either way.
pub struct Reselector {
    kind: CostModelKind,
    config: EngineConfig,
    lambda: f64,
    detector: DriftDetector,
    calibrated: bool,
    locality: bool,
    sizing_cache: Option<crate::offline::SizedLattice>,
    anytime: Option<AnytimeBudget>,
    reselections: usize,
}

impl Reselector {
    /// A re-selector optimizing `kind` + λ·maintenance under `config`'s
    /// budget, anchored at the profile the current selection served.
    pub fn new(
        kind: CostModelKind,
        config: EngineConfig,
        lambda: f64,
        reference: &WorkloadProfile,
        threshold: f64,
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
            calibrated: false,
            locality: false,
            sizing_cache: None,
            anytime: None,
            reselections: 0,
        }
    }

    /// Re-select with the anytime local search
    /// ([`sofos_select::local_search_select_with`]) instead of the full
    /// greedy: seeded from the engine's *current catalog*, improving
    /// within `budget` — so adaptive re-selection fits inside a serving
    /// deadline even at lattice scales where a greedy pass would blow it.
    /// The resulting [`SearchReport`] lands on
    /// [`ReselectionReport::search`] and the
    /// `sofos_select_moves_total` / `sofos_select_restarts_total`
    /// counters.
    pub fn with_anytime_budget(mut self, budget: AnytimeBudget) -> Reselector {
        self.anytime = Some(budget);
        self
    }

    /// Also fire on update-*locality* drift: when the per-group churn
    /// distribution (which groups the update stream hits) moves past the
    /// detector's threshold, re-select even under perfectly steady
    /// demand — maintenance hotspots shift which views are worth keeping.
    /// The churn reference is anchored lazily at the first checked
    /// window and re-anchored on every re-selection.
    pub fn with_locality_trigger(mut self) -> Reselector {
        self.locality = true;
        self
    }

    /// Price upkeep in real microseconds, re-fit from the engine's
    /// accumulated maintenance telemetry on every pass (λ must then be
    /// chosen against the µs scale rather than the analytic one).
    pub fn with_calibrated_maintenance(mut self) -> Reselector {
        self.calibrated = true;
        self
    }

    /// Reuse an offline sizing pass instead of re-evaluating the whole
    /// lattice on every re-selection.
    ///
    /// Re-sizing costs as much as answering one query per lattice view —
    /// on a 2^d lattice that dwarfs everything else a re-selection does,
    /// and is exactly the overhead that makes frequent re-selection
    /// uneconomical. Cached estimates are **not** frozen: every pass
    /// rescales the cached per-view rows/triples/bytes by the live
    /// [`sofos_store::GraphStats`] growth since the cache was taken
    /// ([`crate::offline::SizedLattice::refreshed`]), so byte budgets
    /// keep pricing against the graph that actually exists. The scaling
    /// is uniform — it tracks size, not shape; drop the cache (a fresh
    /// `Reselector`) when the graph's *distribution* has changed.
    pub fn with_sizing_cache(mut self, sized: crate::offline::SizedLattice) -> Reselector {
        self.sizing_cache = Some(sized);
        self
    }

    /// The drift detector (for inspection / reporting).
    pub fn detector(&self) -> &DriftDetector {
        &self.detector
    }

    /// Re-selections performed so far.
    pub fn reselections(&self) -> usize {
        self.reselections
    }

    /// Check the engine's sliding window against the reference profile;
    /// re-select only if demand — or, with the locality trigger, the
    /// per-group churn distribution — drifted past the threshold.
    /// `Ok(None)` means the standing selection still fits.
    pub fn check(&mut self, engine: &Engine) -> Result<Option<ReselectionReport>, SparqlError> {
        let window = engine.window_profile();
        let churn = self.engine_churn(engine);
        let demand_drifted = self.detector.drifted(&window);
        let locality_drifted = self.locality
            && if !self.detector.has_churn_reference() {
                // First sighting of churn anchors the reference; nothing
                // to compare against yet.
                if !churn.is_empty() {
                    self.detector.set_churn_reference(&churn);
                }
                false
            } else {
                self.detector.churn_drifted(&churn)
            };
        if !demand_drifted && !locality_drifted {
            return Ok(None);
        }
        self.reselect_for(engine, window, churn).map(Some)
    }

    /// The engine's churn profile when the locality trigger is on
    /// (empty — and never consulted — otherwise).
    fn engine_churn(&self, engine: &Engine) -> FxHashMap<u64, f64> {
        if self.locality {
            engine.churn_profile()
        } else {
            FxHashMap::default()
        }
    }

    /// Unconditional re-selection against the current window (the
    /// always-reselect policy; also useful to force an initial swap).
    pub fn reselect(&mut self, engine: &Engine) -> Result<ReselectionReport, SparqlError> {
        let window = engine.window_profile();
        let churn = self.engine_churn(engine);
        self.reselect_for(engine, window, churn)
    }

    fn reselect_for(
        &mut self,
        engine: &Engine,
        window: WorkloadProfile,
        engine_churn: FxHashMap<u64, f64>,
    ) -> Result<ReselectionReport, SparqlError> {
        let drift = self.detector.drift(&window);
        let locality_drift = if self.locality {
            self.detector.churn_drift(&engine_churn)
        } else {
            0.0
        };
        // A cold window (no queries yet) has nothing to optimize for;
        // fall back to uniform demand rather than selecting nothing.
        let profile = if window.total_weight() > 0.0 {
            window.clone()
        } else {
            let lattice = sofos_cube::Lattice::new(engine.facet().clone());
            WorkloadProfile::uniform(&lattice)
        };

        // A consistent snapshot of the served dataset: cheap (datasets
        // clone by Arc-sharing), and the engine's serving loop
        // keeps running while sizing and selection think.
        let snapshot = engine.snapshot();
        let computed;
        let refreshed;
        let sizing_refreshed = self.sizing_cache.is_some();
        let (sized, sizing_us) = match &self.sizing_cache {
            Some(cached) => {
                // Incremental re-sizing: scale the cached estimates by
                // live base-graph growth instead of freezing them (or
                // paying a full lattice re-evaluation).
                let live = snapshot.base_stats();
                let (us, r) = measure_once(|| cached.refreshed(&live));
                refreshed = r;
                (&refreshed, us)
            }
            None => {
                computed = crate::offline::SizedLattice::compute(&snapshot, engine.facet())?;
                (&computed, computed.sizing_us)
            }
        };
        let (query_model, _history, _train_us) =
            crate::offline::build_model(self.kind, sized, &self.config);
        let analytic = sofos_cost::TouchedGroupsMaintenance;
        let calibrated;
        let maintenance: &dyn sofos_cost::MaintenanceCostModel = if self.calibrated {
            calibrated = CalibratedMaintenance::calibrate(&engine.maintenance().per_view);
            &calibrated
        } else {
            &analytic
        };
        let rates = engine.observed_rates();
        let ctx = sized.context();
        let objective = if self.lambda > 0.0 {
            Objective::maintenance_aware(query_model.as_ref(), maintenance, rates, self.lambda)
        } else {
            Objective::query_only(query_model.as_ref())
        };
        let (selection_us, (selection, search)) = measure_once(|| match self.anytime {
            None => (
                greedy_select_with(
                    &ctx,
                    &sized.lattice,
                    &objective,
                    &profile,
                    self.config.budget,
                ),
                None,
            ),
            Some(budget) => {
                let mut search = SearchBudget::unlimited();
                if let Some(max_moves) = budget.max_moves {
                    search = search.with_moves(max_moves);
                }
                if let Some(deadline_ms) = budget.deadline_ms {
                    let clock = engine.clock();
                    let deadline = clock.now_ms().saturating_add(deadline_ms);
                    search = search.with_deadline(Arc::new(move || clock.now_ms()), deadline);
                }
                let config = LocalSearchConfig {
                    rng_seed: self.config.seed,
                    initial: Some(engine.views().iter().map(|&(mask, _)| mask).collect()),
                    ..LocalSearchConfig::default()
                };
                let (outcome, report) = local_search_select_with(
                    &ctx,
                    &sized.lattice,
                    &objective,
                    &profile,
                    self.config.budget,
                    &config,
                    &search,
                );
                (outcome, Some(report))
            }
        });

        let churn = engine.swap_views(&selection.selected)?;
        // Anchor at the profile the new selection was *optimized for* —
        // not the raw window, which on a cold forced reselect is empty
        // and would make every subsequent query read as drift 1.0. The
        // churn reference re-anchors at the window's distribution for the
        // same reason.
        self.detector.rebase(&profile);
        if self.locality && !engine_churn.is_empty() {
            self.detector.set_churn_reference(&engine_churn);
        }
        self.reselections += 1;
        let report = ReselectionReport {
            drift,
            locality_drift,
            selection,
            churn,
            sizing_us,
            sizing_refreshed,
            selection_us,
            search,
        };
        let (moves, restarts) = report
            .search
            .as_ref()
            .map_or((0, 0), |s| (s.moves_tried, s.restarts));
        crate::metrics::record_reselection(
            engine.metrics(),
            engine.now_ms(),
            report.overhead_us(),
            moves,
            restarts,
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
    use crate::offline::{run_offline, SizedLattice};
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

    /// A delta whose observations all land on one fixed dimension-value
    /// combination — the lever for steering per-group churn.
    fn hotspot_delta(batch: usize, dims: [usize; 3]) -> sofos_store::Delta {
        use sofos_workload::synthetic::NS;
        let mut delta = sofos_store::Delta::new();
        for i in 0..3usize {
            let node = Term::blank(format!("h{batch}_{i}"));
            for (d, v) in dims.iter().enumerate() {
                delta.insert(
                    node.clone(),
                    Term::iri(format!("{NS}dim{d}")),
                    Term::iri(format!("{NS}v{d}_{v}")),
                );
            }
            delta.insert(
                node,
                Term::iri(format!("{NS}measure")),
                Term::literal_int(10 + (batch * 3 + i) as i64),
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
    fn drift_detector_tracks_churn_locality() {
        let reference: FxHashMap<u64, f64> = [(1u64, 2.0), (2u64, 2.0)].into_iter().collect();
        let profile = WorkloadProfile::from_masks([ViewMask(1)]);
        let detector = DriftDetector::new(&profile, 0.25).with_churn_reference(&reference);

        // Same mix, different scale: no locality drift.
        let same: FxHashMap<u64, f64> = [(1u64, 1.0), (2u64, 1.0)].into_iter().collect();
        assert!(detector.churn_drift(&same).abs() < 1e-12);
        assert!(!detector.churn_drifted(&same));

        // Half the churn moved to a new group: TV = 0.5.
        let shifted: FxHashMap<u64, f64> = [(1u64, 2.0), (9u64, 2.0)].into_iter().collect();
        assert!((detector.churn_drift(&shifted) - 0.5).abs() < 1e-12);
        assert!(detector.churn_drifted(&shifted));

        // An empty window is "no churn", not "everything moved".
        assert_eq!(detector.churn_drift(&FxHashMap::default()), 0.0);

        // Without a reference the locality trigger is inert.
        let unanchored = DriftDetector::new(&profile, 0.25);
        assert_eq!(unanchored.churn_drift(&shifted), 0.0);
    }

    #[test]
    fn reselector_fires_on_drift_and_recovers_view_hits_on_both_backends() {
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

        // After the swap the same query routes to a view again.
        let answer = engine.query(&q).unwrap();
        assert!(matches!(answer.route, Route::View(_)));

        // And the detector is re-anchored: the same workload no longer
        // triggers another pass.
        assert!(reselector.check(&engine).unwrap().is_none());
    }

    #[test]
    fn reselector_options_calibrated_and_cached() {
        let engine = engine_setup(StalenessPolicy::Eager);
        // Accumulate maintenance telemetry for calibration.
        for batch in 0..3 {
            engine.update(session_delta(batch)).unwrap();
        }
        assert!(!engine.maintenance().per_view.is_empty());
        let sized = SizedLattice::compute(&engine.snapshot(), engine.facet()).unwrap();
        engine.swap_views(&[ViewMask::APEX]).unwrap();
        let apex_profile = WorkloadProfile::from_masks([ViewMask::APEX]);
        let mut reselector = Reselector::new(
            CostModelKind::Triples,
            EngineConfig::default(),
            1.0,
            &apex_profile,
            0.5,
        )
        .with_calibrated_maintenance()
        .with_sizing_cache(sized);

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

        // The report renders and serializes without hand-formatting.
        let line = report.to_string();
        assert!(line.starts_with("drift 1.00"), "{line}");
        let json = report.to_json_string();
        assert!(json.contains("\"drift\":1"), "{json}");
        assert!(json.contains("\"sizing_refreshed\":true"), "{json}");
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
    fn reselector_fires_on_locality_drift_under_steady_demand() {
        let engine = engine_setup(StalenessPolicy::Eager);
        // Steady demand: the same query before and after the hotspot
        // moves, so demand drift stays ~0 throughout.
        let demand_mask = ViewMask::full(engine.facet().dim_count());
        let q = facet_query(engine.facet(), demand_mask, AggOp::Sum, vec![]);
        let reference = WorkloadProfile::from_masks([demand_mask]);
        let mut reselector = Reselector::new(
            CostModelKind::AggValues,
            EngineConfig::default(),
            1.0,
            &reference,
            0.5,
        )
        .with_locality_trigger();

        for _ in 0..4 {
            engine.query(&q).unwrap();
        }
        for batch in 0..3 {
            engine.update(hotspot_delta(batch, [0, 0, 0])).unwrap();
        }
        // First check anchors the churn reference; steady demand, no fire.
        assert!(reselector.check(&engine).unwrap().is_none());

        // The update stream migrates to a disjoint hotspot; demand is
        // unchanged (same query keeps arriving).
        for batch in 3..3 + crate::policy::ProfileWindows::RATE_WINDOW {
            engine.update(hotspot_delta(batch, [2, 2, 2])).unwrap();
            engine.query(&q).unwrap();
        }
        let report = reselector
            .check(&engine)
            .unwrap()
            .expect("locality drift alone triggers re-selection");
        assert!(
            report.drift <= 0.5,
            "demand stayed steady: {}",
            report.drift
        );
        assert!(
            report.locality_drift > 0.5,
            "churn moved: {}",
            report.locality_drift
        );
        assert_eq!(reselector.reselections(), 1);
        // Re-anchored: the same hotspot no longer reads as drift.
        assert!(reselector.check(&engine).unwrap().is_none());
    }

    #[test]
    fn anytime_reselection_improves_within_a_move_budget_on_both_backends() {
        let engine = engine_setup(StalenessPolicy::Eager);
        engine.swap_views(&[ViewMask::APEX]).unwrap();
        let apex_profile = WorkloadProfile::from_masks([ViewMask::APEX]);
        let mut reselector = Reselector::new(
            CostModelKind::AggValues,
            EngineConfig::default(),
            0.0,
            &apex_profile,
            0.5,
        )
        .with_anytime_budget(AnytimeBudget::moves(2_000));

        let base_mask = ViewMask::full(engine.facet().dim_count());
        let q = facet_query(engine.facet(), base_mask, AggOp::Sum, vec![]);
        for _ in 0..6 {
            engine.query(&q).unwrap();
        }
        let report = reselector
            .check(&engine)
            .unwrap()
            .expect("disjoint demand triggers re-selection");
        let search = report.search.as_ref().expect("anytime pass reports search");
        assert!(search.moves_tried <= 2_000);
        assert!(
            search.final_cost <= search.seed_cost,
            "never worse than the catalog seed"
        );
        assert!(
            report
                .selection
                .selected
                .iter()
                .any(|v| v.covers(base_mask)),
            "local search finds the hot demand: {:?}",
            report.selection.selected
        );
        let line = report.to_string();
        assert!(line.contains("anytime:"), "{line}");
        assert!(report.to_json_string().contains("\"moves_tried\":"));

        // The pass lands on the adaptive instruments.
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.counter_value("sofos_reselections_total", &[]), Some(1));
        assert!(snap.counter_value("sofos_select_moves_total", &[]).unwrap() > 0);
    }

    #[test]
    fn anytime_deadline_on_a_frozen_clock_returns_the_catalog_seed() {
        use crate::policy::{Clock, ManualClock};
        use std::sync::Arc;

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
        let clock = ManualClock::shared(0);
        let engine = Engine::builder()
            .dataset(ds)
            .facet(facet)
            .catalog(offline.view_catalog())
            .clock(clock.clone() as Arc<dyn Clock>)
            .build()
            .unwrap();
        engine.swap_views(&[ViewMask::APEX]).unwrap();

        // A zero-ms deadline off a frozen clock expires before the first
        // proposal: the pass must come back with the (valid) catalog seed
        // — the interrupt-at-deadline contract, deterministic under
        // ManualClock.
        let apex_profile = WorkloadProfile::from_masks([ViewMask::APEX]);
        let mut reselector = Reselector::new(
            CostModelKind::AggValues,
            EngineConfig::default(),
            0.0,
            &apex_profile,
            0.5,
        )
        .with_anytime_budget(AnytimeBudget::deadline_ms(0));
        let base_mask = ViewMask::full(engine.facet().dim_count());
        let q = facet_query(engine.facet(), base_mask, AggOp::Sum, vec![]);
        for _ in 0..4 {
            engine.query(&q).unwrap();
        }
        let report = reselector.reselect(&engine).unwrap();
        let search = report.search.expect("anytime pass reports search");
        assert!(search.budget_exhausted);
        assert_eq!(search.moves_tried, 0);
        assert_eq!(
            report.selection.selected,
            vec![ViewMask::APEX],
            "seed catalog survives the interrupt"
        );
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
        );
        let base_mask = ViewMask::full(engine.facet().dim_count());
        let q = facet_query(engine.facet(), base_mask, AggOp::Sum, vec![]);
        for _ in 0..4 {
            engine.query(&q).unwrap();
        }
        let report = reselector.reselect(&engine).unwrap();
        assert!(report.selection.selected.len() <= 2, "budget respected");
    }
}
