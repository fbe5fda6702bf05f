//! # sofos-select — view-selection algorithms
//!
//! "To select the best set of views, we adopt a greedy approach \[7\]. Given a
//! set of selected views, the greedy approach exploits the estimated time
//! from the cost function and compares the expected running time of a set of
//! queries with and without including the candidate view Vi" (§3). This is
//! the classic Harinarayan–Rajaraman–Ullman (HRU'96) benefit greedy, here
//! parameterized by any of the six [`sofos_cost::CostModel`]s.
//!
//! Each selection algorithm is one function over an [`Objective`]; pass
//! [`Objective::query_only`] for the frozen-graph objective of the paper.
//! Also provided:
//! * [`exhaustive_select`] — the optimal subset by enumeration (the oracle
//!   for the demo's "Hands-on Challenge", E6);
//! * [`user_select`] — a user's explicit pick, validated and priced;
//! * [`Budget::Bytes`] — the paper's "instead of selecting k views, select
//!   up to k views up to a certain memory budget" variant;
//! * [`WorkloadProfile`] — the query-demand distribution the greedy
//!   optimizes for (which grouping masks arrive, with what frequency).
//!
//! The random baseline of §3.1 is [`greedy_select`] under the constant
//! [`sofos_cost::RandomCost`] model.
//!
//! ## The maintenance-aware objective
//!
//! On a living graph the frozen objective (query cost alone) over-selects:
//! a view that answers queries cheaply may churn on every update batch.
//! [`Objective`] combines both sides, Goasdoué-style:
//!
//! ```text
//! total(S) = Σ_q w_q · cost(q | S)  +  λ · Σ_{v ∈ S} m(v, rates)
//! ```
//!
//! where `m` is a [`sofos_cost::MaintenanceCostModel`] and λ bridges the
//! upkeep units to the query-cost scale. At λ = 0 every selector
//! reproduces its query-only selection *exactly* (property-tested). See
//! `README.md` for semantics.

use sofos_cost::{CostContext, CostModel, MaintenanceCostModel, UpdateRates};
use sofos_cube::{Lattice, ViewMask};
use sofos_rdf::FxHashSet;

/// How much may be materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// At most this many views (the paper's primary budget: "a constraint
    /// on the number of views to materialize").
    Views(usize),
    /// Any number of views whose *encoded bytes* fit this budget.
    Bytes(usize),
}

/// The anticipated query demand: `(required mask, weight)` pairs. A query
/// requiring mask `m` can be answered by any selected view covering `m`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Demands with relative frequencies (need not be normalized).
    pub demands: Vec<(ViewMask, f64)>,
}

impl WorkloadProfile {
    /// Uniform demand over every view of the lattice (the default when the
    /// workload is unknown).
    pub fn uniform(lattice: &Lattice) -> WorkloadProfile {
        WorkloadProfile {
            demands: lattice.views().map(|v| (v, 1.0)).collect(),
        }
    }

    /// Demand from an observed/generated list of required masks.
    pub fn from_masks(masks: impl IntoIterator<Item = ViewMask>) -> WorkloadProfile {
        let mut demands: Vec<(ViewMask, f64)> = Vec::new();
        for mask in masks {
            match demands.iter_mut().find(|(m, _)| *m == mask) {
                Some((_, w)) => *w += 1.0,
                None => demands.push((mask, 1.0)),
            }
        }
        WorkloadProfile { demands }
    }

    /// Total demand weight.
    pub fn total_weight(&self) -> f64 {
        self.demands.iter().map(|(_, w)| w).sum()
    }
}

/// The maintenance side of a combined objective: a model, the anticipated
/// update pressure, and the weight λ bridging upkeep units to query-cost
/// units.
#[derive(Clone, Copy)]
struct MaintenanceTerm<'a> {
    /// Predicts per-round upkeep of a candidate view.
    model: &'a dyn MaintenanceCostModel,
    /// Anticipated update pressure per round.
    rates: UpdateRates,
    /// Weight of upkeep relative to query cost (λ = 0 ⇒ frozen-graph
    /// objective).
    lambda: f64,
}

/// What selection minimizes: expected workload query cost, optionally plus
/// λ-weighted per-view maintenance cost.
#[derive(Clone, Copy)]
pub struct Objective<'a> {
    query: &'a dyn CostModel,
    maintenance: Option<MaintenanceTerm<'a>>,
}

impl<'a> Objective<'a> {
    /// The frozen-graph objective: query cost only (today's behaviour).
    pub fn query_only(query: &'a dyn CostModel) -> Objective<'a> {
        Objective {
            query,
            maintenance: None,
        }
    }

    /// The combined objective `query_cost + λ · maintenance_cost`.
    pub fn maintenance_aware(
        query: &'a dyn CostModel,
        model: &'a dyn MaintenanceCostModel,
        rates: UpdateRates,
        lambda: f64,
    ) -> Objective<'a> {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda must be finite and non-negative, got {lambda}"
        );
        Objective {
            query,
            maintenance: Some(MaintenanceTerm {
                model,
                rates,
                lambda,
            }),
        }
    }

    /// The query-cost model.
    pub fn query_model(&self) -> &dyn CostModel {
        self.query
    }

    /// λ-weighted upkeep of one view (0 without an *active* maintenance
    /// term, so the λ = 0 objective is bit-identical to query-only).
    pub fn upkeep(&self, ctx: &CostContext<'_>, view: ViewMask) -> f64 {
        match &self.maintenance {
            Some(m) if m.lambda > 0.0 => m.lambda * m.model.maintenance_cost(ctx, view, &m.rates),
            _ => 0.0,
        }
    }

    /// True when the maintenance term actually shapes the objective
    /// (present, λ > 0, and updates are expected).
    pub fn is_active(&self) -> bool {
        self.maintenance
            .as_ref()
            .is_some_and(|m| m.lambda > 0.0 && !m.rates.is_frozen())
    }
}

impl std::fmt::Debug for Objective<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Objective")
            .field("query", &self.query.name())
            .field(
                "maintenance",
                &self
                    .maintenance
                    .map(|m| (m.model.name(), m.rates, m.lambda)),
            )
            .finish()
    }
}

/// The result of a selection run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionOutcome {
    /// Selected views, in pick order.
    pub selected: Vec<ViewMask>,
    /// Estimated workload *query* cost with the selection in place.
    pub estimated_cost: f64,
    /// Estimated workload query cost with no views at all (base graph
    /// only).
    pub baseline_cost: f64,
    /// λ-weighted maintenance cost of the selection (0 under a query-only
    /// objective or λ = 0).
    pub upkeep_cost: f64,
}

impl SelectionOutcome {
    /// Estimated speedup factor (`baseline / with-views`).
    ///
    /// Both costs are [`workload_cost`] sums over the *same* profile, so
    /// the profile's weight scale cancels — the ratio is identical whether
    /// or not the weights were normalized. A zero-total-weight (or empty)
    /// profile makes both costs zero; that degenerate case reports a
    /// speedup of 1 (no work either way), not infinity.
    pub fn estimated_speedup(&self) -> f64 {
        if self.estimated_cost > 0.0 {
            self.baseline_cost / self.estimated_cost
        } else if self.baseline_cost > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }

    /// The combined objective value: query cost plus λ-weighted upkeep.
    pub fn total_cost(&self) -> f64 {
        self.estimated_cost + self.upkeep_cost
    }
}

/// Cost of answering the raw graph `G` (no views). Answering a facet query
/// from `G` must reassemble each observation from the `|P|` triple patterns
/// of the facet; we charge the finest view's cost times the pattern count —
/// the same statistic every model uses, kept consistent across models.
pub fn base_graph_cost(ctx: &CostContext<'_>, model: &dyn CostModel) -> f64 {
    let base_mask = ViewMask::full(ctx.facet.dim_count());
    let pattern_cost = pattern_count(ctx).max(1) as f64;
    let view_cost = model.cost(ctx, base_mask);
    if view_cost.is_finite() {
        view_cost * pattern_cost
    } else {
        f64::MAX / 4.0
    }
}

fn pattern_count(ctx: &CostContext<'_>) -> usize {
    ctx.facet
        .pattern
        .elements
        .iter()
        .map(|e| match e {
            sofos_sparql::PatternElement::Triples { patterns, .. } => patterns.len(),
            _ => 0,
        })
        .sum()
}

/// Expected cost of one demand under a selection: the cheapest covering
/// view, or the base graph when none covers.
fn demand_cost(
    ctx: &CostContext<'_>,
    model: &dyn CostModel,
    selected: &[ViewMask],
    demand: ViewMask,
    base_cost: f64,
) -> f64 {
    selected
        .iter()
        .filter(|v| v.covers(demand))
        .map(|&v| model.cost(ctx, v))
        .fold(base_cost, f64::min)
}

/// Expected total workload cost under a selection (the quantity the greedy
/// minimizes and E6 compares against the oracle).
///
/// Demand weights need **not** sum to 1 — the result scales linearly with
/// the profile's total weight, so absolute values are only comparable
/// between calls sharing one profile. Ratios of such calls (e.g.
/// [`SelectionOutcome::estimated_speedup`]) are weight-scale invariant.
/// Weights must be finite and non-negative (debug-asserted); a
/// zero-total-weight profile yields cost 0.
pub fn workload_cost(
    ctx: &CostContext<'_>,
    model: &dyn CostModel,
    profile: &WorkloadProfile,
    selected: &[ViewMask],
) -> f64 {
    debug_assert!(
        profile
            .demands
            .iter()
            .all(|(_, w)| w.is_finite() && *w >= 0.0),
        "workload weights must be finite and non-negative: {:?}",
        profile.demands
    );
    let base_cost = base_graph_cost(ctx, model);
    profile
        .demands
        .iter()
        .map(|&(demand, weight)| weight * demand_cost(ctx, model, selected, demand, base_cost))
        .sum()
}

/// λ-weighted upkeep of a whole selection under an objective (0 for
/// query-only objectives).
pub fn selection_upkeep(
    ctx: &CostContext<'_>,
    objective: &Objective<'_>,
    selected: &[ViewMask],
) -> f64 {
    selected.iter().map(|&v| objective.upkeep(ctx, v)).sum()
}

/// The combined objective value of a selection: expected workload query
/// cost plus λ-weighted maintenance cost of the selected views.
pub fn combined_cost(
    ctx: &CostContext<'_>,
    objective: &Objective<'_>,
    profile: &WorkloadProfile,
    selected: &[ViewMask],
) -> f64 {
    workload_cost(ctx, objective.query_model(), profile, selected)
        + selection_upkeep(ctx, objective, selected)
}

/// HRU-style benefit greedy under a combined [`Objective`] and budget.
///
/// Each round picks the candidate with the largest *net* benefit
/// `Σ_q w_q · (cost(q | S) − cost(q | S ∪ {v})) − λ · m(v)`; ties break
/// toward the cheaper candidate, then the smaller mask, for determinism.
///
/// Under a query-only (or λ = 0) objective, when every remaining candidate
/// has zero benefit the algorithm keeps filling the budget with the
/// cheapest remaining candidates (so that a `k`-view budget always yields
/// `k` views, matching the demo's fixed-budget comparisons). With an
/// *active* maintenance term that padding would be harmful — every extra
/// view costs real upkeep — so selection stops at the first round whose
/// best net benefit is ≤ 0: the budget becomes a ceiling, not a target.
pub fn greedy_select(
    ctx: &CostContext<'_>,
    lattice: &Lattice,
    objective: &Objective<'_>,
    profile: &WorkloadProfile,
    budget: Budget,
) -> SelectionOutcome {
    let model = objective.query_model();
    let active = objective.is_active();
    let base_cost = base_graph_cost(ctx, model);
    let baseline_cost = workload_cost(ctx, model, profile, &[]);

    // Current best cost per demand.
    let mut current: Vec<f64> = vec![base_cost; profile.demands.len()];
    let mut selected: Vec<ViewMask> = Vec::new();
    let mut remaining: Vec<ViewMask> = lattice.views().collect();
    let mut bytes_left = match budget {
        Budget::Bytes(b) => b as isize,
        Budget::Views(_) => isize::MAX,
    };
    let target_views = match budget {
        Budget::Views(k) => k.min(remaining.len()),
        Budget::Bytes(_) => remaining.len(),
    };

    while selected.len() < target_views {
        let mut best: Option<(usize, f64, f64)> = None; // (index, net benefit, cost)
        for (i, &candidate) in remaining.iter().enumerate() {
            if let Budget::Bytes(_) = budget {
                let size = ctx.stats(candidate).map_or(usize::MAX, |s| s.bytes);
                if size as isize > bytes_left {
                    continue;
                }
            }
            let candidate_cost = model.cost(ctx, candidate);
            if !candidate_cost.is_finite() {
                continue;
            }
            let upkeep = objective.upkeep(ctx, candidate);
            if !upkeep.is_finite() {
                continue; // unpriceable upkeep: never worth materializing
            }
            let mut benefit = 0.0;
            for (d, &(demand, weight)) in profile.demands.iter().enumerate() {
                if candidate.covers(demand) && candidate_cost < current[d] {
                    benefit += weight * (current[d] - candidate_cost);
                }
            }
            let net = benefit - upkeep;
            let better = match best {
                None => true,
                Some((bi, bb, bc)) => {
                    net > bb
                        || (net == bb
                            && (candidate_cost < bc
                                || (candidate_cost == bc && candidate.0 < remaining[bi].0)))
                }
            };
            if better {
                best = Some((i, net, candidate_cost));
            }
        }
        let Some((index, net, cost)) = best else {
            break; // nothing affordable / priceable
        };
        if active && net <= 0.0 {
            break; // the next view costs more upkeep than it saves
        }
        let view = remaining.swap_remove(index);
        if let Budget::Bytes(_) = budget {
            bytes_left -= ctx.stats(view).map_or(0, |s| s.bytes) as isize;
        }
        for (d, &(demand, _)) in profile.demands.iter().enumerate() {
            if view.covers(demand) && cost < current[d] {
                current[d] = cost;
            }
        }
        selected.push(view);
    }

    let estimated_cost = workload_cost(ctx, model, profile, &selected);
    let upkeep_cost = selection_upkeep(ctx, objective, &selected);
    SelectionOutcome {
        selected,
        estimated_cost,
        baseline_cost,
        upkeep_cost,
    }
}

/// Hard cap on the candidate-view count [`exhaustive_select`] will
/// enumerate over, regardless of the combination `limit`. 20 views is a
/// 4-dimension lattice plus change — beyond that, brute force is the wrong
/// tool even when C(n, k) squeaks under the limit; use [`greedy_select`]
/// instead.
pub const MAX_EXHAUSTIVE_VIEWS: usize = 20;

/// Exhaustive enumeration refused: the lattice (or the subset count it
/// implies) is beyond what brute force can visit. Carries the numbers so
/// callers can report or fall back to [`greedy_select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatticeTooLarge {
    /// Candidate views in the lattice.
    pub candidate_views: usize,
    /// The requested subset size.
    pub k: usize,
    /// Subsets the enumeration would have visited (saturating).
    pub search_space: u64,
    /// The caller-provided combination limit.
    pub limit: u64,
}

impl std::fmt::Display for LatticeTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exhaustive search over {} subsets of {} views (k = {}) exceeds limit {} \
             (hard cap: {MAX_EXHAUSTIVE_VIEWS} views)",
            self.search_space, self.candidate_views, self.k, self.limit
        )
    }
}

impl std::error::Error for LatticeTooLarge {}

/// Optimal subset by exhaustive enumeration under a combined [`Objective`].
///
/// Under a query-only (or λ = 0) objective this searches subsets of size
/// exactly `k` against the empty-selection baseline (query cost is
/// monotone, so padding never hurts). With an active maintenance term
/// every view has a price, so the search covers all sizes `0..=k` and
/// minimizes the combined total; ties break toward the smaller,
/// lexicographically earlier subset.
///
/// Returns [`LatticeTooLarge`] — instead of hanging — when the lattice has
/// more than [`MAX_EXHAUSTIVE_VIEWS`] candidate views or the enumeration
/// would exceed `limit` combinations. At that scale use [`greedy_select`].
pub fn exhaustive_select(
    ctx: &CostContext<'_>,
    lattice: &Lattice,
    objective: &Objective<'_>,
    profile: &WorkloadProfile,
    k: usize,
    limit: u64,
) -> Result<SelectionOutcome, LatticeTooLarge> {
    let model = objective.query_model();
    let views: Vec<ViewMask> = lattice.views().collect();
    let k = k.min(views.len());
    let active = objective.is_active();
    let search_space: u64 = if active {
        // Sizes 1..=k are enumerated; the empty subset seeds `best_score`
        // without being enumerated, so it does not count against `limit`.
        (1..=k as u64)
            .map(|size| combinations(views.len() as u64, size))
            .fold(0u64, u64::saturating_add)
    } else {
        combinations(views.len() as u64, k as u64)
    };
    if views.len() > MAX_EXHAUSTIVE_VIEWS || search_space > limit {
        return Err(LatticeTooLarge {
            candidate_views: views.len(),
            k,
            search_space,
            limit,
        });
    }
    let baseline_cost = workload_cost(ctx, model, profile, &[]);

    let mut best_subset: Vec<ViewMask> = Vec::new();
    let mut best_score = if active {
        combined_cost(ctx, objective, profile, &[])
    } else {
        baseline_cost
    };
    let sizes = if active { 1..=k } else { k..=k };
    for size in sizes {
        for_each_combination(views.len(), size, |indices| {
            let subset: Vec<ViewMask> = indices.iter().map(|&i| views[i]).collect();
            let score = if active {
                combined_cost(ctx, objective, profile, &subset)
            } else {
                workload_cost(ctx, model, profile, &subset)
            };
            if score < best_score {
                best_score = score;
                best_subset = subset;
            }
        });
    }

    let estimated_cost = workload_cost(ctx, model, profile, &best_subset);
    let upkeep_cost = selection_upkeep(ctx, objective, &best_subset);
    Ok(SelectionOutcome {
        selected: best_subset,
        estimated_cost,
        baseline_cost,
        upkeep_cost,
    })
}

/// Visit every `k`-combination of `0..n` in lexicographic order.
fn for_each_combination(n: usize, k: usize, mut f: impl FnMut(&[usize])) {
    if k == 0 {
        f(&[]);
        return;
    }
    if k > n {
        return;
    }
    let mut indices: Vec<usize> = (0..k).collect();
    loop {
        f(&indices);
        // Advance to the next combination.
        let mut i = k;
        loop {
            i -= 1;
            if indices[i] != i + n - k {
                indices[i] += 1;
                for j in i + 1..k {
                    indices[j] = indices[j - 1] + 1;
                }
                break;
            }
            if i == 0 {
                return;
            }
        }
    }
}

fn combinations(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u64 = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
    }
    result
}

/// Validate and wrap a user's explicit pick (the "User Selected Views" demo
/// station): views must exist in the lattice and be distinct.
pub fn user_select(
    ctx: &CostContext<'_>,
    lattice: &Lattice,
    model: &dyn CostModel,
    profile: &WorkloadProfile,
    views: &[ViewMask],
) -> Result<SelectionOutcome, String> {
    let mut seen: FxHashSet<ViewMask> = FxHashSet::default();
    for &v in views {
        if v.0 >= lattice.num_views() {
            return Err(format!("view {v} is not in the lattice"));
        }
        if !seen.insert(v) {
            return Err(format!("view {v} selected twice"));
        }
    }
    let estimated_cost = workload_cost(ctx, model, profile, views);
    let baseline_cost = workload_cost(ctx, model, profile, &[]);
    Ok(SelectionOutcome {
        selected: views.to_vec(),
        estimated_cost,
        baseline_cost,
        upkeep_cost: 0.0,
    })
}

/// The cube fixture, shared with the integration tests.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod fixture;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::with_ctx;
    use sofos_cost::{AggValuesCost, TriplesCost, UserDefinedCost};
    use sofos_rdf::FxHashMap;

    /// The query-only objectives most tests select under.
    fn triples() -> Objective<'static> {
        Objective::query_only(&TriplesCost)
    }

    fn agg_values() -> Objective<'static> {
        Objective::query_only(&AggValuesCost)
    }

    #[test]
    fn greedy_respects_view_budget() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            for k in 0..=4 {
                let outcome = greedy_select(ctx, lattice, &triples(), &profile, Budget::Views(k));
                assert_eq!(outcome.selected.len(), k, "k={k}");
            }
        });
    }

    #[test]
    fn greedy_improves_over_baseline() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let outcome = greedy_select(ctx, lattice, &triples(), &profile, Budget::Views(3));
            assert!(outcome.estimated_cost < outcome.baseline_cost);
            assert!(outcome.estimated_speedup() > 1.0);
        });
    }

    #[test]
    fn greedy_is_deterministic() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let a = greedy_select(ctx, lattice, &agg_values(), &profile, Budget::Views(3));
            let b = greedy_select(ctx, lattice, &agg_values(), &profile, Budget::Views(3));
            assert_eq!(a, b);
        });
    }

    #[test]
    fn greedy_prefers_views_that_cover_demands() {
        with_ctx(2, 12, |ctx, lattice| {
            // Only demand: grouping by dim 0.
            let profile = WorkloadProfile::from_masks([ViewMask::from_dims(&[0])]);
            let outcome = greedy_select(ctx, lattice, &agg_values(), &profile, Budget::Views(1));
            let v = outcome.selected[0];
            assert!(v.covers(ViewMask::from_dims(&[0])), "picked {v}");
        });
    }

    #[test]
    fn byte_budget_is_respected() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            // Find a budget that fits roughly two cheap views.
            let apex_bytes = ctx.stats(ViewMask::APEX).unwrap().bytes;
            let budget = apex_bytes * 3;
            let outcome = greedy_select(ctx, lattice, &triples(), &profile, Budget::Bytes(budget));
            let used: usize = outcome
                .selected
                .iter()
                .map(|v| ctx.stats(*v).unwrap().bytes)
                .sum();
            assert!(used <= budget, "used {used} of {budget}");
            assert!(!outcome.selected.is_empty());
        });
    }

    #[test]
    fn exhaustive_never_worse_than_greedy() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            for k in 1..=3 {
                let greedy = greedy_select(ctx, lattice, &agg_values(), &profile, Budget::Views(k));
                let optimal =
                    exhaustive_select(ctx, lattice, &agg_values(), &profile, k, 1_000_000)
                        .expect("small lattice fits the exhaustive caps");
                assert!(
                    optimal.estimated_cost <= greedy.estimated_cost + 1e-9,
                    "k={k}: optimal {} > greedy {}",
                    optimal.estimated_cost,
                    greedy.estimated_cost
                );
            }
        });
    }

    #[test]
    fn greedy_matches_oracle_on_user_defined_costs() {
        with_ctx(2, 12, |ctx, lattice| {
            // Craft costs where the best 1-view choice is obvious: the base
            // view is cheap and covers everything.
            let mut costs: FxHashMap<ViewMask, f64> = FxHashMap::default();
            for v in lattice.views() {
                costs.insert(v, 100.0);
            }
            costs.insert(lattice.base(), 1.0);
            let model = UserDefinedCost::new(costs, f64::INFINITY);
            let objective = Objective::query_only(&model);
            let profile = WorkloadProfile::uniform(lattice);
            let greedy = greedy_select(ctx, lattice, &objective, &profile, Budget::Views(1));
            assert_eq!(greedy.selected, vec![lattice.base()]);
            let oracle = exhaustive_select(ctx, lattice, &objective, &profile, 1, 10_000).unwrap();
            assert_eq!(oracle.selected, vec![lattice.base()]);
        });
    }

    #[test]
    fn random_select_is_seeded_and_sized() {
        // The random baseline is greedy under the seeded constant-cost
        // model: reproducible per seed, sized to the budget.
        use sofos_cost::RandomCost;
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let pick = |seed: u64| {
                let model = RandomCost::new(seed);
                greedy_select(
                    ctx,
                    lattice,
                    &Objective::query_only(&model),
                    &profile,
                    Budget::Views(3),
                )
            };
            assert_eq!(pick(7), pick(7));
            assert_eq!(pick(7).selected.len(), 3);
            let picks: FxHashSet<Vec<ViewMask>> = (0..8).map(|seed| pick(seed).selected).collect();
            assert!(picks.len() > 1, "different seeds pick differently");
        });
    }

    #[test]
    fn user_select_validates() {
        with_ctx(2, 12, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let ok = user_select(
                ctx,
                lattice,
                &TriplesCost,
                &profile,
                &[ViewMask::APEX, lattice.base()],
            );
            assert!(ok.is_ok());
            let dup = user_select(
                ctx,
                lattice,
                &TriplesCost,
                &profile,
                &[ViewMask::APEX, ViewMask::APEX],
            );
            assert!(dup.is_err());
            let out_of_range = user_select(ctx, lattice, &TriplesCost, &profile, &[ViewMask(99)]);
            assert!(out_of_range.is_err());
        });
    }

    #[test]
    fn workload_cost_monotone_in_selection() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let none = workload_cost(ctx, &TriplesCost, &profile, &[]);
            let some = workload_cost(ctx, &TriplesCost, &profile, &[lattice.base()]);
            let more = workload_cost(
                ctx,
                &TriplesCost,
                &profile,
                &[lattice.base(), ViewMask::APEX],
            );
            assert!(some <= none);
            assert!(more <= some, "adding views never hurts the estimate");
        });
    }

    #[test]
    fn profile_from_masks_accumulates_weights() {
        let p = WorkloadProfile::from_masks([ViewMask(1), ViewMask(1), ViewMask(2)]);
        assert_eq!(p.demands.len(), 2);
        assert_eq!(p.total_weight(), 3.0);
        let w1 = p.demands.iter().find(|(m, _)| *m == ViewMask(1)).unwrap().1;
        assert_eq!(w1, 2.0);
    }

    #[test]
    fn zero_weight_profile_reports_unit_speedup() {
        // Regression: a zero-total-weight profile used to report an
        // infinite speedup (0/0 slipping through the `> 0` guard).
        with_ctx(2, 12, |ctx, lattice| {
            for profile in [
                WorkloadProfile { demands: vec![] },
                WorkloadProfile {
                    demands: vec![(ViewMask::APEX, 0.0), (lattice.base(), 0.0)],
                },
            ] {
                assert_eq!(profile.total_weight(), 0.0);
                let outcome = greedy_select(ctx, lattice, &triples(), &profile, Budget::Views(2));
                assert_eq!(outcome.estimated_cost, 0.0);
                assert_eq!(outcome.baseline_cost, 0.0);
                assert_eq!(outcome.estimated_speedup(), 1.0, "no work, no speedup");
            }
        });
    }

    #[test]
    fn lambda_zero_objective_matches_frozen_greedy() {
        use sofos_cost::{TouchedGroupsMaintenance, UpdateRates};
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let frozen = greedy_select(ctx, lattice, &agg_values(), &profile, Budget::Views(3));
            let objective = Objective::maintenance_aware(
                &AggValuesCost,
                &TouchedGroupsMaintenance,
                UpdateRates::new(8.0, 4.0),
                0.0,
            );
            let combined = greedy_select(ctx, lattice, &objective, &profile, Budget::Views(3));
            assert_eq!(frozen, combined, "lambda = 0 must be bit-identical");
        });
    }

    #[test]
    fn high_churn_view_dropped_as_lambda_grows() {
        use sofos_cost::{FixedMaintenance, UpdateRates};
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let hot = lattice.base();
            // The finest view churns on every update; everything else is
            // free to maintain.
            let churn = FixedMaintenance::new([(hot, 50.0)], 0.0);
            let rates = UpdateRates::new(4.0, 2.0);

            let at_zero = greedy_select(
                ctx,
                lattice,
                &Objective::maintenance_aware(&AggValuesCost, &churn, rates, 0.0),
                &profile,
                Budget::Views(3),
            );
            assert!(
                at_zero.selected.contains(&hot),
                "frozen objective wants the finest view: {:?}",
                at_zero.selected
            );
            assert_eq!(at_zero.upkeep_cost, 0.0);

            let mut dropped_at = None;
            for lambda in [0.5, 2.0, 8.0, 32.0, 128.0] {
                let outcome = greedy_select(
                    ctx,
                    lattice,
                    &Objective::maintenance_aware(&AggValuesCost, &churn, rates, lambda),
                    &profile,
                    Budget::Views(3),
                );
                if !outcome.selected.contains(&hot) {
                    dropped_at = Some(lambda);
                    break;
                }
            }
            assert!(
                dropped_at.is_some(),
                "growing lambda must eventually price the churning view out"
            );
        });
    }

    #[test]
    fn active_objective_stops_padding_the_budget() {
        use sofos_cost::{FixedMaintenance, UpdateRates};
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            // Every view costs upkeep; with a huge lambda nothing is worth
            // materializing, so an active objective selects nothing while
            // the frozen objective pads to the full budget.
            let churn = FixedMaintenance::new([], 1.0);
            let rates = UpdateRates::new(10.0, 10.0);
            let outcome = greedy_select(
                ctx,
                lattice,
                &Objective::maintenance_aware(&AggValuesCost, &churn, rates, 1e12),
                &profile,
                Budget::Views(3),
            );
            assert!(outcome.selected.is_empty(), "{:?}", outcome.selected);
            assert_eq!(outcome.total_cost(), outcome.baseline_cost);
        });
    }

    #[test]
    fn lambda_sweep_is_monotone_at_the_ends() {
        use sofos_cost::{TouchedGroupsMaintenance, UpdateRates};
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let rates = UpdateRates::new(6.0, 4.0);
            let sweep: Vec<SelectionOutcome> = [0.0, 0.1, 1e9]
                .iter()
                .map(|&lambda| {
                    let objective = Objective::maintenance_aware(
                        &AggValuesCost,
                        &TouchedGroupsMaintenance,
                        rates,
                        lambda,
                    );
                    greedy_select(ctx, lattice, &objective, &profile, Budget::Views(4))
                })
                .collect();
            let frozen = greedy_select(ctx, lattice, &agg_values(), &profile, Budget::Views(4));
            assert_eq!(sweep[0], frozen, "lambda = 0 end of the sweep");
            assert!(
                sweep[2].selected.is_empty(),
                "at absurd lambda nothing is worth keeping fresh"
            );
        });
    }

    #[test]
    fn exhaustive_with_active_objective_never_worse_than_greedy() {
        use sofos_cost::{TouchedGroupsMaintenance, UpdateRates};
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let rates = UpdateRates::new(5.0, 5.0);
            for lambda in [0.25, 1.0, 4.0] {
                let objective = Objective::maintenance_aware(
                    &AggValuesCost,
                    &TouchedGroupsMaintenance,
                    rates,
                    lambda,
                );
                let greedy = greedy_select(ctx, lattice, &objective, &profile, Budget::Views(3));
                let oracle = exhaustive_select(ctx, lattice, &objective, &profile, 3, 1_000_000)
                    .expect("small lattice fits the exhaustive caps");
                assert!(
                    oracle.total_cost() <= greedy.total_cost() + 1e-9,
                    "lambda={lambda}: oracle {} > greedy {}",
                    oracle.total_cost(),
                    greedy.total_cost()
                );
            }
        });
    }

    #[test]
    fn combinations_formula() {
        assert_eq!(combinations(8, 3), 56);
        assert_eq!(combinations(5, 0), 1);
        assert_eq!(combinations(5, 5), 1);
        assert_eq!(combinations(3, 5), 0);
    }

    #[test]
    fn exhaustive_guards_explosion() {
        with_ctx(3, 8, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let err = exhaustive_select(ctx, lattice, &triples(), &profile, 4, 2)
                .expect_err("C(8, 4) = 70 subsets must exceed a limit of 2");
            assert_eq!(err.candidate_views, 8);
            assert_eq!(err.k, 4);
            assert_eq!(err.search_space, 70);
            assert_eq!(err.limit, 2);
            assert!(err.to_string().contains("exceeds limit"));
        });
    }

    #[test]
    fn exhaustive_rejects_wide_lattices_regardless_of_limit() {
        // 5 dimensions ⇒ 32 candidate views > MAX_EXHAUSTIVE_VIEWS: the
        // typed error comes back fast even with an absurd combination
        // limit, instead of the old behaviour of grinding through the
        // enumeration (or panicking).
        with_ctx(5, 8, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let err = exhaustive_select(ctx, lattice, &triples(), &profile, 2, u64::MAX)
                .expect_err("32 views exceeds the hard cap");
            assert_eq!(err.candidate_views, 32);
            assert!(err.candidate_views > MAX_EXHAUSTIVE_VIEWS);
        });
    }
}
