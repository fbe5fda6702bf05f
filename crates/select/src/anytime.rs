//! # Anytime local-search view selection
//!
//! The frozen algorithms wall out at lattice scale: [`greedy_select`](crate::greedy_select)
//! re-prices every remaining candidate against every demand per pick, and
//! [`exhaustive_select`](crate::exhaustive_select) is exponential. This module trades those
//! guarantees for a *deadline*: hill-climbing over add / drop / swap moves,
//! seeded from greedy-on-a-sample (or the caller's current catalog), with
//! random restarts — interruptible at any point with a valid best-so-far
//! [`SelectionOutcome`].
//!
//! Two properties are load-bearing and property-tested:
//!
//! * **Never worse than the seed.** The returned outcome's combined cost is
//!   ≤ the seed selection's combined cost, always — even with a zero-move
//!   budget the seed itself is returned.
//! * **Anytime monotonicity.** For a fixed RNG seed the proposal stream is
//!   a pure function of the accepted-move history, never of the budget, so
//!   a larger move budget explores a superset of the same trajectory and
//!   the best-so-far result can only improve.
//!
//! Costs are priced through a per-run memo, so a move re-prices only the
//! views it touches (each distinct view is priced **once** per run) — this,
//! not the move set, is what makes 10–100× larger lattices tractable.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sofos_cost::CostContext;
use sofos_cube::{Lattice, ViewMask};
use sofos_rdf::{FxHashMap, FxHashSet};

use crate::{
    base_graph_cost, combined_cost, greedy_over_candidates, selection_upkeep, workload_cost,
    Budget, Objective, SelectionOutcome, WorkloadProfile,
};

/// Millisecond time source for wall deadlines. A closure rather than a
/// clock trait so any caller-side clock (e.g. `core::policy::Clock`, whose
/// `ManualClock` makes deadline tests deterministic) adapts without this
/// crate growing a dependency on it.
pub type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// How long the search may run: a move-count cap, a wall deadline, both,
/// or neither (run to convergence).
///
/// The budget is checked *before* each proposal, so `moves(0)` or an
/// already-expired deadline returns the seed outcome untouched — still a
/// valid selection.
#[derive(Clone, Default)]
pub struct SearchBudget {
    max_moves: Option<u64>,
    deadline: Option<(ClockFn, u64)>,
}

impl SearchBudget {
    /// No cap: run until every restart converges.
    pub fn unlimited() -> SearchBudget {
        SearchBudget::default()
    }

    /// Cap the number of proposed moves.
    pub fn moves(max_moves: u64) -> SearchBudget {
        SearchBudget {
            max_moves: Some(max_moves),
            deadline: None,
        }
    }

    /// Stop once `clock()` reaches `deadline_ms`. The clock is sampled
    /// between proposals; each proposal is O(demands), so overshoot is
    /// bounded by a single move's evaluation.
    pub fn with_deadline(mut self, clock: ClockFn, deadline_ms: u64) -> SearchBudget {
        self.deadline = Some((clock, deadline_ms));
        self
    }

    fn is_exhausted(&self, moves_tried: u64) -> bool {
        if let Some(max) = self.max_moves {
            if moves_tried >= max {
                return true;
            }
        }
        if let Some((clock, deadline)) = &self.deadline {
            if clock() >= *deadline {
                return true;
            }
        }
        false
    }
}

impl std::fmt::Debug for SearchBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchBudget")
            .field("max_moves", &self.max_moves)
            .field("deadline_ms", &self.deadline.as_ref().map(|(_, at)| *at))
            .finish()
    }
}

/// Tuning for [`local_search_select`]. The defaults suit lattices of
/// hundreds to thousands of candidate views.
#[derive(Debug, Clone)]
pub struct LocalSearchConfig {
    /// Seed for the (deterministic) proposal stream.
    pub rng_seed: u64,
    /// Diversification restarts after the first descent converges.
    pub restarts: usize,
    /// Target size of the candidate pool moves draw from (demand masks,
    /// their pairwise unions, base/apex, plus random lattice samples).
    pub pool_target: usize,
    /// Consecutive rejected proposals before a descent is declared
    /// converged. `0` picks `max(64, 2 × pool size)` automatically.
    pub stall_limit: usize,
    /// Seed the search from this catalog (e.g. the currently materialized
    /// views) instead of greedy-on-a-sample. Views outside the lattice or
    /// over budget are dropped; an empty/fully-invalid catalog falls back
    /// to the greedy seed.
    pub initial: Option<Vec<ViewMask>>,
}

impl Default for LocalSearchConfig {
    fn default() -> LocalSearchConfig {
        LocalSearchConfig {
            rng_seed: 0x50F0_5E1E,
            restarts: 2,
            pool_target: 256,
            stall_limit: 0,
            initial: None,
        }
    }
}

/// What the search did — returned alongside the outcome so callers (and
/// the E14 bench) can tell a converged run from a deadline-truncated one.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Proposals evaluated (accepted or not).
    pub moves_tried: u64,
    /// Proposals that improved the incumbent and were applied.
    pub moves_accepted: u64,
    /// Restarts actually performed.
    pub restarts: u64,
    /// Combined cost of the seed selection (exact, re-evaluated).
    pub seed_cost: f64,
    /// Combined cost of the returned selection (exact, re-evaluated).
    pub final_cost: f64,
    /// Distinct views priced during the run — the incremental-repricing
    /// counter; compare against the lattice's view count.
    pub views_priced: usize,
    /// The budget ran out before every restart converged.
    pub budget_exhausted: bool,
    /// Every descent (initial + all restarts) reached its stall limit.
    pub converged: bool,
}

/// Per-run price memo: each distinct view is priced against the cost model
/// and maintenance term at most once, however many moves touch it.
struct Pricer {
    prices: FxHashMap<u64, (f64, f64)>,
}

impl Pricer {
    fn new() -> Pricer {
        Pricer {
            prices: FxHashMap::default(),
        }
    }

    /// `(query cost, λ-weighted upkeep)` of one view; either may be
    /// non-finite for unpriceable views.
    fn price(
        &mut self,
        ctx: &CostContext<'_>,
        objective: &Objective<'_>,
        view: ViewMask,
    ) -> (f64, f64) {
        *self.prices.entry(view.0).or_insert_with(|| {
            (
                objective.query_model().cost(ctx, view),
                objective.upkeep(ctx, view),
            )
        })
    }

    fn priced(&self) -> usize {
        self.prices.len()
    }
}

/// The incumbent selection plus everything needed to evaluate a move in
/// O(demands) instead of re-pricing the lattice: the per-demand cheapest
/// covering cost and the running byte/upkeep totals.
#[derive(Clone)]
struct State {
    selected: Vec<ViewMask>,
    /// Cheapest covering cost per demand (≤ the base-graph cost).
    current: Vec<f64>,
    bytes_used: usize,
    upkeep: f64,
}

impl State {
    fn from_selection(
        selected: Vec<ViewMask>,
        ctx: &CostContext<'_>,
        objective: &Objective<'_>,
        profile: &WorkloadProfile,
        pricer: &mut Pricer,
        base_cost: f64,
    ) -> State {
        let mut current = vec![base_cost; profile.demands.len()];
        let mut bytes_used = 0usize;
        let mut upkeep = 0.0;
        for &v in &selected {
            let (cost, up) = pricer.price(ctx, objective, v);
            upkeep += up;
            bytes_used = bytes_used.saturating_add(ctx.stats(v).map_or(0, |s| s.bytes));
            for (d, &(demand, _)) in profile.demands.iter().enumerate() {
                if v.covers(demand) && cost < current[d] {
                    current[d] = cost;
                }
            }
        }
        State {
            selected,
            current,
            bytes_used,
            upkeep,
        }
    }

    /// Combined objective value of the incumbent (query side from the
    /// per-demand table, plus upkeep).
    fn total(&self, profile: &WorkloadProfile) -> f64 {
        let query: f64 = profile
            .demands
            .iter()
            .zip(&self.current)
            .map(|(&(_, w), &c)| w * c)
            .sum();
        query + self.upkeep
    }
}

enum Move {
    Add(ViewMask),
    Drop(usize),
    Swap { out: usize, inn: ViewMask },
}

/// Anytime local search under a combined [`Objective`] and materialization
/// budget. Returns the best selection found plus a [`SearchReport`].
///
/// Budget semantics match [`greedy_select`](crate::greedy_select): `Budget::Views(k)` /
/// `Budget::Bytes(b)` are ceilings; with an *active* maintenance term the
/// search only keeps views that pay for their upkeep, and at λ = 0 upkeep
/// is identically zero so the objective degenerates to query cost exactly
/// as the frozen algorithms' does.
#[allow(clippy::too_many_arguments)]
pub fn local_search_select(
    ctx: &CostContext<'_>,
    lattice: &Lattice,
    objective: &Objective<'_>,
    profile: &WorkloadProfile,
    budget: Budget,
    config: &LocalSearchConfig,
    search: &SearchBudget,
) -> (SelectionOutcome, SearchReport) {
    let model = objective.query_model();
    let active = objective.is_active();
    let base_cost = base_graph_cost(ctx, model);
    let baseline_cost = workload_cost(ctx, model, profile, &[]);
    let mut pricer = Pricer::new();
    let mut rng = StdRng::seed_from_u64(config.rng_seed);

    let pool = build_pool(lattice, profile, &mut rng, config.pool_target.max(8));
    let stall_limit = if config.stall_limit > 0 {
        config.stall_limit
    } else {
        (2 * pool.len()).max(64)
    };

    // ---- seed -----------------------------------------------------------
    let seed_selected = match &config.initial {
        Some(views) if !views.is_empty() => {
            let sanitized = sanitize_initial(views, lattice, ctx, budget);
            if sanitized.is_empty() {
                greedy_over_candidates(ctx, objective, profile, budget, pool.clone()).selected
            } else {
                sanitized
            }
        }
        _ => greedy_over_candidates(ctx, objective, profile, budget, pool.clone()).selected,
    };
    let seed_cost = combined_cost(ctx, objective, profile, &seed_selected);

    let mut state = State::from_selection(
        seed_selected.clone(),
        ctx,
        objective,
        profile,
        &mut pricer,
        base_cost,
    );
    let mut best_selected = state.selected.clone();
    let mut best_total = state.total(profile);

    // ---- descend --------------------------------------------------------
    let mut report = SearchReport {
        moves_tried: 0,
        moves_accepted: 0,
        restarts: 0,
        seed_cost,
        final_cost: seed_cost,
        views_priced: 0,
        budget_exhausted: false,
        converged: false,
    };
    let mut stall = 0usize;

    loop {
        if search.is_exhausted(report.moves_tried) {
            report.budget_exhausted = true;
            break;
        }
        if stall >= stall_limit {
            if report.restarts as usize >= config.restarts {
                report.converged = true;
                break;
            }
            // Diversify: restart from a random budget-feasible selection.
            report.restarts += 1;
            stall = 0;
            let restart = random_selection(&pool, &mut rng, ctx, objective, budget, &mut pricer);
            state = State::from_selection(restart, ctx, objective, profile, &mut pricer, base_cost);
            let total = state.total(profile);
            if total < best_total {
                best_total = total;
                best_selected = state.selected.clone();
            }
            continue;
        }

        let proposal = propose(&mut rng, &state, &pool, active);
        report.moves_tried += 1;
        let eps = 1e-9 * best_total.abs().max(1.0);
        let accepted = match proposal {
            Some(mv) => try_apply(
                mv,
                &mut state,
                ctx,
                objective,
                profile,
                budget,
                &mut pricer,
                eps,
            ),
            None => false,
        };
        if accepted {
            report.moves_accepted += 1;
            stall = 0;
            let total = state.total(profile);
            if total < best_total - eps {
                best_total = total;
                best_selected = state.selected.clone();
            }
        } else {
            stall += 1;
        }
    }

    // ---- finalize -------------------------------------------------------
    // Exact re-evaluation guards the "never worse than the seed" contract
    // against incremental float drift.
    let best_cost = combined_cost(ctx, objective, profile, &best_selected);
    let (chosen, chosen_cost) = if best_cost <= seed_cost {
        (best_selected, best_cost)
    } else {
        (seed_selected, seed_cost)
    };
    report.final_cost = chosen_cost;
    report.views_priced = pricer.priced();

    let estimated_cost = workload_cost(ctx, model, profile, &chosen);
    let upkeep_cost = selection_upkeep(ctx, objective, &chosen);
    (
        SelectionOutcome {
            selected: chosen,
            estimated_cost,
            baseline_cost,
            upkeep_cost,
        },
        report,
    )
}

/// The candidate pool moves draw from: every demand mask, pairwise unions
/// of demand masks (the views that serve several demands at once), the
/// base and apex views, topped up with random lattice samples.
fn build_pool(
    lattice: &Lattice,
    profile: &WorkloadProfile,
    rng: &mut StdRng,
    target: usize,
) -> Vec<ViewMask> {
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut pool: Vec<ViewMask> = Vec::new();
    let push = |pool: &mut Vec<ViewMask>, seen: &mut FxHashSet<u64>, v: ViewMask| {
        if v.0 < lattice.num_views() && seen.insert(v.0) {
            pool.push(v);
        }
    };
    push(&mut pool, &mut seen, lattice.base());
    push(&mut pool, &mut seen, ViewMask::APEX);
    for &(demand, _) in &profile.demands {
        push(&mut pool, &mut seen, demand);
    }
    'unions: for i in 0..profile.demands.len() {
        for j in i + 1..profile.demands.len() {
            if pool.len() >= target {
                break 'unions;
            }
            let union = ViewMask(profile.demands[i].0 .0 | profile.demands[j].0 .0);
            push(&mut pool, &mut seen, union);
        }
    }
    let mut attempts = 0usize;
    while pool.len() < target && attempts < 4 * target {
        attempts += 1;
        let v = ViewMask(rng.gen_range(0..lattice.num_views()));
        push(&mut pool, &mut seen, v);
    }
    pool
}

/// Clamp a caller-provided seed catalog to the lattice and budget:
/// dedup, drop out-of-lattice masks, keep a prefix that fits.
fn sanitize_initial(
    views: &[ViewMask],
    lattice: &Lattice,
    ctx: &CostContext<'_>,
    budget: Budget,
) -> Vec<ViewMask> {
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut out: Vec<ViewMask> = Vec::new();
    let mut bytes_used = 0usize;
    for &v in views {
        if v.0 >= lattice.num_views() || !seen.insert(v.0) {
            continue;
        }
        match budget {
            Budget::Views(k) => {
                if out.len() >= k {
                    break;
                }
            }
            Budget::Bytes(b) => {
                let size = ctx.stats(v).map_or(usize::MAX, |s| s.bytes);
                if bytes_used.saturating_add(size) > b {
                    continue;
                }
                bytes_used += size;
            }
        }
        out.push(v);
    }
    out
}

/// A random budget-feasible selection from the pool (restart diversifier).
fn random_selection(
    pool: &[ViewMask],
    rng: &mut StdRng,
    ctx: &CostContext<'_>,
    objective: &Objective<'_>,
    budget: Budget,
    pricer: &mut Pricer,
) -> Vec<ViewMask> {
    let target = match budget {
        Budget::Views(k) => k,
        Budget::Bytes(_) => pool.len().min(8),
    };
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut out: Vec<ViewMask> = Vec::new();
    let mut bytes_used = 0usize;
    let attempts = (4 * target + 8).min(4 * pool.len().max(1));
    for _ in 0..attempts {
        if out.len() >= target || pool.is_empty() {
            break;
        }
        let v = pool[rng.gen_range(0..pool.len())];
        if !seen.insert(v.0) {
            continue;
        }
        let (cost, upkeep) = pricer.price(ctx, objective, v);
        if !cost.is_finite() || !upkeep.is_finite() {
            continue;
        }
        if let Budget::Bytes(b) = budget {
            let size = ctx.stats(v).map_or(usize::MAX, |s| s.bytes);
            if bytes_used.saturating_add(size) > b {
                continue;
            }
            bytes_used += size;
        }
        out.push(v);
    }
    out
}

/// Draw the next move from the deterministic proposal stream. Drop moves
/// are only proposed under an active maintenance term — without upkeep,
/// dropping a view can never improve the objective.
fn propose(rng: &mut StdRng, state: &State, pool: &[ViewMask], active: bool) -> Option<Move> {
    if pool.is_empty() {
        return None;
    }
    let roll: u32 = rng.gen_range(0..100);
    let kind = if state.selected.is_empty() {
        0 // add
    } else if active {
        match roll {
            0..=39 => 0,
            40..=69 => 2,
            _ => 1, // drop
        }
    } else if roll < 50 {
        0
    } else {
        2
    };
    match kind {
        0 => Some(Move::Add(pool[rng.gen_range(0..pool.len())])),
        1 => Some(Move::Drop(rng.gen_range(0..state.selected.len()))),
        _ => Some(Move::Swap {
            out: rng.gen_range(0..state.selected.len()),
            inn: pool[rng.gen_range(0..pool.len())],
        }),
    }
}

/// Evaluate one move against the incumbent; apply it if it strictly
/// improves the combined objective. Only the demands the touched views
/// cover are re-costed.
#[allow(clippy::too_many_arguments)]
fn try_apply(
    mv: Move,
    state: &mut State,
    ctx: &CostContext<'_>,
    objective: &Objective<'_>,
    profile: &WorkloadProfile,
    budget: Budget,
    pricer: &mut Pricer,
    eps: f64,
) -> bool {
    match mv {
        Move::Add(v) => {
            if state.selected.contains(&v) {
                return false;
            }
            match budget {
                Budget::Views(k) => {
                    if state.selected.len() >= k {
                        return false;
                    }
                }
                Budget::Bytes(b) => {
                    let size = ctx.stats(v).map_or(usize::MAX, |s| s.bytes);
                    if state.bytes_used.saturating_add(size) > b {
                        return false;
                    }
                }
            }
            let (cost, upkeep) = pricer.price(ctx, objective, v);
            if !cost.is_finite() || !upkeep.is_finite() {
                return false;
            }
            let mut gain = -upkeep;
            for (d, &(demand, weight)) in profile.demands.iter().enumerate() {
                if v.covers(demand) && cost < state.current[d] {
                    gain += weight * (state.current[d] - cost);
                }
            }
            if gain <= eps {
                return false;
            }
            for (d, &(demand, _)) in profile.demands.iter().enumerate() {
                if v.covers(demand) && cost < state.current[d] {
                    state.current[d] = cost;
                }
            }
            state.upkeep += upkeep;
            state.bytes_used = state
                .bytes_used
                .saturating_add(ctx.stats(v).map_or(0, |s| s.bytes));
            state.selected.push(v);
            true
        }
        Move::Drop(index) => {
            let v = state.selected[index];
            let (_, upkeep) = pricer.price(ctx, objective, v);
            // New per-demand costs with `v` gone, for the demands it covers.
            let mut updates: Vec<(usize, f64)> = Vec::new();
            let base_cost = base_graph_cost(ctx, objective.query_model());
            let mut loss = 0.0;
            for (d, &(demand, weight)) in profile.demands.iter().enumerate() {
                if !v.covers(demand) {
                    continue;
                }
                let mut new_cost = base_cost;
                for (i, &other) in state.selected.iter().enumerate() {
                    if i == index || !other.covers(demand) {
                        continue;
                    }
                    let (c, _) = pricer.price(ctx, objective, other);
                    if c < new_cost {
                        new_cost = c;
                    }
                }
                if new_cost > state.current[d] {
                    loss += weight * (new_cost - state.current[d]);
                    updates.push((d, new_cost));
                }
            }
            let gain = upkeep - loss;
            if gain <= eps {
                return false;
            }
            for (d, c) in updates {
                state.current[d] = c;
            }
            state.upkeep -= upkeep;
            state.bytes_used = state
                .bytes_used
                .saturating_sub(ctx.stats(v).map_or(0, |s| s.bytes));
            state.selected.swap_remove(index);
            true
        }
        Move::Swap { out, inn } => {
            let old = state.selected[out];
            if old == inn || state.selected.contains(&inn) {
                return false;
            }
            let old_size = ctx.stats(old).map_or(0, |s| s.bytes);
            if let Budget::Bytes(b) = budget {
                let inn_size = ctx.stats(inn).map_or(usize::MAX, |s| s.bytes);
                let after = state
                    .bytes_used
                    .saturating_sub(old_size)
                    .saturating_add(inn_size);
                if after > b {
                    return false;
                }
            }
            let (inn_cost, inn_upkeep) = pricer.price(ctx, objective, inn);
            if !inn_cost.is_finite() || !inn_upkeep.is_finite() {
                return false;
            }
            let (_, old_upkeep) = pricer.price(ctx, objective, old);
            let base_cost = base_graph_cost(ctx, objective.query_model());
            let mut updates: Vec<(usize, f64)> = Vec::new();
            let mut delta_query = 0.0;
            for (d, &(demand, weight)) in profile.demands.iter().enumerate() {
                if !old.covers(demand) && !inn.covers(demand) {
                    continue;
                }
                let mut new_cost = base_cost;
                if inn.covers(demand) && inn_cost < new_cost {
                    new_cost = inn_cost;
                }
                for (i, &other) in state.selected.iter().enumerate() {
                    if i == out || !other.covers(demand) {
                        continue;
                    }
                    let (c, _) = pricer.price(ctx, objective, other);
                    if c < new_cost {
                        new_cost = c;
                    }
                }
                if new_cost != state.current[d] {
                    delta_query += weight * (new_cost - state.current[d]);
                    updates.push((d, new_cost));
                }
            }
            let gain = -(delta_query + inn_upkeep - old_upkeep);
            if gain <= eps {
                return false;
            }
            for (d, c) in updates {
                state.current[d] = c;
            }
            state.upkeep += inn_upkeep - old_upkeep;
            state.bytes_used = state
                .bytes_used
                .saturating_sub(old_size)
                .saturating_add(ctx.stats(inn).map_or(0, |s| s.bytes));
            state.selected[out] = inn;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{agg_values, triples, with_ctx};
    use crate::{combined_cost, greedy_select, Budget};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn config(seed: u64) -> LocalSearchConfig {
        LocalSearchConfig {
            rng_seed: seed,
            ..LocalSearchConfig::default()
        }
    }

    #[test]
    fn zero_move_budget_returns_the_seed() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let (outcome, report) = local_search_select(
                ctx,
                lattice,
                &triples(),
                &profile,
                Budget::Views(3),
                &config(7),
                &SearchBudget::moves(0),
            );
            assert!(report.budget_exhausted);
            assert!(!report.converged);
            assert_eq!(report.moves_tried, 0);
            assert_eq!(report.seed_cost, report.final_cost);
            assert_eq!(outcome.selected.len(), 3, "greedy seed fills the budget");
        });
    }

    #[test]
    fn respects_view_budget_and_improves_on_baseline() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let (outcome, report) = local_search_select(
                ctx,
                lattice,
                &agg_values(),
                &profile,
                Budget::Views(3),
                &config(42),
                &SearchBudget::unlimited(),
            );
            assert!(outcome.selected.len() <= 3);
            assert!(outcome.estimated_cost <= outcome.baseline_cost);
            assert!(report.converged);
            assert!(!report.budget_exhausted);
            assert!(report.final_cost <= report.seed_cost);
        });
    }

    #[test]
    fn matches_greedy_quality_on_small_lattices() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let greedy = greedy_select(ctx, lattice, &agg_values(), &profile, Budget::Views(3));
            let (local, _) = local_search_select(
                ctx,
                lattice,
                &agg_values(),
                &profile,
                Budget::Views(3),
                &config(3),
                &SearchBudget::unlimited(),
            );
            assert!(
                local.total_cost() <= greedy.total_cost() + 1e-9,
                "local {} > greedy {}",
                local.total_cost(),
                greedy.total_cost()
            );
        });
    }

    #[test]
    fn seeds_from_the_provided_catalog() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let catalog = vec![ViewMask::APEX, lattice.base()];
            let mut cfg = config(11);
            cfg.initial = Some(catalog.clone());
            let (outcome, report) = local_search_select(
                ctx,
                lattice,
                &triples(),
                &profile,
                Budget::Views(2),
                &cfg,
                &SearchBudget::moves(0),
            );
            assert_eq!(outcome.selected, catalog, "zero moves keeps the catalog");
            assert_eq!(
                report.seed_cost,
                combined_cost(ctx, &triples(), &profile, &catalog)
            );
        });
    }

    #[test]
    fn byte_budget_is_respected() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let apex_bytes = ctx.stats(ViewMask::APEX).unwrap().bytes;
            let budget = apex_bytes * 3;
            let (outcome, _) = local_search_select(
                ctx,
                lattice,
                &triples(),
                &profile,
                Budget::Bytes(budget),
                &config(5),
                &SearchBudget::unlimited(),
            );
            let used: usize = outcome
                .selected
                .iter()
                .map(|v| ctx.stats(*v).unwrap().bytes)
                .sum();
            assert!(used <= budget, "used {used} of {budget}");
        });
    }

    #[test]
    fn deadline_off_a_manual_clock_interrupts_immediately() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            // A frozen clock already past the deadline: the search must
            // return the (valid) seed without proposing a single move.
            let now = Arc::new(AtomicU64::new(100));
            let clock = now.clone();
            let budget = SearchBudget::unlimited()
                .with_deadline(Arc::new(move || clock.load(Ordering::Relaxed)), 50);
            let (outcome, report) = local_search_select(
                ctx,
                lattice,
                &triples(),
                &profile,
                Budget::Views(3),
                &config(9),
                &budget,
            );
            assert!(report.budget_exhausted);
            assert_eq!(report.moves_tried, 0);
            assert_eq!(outcome.selected.len(), 3);
            assert!(outcome.estimated_cost <= outcome.baseline_cost);
        });
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        with_ctx(3, 24, |ctx, lattice| {
            let profile = WorkloadProfile::uniform(lattice);
            let run = |seed| {
                local_search_select(
                    ctx,
                    lattice,
                    &agg_values(),
                    &profile,
                    Budget::Views(3),
                    &config(seed),
                    &SearchBudget::moves(500),
                )
            };
            let (a, ra) = run(21);
            let (b, rb) = run(21);
            assert_eq!(a, b);
            assert_eq!(ra, rb);
        });
    }

    #[test]
    fn pool_contains_demands_and_extremes() {
        with_ctx(3, 24, |ctx, lattice| {
            let _ = ctx;
            let profile = WorkloadProfile::from_masks([ViewMask::from_dims(&[0, 1])]);
            let mut rng = StdRng::seed_from_u64(1);
            let pool = build_pool(lattice, &profile, &mut rng, 64);
            assert!(pool.contains(&lattice.base()));
            assert!(pool.contains(&ViewMask::APEX));
            assert!(pool.contains(&ViewMask::from_dims(&[0, 1])));
            let distinct: FxHashSet<u64> = pool.iter().map(|v| v.0).collect();
            assert_eq!(distinct.len(), pool.len(), "pool is duplicate-free");
        });
    }
}
