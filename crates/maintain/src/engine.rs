//! The [`Maintainer`]: applies deltas and patches view graphs.
//!
//! The patch logic is *plan-based*: every maintenance decision — group
//! the delta by the view's mask, locate observation nodes, patch vs.
//! re-evaluate — runs **read-only** against the dataset and emits the
//! exact triple writes as a patch; a separate commit applies them.
//! [`Maintainer::maintain`] (in the `pipeline` module) is the one pass:
//! it plans every view it is handed and then commits them all, whether
//! the caller hands it the whole catalog (eager writes, bounded flushes)
//! or one view (a lazy repair).

use crate::pipeline::{NodeRef, ObjectRef, PatchBuilder, PatchOp, ViewPatch};
use crate::star::StarPattern;
use crate::{MaintenanceCost, MaintenanceReport, MaintenanceStrategy};
use sofos_cube::{
    component_alias, component_predicate, view_query, Facet, MaterialComponent, ViewMask,
};
use sofos_materialize::{load_view, view_stats};
use sofos_rdf::vocab::{rdf, sofos};
use sofos_rdf::{FxHashMap, Numeric, Term, TermId};
use sofos_sparql::{CompareOp, Evaluator, Expr, PatternElement, QueryResults, SparqlError};
use sofos_store::{Bitmap, ChangeSet, Dataset, Delta, GraphStore, IdPattern};
use std::time::Instant;

/// The net effect of a batch on the facet pattern's binding multiset:
/// `(dimension values, measure) → net multiplicity` (positive = asserted,
/// negative = retracted). Dimension values are in facet dimension order.
///
/// Row deltas are additive: buffering several batches and merging their
/// deltas maintains views as correctly as eager per-batch propagation —
/// which is what the lazy and bounded staleness policies (and the batched
/// epochs of the pipeline) rely on. Merging also *cancels*: a batch that
/// nets out touches no group at all.
#[derive(Debug, Clone, Default)]
pub struct RowDelta {
    counts: FxHashMap<(Vec<TermId>, TermId), i64>,
}

impl RowDelta {
    /// True when the batch did not change the pattern's bindings.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Number of distinct changed rows.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Total asserted row multiplicity.
    pub fn asserted(&self) -> i64 {
        self.counts.values().filter(|&&n| n > 0).sum()
    }

    /// Total retracted row multiplicity (as a positive number).
    pub fn retracted(&self) -> i64 {
        -self.counts.values().filter(|&&n| n < 0).sum::<i64>()
    }

    /// Accumulate another delta (later batches on top of earlier ones).
    pub fn merge(&mut self, other: &RowDelta) {
        for (key, net) in &other.counts {
            let slot = self.counts.entry(key.clone()).or_insert(0);
            *slot += net;
            if *slot == 0 {
                self.counts.remove(key);
            }
        }
    }

    /// Record a net row change directly — the public constructor for
    /// synthetic deltas (tests, harnesses); the maintenance engine itself
    /// derives deltas from binding scans.
    pub fn record(&mut self, dims: Vec<TermId>, measure: TermId, net: i64) {
        self.add(dims, measure, net);
    }

    pub(crate) fn add(&mut self, dims: Vec<TermId>, measure: TermId, net: i64) {
        if net == 0 {
            return;
        }
        let key = (dims, measure);
        let slot = self.counts.entry(key.clone()).or_insert(0);
        *slot += net;
        if *slot == 0 {
            self.counts.remove(&key);
        }
    }

    pub(crate) fn counts(&self) -> &FxHashMap<(Vec<TermId>, TermId), i64> {
        &self.counts
    }
}

/// Result of [`Maintainer::apply`].
#[derive(Debug, Clone)]
pub struct ApplyOutcome {
    /// Net store-level changes (per graph).
    pub changes: ChangeSet,
    /// Net pattern-binding changes; `None` when the facet does not admit
    /// incremental maintenance (non-star pattern) — views then need a
    /// [`MaintenanceStrategy::FullRefresh`].
    pub rows: Option<RowDelta>,
}

/// Propagates base-graph deltas into a facet's materialized view graphs.
pub struct Maintainer {
    facet: Facet,
    star: Option<StarPattern>,
    fresh: u64,
    /// Locate groups by walking index runs instead of intersecting
    /// posting lists — only [`Maintainer::run_walk_reference`] sets it.
    run_walk: bool,
}

impl Maintainer {
    /// Build a maintainer for one facet. Non-star facets are accepted but
    /// degrade every maintenance pass to full refresh.
    pub fn new(facet: &Facet) -> Maintainer {
        Maintainer {
            star: StarPattern::detect(facet),
            facet: facet.clone(),
            fresh: 0,
            run_walk: false,
        }
    }

    /// Test hook, not an option: a maintainer whose plans locate groups
    /// with the pre-posting-list run walk. It is the reference arm of
    /// the `bitmap_planning_equals_run_walk` proptest and nothing else.
    #[doc(hidden)]
    pub fn run_walk_reference(facet: &Facet) -> Maintainer {
        Maintainer {
            run_walk: true,
            ..Maintainer::new(facet)
        }
    }

    /// Does this facet admit the counting algorithm?
    pub fn is_incremental(&self) -> bool {
        self.star.is_some()
    }

    /// The fresh-label counter (plans start their minting here).
    pub(crate) fn fresh_counter(&self) -> u64 {
        self.fresh
    }

    /// The maintained facet.
    pub fn facet(&self) -> &Facet {
        &self.facet
    }

    /// Apply a batch to the dataset, capturing the pattern-binding delta
    /// (pre/post rows of the touched subjects) alongside the store-level
    /// [`ChangeSet`]. Does **not** touch any view — pair with
    /// [`Maintainer::maintain`], immediately (eager) or later (lazy).
    pub fn apply(&mut self, dataset: &mut Dataset, delta: Delta) -> ApplyOutcome {
        let Some(star) = &self.star else {
            let changes = dataset.apply(delta);
            return ApplyOutcome {
                changes,
                rows: None,
            };
        };
        let affected = star.affected_subjects(dataset, &delta);
        let leg_ids = star.leg_ids(dataset);

        let mut pre: Vec<(Vec<TermId>, TermId, i64)> = Vec::new();
        for &subject in &affected {
            star.subject_rows(dataset.default_graph(), &leg_ids, subject, &mut pre);
        }
        let changes = dataset.apply(delta);
        let mut rows = RowDelta::default();
        if !changes.default_graph.is_empty() {
            let mut post: Vec<(Vec<TermId>, TermId, i64)> = Vec::new();
            for &subject in &affected {
                star.subject_rows(dataset.default_graph(), &leg_ids, subject, &mut post);
            }
            for (dims, measure, mult) in post {
                rows.add(dims, measure, mult);
            }
            for (dims, measure, mult) in pre {
                rows.add(dims, measure, -mult);
            }
        }
        ApplyOutcome {
            changes,
            rows: Some(rows),
        }
    }

    /// Eager convenience: apply the batch and maintain all views.
    pub fn apply_and_maintain(
        &mut self,
        dataset: &mut Dataset,
        delta: Delta,
        views: &mut [(ViewMask, usize)],
    ) -> Result<(ChangeSet, MaintenanceReport), SparqlError> {
        let outcome = self.apply(dataset, delta);
        let maintained = self.maintain(dataset, outcome.rows.as_ref(), views)?;
        Ok((outcome.changes, maintained.report))
    }

    /// Phase 2 for one view: apply a planned patch — pure mechanical
    /// writes — and sync the catalog entry and fresh-label counter.
    pub(crate) fn commit_patch(
        &mut self,
        dataset: &mut Dataset,
        patch: ViewPatch,
        view: &mut (ViewMask, usize),
    ) -> MaintenanceCost {
        let apply_start = Instant::now();
        let fresh_ids: Vec<TermId> = patch
            .fresh
            .iter()
            .map(|label| dataset.intern(&Term::blank(label.clone())))
            .collect();
        for op in &patch.ops {
            match op {
                PatchOp::Remove(triple) => {
                    dataset.remove_encoded(Some(patch.graph), triple);
                }
                PatchOp::Insert { node, pred, object } => {
                    let s = match node {
                        NodeRef::Existing(id) => *id,
                        NodeRef::Fresh(i) => fresh_ids[*i],
                    };
                    let o = match object {
                        ObjectRef::Existing(id) => *id,
                        ObjectRef::New(term) => dataset.intern(term),
                    };
                    dataset.insert_encoded(Some(patch.graph), [s, *pred, o]);
                }
                PatchOp::Replace { results } => {
                    load_view(dataset, &self.facet, patch.view, results);
                }
            }
        }
        self.fresh = self.fresh.max(patch.fresh_end);
        view.1 = patch.rows;
        let mut cost = patch.cost;
        cost.wall_us += apply_start.elapsed().as_micros() as u64;
        cost
    }

    /// Plan a drop + re-materialize from the view query's evaluated
    /// `results`: size the replacement graph and emit one `Replace` op.
    pub(crate) fn plan_full_refresh(
        &self,
        dataset: &Dataset,
        ids: &ViewIds,
        catalog_rows: usize,
        fresh_start: u64,
        results: QueryResults,
    ) -> ViewPatch {
        let old_len = dataset.graph(Some(ids.graph)).map_or(0, |g| g.len());
        let stats = view_stats(&self.facet, ids.mask, &results);
        let new_rows = stats.rows;
        let cost = MaintenanceCost {
            view: ids.mask,
            strategy: MaintenanceStrategy::FullRefresh,
            triples_touched: old_len + stats.triples,
            groups_patched: 0,
            groups_reevaluated: new_rows,
            rows_inserted: new_rows,
            rows_retracted: catalog_rows,
            wall_us: 0,
        };
        ViewPatch {
            view: ids.mask,
            graph: ids.graph,
            fresh: Vec::new(),
            ops: vec![PatchOp::Replace { results }],
            cost,
            rows: new_rows,
            fresh_end: fresh_start,
        }
    }

    /// The row delta with every measure parsed, or `None` when counting
    /// cannot maintain it: the facet is not a star, or a measure is not
    /// numeric. One decision per pass, shared by every view.
    pub(crate) fn countable_rows<'a>(
        &self,
        dataset: &Dataset,
        rows: &'a RowDelta,
    ) -> Option<Vec<CountedRow<'a>>> {
        self.star.as_ref()?;
        rows.counts()
            .iter()
            .map(|((dims, measure), &net)| {
                let value = dataset.term(*measure).as_literal()?.numeric()?;
                Some((dims.as_slice(), value, net))
            })
            .collect()
    }

    /// Plan the counting algorithm over one view whose graph exists.
    pub(crate) fn plan_counting(
        &self,
        dataset: &Dataset,
        rows: &[CountedRow<'_>],
        ids: &ViewIds,
        catalog_rows: usize,
        fresh_start: u64,
    ) -> Result<ViewPatch, SparqlError> {
        // 1. Group the delta rows by the view's dimension mask.
        let mut groups: FxHashMap<Vec<TermId>, GroupDelta> = FxHashMap::default();
        for &(dims, measure, net) in rows {
            let key: Vec<TermId> = ids.mask_dims.iter().map(|&d| dims[d]).collect();
            let group = groups.entry(key).or_default();
            group.count += net;
            group.sum = Numeric::add(group.sum, Numeric::mul(measure, Numeric::Integer(net)));
            if net > 0 {
                group.asserted.push(measure);
            } else {
                group.retracted = true;
            }
        }

        // 2. Plan every group, in sorted key order.
        let mut builder = PatchBuilder::new(ids.mask, fresh_start);
        let mut keys: Vec<Vec<TermId>> = groups.keys().cloned().collect();
        keys.sort_unstable(); // deterministic patch order
        for key in &keys {
            let group = &groups[key];
            self.plan_group(dataset, ids, key, group, &mut builder)?;
        }
        let new_rows =
            (catalog_rows + builder.cost.rows_inserted).saturating_sub(builder.cost.rows_retracted);
        Ok(builder.into_patch(ids.graph, new_rows))
    }

    /// Plan one group of one view.
    fn plan_group(
        &self,
        dataset: &Dataset,
        ids: &ViewIds,
        key: &[TermId],
        group: &GroupDelta,
        builder: &mut PatchBuilder,
    ) -> Result<(), SparqlError> {
        let obs = find_obs(dataset, ids, key, self.run_walk);
        let needs_reeval = match self.facet.agg.components() {
            // SUM-only views cannot witness group emptiness (no stored
            // count), and MIN/MAX are not invertible under deletes.
            comps
                if comps.contains(&MaterialComponent::Min)
                    || comps.contains(&MaterialComponent::Max) =>
            {
                group.retracted
            }
            [MaterialComponent::Sum] => group.retracted,
            _ => false,
        };
        // A retraction against a group the view does not have means the
        // view and base have diverged; re-evaluation repairs it.
        let inconsistent = obs.is_none() && group.retracted;

        if needs_reeval || inconsistent {
            builder.cost.groups_reevaluated += 1;
            return self.plan_reevaluate_group(dataset, ids, key, obs, builder);
        }

        match obs {
            None => {
                // Brand-new group: all of its rows come from the delta.
                if group.count <= 0 {
                    return Ok(());
                }
                let components = self.components_from_delta(group);
                self.plan_create_obs(dataset, ids, key, &components, builder);
                builder.cost.groups_patched += 1;
            }
            Some(obs) => {
                // Patch stored components arithmetically. Writes are
                // staged: a COUNT reaching zero abandons them and retracts
                // the observation instead.
                let mut staged: Vec<PatchOp> = Vec::new();
                let mut writes = 0usize;
                let mut retract = false;
                for &component in self.facet.agg.components() {
                    let pred = ids.component(component);
                    let old = read_component(dataset, ids.graph, obs, pred);
                    let old_num = old
                        .and_then(|id| dataset.term(id).as_literal().and_then(|l| l.numeric()))
                        .unwrap_or(Numeric::Integer(0));
                    let new_num = match component {
                        MaterialComponent::Sum => Numeric::add(old_num, group.sum),
                        MaterialComponent::Count => {
                            let n = match old_num {
                                Numeric::Integer(n) => n,
                                other => other.to_f64() as i64,
                            } + group.count;
                            if n <= 0 {
                                retract = true;
                                break;
                            }
                            Numeric::Integer(n)
                        }
                        MaterialComponent::Min | MaterialComponent::Max => {
                            let keep = if component == MaterialComponent::Min {
                                std::cmp::Ordering::Less
                            } else {
                                std::cmp::Ordering::Greater
                            };
                            match old {
                                Some(_) => best(old_num, &group.asserted, keep),
                                // No stored extremum (the apex row over an
                                // emptied graph encodes MIN/MAX as "no
                                // triple"): the delta's own extremum is the
                                // value — defaulting the absent side to 0
                                // would invent a bound.
                                None if !group.asserted.is_empty() => {
                                    extremum(&group.asserted, keep)
                                }
                                None => continue,
                            }
                        }
                    };
                    writes += plan_write_term(
                        dataset,
                        &mut staged,
                        obs,
                        pred,
                        old,
                        &Term::Literal(new_num.to_literal()),
                    );
                }
                if retract {
                    if ids.mask == ViewMask::APEX {
                        // SPARQL's *implicit* group never disappears: the
                        // apex view of an emptied graph still has one row
                        // (COUNT = 0, SUM = 0, extrema unbound), so
                        // re-evaluate the row instead of retracting it —
                        // that reproduces the materializer's encoding
                        // exactly.
                        builder.cost.groups_reevaluated += 1;
                        return self.plan_reevaluate_group(dataset, ids, key, Some(obs), builder);
                    }
                    builder.cost.triples_touched +=
                        plan_retract_obs(dataset, &mut builder.ops, ids.graph, obs);
                    builder.cost.rows_retracted += 1;
                } else {
                    builder.ops.extend(staged);
                    builder.cost.triples_touched += writes;
                }
                builder.cost.groups_patched += 1;
            }
        }
        Ok(())
    }

    /// Components of a group that exists only in the delta.
    fn components_from_delta(&self, group: &GroupDelta) -> Vec<(MaterialComponent, Term)> {
        self.facet
            .agg
            .components()
            .iter()
            .map(|&component| {
                let value = match component {
                    MaterialComponent::Sum => group.sum,
                    MaterialComponent::Count => Numeric::Integer(group.count),
                    MaterialComponent::Min => extremum(&group.asserted, std::cmp::Ordering::Less),
                    MaterialComponent::Max => {
                        extremum(&group.asserted, std::cmp::Ordering::Greater)
                    }
                };
                (component, Term::Literal(value.to_literal()))
            })
            .collect()
    }

    /// Recompute one group from the base graph via the SPARQL evaluator
    /// (the view query with the group key pinned by FILTERs), then plan
    /// the sync of the observation node: patch, create, or retract.
    fn plan_reevaluate_group(
        &self,
        dataset: &Dataset,
        ids: &ViewIds,
        key: &[TermId],
        obs: Option<TermId>,
        builder: &mut PatchBuilder,
    ) -> Result<(), SparqlError> {
        let mut query = view_query(&self.facet, ids.mask);
        for (&dim, &value) in ids.mask_dims.iter().zip(key) {
            query
                .pattern
                .elements
                .push(PatternElement::Filter(Expr::Compare(
                    CompareOp::Eq,
                    Box::new(Expr::var(self.facet.dimensions[dim].var.clone())),
                    Box::new(Expr::Const(dataset.term(value).clone())),
                )));
        }
        let results = Evaluator::new(dataset).evaluate(&query)?;

        if results.is_empty() {
            if let Some(obs) = obs {
                builder.cost.triples_touched +=
                    plan_retract_obs(dataset, &mut builder.ops, ids.graph, obs);
                builder.cost.rows_retracted += 1;
            }
            return Ok(());
        }
        // A component can come back *unbound* even though the group kept a
        // row: MIN/MAX over SPARQL's implicit group (the apex view with
        // every binding gone) aggregate an empty multiset. The
        // materializer writes no triple for an unbound cell
        // ([`sofos_materialize::load_view`]), so maintenance mirrors that
        // exactly: write bound components, remove stale triples of
        // unbound ones.
        let components: Vec<(MaterialComponent, Option<Term>)> = self
            .facet
            .agg
            .components()
            .iter()
            .map(|&component| {
                let column = results
                    .column(component_alias(component))
                    .expect("view query projects its component aliases");
                (component, results.rows[0][column].clone())
            })
            .collect();
        match obs {
            Some(obs) => {
                for (component, value) in &components {
                    let pred = ids.component(*component);
                    let old = read_component(dataset, ids.graph, obs, pred);
                    match value {
                        Some(value) => {
                            builder.cost.triples_touched +=
                                plan_write_term(dataset, &mut builder.ops, obs, pred, old, value);
                        }
                        None => {
                            if let Some(old) = old {
                                builder.ops.push(PatchOp::Remove([obs, pred, old]));
                                builder.cost.triples_touched += 1;
                            }
                        }
                    }
                }
            }
            None => {
                let bound: Vec<(MaterialComponent, Term)> = components
                    .into_iter()
                    .filter_map(|(component, value)| value.map(|v| (component, v)))
                    .collect();
                self.plan_create_obs(dataset, ids, key, &bound, builder)
            }
        }
        Ok(())
    }

    /// Plan a fresh observation node for a new group.
    fn plan_create_obs(
        &self,
        dataset: &Dataset,
        ids: &ViewIds,
        key: &[TermId],
        components: &[(MaterialComponent, Term)],
        builder: &mut PatchBuilder,
    ) {
        // `m`-prefixed labels cannot collide with the materializer's
        // row-indexed ones; the loop guards against label reuse across
        // maintainer instances on the same graph. Labels minted within
        // this patch never collide either — the counter only advances.
        let label = loop {
            let label = format!("v{}_{}_m{}", self.facet.id, ids.mask.0, builder.next_fresh);
            builder.next_fresh += 1;
            let in_use = dataset
                .dict()
                .get_id(&Term::blank(label.clone()))
                .is_some_and(|id| {
                    dataset.graph(Some(ids.graph)).is_some_and(|g| {
                        g.scan(IdPattern::new(Some(id), None, None))
                            .next()
                            .is_some()
                    })
                });
            if !in_use {
                break label;
            }
        };
        let node = NodeRef::Fresh(builder.fresh.len());
        builder.fresh.push(label);
        builder.ops.push(PatchOp::Insert {
            node,
            pred: ids.type_pred,
            object: ObjectRef::Existing(ids.observation),
        });
        builder.cost.triples_touched += 1;
        for (&pred, &value) in ids.dim_preds.iter().zip(key) {
            builder.ops.push(PatchOp::Insert {
                node,
                pred,
                object: ObjectRef::Existing(value),
            });
            builder.cost.triples_touched += 1;
        }
        for (component, value) in components {
            builder.ops.push(PatchOp::Insert {
                node,
                pred: ids.component(*component),
                object: ObjectRef::New(value.clone()),
            });
            builder.cost.triples_touched += 1;
        }
        builder.cost.rows_inserted += 1;
    }
}

/// One row of a countable delta: its dimension values (in facet
/// dimension order), its numeric measure and its net multiplicity.
pub(crate) type CountedRow<'a> = (&'a [TermId], Numeric, i64);

/// Per-group accumulated delta.
#[derive(Debug, Clone)]
struct GroupDelta {
    /// Net row multiplicity.
    count: i64,
    /// Net measure sum (assertions minus retractions).
    sum: Numeric,
    /// Measures of asserted rows (for MIN/MAX patching).
    asserted: Vec<Numeric>,
    /// Did any retraction hit this group?
    retracted: bool,
}

impl Default for GroupDelta {
    fn default() -> GroupDelta {
        GroupDelta {
            count: 0,
            sum: Numeric::Integer(0),
            asserted: Vec::new(),
            retracted: false,
        }
    }
}

/// Interned ids a maintenance pass needs for one view. Prepared in the
/// serial prologue (interning needs the writer's dictionary) so planning
/// itself can be read-only.
pub(crate) struct ViewIds {
    pub(crate) mask: ViewMask,
    pub(crate) graph: TermId,
    type_pred: TermId,
    observation: TermId,
    /// Facet dimension indices retained by the mask (ascending).
    mask_dims: Vec<usize>,
    /// Interned `sofos:dim<d>` predicates, parallel to `mask_dims`.
    dim_preds: Vec<TermId>,
    /// Interned component predicates, indexed as [`COMPONENTS`].
    components: [TermId; 4],
}

/// Every material component, in the order [`ViewIds::prepare`] interns
/// their predicates.
const COMPONENTS: [MaterialComponent; 4] = [
    MaterialComponent::Sum,
    MaterialComponent::Count,
    MaterialComponent::Min,
    MaterialComponent::Max,
];

impl ViewIds {
    pub(crate) fn prepare(dataset: &mut Dataset, facet: &Facet, mask: ViewMask) -> ViewIds {
        let mask_dims: Vec<usize> = mask
            .dims()
            .into_iter()
            .filter(|&d| d < facet.dim_count())
            .collect();
        let dim_preds: Vec<TermId> = mask_dims
            .iter()
            .map(|&d| dataset.intern_iri(&sofos::dim(d)))
            .collect();
        let ids = ViewIds {
            mask,
            graph: dataset.intern_iri(&sofos::view_graph(&facet.id, mask.0)),
            type_pred: dataset.intern_iri(rdf::TYPE),
            observation: dataset.intern_iri(sofos::OBSERVATION),
            mask_dims,
            dim_preds,
            components: COMPONENTS.map(|c| dataset.intern_iri(component_predicate(c))),
        };
        // Group location reads per-(predicate, value) posting lists of
        // the dimension predicates plus `rdf:type` (the apex lookup keys
        // on `sofos:Observation`). Registering is idempotent and must
        // rerun every pass: a `Replace` commit rebuilds the graph with
        // empty registrations. No-op while the graph does not exist.
        let mut preds = ids.dim_preds.clone();
        preds.push(ids.type_pred);
        dataset.register_value_preds(Some(ids.graph), &preds);
        ids
    }

    fn component(&self, component: MaterialComponent) -> TermId {
        let i = COMPONENTS.iter().position(|&c| c == component);
        self.components[i.expect("COMPONENTS lists every component")]
    }
}

/// Find the observation node of a group in the view graph (read-only —
/// [`ViewIds::prepare`] interned the predicates and registered their
/// posting lists).
fn find_obs(dataset: &Dataset, ids: &ViewIds, key: &[TermId], run_walk: bool) -> Option<TermId> {
    let store = dataset.graph(Some(ids.graph))?;
    if run_walk {
        find_obs_run_walk(store, ids, key)
    } else {
        find_obs_bitmap(store, ids, key)
    }
}

/// Group location over the posting lists: a progressive AND of the view
/// graph's per-(dimension, value) subject bitmaps with early exit on
/// empty — O(intersection) instead of O(matching triples) per leg.
fn find_obs_bitmap(store: &GraphStore, ids: &ViewIds, key: &[TermId]) -> Option<TermId> {
    if ids.mask_dims.is_empty() {
        // Apex: the (single) observation node.
        return store
            .value_subjects(ids.type_pred, ids.observation)
            .and_then(Bitmap::min)
            .map(TermId);
    }
    let mut acc: Option<Bitmap> = None;
    for (&pred, &value) in ids.dim_preds.iter().zip(key) {
        let bm = store.value_subjects(pred, value)?;
        let next = match acc {
            None => bm.clone(),
            Some(prev) => prev.and(bm),
        };
        if next.is_empty() {
            return None;
        }
        acc = Some(next);
    }
    acc.and_then(|bm| bm.min()).map(TermId)
}

/// Group location by walking the permutation-index runs per dimension —
/// the planner posting lists replaced, kept as the reference that
/// [`Maintainer::run_walk_reference`] plans with.
fn find_obs_run_walk(store: &GraphStore, ids: &ViewIds, key: &[TermId]) -> Option<TermId> {
    if ids.mask_dims.is_empty() {
        return store
            .scan(IdPattern::new(
                None,
                Some(ids.type_pred),
                Some(ids.observation),
            ))
            .map(|[s, _, _]| s)
            .min();
    }
    let mut candidates: Option<Vec<TermId>> = None;
    for (&pred, &value) in ids.dim_preds.iter().zip(key) {
        let mut subjects: Vec<TermId> = store
            .scan(IdPattern::new(None, Some(pred), Some(value)))
            .map(|[s, _, _]| s)
            .collect();
        subjects.sort_unstable();
        subjects.dedup();
        candidates = Some(match candidates {
            None => subjects,
            Some(previous) => previous
                .into_iter()
                .filter(|s| subjects.binary_search(s).is_ok())
                .collect(),
        });
        if candidates.as_ref().is_some_and(Vec::is_empty) {
            return None;
        }
    }
    candidates.and_then(|c| c.into_iter().min())
}

/// Read a component value of an observation.
fn read_component(dataset: &Dataset, graph: TermId, obs: TermId, pred: TermId) -> Option<TermId> {
    dataset
        .graph(Some(graph))?
        .scan(IdPattern::new(Some(obs), Some(pred), None))
        .map(|[_, _, o]| o)
        .next()
}

/// Plan a component-term write; returns triples touched (0 when
/// unchanged — no-op writes are dropped at plan time).
fn plan_write_term(
    dataset: &Dataset,
    ops: &mut Vec<PatchOp>,
    obs: TermId,
    pred: TermId,
    old: Option<TermId>,
    new: &Term,
) -> usize {
    if let Some(old) = old {
        if dataset.term(old) == new {
            return 0;
        }
        ops.push(PatchOp::Remove([obs, pred, old]));
        ops.push(PatchOp::Insert {
            node: NodeRef::Existing(obs),
            pred,
            object: ObjectRef::New(new.clone()),
        });
        2
    } else {
        ops.push(PatchOp::Insert {
            node: NodeRef::Existing(obs),
            pred,
            object: ObjectRef::New(new.clone()),
        });
        1
    }
}

/// Plan the removal of every triple of an observation node; returns
/// triples planned for removal.
fn plan_retract_obs(
    dataset: &Dataset,
    ops: &mut Vec<PatchOp>,
    graph: TermId,
    obs: TermId,
) -> usize {
    let Some(store) = dataset.graph(Some(graph)) else {
        return 0;
    };
    let mut removed = 0usize;
    for triple in store.scan(IdPattern::new(Some(obs), None, None)) {
        ops.push(PatchOp::Remove(triple));
        removed += 1;
    }
    removed
}

/// The stored extremum updated with asserted measures.
fn best(stored: Numeric, asserted: &[Numeric], keep: std::cmp::Ordering) -> Numeric {
    let mut current = stored;
    for &candidate in asserted {
        if Numeric::compare(candidate, current) == Some(keep) {
            current = candidate;
        }
    }
    current
}

/// Extremum over asserted measures (for brand-new groups; non-empty by
/// construction: new groups have `count > 0`).
fn extremum(asserted: &[Numeric], keep: std::cmp::Ordering) -> Numeric {
    let mut iter = asserted.iter().copied();
    let mut current = iter.next().expect("new groups carry asserted rows");
    for candidate in iter {
        if Numeric::compare(candidate, current) == Some(keep) {
            current = candidate;
        }
    }
    current
}
