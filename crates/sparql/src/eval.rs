//! Query evaluation: BGP joins, filters, optionals, grouping, modifiers.
//!
//! The evaluator is deliberately a *materializing* engine: each operator
//! consumes and produces vectors of binding rows. The queries SOFOS runs are
//! analytical (grouped aggregates over pattern matches), where the dominant
//! cost is the BGP join — handled with selectivity-ordered index nested-loop
//! joins against the store's permutation indexes.

use crate::ast::*;
use crate::error::{Result, SparqlError};
use crate::expr::{eval_expr, AggContext, Bindings, EvalScope, TermSource};
use crate::parse::parse_query;
use crate::results::QueryResults;
use crate::value::Value;
use sofos_rdf::{Dictionary, FxHashMap, FxHashSet, Numeric, Term, TermId};
use sofos_store::{Dataset, GraphStore, IdPattern};
use std::cmp::Ordering;

/// Evaluates queries against a [`Dataset`].
pub struct Evaluator<'a> {
    dataset: &'a Dataset,
    join_ordering: bool,
}

/// The evaluation-local term dictionary: the store dictionary plus an
/// overlay for terms produced by `BIND` expressions and `VALUES` constants
/// that are absent from the stored data. Overlay ids start after the base
/// dictionary's range; the store never yields them, so joins against stored
/// triples remain id-correct.
pub struct WorkingDict<'a> {
    base: &'a Dictionary,
    extra: Vec<Term>,
    index: FxHashMap<Term, TermId>,
}

impl<'a> WorkingDict<'a> {
    fn new(base: &'a Dictionary) -> WorkingDict<'a> {
        WorkingDict {
            base,
            extra: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// Intern a term: the base id when stored, an overlay id otherwise.
    fn intern(&mut self, term: &Term) -> TermId {
        if let Some(id) = self.base.get_id(term) {
            return id;
        }
        if let Some(&id) = self.index.get(term) {
            return id;
        }
        let id =
            TermId(u32::try_from(self.base.len() + self.extra.len()).expect("term id overflow"));
        self.extra.push(term.clone());
        self.index.insert(term.clone(), id);
        id
    }
}

impl TermSource for WorkingDict<'_> {
    fn resolve(&self, id: TermId) -> &Term {
        if id.index() < self.base.len() {
            self.base.term_unchecked(id)
        } else {
            &self.extra[id.index() - self.base.len()]
        }
    }
}

/// One triple pattern with variables resolved to binding slots.
#[derive(Debug, Clone, Copy)]
struct EncPattern {
    s: Slot,
    p: Slot,
    o: Slot,
}

/// A pattern position: a variable slot, a constant id, or a constant term
/// that is absent from the dictionary (matches nothing).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Var(usize),
    Const(TermId),
    Missing,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator over a dataset.
    pub fn new(dataset: &'a Dataset) -> Evaluator<'a> {
        Evaluator {
            dataset,
            join_ordering: true,
        }
    }

    /// Disable greedy selectivity-based join ordering (patterns then join
    /// in syntactic order). Exists as the reference arm of the
    /// `join_ordering_ablation_gives_identical_results` test: results are
    /// identical, only performance differs.
    pub fn without_join_ordering(mut self) -> Evaluator<'a> {
        self.join_ordering = false;
        self
    }

    /// Parse and evaluate a query string.
    pub fn evaluate_str(&self, text: &str) -> Result<QueryResults> {
        let query = parse_query(text)?;
        self.evaluate(&query)
    }

    /// Evaluate a parsed query.
    pub fn evaluate(&self, query: &Query) -> Result<QueryResults> {
        // --- variable table -------------------------------------------------
        let mut var_index: FxHashMap<String, usize> = FxHashMap::default();
        let pattern_vars = query.pattern.pattern_variables();
        for v in &pattern_vars {
            let next = var_index.len();
            var_index.entry(v.clone()).or_insert(next);
        }
        // Expression-only variables (e.g. BOUND on a never-bound var) get
        // slots too, so lookups are well-defined.
        let mut extra_vars: Vec<String> = Vec::new();
        for item in &query.select {
            if let SelectItem::Expr { expr, .. } = item {
                extra_vars.extend(expr.variables());
            }
        }
        if let Some(h) = &query.having {
            extra_vars.extend(h.variables());
        }
        for cond in &query.order_by {
            extra_vars.extend(cond.expr.variables());
        }
        for element in &query.pattern.elements {
            if let PatternElement::Filter(f) = element {
                extra_vars.extend(f.variables());
            }
        }
        for v in extra_vars {
            let next = var_index.len();
            var_index.entry(v).or_insert(next);
        }
        let nvars = var_index.len();

        // --- WHERE clause ----------------------------------------------------
        let mut wdict = WorkingDict::new(self.dataset.dict());
        let rows = self.eval_group(
            vec![vec![None; nvars]],
            &query.pattern,
            &var_index,
            &mut wdict,
        )?;

        // --- aggregation check ------------------------------------------------
        let select_has_agg = query.select.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.has_aggregate(),
            SelectItem::Var(_) => false,
        });
        let grouped = !query.group_by.is_empty()
            || select_has_agg
            || query.having.as_ref().is_some_and(Expr::has_aggregate);

        if grouped {
            self.finish_grouped(query, rows, &var_index, &wdict)
        } else {
            self.finish_plain(query, rows, &var_index, &pattern_vars, &wdict)
        }
    }

    // ---- group pattern evaluation -----------------------------------------

    fn eval_group(
        &self,
        mut rows: Vec<Bindings>,
        group: &GroupPattern,
        var_index: &FxHashMap<String, usize>,
        wdict: &mut WorkingDict<'_>,
    ) -> Result<Vec<Bindings>> {
        for element in &group.elements {
            if rows.is_empty() {
                return Ok(rows);
            }
            match element {
                PatternElement::Triples { graph, patterns } => {
                    let store = match graph {
                        GraphSpec::Default => Some(self.dataset.default_graph()),
                        GraphSpec::Named(iri) => self
                            .dataset
                            .dict()
                            .get_id(&Term::Iri(iri.clone()))
                            .and_then(|id| self.dataset.graph(Some(id))),
                    };
                    let Some(store) = store else {
                        // Unknown graph = empty graph.
                        return Ok(Vec::new());
                    };
                    let encoded = self.encode_patterns(patterns, var_index);
                    rows = self.eval_bgp(store, encoded, rows);
                }
                PatternElement::Filter(expr) => {
                    let dict: &dyn TermSource = wdict;
                    rows.retain(|row| {
                        let scope = EvalScope {
                            dict,
                            var_index,
                            bindings: row,
                            aggs: None,
                        };
                        eval_expr(expr, &scope)
                            .and_then(|v| v.ebv())
                            .unwrap_or(false)
                    });
                }
                PatternElement::Optional(inner) => {
                    let mut out = Vec::with_capacity(rows.len());
                    for row in rows {
                        let extended =
                            self.eval_group(vec![row.clone()], inner, var_index, wdict)?;
                        if extended.is_empty() {
                            out.push(row);
                        } else {
                            out.extend(extended);
                        }
                    }
                    rows = out;
                }
                PatternElement::Union(left, right) => {
                    let mut out = Vec::new();
                    for row in rows {
                        out.extend(self.eval_group(vec![row.clone()], left, var_index, wdict)?);
                        out.extend(self.eval_group(vec![row], right, var_index, wdict)?);
                    }
                    rows = out;
                }
                PatternElement::Bind { expr, var } => {
                    let idx = var_index[var.as_str()];
                    let mut out = Vec::with_capacity(rows.len());
                    for mut row in rows {
                        if row[idx].is_some() {
                            // Rebinding is a SPARQL error; the row is dropped.
                            continue;
                        }
                        let value = {
                            let scope = EvalScope {
                                dict: wdict as &dyn TermSource,
                                var_index,
                                bindings: &row,
                                aggs: None,
                            };
                            eval_expr(expr, &scope)
                        };
                        if let Some(v) = value {
                            let term = v.to_term();
                            row[idx] = Some(wdict.intern(&term));
                        }
                        // Expression errors leave the variable unbound.
                        out.push(row);
                    }
                    rows = out;
                }
                PatternElement::Values { vars, rows: data } => {
                    let slots: Vec<usize> = vars.iter().map(|v| var_index[v.as_str()]).collect();
                    let data_ids: Vec<Vec<Option<TermId>>> = data
                        .iter()
                        .map(|row| {
                            row.iter()
                                .map(|cell| cell.as_ref().map(|t| wdict.intern(t)))
                                .collect()
                        })
                        .collect();
                    let mut out = Vec::new();
                    for row in &rows {
                        for data_row in &data_ids {
                            let mut merged = row.clone();
                            let mut compatible = true;
                            for (&slot, cell) in slots.iter().zip(data_row) {
                                if let Some(id) = cell {
                                    match merged[slot] {
                                        Some(existing) if existing != *id => {
                                            compatible = false;
                                            break;
                                        }
                                        _ => merged[slot] = Some(*id),
                                    }
                                }
                            }
                            if compatible {
                                out.push(merged);
                            }
                        }
                    }
                    rows = out;
                }
            }
        }
        Ok(rows)
    }

    fn encode_patterns(
        &self,
        patterns: &[TriplePattern],
        var_index: &FxHashMap<String, usize>,
    ) -> Vec<EncPattern> {
        let encode = |t: &PatternTerm| -> Slot {
            match t {
                PatternTerm::Var(name) => Slot::Var(var_index[name.as_str()]),
                PatternTerm::Const(term) => match self.dataset.dict().get_id(term) {
                    Some(id) => Slot::Const(id),
                    None => Slot::Missing,
                },
            }
        };
        patterns
            .iter()
            .map(|p| EncPattern {
                s: encode(&p.subject),
                p: encode(&p.predicate),
                o: encode(&p.object),
            })
            .collect()
    }

    /// Index nested-loop join over the BGP with greedy selectivity ordering.
    fn eval_bgp(
        &self,
        store: &GraphStore,
        mut patterns: Vec<EncPattern>,
        mut rows: Vec<Bindings>,
    ) -> Vec<Bindings> {
        // Variables already bound in the incoming rows (conservatively: in
        // the first row; rows from the same block share their bound set).
        let mut bound: FxHashSet<usize> = FxHashSet::default();
        if let Some(first) = rows.first() {
            for (i, b) in first.iter().enumerate() {
                if b.is_some() {
                    bound.insert(i);
                }
            }
        }

        while !patterns.is_empty() {
            // Greedy: next pattern = lowest estimated cardinality given what
            // is bound so far (or syntactic order when ordering is disabled).
            let mut best = 0usize;
            if self.join_ordering {
                let mut best_score = f64::INFINITY;
                for (i, pat) in patterns.iter().enumerate() {
                    let score = Self::pattern_score(store, pat, &bound);
                    if score < best_score {
                        best_score = score;
                        best = i;
                    }
                }
            }
            let pat = if self.join_ordering {
                patterns.swap_remove(best)
            } else {
                patterns.remove(0)
            };

            let mut next_rows = Vec::with_capacity(rows.len());
            for row in &rows {
                self.match_pattern(store, &pat, row, &mut next_rows);
            }
            rows = next_rows;
            if rows.is_empty() {
                return rows;
            }
            for slot in [pat.s, pat.p, pat.o] {
                if let Slot::Var(idx) = slot {
                    bound.insert(idx);
                }
            }
        }
        rows
    }

    /// Estimated result size of a pattern: the exact index count with
    /// constants bound, discounted for variables that previous joins bound
    /// (they act as constants at execution time).
    fn pattern_score(store: &GraphStore, pat: &EncPattern, bound: &FxHashSet<usize>) -> f64 {
        let as_const = |s: Slot| match s {
            Slot::Const(id) => Some(id),
            _ => None,
        };
        if matches!(pat.s, Slot::Missing)
            || matches!(pat.p, Slot::Missing)
            || matches!(pat.o, Slot::Missing)
        {
            return -1.0; // matches nothing: evaluate first, short-circuits
        }
        let base = store.count(IdPattern::new(
            as_const(pat.s),
            as_const(pat.p),
            as_const(pat.o),
        )) as f64;
        let mut discount = 1.0;
        for slot in [pat.s, pat.p, pat.o] {
            if let Slot::Var(idx) = slot {
                if bound.contains(&idx) {
                    // A bound variable narrows the scan like a constant;
                    // 1/8 per position is a crude but effective discount.
                    discount /= 8.0;
                }
            }
        }
        base * discount
    }

    /// Extend one row with every match of `pat`.
    fn match_pattern(
        &self,
        store: &GraphStore,
        pat: &EncPattern,
        row: &Bindings,
        out: &mut Vec<Bindings>,
    ) {
        let resolve = |slot: Slot| -> Option<Option<TermId>> {
            match slot {
                Slot::Const(id) => Some(Some(id)),
                Slot::Var(idx) => Some(row[idx]),
                Slot::Missing => None,
            }
        };
        let (Some(s), Some(p), Some(o)) = (resolve(pat.s), resolve(pat.p), resolve(pat.o)) else {
            return; // constant term absent from the data: no matches
        };
        for triple in store.scan(IdPattern::new(s, p, o)) {
            let mut new_row = row.clone();
            let mut ok = true;
            for (slot, value) in [(pat.s, triple[0]), (pat.p, triple[1]), (pat.o, triple[2])] {
                if let Slot::Var(idx) = slot {
                    match new_row[idx] {
                        Some(existing) if existing != value => {
                            ok = false;
                            break;
                        }
                        _ => new_row[idx] = Some(value),
                    }
                }
            }
            if ok {
                out.push(new_row);
            }
        }
    }

    // ---- plain (non-grouped) finishing -------------------------------------

    fn finish_plain(
        &self,
        query: &Query,
        rows: Vec<Bindings>,
        var_index: &FxHashMap<String, usize>,
        pattern_vars: &[String],
        wdict: &WorkingDict<'_>,
    ) -> Result<QueryResults> {
        let items: Vec<SelectItem> = if query.wildcard {
            pattern_vars.iter().cloned().map(SelectItem::Var).collect()
        } else {
            query.select.clone()
        };
        let names: Vec<String> = items.iter().map(|i| i.name().to_string()).collect();

        let mut out_rows: Vec<Vec<Option<Term>>> = Vec::with_capacity(rows.len());
        let mut order_keys: Vec<Vec<Option<Value>>> = Vec::with_capacity(rows.len());
        for row in &rows {
            let scope = EvalScope {
                dict: wdict as &dyn TermSource,
                var_index,
                bindings: row,
                aggs: None,
            };
            let mut cells = Vec::with_capacity(items.len());
            let mut alias_values: FxHashMap<&str, Option<Value>> = FxHashMap::default();
            for item in &items {
                let cell = match item {
                    SelectItem::Var(name) => var_index
                        .get(name.as_str())
                        .and_then(|&idx| row[idx])
                        .map(|id| wdict.resolve(id).clone()),
                    SelectItem::Expr { expr, alias } => {
                        let v = eval_expr(expr, &scope);
                        alias_values.insert(alias.as_str(), v.clone());
                        v.map(|v| v.to_term())
                    }
                };
                cells.push(cell);
            }
            if !query.order_by.is_empty() {
                order_keys.push(
                    query
                        .order_by
                        .iter()
                        .map(|cond| {
                            if let Expr::Var(name) = &cond.expr {
                                if let Some(v) = alias_values.get(name.as_str()) {
                                    return v.clone();
                                }
                            }
                            eval_expr(&cond.expr, &scope)
                        })
                        .collect(),
                );
            }
            out_rows.push(cells);
        }

        self.apply_modifiers(query, names, out_rows, order_keys)
    }

    // ---- grouped finishing ---------------------------------------------------

    fn finish_grouped(
        &self,
        query: &Query,
        rows: Vec<Bindings>,
        var_index: &FxHashMap<String, usize>,
        wdict: &WorkingDict<'_>,
    ) -> Result<QueryResults> {
        if query.wildcard {
            return Err(SparqlError::Plan(
                "SELECT * cannot be combined with aggregation".into(),
            ));
        }
        // Validate: plain projected vars must be grouped.
        for item in &query.select {
            if let SelectItem::Var(v) = item {
                if !query.group_by.iter().any(|g| g == v) {
                    return Err(SparqlError::Plan(format!(
                        "variable ?{v} is projected but not in GROUP BY"
                    )));
                }
            }
        }

        // Extract the distinct aggregates from SELECT / HAVING / ORDER BY.
        let mut aggregates: Vec<Aggregate> = Vec::new();
        let mut collect = |expr: &Expr| collect_aggregates(expr, &mut aggregates);
        for item in &query.select {
            if let SelectItem::Expr { expr, .. } = item {
                collect(expr);
            }
        }
        if let Some(h) = &query.having {
            collect_aggregates(h, &mut aggregates);
        }
        for cond in &query.order_by {
            collect_aggregates(&cond.expr, &mut aggregates);
        }

        let key_slots: Vec<usize> = query
            .group_by
            .iter()
            .map(|g| var_index.get(g.as_str()).copied().unwrap_or(usize::MAX))
            .collect();

        // Group rows. Insertion order is preserved for determinism.
        let mut group_order: Vec<Vec<Option<TermId>>> = Vec::new();
        let mut groups: FxHashMap<Vec<Option<TermId>>, (Bindings, Vec<AggAcc>)> =
            FxHashMap::default();
        for row in &rows {
            let key: Vec<Option<TermId>> = key_slots
                .iter()
                .map(|&slot| if slot == usize::MAX { None } else { row[slot] })
                .collect();
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                group_order.push(key.clone());
                (row.clone(), aggregates.iter().map(AggAcc::new).collect())
            });
            let scope = EvalScope {
                dict: wdict as &dyn TermSource,
                var_index,
                bindings: row,
                aggs: None,
            };
            for (agg, acc) in aggregates.iter().zip(entry.1.iter_mut()) {
                let value = match agg.expr() {
                    Some(e) => eval_expr(e, &scope),
                    None => Some(Value::Boolean(true)), // COUNT(*): any row
                };
                acc.push(value, agg.expr().is_none());
            }
        }

        // Aggregation without GROUP BY over zero rows yields one group.
        if groups.is_empty() && query.group_by.is_empty() {
            let key: Vec<Option<TermId>> = Vec::new();
            group_order.push(key.clone());
            groups.insert(
                key,
                (
                    vec![None; var_index.len()],
                    aggregates.iter().map(AggAcc::new).collect(),
                ),
            );
        }

        let names: Vec<String> = query.select.iter().map(|i| i.name().to_string()).collect();
        let mut out_rows = Vec::with_capacity(groups.len());
        let mut order_keys: Vec<Vec<Option<Value>>> = Vec::new();
        for key in &group_order {
            let (rep, accs) = &groups[key];
            let agg_values: Vec<Option<Value>> = accs.iter().map(AggAcc::finish).collect();
            let ctx = AggContext {
                aggregates: &aggregates,
                values: &agg_values,
            };
            let scope = EvalScope {
                dict: wdict as &dyn TermSource,
                var_index,
                bindings: rep,
                aggs: Some(&ctx),
            };
            // HAVING.
            if let Some(having) = &query.having {
                if !eval_expr(having, &scope)
                    .and_then(|v| v.ebv())
                    .unwrap_or(false)
                {
                    continue;
                }
            }
            let mut cells = Vec::with_capacity(query.select.len());
            let mut alias_values: FxHashMap<&str, Option<Value>> = FxHashMap::default();
            for item in &query.select {
                let cell = match item {
                    SelectItem::Var(name) => var_index
                        .get(name.as_str())
                        .and_then(|&idx| rep[idx])
                        .map(|id| wdict.resolve(id).clone()),
                    SelectItem::Expr { expr, alias } => {
                        let v = eval_expr(expr, &scope);
                        alias_values.insert(alias.as_str(), v.clone());
                        v.map(|v| v.to_term())
                    }
                };
                cells.push(cell);
            }
            if !query.order_by.is_empty() {
                order_keys.push(
                    query
                        .order_by
                        .iter()
                        .map(|cond| {
                            if let Expr::Var(name) = &cond.expr {
                                if let Some(v) = alias_values.get(name.as_str()) {
                                    return v.clone();
                                }
                            }
                            eval_expr(&cond.expr, &scope)
                        })
                        .collect(),
                );
            }
            out_rows.push(cells);
        }

        self.apply_modifiers(query, names, out_rows, order_keys)
    }

    // ---- shared modifiers: DISTINCT, ORDER BY, LIMIT/OFFSET -----------------

    fn apply_modifiers(
        &self,
        query: &Query,
        names: Vec<String>,
        mut rows: Vec<Vec<Option<Term>>>,
        order_keys: Vec<Vec<Option<Value>>>,
    ) -> Result<QueryResults> {
        // ORDER BY (stable sort over precomputed keys).
        if !query.order_by.is_empty() && !rows.is_empty() {
            debug_assert_eq!(rows.len(), order_keys.len());
            let mut indices: Vec<usize> = (0..rows.len()).collect();
            indices.sort_by(|&a, &b| {
                for (cond, (ka, kb)) in query
                    .order_by
                    .iter()
                    .zip(order_keys[a].iter().zip(order_keys[b].iter()))
                {
                    let ord = match (ka, kb) {
                        (None, None) => Ordering::Equal,
                        (None, Some(_)) => Ordering::Less,
                        (Some(_), None) => Ordering::Greater,
                        (Some(x), Some(y)) => x.total_cmp(y),
                    };
                    let ord = if cond.descending { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            rows = indices.into_iter().map(|i| rows[i].clone()).collect();
        }

        // DISTINCT preserves first occurrence.
        if query.distinct {
            let mut seen: std::collections::HashSet<Vec<Option<Term>>> =
                std::collections::HashSet::new();
            rows.retain(|row| seen.insert(row.clone()));
        }

        // OFFSET / LIMIT.
        let offset = query.offset.unwrap_or(0);
        if offset > 0 {
            rows = rows.into_iter().skip(offset).collect();
        }
        if let Some(limit) = query.limit {
            rows.truncate(limit);
        }

        Ok(QueryResults { vars: names, rows })
    }
}

/// Collect distinct aggregates appearing in an expression, in order.
fn collect_aggregates(expr: &Expr, out: &mut Vec<Aggregate>) {
    match expr {
        Expr::Aggregate(agg) => {
            if !out.contains(agg) {
                out.push(agg.clone());
            }
        }
        Expr::Var(_) | Expr::Const(_) => {}
        Expr::Not(e) | Expr::Neg(e) => collect_aggregates(e, out),
        Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(_, a, b) | Expr::Arith(_, a, b) => {
            collect_aggregates(a, out);
            collect_aggregates(b, out);
        }
        Expr::In(e, list) => {
            collect_aggregates(e, out);
            for item in list {
                collect_aggregates(item, out);
            }
        }
        Expr::Call(_, args) => {
            for a in args {
                collect_aggregates(a, out);
            }
        }
    }
}

/// Aggregate accumulator.
///
/// Error/skip policy (documented subset semantics): unbound/error inputs are
/// skipped by COUNT/MIN/MAX; a non-numeric input poisons SUM/AVG (result is
/// unbound). SUM/AVG of an empty group is 0, per the SPARQL definition;
/// MIN/MAX of an empty group is unbound.
enum AggAcc {
    Count {
        n: i64,
        distinct: bool,
        seen: FxHashSet<String>,
        star: bool,
    },
    Sum {
        acc: Numeric,
        poisoned: bool,
        distinct: bool,
        seen: FxHashSet<String>,
    },
    Avg {
        acc: Numeric,
        n: i64,
        poisoned: bool,
        distinct: bool,
        seen: FxHashSet<String>,
    },
    Min {
        best: Option<Value>,
    },
    Max {
        best: Option<Value>,
    },
}

impl AggAcc {
    fn new(agg: &Aggregate) -> AggAcc {
        match agg {
            Aggregate::Count { distinct, expr } => AggAcc::Count {
                n: 0,
                distinct: *distinct,
                seen: FxHashSet::default(),
                star: expr.is_none(),
            },
            Aggregate::Sum { distinct, .. } => AggAcc::Sum {
                acc: Numeric::Integer(0),
                poisoned: false,
                distinct: *distinct,
                seen: FxHashSet::default(),
            },
            Aggregate::Avg { distinct, .. } => AggAcc::Avg {
                acc: Numeric::Integer(0),
                n: 0,
                poisoned: false,
                distinct: *distinct,
                seen: FxHashSet::default(),
            },
            Aggregate::Min { .. } => AggAcc::Min { best: None },
            Aggregate::Max { .. } => AggAcc::Max { best: None },
        }
    }

    fn push(&mut self, value: Option<Value>, is_star: bool) {
        match self {
            AggAcc::Count {
                n,
                distinct,
                seen,
                star,
            } => {
                if *star || is_star {
                    *n += 1;
                    return;
                }
                let Some(v) = value else { return };
                if *distinct {
                    if seen.insert(v.distinct_key()) {
                        *n += 1;
                    }
                } else {
                    *n += 1;
                }
            }
            AggAcc::Sum {
                acc,
                poisoned,
                distinct,
                seen,
            } => {
                let Some(v) = value else { return };
                if *distinct && !seen.insert(v.distinct_key()) {
                    return;
                }
                match v.as_numeric() {
                    Some(n) => *acc = Numeric::add(*acc, n),
                    None => *poisoned = true,
                }
            }
            AggAcc::Avg {
                acc,
                n,
                poisoned,
                distinct,
                seen,
            } => {
                let Some(v) = value else { return };
                if *distinct && !seen.insert(v.distinct_key()) {
                    return;
                }
                match v.as_numeric() {
                    Some(num) => {
                        *acc = Numeric::add(*acc, num);
                        *n += 1;
                    }
                    None => *poisoned = true,
                }
            }
            AggAcc::Min { best } => {
                let Some(v) = value else { return };
                let replace = match best {
                    Some(b) => v.total_cmp(b) == Ordering::Less,
                    None => true,
                };
                if replace {
                    *best = Some(v);
                }
            }
            AggAcc::Max { best } => {
                let Some(v) = value else { return };
                let replace = match best {
                    Some(b) => v.total_cmp(b) == Ordering::Greater,
                    None => true,
                };
                if replace {
                    *best = Some(v);
                }
            }
        }
    }

    fn finish(&self) -> Option<Value> {
        match self {
            AggAcc::Count { n, .. } => Some(Value::Numeric(Numeric::Integer(*n))),
            AggAcc::Sum { acc, poisoned, .. } => {
                if *poisoned {
                    None
                } else {
                    Some(Value::Numeric(*acc))
                }
            }
            AggAcc::Avg {
                acc, n, poisoned, ..
            } => {
                if *poisoned {
                    return None;
                }
                if *n == 0 {
                    return Some(Value::Numeric(Numeric::Integer(0)));
                }
                Numeric::div(*acc, Numeric::Integer(*n)).map(Value::Numeric)
            }
            AggAcc::Min { best } | AggAcc::Max { best } => best.clone(),
        }
    }
}
