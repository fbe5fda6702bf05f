//! Query evaluation: BGP joins, filters, optionals, grouping, modifiers.
//!
//! The evaluator is deliberately a *materializing* engine: each operator
//! consumes and produces a table of binding rows. The queries SOFOS runs
//! are analytical (grouped aggregates over pattern matches), where the
//! dominant cost is the BGP join — handled with selectivity-ordered index
//! nested-loop joins against the store's permutation indexes.
//!
//! # Index probes
//!
//! Each pass of the join over one leg opens one [`ScanCursor`] on the
//! graph and probes it once per input row. An index is a sorted run plus
//! sorted delta and tombstone slices (a published snapshot has nothing
//! else; the writer's own reads also see its overlay). The cursor
//! remembers, per permutation index, the last probe's key prefix and the
//! position just past its matches in each slice. A probe whose prefix
//! sorts after the last one gallops every slice forward from there (steps
//! of doubling length, then a binary search of the last step), so it
//! costs the log of the distance skipped, not of the index, and it skips
//! tombstoned keys by walking the tombstone range in step with the run's.
//! Rows reach a star's later legs in the first leg's (object, subject)
//! order, so their subject probes ascend in long runs. Any other prefix —
//! a repeat, or one going back when the first leg's object changes —
//! falls back to the binary searches of the whole slices a plain
//! `GraphStore::scan` does. A probe yields exactly the triples a plain
//! scan yields, in the same order, so answers and row order do not
//! depend on the cursor.
//!
//! # Star blocks
//!
//! A default-graph `Triples` block evaluated from one incoming row is a
//! *star* when its legs are `?s <p> ?o_i` around one subject variable, with
//! constant predicates and pairwise distinct `?o_i` other than `?s`, none
//! of them bound in that row or pinned by a pushed constant. The star join
//! answers it in one pass over ids: the candidates are the AND of the
//! legs' `pred_subjects` bitmaps, and each candidate's triples are read
//! once, in subject order, through one [`ScanCursor`]. Its rows and their
//! order are the greedy join's, which takes legs by ascending triple count
//! (ties where its `swap_remove` leaves them) and scans the first in
//! (object, subject) order: the star join orders legs alike, sorts the
//! first leg's (object, subject) pairs and nests the other legs' objects,
//! the last innermost. View observation labels and ids follow that order;
//! `sofos-materialize`'s `star_cuboid_equivalence` pins it. Named graphs
//! keep the greedy join: their stars are rewritten view queries that read
//! a few of each observation's predicates, which the greedy join reads
//! alone, and a one-leg view query ran 3.5× slower through the star join.
//!
//! # One flat binding table
//!
//! An operator's output is one `Table`: a row-major
//! `Vec<Option<TermId>>` whose stride is the query's variable count, so
//! slot `j` of row `i` is cell `i * width + j`. Extending a row by a
//! match appends a copy of it to the next table and writes the new slots
//! in place; `FILTER` and `BIND` compact the table in place; grouping
//! keeps a row *index* as a group's representative and builds group keys
//! in one reused buffer. The join, `FILTER`, `BIND`, `VALUES` and
//! grouping allocate nothing per row (`OPTIONAL` and `UNION` still run
//! their inner group once per row), and the finishers read the table
//! directly.
//!
//! # Constant-filter pushdown
//!
//! Before a `Triples` block runs, the `FILTER` conjuncts of the *same
//! group* (a `FILTER`'s scope is its whole group; `&&` splits into
//! conjuncts) of the form `?v = <iri>` or `<iri> = ?v`, where `?v` occurs
//! in the block, turn `?v`'s positions in that block into the IRI's id —
//! or into a pattern that matches nothing when the IRI is not in the
//! dictionary. The join then reads the exact count of the constant leg
//! and starts from it, instead of joining everything and filtering last.
//! Rows that arrive with `?v` unbound are seeded with the id, so `?v`
//! stays bound in the answer. The `FILTER` itself stays where it is and
//! is still evaluated, so a row that arrives with `?v` already bound to
//! another term is judged by it exactly as before. Pushing is sound
//! because bindings only ever grow: a row the constant leg rejects binds
//! `?v` to a different IRI, and the retained `FILTER` would drop it.
//!
//! Literals are never pushed: `=` on literals is value equality
//! (`"1"` equals `"01"^^xsd:integer`), not term identity, so one id does
//! not stand for every term the `FILTER` accepts. IRIs compare by their
//! text, which is term identity.
//!
//! Row order is the join order's: without a pushed filter it is exactly
//! the order of the unpushed evaluation; a pushed filter may change the
//! greedy leg order and with it the order of rows (not their multiset).

use crate::ast::*;
use crate::error::{Result, SparqlError};
use crate::expr::{eval_expr, AggContext, EvalScope, TermSource};
use crate::parse::parse_query;
use crate::results::QueryResults;
use crate::value::Value;
use sofos_rdf::{Dictionary, FxHashMap, FxHashSet, Numeric, Term, TermId};
use sofos_store::{Dataset, GraphStore, IdPattern, ScanCursor};
use std::cmp::Ordering;

/// Evaluates queries against a [`Dataset`].
pub struct Evaluator<'a> {
    dataset: &'a Dataset,
    /// Star blocks take the star join; only
    /// [`Evaluator::greedy_join_reference`] clears it.
    star_join: bool,
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

/// Binding rows in one row-major allocation: row `i` is
/// `cells[i * width..(i + 1) * width]`, slot `j` is variable `j` of the
/// query's variable table. The row count is kept apart so a query with no
/// variables still counts its rows.
struct Table {
    width: usize,
    len: usize,
    cells: Vec<Option<TermId>>,
}

impl Table {
    fn with_capacity(width: usize, rows: usize) -> Table {
        Table {
            width,
            len: 0,
            cells: Vec::with_capacity(width * rows),
        }
    }

    /// A table holding one copy of `row`.
    fn from_row(row: &[Option<TermId>]) -> Table {
        Table {
            width: row.len(),
            len: 1,
            cells: row.to_vec(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn row(&self, i: usize) -> &[Option<TermId>] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    fn rows(&self) -> impl Iterator<Item = &[Option<TermId>]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Append a copy of `row` and return it for extension.
    fn push(&mut self, row: &[Option<TermId>]) -> &mut [Option<TermId>] {
        debug_assert_eq!(row.len(), self.width);
        let start = self.cells.len();
        self.cells.extend_from_slice(row);
        self.len += 1;
        &mut self.cells[start..]
    }

    /// Drop the last row (an extension that turned out incompatible).
    fn pop(&mut self) {
        self.cells.truncate(self.cells.len() - self.width);
        self.len -= 1;
    }

    fn append(&mut self, other: Table) {
        self.cells.extend_from_slice(&other.cells);
        self.len += other.len;
    }

    /// Keep, in order, the rows `keep` returns `true` for; `keep` may
    /// rewrite the row it is shown. Compacts in place.
    fn retain_mut(&mut self, mut keep: impl FnMut(&mut [Option<TermId>]) -> bool) {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(&mut self.cells[i * w..(i + 1) * w]) {
                if kept != i {
                    self.cells.copy_within(i * w..(i + 1) * w, kept * w);
                }
                kept += 1;
            }
        }
        self.len = kept;
        self.cells.truncate(kept * w);
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
            star_join: true,
        }
    }

    /// Test hook, not an option: an evaluator that runs star blocks
    /// through the greedy join too. It is the reference arm of the
    /// `star_cuboid_equivalence` proptest and nothing else.
    #[doc(hidden)]
    pub fn greedy_join_reference(dataset: &'a Dataset) -> Evaluator<'a> {
        Evaluator {
            star_join: false,
            ..Evaluator::new(dataset)
        }
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
            Table::from_row(&vec![None; nvars]),
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
            self.finish_grouped(query, &rows, &var_index, &wdict)
        } else {
            self.finish_plain(query, &rows, &var_index, &pattern_vars, &wdict)
        }
    }

    // ---- group pattern evaluation -----------------------------------------

    fn eval_group(
        &self,
        mut rows: Table,
        group: &GroupPattern,
        var_index: &FxHashMap<String, usize>,
        wdict: &mut WorkingDict<'_>,
    ) -> Result<Table> {
        let pushed = self.pushed_constants(group, var_index);
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
                        return Ok(Table::with_capacity(rows.width, 0));
                    };
                    let (encoded, seeds) = self.encode_patterns(patterns, var_index, &pushed);
                    for &(slot, id) in &seeds {
                        for row in rows.cells.chunks_exact_mut(rows.width) {
                            row[slot].get_or_insert(id);
                        }
                    }
                    let star = match graph {
                        GraphSpec::Default if self.star_join && rows.len() == 1 => {
                            Star::detect(&encoded, rows.row(0))
                        }
                        _ => None,
                    };
                    rows = match star {
                        Some(star) => star.join(store, rows.row(0)),
                        None => self.eval_bgp(store, encoded, rows),
                    };
                }
                PatternElement::Filter(expr) => {
                    let dict: &dyn TermSource = wdict;
                    rows.retain_mut(|row| {
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
                    let mut out = Table::with_capacity(rows.width, rows.len());
                    for row in rows.rows() {
                        let extended =
                            self.eval_group(Table::from_row(row), inner, var_index, wdict)?;
                        if extended.is_empty() {
                            out.push(row);
                        } else {
                            out.append(extended);
                        }
                    }
                    rows = out;
                }
                PatternElement::Union(left, right) => {
                    let mut out = Table::with_capacity(rows.width, rows.len());
                    for row in rows.rows() {
                        for branch in [left, right] {
                            out.append(self.eval_group(
                                Table::from_row(row),
                                branch,
                                var_index,
                                wdict,
                            )?);
                        }
                    }
                    rows = out;
                }
                PatternElement::Bind { expr, var } => {
                    let idx = var_index[var.as_str()];
                    rows.retain_mut(|row| {
                        if row[idx].is_some() {
                            // Rebinding is a SPARQL error; the row is dropped.
                            return false;
                        }
                        let scope = EvalScope {
                            dict: wdict as &dyn TermSource,
                            var_index,
                            bindings: row,
                            aggs: None,
                        };
                        // Expression errors leave the variable unbound.
                        if let Some(v) = eval_expr(expr, &scope) {
                            row[idx] = Some(wdict.intern(&v.to_term()));
                        }
                        true
                    });
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
                    let mut out = Table::with_capacity(rows.width, rows.len() * data_ids.len());
                    for row in rows.rows() {
                        for data_row in &data_ids {
                            let merged = out.push(row);
                            let compatible =
                                slots.iter().zip(data_row).all(|(&slot, cell)| match cell {
                                    Some(id) => *merged[slot].get_or_insert(*id) == *id,
                                    None => true,
                                });
                            if !compatible {
                                out.pop();
                            }
                        }
                    }
                    rows = out;
                }
            }
        }
        Ok(rows)
    }

    /// The constants the group's `FILTER`s pin variables to: one entry per
    /// variable with a top-level `?v = <iri>` / `<iri> = ?v` conjunct (the
    /// first such conjunct wins; the retained `FILTER` rejects the rest).
    /// An IRI absent from the dictionary pins to [`Slot::Missing`].
    fn pushed_constants(
        &self,
        group: &GroupPattern,
        var_index: &FxHashMap<String, usize>,
    ) -> Vec<(usize, Slot)> {
        fn conjuncts<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
            match expr {
                Expr::And(a, b) => {
                    conjuncts(a, out);
                    conjuncts(b, out);
                }
                other => out.push(other),
            }
        }
        let mut terms = Vec::new();
        for element in &group.elements {
            if let PatternElement::Filter(expr) = element {
                conjuncts(expr, &mut terms);
            }
        }
        let mut pushed: Vec<(usize, Slot)> = Vec::new();
        for term in terms {
            let Expr::Compare(CompareOp::Eq, a, b) = term else {
                continue;
            };
            let (var, iri) = match (a.as_ref(), b.as_ref()) {
                (Expr::Var(v), Expr::Const(t @ Term::Iri(_)))
                | (Expr::Const(t @ Term::Iri(_)), Expr::Var(v)) => (v, t),
                _ => continue,
            };
            let Some(&slot) = var_index.get(var.as_str()) else {
                continue;
            };
            if pushed.iter().all(|&(s, _)| s != slot) {
                let pin = match self.dataset.dict().get_id(iri) {
                    Some(id) => Slot::Const(id),
                    None => Slot::Missing,
                };
                pushed.push((slot, pin));
            }
        }
        pushed
    }

    /// Encode a block's patterns, replacing every pushed variable by its
    /// constant. Also returns the pushed variables that occur in the block
    /// with an id to seed unbound rows with.
    fn encode_patterns(
        &self,
        patterns: &[TriplePattern],
        var_index: &FxHashMap<String, usize>,
        pushed: &[(usize, Slot)],
    ) -> (Vec<EncPattern>, Vec<(usize, TermId)>) {
        let mut seeds: Vec<(usize, TermId)> = Vec::new();
        let mut encode = |t: &PatternTerm| -> Slot {
            match t {
                PatternTerm::Var(name) => {
                    let slot = var_index[name.as_str()];
                    match pushed.iter().find(|&&(s, _)| s == slot) {
                        Some(&(_, pin)) => {
                            if let Slot::Const(id) = pin {
                                if !seeds.contains(&(slot, id)) {
                                    seeds.push((slot, id));
                                }
                            }
                            pin
                        }
                        None => Slot::Var(slot),
                    }
                }
                PatternTerm::Const(term) => match self.dataset.dict().get_id(term) {
                    Some(id) => Slot::Const(id),
                    None => Slot::Missing,
                },
            }
        };
        let encoded = patterns
            .iter()
            .map(|p| EncPattern {
                s: encode(&p.subject),
                p: encode(&p.predicate),
                o: encode(&p.object),
            })
            .collect();
        (encoded, seeds)
    }

    /// Index nested-loop join over the BGP with greedy selectivity ordering.
    fn eval_bgp(
        &self,
        store: &GraphStore,
        mut patterns: Vec<EncPattern>,
        mut rows: Table,
    ) -> Table {
        // Variables already bound in the incoming rows (conservatively: in
        // the first row; rows from the same block share their bound set).
        let mut bound: FxHashSet<usize> = FxHashSet::default();
        if !rows.is_empty() {
            for (i, b) in rows.row(0).iter().enumerate() {
                if b.is_some() {
                    bound.insert(i);
                }
            }
        }

        while !patterns.is_empty() {
            // Greedy: next pattern = lowest estimated cardinality given what
            // is bound so far.
            let mut best = 0usize;
            let mut best_score = f64::INFINITY;
            for (i, pat) in patterns.iter().enumerate() {
                let score = Self::pattern_score(store, pat, &bound);
                if score < best_score {
                    best_score = score;
                    best = i;
                }
            }
            let pat = patterns.swap_remove(best);

            // From one input row and with no variable bound before, the
            // score is the exact index count of the output (a block's
            // first leg, typically): allocate it once.
            let exact = rows.len() == 1
                && [pat.s, pat.p, pat.o]
                    .iter()
                    .all(|slot| !matches!(slot, Slot::Var(idx) if bound.contains(idx)));
            let capacity = if exact {
                best_score.max(0.0) as usize
            } else {
                rows.len()
            };
            let mut next_rows = Table::with_capacity(rows.width, capacity);
            let mut cursor = store.scan_cursor();
            for row in rows.rows() {
                Self::match_pattern(&mut cursor, &pat, row, &mut next_rows);
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

    /// Append to `out` one extension of `row` per match of `pat`.
    fn match_pattern(
        cursor: &mut ScanCursor<'_>,
        pat: &EncPattern,
        row: &[Option<TermId>],
        out: &mut Table,
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
        for triple in cursor.scan(IdPattern::new(s, p, o)) {
            let new_row = out.push(row);
            let ok = [(pat.s, triple[0]), (pat.p, triple[1]), (pat.o, triple[2])]
                .into_iter()
                .all(|(slot, value)| match slot {
                    Slot::Var(idx) => *new_row[idx].get_or_insert(value) == value,
                    _ => true,
                });
            if !ok {
                out.pop();
            }
        }
    }

    // ---- plain (non-grouped) finishing -------------------------------------

    fn finish_plain(
        &self,
        query: &Query,
        rows: &Table,
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
        for row in rows.rows() {
            let scope = EvalScope {
                dict: wdict as &dyn TermSource,
                var_index,
                bindings: row,
                aggs: None,
            };
            let (cells, keys) = project(query, &items, &scope, row, wdict);
            if let Some(keys) = keys {
                order_keys.push(keys);
            }
            out_rows.push(cells);
        }

        self.apply_modifiers(query, names, out_rows, order_keys)
    }

    // ---- grouped finishing ---------------------------------------------------

    fn finish_grouped(
        &self,
        query: &Query,
        rows: &Table,
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

        // An argument that is a bare variable is read by slot.
        let arg_slots: Vec<Option<usize>> = aggregates
            .iter()
            .map(|agg| match agg.expr() {
                Some(Expr::Var(v)) => var_index.get(v.as_str()).copied(),
                _ => None,
            })
            .collect();

        let key_slots: Vec<usize> = query
            .group_by
            .iter()
            .map(|g| var_index.get(g.as_str()).copied().unwrap_or(usize::MAX))
            .collect();

        // Group rows in first-occurrence order (for determinism). A group
        // is its representative row's index plus its accumulators; `None`
        // stands for the all-unbound row of an empty implicit group.
        let mut groups: Vec<(Option<usize>, Vec<AggAcc>)> = Vec::new();
        let mut group_of: FxHashMap<Vec<Option<TermId>>, usize> = FxHashMap::default();
        let mut key: Vec<Option<TermId>> = Vec::with_capacity(key_slots.len());
        for (i, row) in rows.rows().enumerate() {
            key.clear();
            key.extend(
                key_slots
                    .iter()
                    .map(|&slot| if slot == usize::MAX { None } else { row[slot] }),
            );
            let g = match group_of.get(key.as_slice()) {
                Some(&g) => g,
                None => {
                    group_of.insert(key.clone(), groups.len());
                    groups.push((Some(i), aggregates.iter().map(AggAcc::new).collect()));
                    groups.len() - 1
                }
            };
            let scope = EvalScope {
                dict: wdict as &dyn TermSource,
                var_index,
                bindings: row,
                aggs: None,
            };
            for ((agg, slot), acc) in aggregates.iter().zip(&arg_slots).zip(&mut groups[g].1) {
                let value = match (agg.expr(), slot) {
                    (Some(_), Some(slot)) => {
                        row[*slot].map(|id| Value::from_term(wdict.resolve(id)))
                    }
                    (Some(e), None) => eval_expr(e, &scope),
                    (None, _) => Some(Value::Boolean(true)), // COUNT(*): any row
                };
                acc.push(value, agg.expr().is_none());
            }
        }

        // Aggregation without GROUP BY over zero rows yields one group.
        if groups.is_empty() && query.group_by.is_empty() {
            groups.push((None, aggregates.iter().map(AggAcc::new).collect()));
        }

        let unbound = vec![None; rows.width];
        let names: Vec<String> = query.select.iter().map(|i| i.name().to_string()).collect();
        let mut out_rows = Vec::with_capacity(groups.len());
        let mut order_keys: Vec<Vec<Option<Value>>> = Vec::new();
        for (rep, accs) in &groups {
            let rep = rep.map_or(unbound.as_slice(), |i| rows.row(i));
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
            let (cells, keys) = project(query, &query.select, &scope, rep, wdict);
            if let Some(keys) = keys {
                order_keys.push(keys);
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
        // ORDER BY (stable sort over precomputed keys), then move each row
        // to its place.
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
            rows = indices
                .into_iter()
                .map(|i| std::mem::take(&mut rows[i]))
                .collect();
        }

        // DISTINCT preserves first occurrence.
        if query.distinct {
            let keep: Vec<bool> = {
                let mut seen: FxHashSet<&[Option<Term>]> = FxHashSet::default();
                rows.iter().map(|row| seen.insert(row.as_slice())).collect()
            };
            let mut keep = keep.into_iter();
            rows.retain(|_| keep.next() == Some(true));
        }

        // OFFSET / LIMIT.
        let offset = query.offset.unwrap_or(0).min(rows.len());
        rows.drain(..offset);
        if let Some(limit) = query.limit {
            rows.truncate(limit);
        }

        Ok(QueryResults { vars: names, rows })
    }
}

/// A block the star join takes (see the module docs): legs `?s <p> ?o_i`
/// around one subject slot, with pairwise distinct object slots other
/// than the subject's, none of them bound in the incoming row.
struct Star {
    subject: usize,
    /// Each leg's `(predicate, object slot)`, in block order.
    legs: Vec<(TermId, usize)>,
}

impl Star {
    /// The block's legs when it is a star from `row`. A pushed constant
    /// has already turned its variable into a constant, so a pinned leg
    /// declines here.
    fn detect(patterns: &[EncPattern], row: &[Option<TermId>]) -> Option<Star> {
        let Slot::Var(subject) = patterns.first()?.s else {
            return None;
        };
        let mut legs: Vec<(TermId, usize)> = Vec::with_capacity(patterns.len());
        for pat in patterns {
            let (Slot::Var(s), Slot::Const(pred), Slot::Var(object)) = (pat.s, pat.p, pat.o) else {
                return None;
            };
            if s != subject || object == subject || legs.iter().any(|&(_, o)| o == object) {
                return None;
            }
            legs.push((pred, object));
        }
        let unbound = legs.iter().all(|&(_, o)| row[o].is_none());
        (unbound && row[subject].is_none()).then_some(Star { subject, legs })
    }

    /// Every extension of `seed` by the star's matches in `store`, in
    /// the greedy join's row order.
    fn join(mut self, store: &GraphStore, seed: &[Option<TermId>]) -> Table {
        let bitmaps: Option<Vec<_>> = self
            .legs
            .iter()
            .map(|&(p, _)| store.pred_subjects(p))
            .collect();
        let Some(bitmaps) = bitmaps else {
            return Table::with_capacity(seed.len(), 0); // a leg matches nothing
        };
        let candidates = bitmaps[1..]
            .iter()
            .fold(bitmaps[0].clone(), |c, b| c.and(b));

        // The greedy join's leg order: fewest triples first; each pick
        // is swap-removed from the pending legs.
        let count =
            |&(pred, _): &(TermId, usize)| store.count(IdPattern::new(None, Some(pred), None));
        let mut legs = Vec::with_capacity(self.legs.len());
        while let Some(next) = (0..self.legs.len()).min_by_key(|&i| count(&self.legs[i])) {
            legs.push(self.legs.swap_remove(next));
        }
        let k = legs.len();

        // One forward pass over the candidates' SPO triples collects
        // every leg's objects per subject, in greedy leg order; each
        // (first leg's object, subject) pair is one row to extend.
        let mut subjects: Vec<TermId> = Vec::new();
        let mut bounds: Vec<usize> = vec![0];
        let mut objects: Vec<TermId> = Vec::new();
        let mut firsts: Vec<(TermId, usize)> = Vec::new();
        let mut triples: Vec<(TermId, TermId)> = Vec::new();
        let mut rows = 0usize;
        let mut cursor = store.scan_cursor();
        for s in candidates.iter().map(TermId) {
            triples.clear();
            let read = cursor.scan(IdPattern::new(Some(s), None, None));
            triples.extend(read.map(|[_, p, o]| (p, o)));
            let mark = (objects.len(), bounds.len());
            for &(pred, _) in &legs {
                let matches = triples.iter().filter(|(p, _)| *p == pred);
                objects.extend(matches.map(|&(_, o)| o));
                bounds.push(objects.len());
            }
            let lists = &bounds[mark.1 - 1..];
            if lists.windows(2).any(|w| w[0] == w[1]) {
                objects.truncate(mark.0);
                bounds.truncate(mark.1);
                continue;
            }
            rows += lists.windows(2).map(|w| w[1] - w[0]).product::<usize>();
            let slot = subjects.len();
            subjects.push(s);
            firsts.extend(objects[lists[0]..lists[1]].iter().map(|&o| (o, slot)));
        }
        // The greedy join scans the first leg in (object, subject) order;
        // slots ascend with subject ids.
        firsts.sort_unstable();

        let mut out = Table::with_capacity(seed.len(), rows);
        let mut at = vec![0usize; k];
        for (o, slot) in firsts {
            let lists = &bounds[slot * k..=(slot + 1) * k];
            // Nested loops over the other legs, the last one innermost.
            at.fill(0);
            'rows: loop {
                let row = out.push(seed);
                row[self.subject] = Some(subjects[slot]);
                row[legs[0].1] = Some(o);
                for j in 1..k {
                    row[legs[j].1] = Some(objects[lists[j] + at[j]]);
                }
                for j in (1..k).rev() {
                    at[j] += 1;
                    if lists[j] + at[j] < lists[j + 1] {
                        continue 'rows;
                    }
                    at[j] = 0;
                }
                break;
            }
        }
        out
    }
}

/// Project one row (or one group's representative) onto the SELECT items,
/// plus its ORDER BY keys when the query orders. An ORDER BY on a SELECT
/// alias reuses the projected value.
fn project(
    query: &Query,
    items: &[SelectItem],
    scope: &EvalScope<'_>,
    row: &[Option<TermId>],
    wdict: &WorkingDict<'_>,
) -> (Vec<Option<Term>>, Option<Vec<Option<Value>>>) {
    let var_index = scope.var_index;
    let mut cells = Vec::with_capacity(items.len());
    let mut alias_values: FxHashMap<&str, Option<Value>> = FxHashMap::default();
    for item in items {
        let cell = match item {
            SelectItem::Var(name) => var_index
                .get(name.as_str())
                .and_then(|&idx| row[idx])
                .map(|id| wdict.resolve(id).clone()),
            SelectItem::Expr { expr, alias } => {
                let v = eval_expr(expr, scope);
                let cell = v.as_ref().map(Value::to_term);
                if !query.order_by.is_empty() {
                    alias_values.insert(alias.as_str(), v);
                }
                cell
            }
        };
        cells.push(cell);
    }
    if query.order_by.is_empty() {
        return (cells, None);
    }
    let keys = query
        .order_by
        .iter()
        .map(|cond| {
            if let Expr::Var(name) = &cond.expr {
                if let Some(v) = alias_values.get(name.as_str()) {
                    return v.clone();
                }
            }
            eval_expr(&cond.expr, scope)
        })
        .collect();
    (cells, Some(keys))
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
