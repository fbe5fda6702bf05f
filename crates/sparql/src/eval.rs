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
//! The greedy join's rows come in its first leg's index order, so a
//! later leg's probes ascend in runs (a `?s <p> ?o` first leg yields
//! subjects ascending within each object). Any other prefix — a repeat,
//! or one going back — falls back to the binary searches of the whole
//! slices a plain `GraphStore::scan` does. A probe yields exactly the
//! triples a plain scan yields, in the same order, so answers and row
//! order do not depend on the cursor. The star join (below) probes
//! nothing: it reads each leg with one scan of its predicate.
//!
//! # Star blocks
//!
//! A `Triples` block evaluated from one incoming row, on the default
//! graph or under `GRAPH <g>`, is a *star* when its legs are `?s <p> ?o_i`
//! around one subject variable, with constant predicates and pairwise
//! distinct `?o_i` other than `?s`, none of them bound in that row or
//! pinned by a pushed constant. The star join answers it column by
//! column. Its rows and their order are the greedy join's, which takes
//! legs by ascending triple count (ties where its `swap_remove` leaves
//! them), scans the first in (object, subject) order and nests the other
//! legs' objects in ascending order, the last leg innermost.
//!
//! - **Candidates.** The subjects every leg has: the AND of the legs'
//!   `pred_subjects` bitmaps. A subject's position among them comes from
//!   the bitmap's [`Ranks`]: a search of its few containers, then one
//!   word read and a popcount, or a binary search of a sparse
//!   container. No hash, and nothing sized by the candidates' id span.
//! - **Later legs.** Each is read into a column by candidate position
//!   with one POS scan of its predicate, whose (object, subject) order
//!   keeps each subject's objects ascending: one value per candidate for
//!   a functional leg (as many triples as subjects, by the store's exact
//!   counts), offsets plus objects otherwise.
//! - **First leg.** One POS scan of its predicate yields the rows' order
//!   directly; each match of a candidate extends the seed by the
//!   columns' objects. A one-leg star is that scan alone.
//!
//! The join reads only the block's predicates, so rewritten view queries
//! on a view's named graph take it too. View observation labels and ids
//! follow its row order; `sofos-materialize`'s `star_cuboid_equivalence`
//! pins it to the greedy join on both kinds of graph.
//!
//! # One flat binding table
//!
//! An operator's output is one `Table`: a row-major
//! `Vec<Option<TermId>>` whose stride is the query's variable count, so
//! slot `j` of row `i` is cell `i * width + j`. Extending a row by a
//! match appends a copy of it to the next table and writes the new slots
//! in place; `FILTER` and `BIND` compact the table in place. The join,
//! `FILTER`, `BIND` and `VALUES` allocate nothing per row (`OPTIONAL` and
//! `UNION` still run their inner group once per row).
//!
//! # Grouping and projection on ids
//!
//! Grouping and projection allocate no per-group or per-row structure;
//! what still scales with the input is the output rows and the values
//! that expressions, and MIN, MAX or DISTINCT over text, produce.
//!
//! - **Group arenas.** Groups live in flat arenas numbered in
//!   first-occurrence order: one for keys (stride = GROUP BY variables),
//!   one for accumulators (stride = aggregates) and one for each group's
//!   representative row index. A power-of-two open-addressing table maps
//!   a key to its group number and keeps the key's hash beside it, so
//!   growing the table never re-hashes a key. It is sized from the input
//!   row count; the implicit group (no GROUP BY) has none. A `DISTINCT`
//!   aggregate keeps one set of (group, value) pairs, not one per group.
//! - **One decode per distinct id.** An aggregate whose argument is a
//!   bare variable reads its slot, and decodes each distinct id into a
//!   [`Value`] once per query through a memo; a plain `COUNT` decodes
//!   nothing.
//! - **A positional plan.** The SELECT list compiles once per query into
//!   cells: a variable's slot, a bare aggregate's index, or an expression
//!   to evaluate. ORDER BY keys compile to a SELECT alias's cell (its
//!   computed value is reused), a variable's slot, or an expression, and
//!   land in one flat arena. Both finishers project through this plan.
//!   Expressions over a group resolve an aggregate by the address of its
//!   node, which the plan matched to its index once.
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
use crate::value::{DistinctKey, Value};
use sofos_rdf::hash::FxHasher;
use sofos_rdf::{Dictionary, FxHashMap, FxHashSet, Numeric, Term, TermId};
use sofos_store::{Dataset, GraphStore, IdPattern, Ranks, ScanCursor};
use std::cmp::Ordering;
use std::hash::Hasher;

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
        // slots too, so lookups are well-defined; so do projected and
        // grouped variables no pattern binds.
        let mut extra_vars: Vec<String> = Vec::new();
        for item in &query.select {
            match item {
                SelectItem::Var(v) => extra_vars.push(v.clone()),
                SelectItem::Expr { expr, .. } => extra_vars.extend(expr.variables()),
            }
        }
        extra_vars.extend(query.group_by.iter().cloned());
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
        let plan = Plan::compile(query, &var_index, &pattern_vars)?;

        // --- WHERE clause ----------------------------------------------------
        let mut wdict = WorkingDict::new(self.dataset.dict());
        let rows = self.eval_group(
            Table::from_row(&vec![None; nvars]),
            &query.pattern,
            &var_index,
            &mut wdict,
        )?;

        if plan.grouped {
            finish_grouped(query, plan, &rows, &var_index, &wdict)
        } else {
            finish_plain(query, plan, &rows, &var_index, &wdict)
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
                    let star = if self.star_join && rows.len() == 1 {
                        Star::detect(&encoded, rows.row(0))
                    } else {
                        None
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
        // The greedy join's leg order: fewest triples first; each pick
        // is swap-removed from the pending legs.
        let count = |pred: TermId| store.count(IdPattern::new(None, Some(pred), None));
        let mut legs = Vec::with_capacity(self.legs.len());
        while let Some(next) = (0..self.legs.len()).min_by_key(|&i| count(self.legs[i].0)) {
            legs.push(self.legs.swap_remove(next));
        }
        let (first, first_slot) = legs[0];
        // The greedy join's rows: the first leg's matches in (object,
        // subject) order, which is the POS index's order.
        let firsts = store.scan(IdPattern::new(None, Some(first), None));
        if legs.len() == 1 {
            let mut out = Table::with_capacity(seed.len(), count(first));
            for [s, _, o] in firsts {
                let row = out.push(seed);
                row[self.subject] = Some(s);
                row[first_slot] = Some(o);
            }
            return out;
        }

        let bitmaps: Option<Vec<_>> = legs.iter().map(|&(p, _)| store.pred_subjects(p)).collect();
        let Some(bitmaps) = bitmaps else {
            return Table::with_capacity(seed.len(), 0); // a leg matches nothing
        };
        let candidates = bitmaps[1..]
            .iter()
            .fold(bitmaps[0].clone(), |c, b| c.and(b));
        if candidates.is_empty() {
            return Table::with_capacity(seed.len(), 0);
        }
        let n = candidates.cardinality() as usize;
        let ranks = candidates.ranks();
        let columns: Vec<Column> = legs[1..]
            .iter()
            .map(|&leg| Column::read(store, leg, n, &ranks))
            .collect();

        // Each first-leg match of a candidate extends the seed once per
        // combination of the multi-valued legs' objects, the last leg
        // innermost; a functional leg adds its one object to every row.
        let (functional, multi): (Vec<Column>, Vec<Column>) =
            columns.into_iter().partition(|c| c.offsets.is_empty());
        // Every candidate has a first-leg object, so it yields at least
        // the product of its multi-valued legs' counts: exactly that when
        // the first leg is functional too.
        let rows = (0..n)
            .map(|i| {
                multi
                    .iter()
                    .map(|c| c.offsets[i + 1] - c.offsets[i])
                    .product::<usize>()
            })
            .sum();
        let k = multi.len();
        let (mut lo, mut hi, mut at) = (vec![0; k], vec![0; k], vec![0; k]);
        let mut out = Table::with_capacity(seed.len(), rows);
        'matches: for [s, _, o] in firsts {
            let Some(i) = ranks.rank(s.0) else {
                continue;
            };
            for (j, column) in multi.iter().enumerate() {
                (lo[j], hi[j]) = (column.offsets[i], column.offsets[i + 1]);
                if lo[j] == hi[j] {
                    continue 'matches;
                }
                at[j] = lo[j];
            }
            'rows: loop {
                let row = out.push(seed);
                row[self.subject] = Some(s);
                row[first_slot] = Some(o);
                for column in &functional {
                    row[column.slot] = Some(column.objects[i]);
                }
                for (column, &at) in multi.iter().zip(&at) {
                    row[column.slot] = Some(column.objects[at]);
                }
                for j in (0..k).rev() {
                    at[j] += 1;
                    if at[j] < hi[j] {
                        continue 'rows;
                    }
                    at[j] = lo[j];
                }
                break;
            }
        }
        out
    }
}

/// One later leg's objects by candidate position, each candidate's in
/// ascending order as an `(s, p)` scan yields them.
struct Column {
    /// The leg's object slot.
    slot: usize,
    /// Candidate `i`'s objects are `objects[offsets[i]..offsets[i + 1]]`;
    /// empty for a functional leg, whose candidate `i` has `objects[i]`.
    offsets: Vec<usize>,
    objects: Vec<TermId>,
}

impl Column {
    /// Read `(pred, slot)`'s objects for the `n` candidates `ranks`
    /// numbers, with one POS scan of the predicate.
    fn read(
        store: &GraphStore,
        (pred, slot): (TermId, usize),
        n: usize,
        ranks: &Ranks<'_>,
    ) -> Column {
        let triples = store.count(IdPattern::new(None, Some(pred), None));
        let scan = store.scan(IdPattern::new(None, Some(pred), None));
        let matches = scan.filter_map(|[s, _, o]| Some((ranks.rank(s.0)?, o)));
        // Every subject of a functional leg has exactly one object.
        let functional = store
            .pred_subjects(pred)
            .is_some_and(|subjects| subjects.cardinality() == triples as u64);
        if functional {
            let mut objects = vec![TermId(0); n];
            for (i, o) in matches {
                objects[i] = o;
            }
            return Column {
                slot,
                offsets: Vec::new(),
                objects,
            };
        }
        // POS order gives each subject's objects in ascending order; a
        // counting sort by position keeps it.
        let pairs: Vec<(usize, TermId)> = matches.collect();
        let mut offsets = vec![0; n + 1];
        for &(i, _) in &pairs {
            offsets[i + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..n].to_vec();
        let mut objects = vec![TermId(0); pairs.len()];
        for (i, o) in pairs {
            objects[next[i]] = o;
            next[i] += 1;
        }
        Column {
            slot,
            offsets,
            objects,
        }
    }
}

// ---- the post-join half: one positional plan ---------------------------------

/// The post-join half of a query, compiled once: the SELECT list as
/// positional cells, the ORDER BY keys, and for a grouped query its group
/// key slots and aggregates.
struct Plan<'q> {
    names: Vec<String>,
    cells: Vec<Cell<'q>>,
    keys: Vec<Key<'q>>,
    grouped: bool,
    group_slots: Vec<usize>,
    /// The distinct aggregates of SELECT, HAVING and ORDER BY.
    aggregates: Vec<AggSpec<'q>>,
    /// Every aggregate node of those expressions with its index in
    /// `aggregates`: [`eval_expr`] resolves an aggregate by its node.
    agg_nodes: Vec<(&'q Aggregate, usize)>,
}

/// One output column.
enum Cell<'q> {
    /// A variable: its binding slot.
    Slot(usize),
    /// A bare aggregate: its index in [`Plan::aggregates`].
    Agg(usize),
    /// Anything else, evaluated per row or group.
    Expr(&'q Expr),
}

/// One ORDER BY condition's key.
enum Key<'q> {
    /// A SELECT alias: the value its cell computed.
    Cell(usize),
    /// A variable that is no alias: its binding slot.
    Slot(usize),
    /// Any other expression.
    Expr(&'q Expr),
}

/// An aggregate and how its argument is read from a row.
struct AggSpec<'q> {
    agg: &'q Aggregate,
    arg: Arg<'q>,
    distinct: bool,
    /// Whether a bound argument is decoded: a plain `COUNT` only counts it.
    decodes: bool,
}

enum Arg<'q> {
    /// `COUNT(*)`: every row counts.
    Row,
    /// A bare variable, read by slot and decoded once per distinct id.
    Slot(usize),
    /// Any other expression, evaluated per row.
    Expr(&'q Expr),
}

impl<'q> Plan<'q> {
    fn compile(
        query: &'q Query,
        var_index: &FxHashMap<String, usize>,
        pattern_vars: &[String],
    ) -> Result<Plan<'q>> {
        let select_has_agg = query.select.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.has_aggregate(),
            SelectItem::Var(_) => false,
        });
        let grouped = !query.group_by.is_empty()
            || select_has_agg
            || query.having.as_ref().is_some_and(Expr::has_aggregate);
        let mut plan = Plan {
            names: Vec::new(),
            cells: Vec::new(),
            keys: Vec::new(),
            grouped,
            group_slots: query.group_by.iter().map(|g| var_index[g]).collect(),
            aggregates: Vec::new(),
            agg_nodes: Vec::new(),
        };
        if grouped {
            if query.wildcard {
                return Err(SparqlError::Plan(
                    "SELECT * cannot be combined with aggregation".into(),
                ));
            }
            for item in &query.select {
                if let SelectItem::Var(v) = item {
                    if !query.group_by.contains(v) {
                        return Err(SparqlError::Plan(format!(
                            "variable ?{v} is projected but not in GROUP BY"
                        )));
                    }
                }
            }
            let selected = query.select.iter().filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                SelectItem::Var(_) => None,
            });
            let ordered = query.order_by.iter().map(|cond| &cond.expr);
            for expr in selected.chain(query.having.as_ref()).chain(ordered) {
                plan.collect_aggregates(expr, var_index);
            }
        }

        if query.wildcard {
            plan.names = pattern_vars.to_vec();
            plan.cells = pattern_vars
                .iter()
                .map(|v| Cell::Slot(var_index[v]))
                .collect();
        } else {
            for item in &query.select {
                plan.names.push(item.name().to_string());
                let cell = match item {
                    SelectItem::Var(v) => Cell::Slot(var_index[v]),
                    SelectItem::Expr {
                        expr: Expr::Aggregate(agg),
                        ..
                    } => Cell::Agg(plan.agg_index(agg)),
                    SelectItem::Expr { expr, .. } => Cell::Expr(expr),
                };
                plan.cells.push(cell);
            }
        }

        plan.keys = query
            .order_by
            .iter()
            .map(|cond| {
                let Expr::Var(name) = &cond.expr else {
                    return Key::Expr(&cond.expr);
                };
                // The last item with this alias, as a later alias shadows.
                let alias = query.select.iter().rposition(
                    |item| matches!(item, SelectItem::Expr { alias, .. } if alias == name),
                );
                match alias {
                    Some(i) => Key::Cell(i),
                    None => Key::Slot(var_index[name]),
                }
            })
            .collect();
        Ok(plan)
    }

    /// Record every aggregate node of `expr`, matching equal aggregates to
    /// one entry of [`Plan::aggregates`].
    fn collect_aggregates(&mut self, expr: &'q Expr, var_index: &FxHashMap<String, usize>) {
        match expr {
            Expr::Aggregate(agg) => {
                let index = match self.aggregates.iter().position(|a| a.agg == agg) {
                    Some(index) => index,
                    None => {
                        let arg = match agg.expr() {
                            None => Arg::Row,
                            Some(Expr::Var(v)) => Arg::Slot(var_index[v]),
                            Some(e) => Arg::Expr(e),
                        };
                        let distinct = matches!(
                            agg,
                            Aggregate::Count { distinct: true, .. }
                                | Aggregate::Sum { distinct: true, .. }
                                | Aggregate::Avg { distinct: true, .. }
                        );
                        let decodes = distinct || !matches!(agg, Aggregate::Count { .. });
                        self.aggregates.push(AggSpec {
                            agg,
                            arg,
                            distinct,
                            decodes,
                        });
                        self.aggregates.len() - 1
                    }
                };
                self.agg_nodes.push((agg, index));
            }
            Expr::Var(_) | Expr::Const(_) => {}
            Expr::Not(e) | Expr::Neg(e) => self.collect_aggregates(e, var_index),
            Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(_, a, b) | Expr::Arith(_, a, b) => {
                self.collect_aggregates(a, var_index);
                self.collect_aggregates(b, var_index);
            }
            Expr::In(e, list) => {
                self.collect_aggregates(e, var_index);
                for item in list {
                    self.collect_aggregates(item, var_index);
                }
            }
            Expr::Call(_, args) => {
                for a in args {
                    self.collect_aggregates(a, var_index);
                }
            }
        }
    }

    /// The index of an aggregate node recorded by `collect_aggregates`.
    fn agg_index(&self, agg: &Aggregate) -> usize {
        self.agg_nodes
            .iter()
            .find(|(node, _)| std::ptr::eq(*node, agg))
            .map(|&(_, index)| index)
            .expect("every SELECT aggregate was collected")
    }

    /// One output row from `scope` (a row, or a group's representative
    /// with its aggregate `values`); its ORDER BY keys go to `order_keys`.
    /// `computed` is scratch space for the alias values the keys reuse.
    fn project(
        &self,
        scope: &EvalScope<'_>,
        values: &[Option<Value>],
        wdict: &WorkingDict<'_>,
        computed: &mut Vec<Option<Value>>,
        order_keys: &mut Vec<Option<Value>>,
    ) -> Vec<Option<Term>> {
        let ordered = !self.keys.is_empty();
        computed.clear();
        let mut cells = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let value = match cell {
                Cell::Slot(slot) => {
                    cells.push(scope.bindings[*slot].map(|id| wdict.resolve(id).clone()));
                    None
                }
                Cell::Agg(index) => {
                    let value = &values[*index];
                    cells.push(value.as_ref().map(Value::to_term));
                    if ordered {
                        value.clone()
                    } else {
                        None
                    }
                }
                Cell::Expr(expr) => {
                    let value = eval_expr(expr, scope);
                    cells.push(value.as_ref().map(Value::to_term));
                    value
                }
            };
            if ordered {
                computed.push(value);
            }
        }
        for key in &self.keys {
            order_keys.push(match key {
                Key::Cell(i) => computed[*i].clone(),
                Key::Slot(slot) => {
                    scope.bindings[*slot].map(|id| Value::from_term(wdict.resolve(id)))
                }
                Key::Expr(expr) => eval_expr(expr, scope),
            });
        }
        cells
    }
}

// ---- finishers -------------------------------------------------------------------

fn finish_plain(
    query: &Query,
    plan: Plan<'_>,
    rows: &Table,
    var_index: &FxHashMap<String, usize>,
    wdict: &WorkingDict<'_>,
) -> Result<QueryResults> {
    let mut out_rows = Vec::with_capacity(rows.len());
    let mut order_keys = Vec::with_capacity(rows.len() * plan.keys.len());
    let mut computed = Vec::new();
    for row in rows.rows() {
        let scope = EvalScope {
            dict: wdict as &dyn TermSource,
            var_index,
            bindings: row,
            aggs: None,
        };
        out_rows.push(plan.project(&scope, &[], wdict, &mut computed, &mut order_keys));
    }
    apply_modifiers(query, plan.names, out_rows, order_keys)
}

fn finish_grouped(
    query: &Query,
    plan: Plan<'_>,
    rows: &Table,
    var_index: &FxHashMap<String, usize>,
    wdict: &WorkingDict<'_>,
) -> Result<QueryResults> {
    let naggs = plan.aggregates.len();
    let mut groups = Groups::new(plan.group_slots.len(), rows.len());
    let mut accs: Vec<AggAcc> = Vec::new();
    // Per DISTINCT aggregate: the (group, value) pairs seen.
    let mut seen: Vec<FxHashSet<(usize, DistinctKey)>> = plan
        .aggregates
        .iter()
        .map(|_| FxHashSet::default())
        .collect();
    // Each bare-variable argument's id, decoded once.
    let mut decoded: FxHashMap<TermId, Value> = FxHashMap::default();
    for (i, row) in rows.rows().enumerate() {
        let (g, new) = groups.group_of(&plan.group_slots, row, i);
        if new {
            accs.extend(plan.aggregates.iter().map(|spec| AggAcc::new(spec.agg)));
        }
        let group_accs = &mut accs[g * naggs..(g + 1) * naggs];
        for ((spec, acc), seen) in plan.aggregates.iter().zip(group_accs).zip(&mut seen) {
            let computed;
            let value = match spec.arg {
                Arg::Row => {
                    acc.count();
                    continue;
                }
                Arg::Slot(slot) => {
                    let Some(id) = row[slot] else { continue };
                    if !spec.decodes {
                        acc.count();
                        continue;
                    }
                    &*decoded
                        .entry(id)
                        .or_insert_with(|| Value::from_term(wdict.resolve(id)))
                }
                Arg::Expr(expr) => {
                    let scope = EvalScope {
                        dict: wdict as &dyn TermSource,
                        var_index,
                        bindings: row,
                        aggs: None,
                    };
                    let Some(value) = eval_expr(expr, &scope) else {
                        continue;
                    };
                    computed = value;
                    &computed
                }
            };
            if spec.distinct && !seen.insert((g, value.distinct_key())) {
                continue;
            }
            acc.push(value);
        }
    }

    // Aggregation without GROUP BY over zero rows yields one group, whose
    // representative is the all-unbound row.
    if groups.reps.is_empty() && plan.group_slots.is_empty() {
        groups.reps.push(NO_ROW);
        accs.extend(plan.aggregates.iter().map(|spec| AggAcc::new(spec.agg)));
    }

    let unbound = vec![None; rows.width];
    let mut out_rows = Vec::with_capacity(groups.reps.len());
    let mut order_keys = Vec::new();
    let mut values: Vec<Option<Value>> = Vec::with_capacity(naggs);
    let mut computed = Vec::new();
    for (g, &rep) in groups.reps.iter().enumerate() {
        values.clear();
        values.extend(
            accs[g * naggs..(g + 1) * naggs]
                .iter_mut()
                .map(AggAcc::finish),
        );
        let ctx = AggContext {
            nodes: &plan.agg_nodes,
            values: &values,
        };
        let scope = EvalScope {
            dict: wdict as &dyn TermSource,
            var_index,
            bindings: if rep == NO_ROW {
                &unbound
            } else {
                rows.row(rep)
            },
            aggs: Some(&ctx),
        };
        if let Some(having) = &query.having {
            if !eval_expr(having, &scope)
                .and_then(|v| v.ebv())
                .unwrap_or(false)
            {
                continue;
            }
        }
        out_rows.push(plan.project(&scope, &values, wdict, &mut computed, &mut order_keys));
    }
    apply_modifiers(query, plan.names, out_rows, order_keys)
}

// ---- shared modifiers: DISTINCT, ORDER BY, LIMIT/OFFSET -----------------------

/// `order_keys` holds each row's ORDER BY keys, one stride per row.
fn apply_modifiers(
    query: &Query,
    names: Vec<String>,
    mut rows: Vec<Vec<Option<Term>>>,
    order_keys: Vec<Option<Value>>,
) -> Result<QueryResults> {
    // ORDER BY (stable sort over precomputed keys), then move each row
    // to its place.
    let stride = query.order_by.len();
    if stride > 0 && !rows.is_empty() {
        debug_assert_eq!(rows.len() * stride, order_keys.len());
        let keys = |i: usize| &order_keys[i * stride..(i + 1) * stride];
        let mut indices: Vec<usize> = (0..rows.len()).collect();
        indices.sort_by(|&a, &b| {
            for (cond, (ka, kb)) in query.order_by.iter().zip(keys(a).iter().zip(keys(b))) {
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

// ---- grouping ----------------------------------------------------------------------

/// The representative of the implicit group over no rows.
const NO_ROW: usize = usize::MAX;

/// Largest group table sized up front; more groups grow it.
const MAX_INITIAL_TABLE: usize = 1 << 16;

/// Groups in first-occurrence order, in flat arenas: group `g`'s key is
/// `keys[g * width..(g + 1) * width]` and its representative row is
/// `reps[g]`.
struct Groups {
    width: usize,
    keys: Vec<Option<TermId>>,
    reps: Vec<usize>,
    /// A power-of-two open-addressing table, at most half full: an entry
    /// is a key's 32-bit hash (high half) and its group number plus one
    /// (low half), 0 when empty. Growing re-places entries by their stored
    /// hash, never re-hashing a key. Empty for the implicit group.
    table: Vec<u64>,
}

impl Groups {
    /// Groups keyed by `width` slots over `rows` input rows.
    fn new(width: usize, rows: usize) -> Groups {
        let table = if width == 0 {
            Vec::new()
        } else {
            // One group per row at most.
            vec![0; (2 * rows).next_power_of_two().clamp(16, MAX_INITIAL_TABLE)]
        };
        Groups {
            width,
            keys: Vec::new(),
            reps: Vec::new(),
            table,
        }
    }

    /// The group of row `i`, whose key is `slots` of `row`, and whether
    /// this row opened it.
    fn group_of(&mut self, slots: &[usize], row: &[Option<TermId>], i: usize) -> (usize, bool) {
        if self.width == 0 {
            let new = self.reps.is_empty();
            if new {
                self.reps.push(i);
            }
            return (0, new);
        }
        let mut hasher = FxHasher::default();
        for &slot in slots {
            hasher.write_u32(row[slot].map_or(u32::MAX, |id| id.0));
        }
        let hash = (hasher.finish() >> 32) as u32;
        let mask = self.table.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            let entry = self.table[pos];
            if entry == 0 {
                break;
            }
            if (entry >> 32) as u32 == hash {
                let g = (entry as u32 - 1) as usize;
                let key = &self.keys[g * self.width..(g + 1) * self.width];
                if key.iter().zip(slots).all(|(&k, &slot)| k == row[slot]) {
                    return (g, false);
                }
            }
            pos = (pos + 1) & mask;
        }
        let g = self.reps.len();
        let number = u32::try_from(g + 1).expect("group count overflow");
        self.table[pos] = u64::from(hash) << 32 | u64::from(number);
        self.keys.extend(slots.iter().map(|&slot| row[slot]));
        self.reps.push(i);
        if 2 * self.reps.len() > self.table.len() {
            self.grow();
        }
        (g, true)
    }

    fn grow(&mut self) {
        let mut table = vec![0u64; 2 * self.table.len()];
        let mask = table.len() - 1;
        for &entry in self.table.iter().filter(|&&e| e != 0) {
            let mut pos = (entry >> 32) as usize & mask;
            while table[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            table[pos] = entry;
        }
        self.table = table;
    }
}

/// One aggregate's running state in one group. What the aggregate is
/// (`DISTINCT`, `COUNT(*)`) lives in its [`AggSpec`], not here.
///
/// Error/skip policy (documented subset semantics): unbound/error inputs are
/// skipped by COUNT/MIN/MAX; a non-numeric input poisons SUM/AVG (result is
/// unbound). SUM/AVG of an empty group is 0, per the SPARQL definition;
/// MIN/MAX of an empty group is unbound.
enum AggAcc {
    Count(i64),
    /// The running sum; `None` once poisoned.
    Sum(Option<Numeric>),
    Avg {
        sum: Option<Numeric>,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggAcc {
    fn new(agg: &Aggregate) -> AggAcc {
        match agg {
            Aggregate::Count { .. } => AggAcc::Count(0),
            Aggregate::Sum { .. } => AggAcc::Sum(Some(Numeric::Integer(0))),
            Aggregate::Avg { .. } => AggAcc::Avg {
                sum: Some(Numeric::Integer(0)),
                n: 0,
            },
            Aggregate::Min { .. } => AggAcc::Min(None),
            Aggregate::Max { .. } => AggAcc::Max(None),
        }
    }

    /// Count one row (`COUNT`'s push).
    fn count(&mut self) {
        if let AggAcc::Count(n) = self {
            *n += 1;
        }
    }

    fn push(&mut self, value: &Value) {
        match self {
            AggAcc::Count(n) => *n += 1,
            AggAcc::Sum(sum) => {
                if let Some(acc) = sum {
                    match value.as_numeric() {
                        Some(x) => *acc = Numeric::add(*acc, x),
                        None => *sum = None,
                    }
                }
            }
            AggAcc::Avg { sum, n } => {
                if let Some(acc) = sum {
                    match value.as_numeric() {
                        Some(x) => {
                            *acc = Numeric::add(*acc, x);
                            *n += 1;
                        }
                        None => *sum = None,
                    }
                }
            }
            AggAcc::Min(best) => {
                if best
                    .as_ref()
                    .is_none_or(|b| value.total_cmp(b) == Ordering::Less)
                {
                    *best = Some(value.clone());
                }
            }
            AggAcc::Max(best) => {
                if best
                    .as_ref()
                    .is_none_or(|b| value.total_cmp(b) == Ordering::Greater)
                {
                    *best = Some(value.clone());
                }
            }
        }
    }

    /// The group's value; takes MIN/MAX's best out.
    fn finish(&mut self) -> Option<Value> {
        match self {
            AggAcc::Count(n) => Some(Value::Numeric(Numeric::Integer(*n))),
            AggAcc::Sum(sum) => sum.map(Value::Numeric),
            AggAcc::Avg { sum, n } => match (*sum, *n) {
                (None, _) => None,
                (Some(_), 0) => Some(Value::Numeric(Numeric::Integer(0))),
                (Some(sum), n) => Numeric::div(sum, Numeric::Integer(n)).map(Value::Numeric),
            },
            AggAcc::Min(best) | AggAcc::Max(best) => best.take(),
        }
    }
}
