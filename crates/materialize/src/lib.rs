//! # sofos-materialize — view materialization into the expanded graph `G+`
//!
//! Implements the paper's §3.1 "View materialization": for each selected
//! view SOFOS "generat\[es\] a new graph … contain\[ing\] a set of extra blank
//! nodes to which is attached the value of the aggregation of different
//! bindings for the subset of the template variables in X̄" — a
//! generalization of the MARVEL encoding.
//!
//! Concretely, view `V(X̄′)` of facet `F` becomes a named graph
//! `sofos:view/<facet>/<mask>` where each result row is one observation:
//!
//! ```text
//! _:obs  rdf:type     sofos:Observation .
//! _:obs  sofos:dim3   <value of dimension 3> .      # one per dim in X̄′
//! _:obs  sofos:sum    "123"^^xsd:integer .          # agg components
//! _:obs  sofos:count  "4"^^xsd:integer .            # (AVG ⇒ SUM+COUNT)
//! ```
//!
//! The same encoding is sized *virtually* ([`view_stats`]) so the cost
//! models can price a candidate view — triples, nodes, rows, bytes —
//! without building its graph or mutating the dataset.
//!
//! Any set of views costs one evaluation ([`evaluate_views`]): the
//! finest view the set needs is evaluated once and every coarser one is
//! rolled up from it, so sizing the whole `2^d` lattice and materializing
//! the selected views each touch the data once. That one evaluation
//! ([`evaluate_view`]) is the view query run by [`Evaluator`], the same
//! join that serves queries: a star facet's block takes the evaluator's
//! star join (one predicate scan per leg, read into columns by candidate
//! subject), any other block its greedy join. Queries rewritten onto a
//! view's named graph take the same star join.
//!
//! One function writes view graphs: [`load_view`]. It encodes a view's
//! rows straight to id-encoded triples and bulk-loads them into the
//! view's named graph, *replacing* any graph of that name, so loading a
//! view twice leaves what loading it once leaves. Offline
//! materialization ([`materialize_views`]), recovery, view swaps and the
//! maintainer's full refresh all write through it.

use sofos_cube::{component_alias, component_predicate, Facet, MaterialComponent, ViewMask};
use sofos_rdf::vocab::{rdf, sofos};
use sofos_rdf::{FxHashMap, FxHashSet, Numeric, Term, TermId};
use sofos_sparql::{Evaluator, QueryResults, SparqlError, Value};
use sofos_store::{Dataset, EncodedTriple};
use std::cmp::Ordering;

/// Sizing and identity of one (possibly virtual) materialized view.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewStats {
    /// Facet the view belongs to.
    pub facet_id: String,
    /// The view's dimension mask.
    pub mask: ViewMask,
    /// Result rows of the view query — the paper's cost model #3,
    /// "number of aggregated values" `|V_i(G)|`.
    pub rows: usize,
    /// Triples in the encoded view graph — cost model #2, `|G_{V_i}|`.
    pub triples: usize,
    /// Distinct nodes (subjects ∪ objects) in the encoded view graph —
    /// cost model #4, `|I_i ∪ B_i ∪ L_i|`.
    pub nodes: usize,
    /// Estimated bytes of the encoded triples (term text heap footprint).
    pub bytes: usize,
}

/// A view that has been written into the dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterializedView {
    /// Sizing statistics at materialization time.
    pub stats: ViewStats,
    /// IRI of the named graph holding the view.
    pub graph_iri: String,
}

/// Evaluate `view_query(facet, mask)` with the [`Evaluator`].
pub fn evaluate_view(
    dataset: &Dataset,
    facet: &Facet,
    mask: ViewMask,
) -> Result<QueryResults, SparqlError> {
    Evaluator::new(dataset).evaluate(&sofos_cube::view_query(facet, mask))
}

/// Evaluate the view queries of `masks` with one pass over the data.
///
/// The finest view the request needs, the union of `masks`, is evaluated
/// once ([`evaluate_view`]). Every other mask is then derived, finest
/// level first, from its smallest already-derived superset by
/// re-aggregating the distributive components: SUM+SUM, COUNT+COUNT,
/// MIN/MAX by [`Value::total_cmp`], and an unbound (poisoned) SUM stays
/// unbound. New groups keep the first-occurrence order of the parent's
/// rows, which is the order in which the evaluator first meets them.
///
/// Entry `i` therefore equals `evaluate_view(dataset, facet, masks[i])`:
/// same columns, rows and row order. The exceptions are re-association
/// effects: an `xsd:double` SUM may differ in its last bits, an integer
/// SUM that overflows into a double may differ, and MIN/MAX over values
/// that compare equal but are spelled differently (`1` and `1.0`) may
/// keep a different spelling.
pub fn evaluate_views(
    dataset: &Dataset,
    facet: &Facet,
    masks: &[ViewMask],
) -> Result<Vec<QueryResults>, SparqlError> {
    let Some(finest) = masks.iter().copied().reduce(ViewMask::union) else {
        return Ok(Vec::new());
    };
    let mut derived = vec![(finest, evaluate_view(dataset, facet, finest)?)];
    let mut pending = masks.to_vec();
    pending.sort_by_key(|mask| std::cmp::Reverse(mask.dim_count()));
    for mask in pending {
        if derived.iter().any(|(done, _)| *done == mask) {
            continue;
        }
        let (_, parent) = derived
            .iter()
            .filter(|(done, _)| done.covers(mask))
            .min_by_key(|(_, results)| results.len())
            .expect("the finest view covers every requested mask");
        let rolled = roll_up(facet, mask, parent);
        derived.push((mask, rolled));
    }

    let mut derived: FxHashMap<ViewMask, QueryResults> = derived.into_iter().collect();
    let mut out = Vec::with_capacity(masks.len());
    for (i, mask) in masks.iter().enumerate() {
        let results = if masks[i + 1..].contains(mask) {
            derived.get(mask).cloned()
        } else {
            derived.remove(mask)
        };
        out.push(results.expect("every requested mask was derived"));
    }
    Ok(out)
}

/// Re-aggregate `parent`, the results of a view covering `mask`, into
/// `mask`'s groups (see [`evaluate_views`]).
fn roll_up(facet: &Facet, mask: ViewMask, parent: &QueryResults) -> QueryResults {
    let query = sofos_cube::view_query(facet, mask);
    let vars: Vec<String> = query.select.iter().map(|c| c.name().to_string()).collect();
    let column = |name: &str| {
        parent
            .column(name)
            .expect("a covering view projects every column of its roll-ups")
    };
    let components = facet.agg.components();
    let key_columns: Vec<usize> = vars[..vars.len() - components.len()]
        .iter()
        .map(|var| column(var))
        .collect();
    let component_columns: Vec<usize> = components
        .iter()
        .map(|&c| column(component_alias(c)))
        .collect();
    let mut groups = Groups::new(key_columns.len(), components);
    let mut key: Vec<Option<&Term>> = Vec::with_capacity(key_columns.len());
    for row in &parent.rows {
        key.clear();
        key.extend(key_columns.iter().map(|&c| row[c].as_ref()));
        groups.push(&key, component_columns.iter().map(|&c| row[c].as_ref()));
    }
    QueryResults {
        vars,
        rows: groups.finish(),
    }
}

/// A covering view's rows folded into `mask`'s groups for [`roll_up`]:
/// groups keyed on the rows' dimension cells, in first-occurrence order,
/// with one [`Partial`] per aggregate component.
struct Groups<'c, 'r> {
    width: usize,
    components: &'c [MaterialComponent],
    index: FxHashMap<Vec<Option<&'r Term>>, usize>,
    /// Group `g`'s key is `keys[g * width..][..width]`.
    keys: Vec<Option<&'r Term>>,
    /// Group `g`'s partials are `partials[g * n..][..n]`, `n` being the
    /// number of components.
    partials: Vec<Partial>,
}

impl<'c, 'r> Groups<'c, 'r> {
    fn new(width: usize, components: &'c [MaterialComponent]) -> Groups<'c, 'r> {
        Groups {
            width,
            components,
            index: FxHashMap::default(),
            keys: Vec::new(),
            partials: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.partials.len() / self.components.len()
    }

    fn add_group(&mut self, key: &[Option<&'r Term>]) -> usize {
        self.keys.extend_from_slice(key);
        self.partials
            .extend(self.components.iter().map(|&c| Partial::new(c)));
        self.len() - 1
    }

    /// Fold one row into its group: its key and one cell per component.
    fn push(&mut self, key: &[Option<&'r Term>], cells: impl Iterator<Item = Option<&'r Term>>) {
        let group = match self.index.get(key) {
            Some(&group) => group,
            None => {
                let group = self.add_group(key);
                self.index.insert(key.to_vec(), group);
                group
            }
        };
        let n = self.components.len();
        for (partial, cell) in self.partials[group * n..][..n].iter_mut().zip(cells) {
            partial.push(cell);
        }
    }

    /// The groups' rows: the key's cells, then the components.
    fn finish(mut self) -> Vec<Vec<Option<Term>>> {
        // Aggregation without GROUP BY over zero rows yields one group.
        if self.width == 0 && self.partials.is_empty() {
            self.add_group(&[]);
        }
        let (groups, n) = (self.len(), self.components.len());
        let mut partials = self.partials.into_iter();
        (0..groups)
            .map(|group| {
                self.keys[group * self.width..][..self.width]
                    .iter()
                    .map(|&cell| cell.cloned())
                    .chain(partials.by_ref().take(n).map(Partial::finish))
                    .collect()
            })
            .collect()
    }
}

/// One group's running re-aggregate of one component, fed one cell per
/// row of a covering view.
enum Partial {
    /// SUM or COUNT; `None` once an unbound or non-numeric part poisoned it.
    Additive(Option<Numeric>),
    /// MIN (`keep == Less`) or MAX (`keep == Greater`): the first part no
    /// later part beats.
    Extreme { best: Option<Value>, keep: Ordering },
}

impl Partial {
    fn new(component: MaterialComponent) -> Partial {
        match component {
            MaterialComponent::Sum | MaterialComponent::Count => {
                Partial::Additive(Some(Numeric::Integer(0)))
            }
            MaterialComponent::Min => Partial::Extreme {
                best: None,
                keep: Ordering::Less,
            },
            MaterialComponent::Max => Partial::Extreme {
                best: None,
                keep: Ordering::Greater,
            },
        }
    }

    fn push(&mut self, cell: Option<&Term>) {
        match self {
            Partial::Additive(acc) => {
                let part = cell.and_then(Term::as_literal).and_then(|l| l.numeric());
                *acc = match (*acc, part) {
                    (Some(acc), Some(part)) => Some(Numeric::add(acc, part)),
                    _ => None,
                };
            }
            Partial::Extreme { best, keep } => {
                let Some(term) = cell else { return };
                let value = Value::from_term(term);
                if best.as_ref().is_none_or(|b| value.total_cmp(b) == *keep) {
                    *best = Some(value);
                }
            }
        }
    }

    /// The aggregate's cell, spelled as the evaluator projects it.
    fn finish(self) -> Option<Term> {
        match self {
            Partial::Additive(acc) => acc.map(|n| Value::Numeric(n).to_term()),
            Partial::Extreme { best, .. } => best.map(|value| value.to_term()),
        }
    }
}

/// The label prefix of view `mask`'s observation blank nodes; row `i`'s
/// node is `_:<prefix><i>`.
fn observation_prefix(facet: &Facet, mask: ViewMask) -> String {
    format!("v{}_{}_", facet.id, mask.0)
}

/// The columns [`load_view`] writes, each with its predicate: the mask's
/// dimensions, then the aggregate's components.
fn encoded_columns(facet: &Facet, mask: ViewMask, results: &QueryResults) -> Vec<(usize, Term)> {
    let dims = mask
        .dims()
        .into_iter()
        .filter(|&d| d < facet.dim_count())
        .map(|d| {
            let var = facet.dimensions[d].var.as_str();
            let column = results
                .column(var)
                .expect("view query projects its dimension variables");
            (column, Term::iri(sofos::dim(d)))
        });
    let components = facet.agg.components().iter().map(|&c| {
        let column = results
            .column(component_alias(c))
            .expect("view query projects its component aliases");
        (column, Term::iri(component_predicate(c)))
    });
    dims.chain(components).collect()
}

/// Size the graph [`load_view`] writes from `results` in one pass over
/// the rows, without building it.
///
/// Each row is one fresh observation node with an `rdf:type` triple and
/// one triple per bound cell, so triples and bytes add up row by row and
/// the nodes are the rows plus the distinct objects.
pub fn view_stats(facet: &Facet, mask: ViewMask, results: &QueryResults) -> ViewStats {
    let observation = Term::iri(sofos::OBSERVATION);
    let columns = encoded_columns(facet, mask, results);
    let prefix = observation_prefix(facet, mask);
    let rows = results.len();
    let mut triples = 0usize;
    let mut bytes = 0usize;
    let mut objects: FxHashSet<&Term> = FxHashSet::default();
    for (i, row) in results.rows.iter().enumerate() {
        triples += 1;
        bytes += prefix.len() + i.checked_ilog10().map_or(1, |digits| digits as usize + 1);
        objects.insert(&observation);
        for (column, _) in &columns {
            if let Some(value) = &row[*column] {
                triples += 1;
                bytes += value.estimated_bytes();
                objects.insert(value);
            }
        }
    }
    // A value that is a blank node spelling some row's observation label
    // is that node, not a second one.
    let is_observation = |term: &Term| match term {
        Term::Blank(b) => b
            .as_str()
            .strip_prefix(&prefix)
            .and_then(|i| i.parse::<usize>().ok().filter(|n| n.to_string() == i))
            .is_some_and(|i| i < rows),
        _ => false,
    };
    let shared = objects.iter().filter(|term| is_observation(term)).count();
    ViewStats {
        facet_id: facet.id.clone(),
        mask,
        rows,
        triples,
        nodes: rows + objects.len() - shared,
        bytes,
    }
}

/// Evaluate, encode and insert one view into its named graph in `G+`.
pub fn materialize_view(
    dataset: &mut Dataset,
    facet: &Facet,
    mask: ViewMask,
) -> Result<MaterializedView, SparqlError> {
    let mut views = materialize_views(dataset, facet, &[mask])?;
    Ok(views.pop().expect("one view per mask"))
}

/// Materialize a set of views from one evaluation ([`evaluate_views`])
/// and [`load_view`] each one, returning stats in input order.
///
/// Every view is evaluated before any is loaded, so an `Err` leaves the
/// dataset untouched.
pub fn materialize_views(
    dataset: &mut Dataset,
    facet: &Facet,
    masks: &[ViewMask],
) -> Result<Vec<MaterializedView>, SparqlError> {
    let results = evaluate_views(dataset, facet, masks)?;
    Ok(masks
        .iter()
        .zip(&results)
        .map(|(&mask, results)| {
            load_view(dataset, facet, mask, results);
            MaterializedView {
                stats: view_stats(facet, mask, results),
                graph_iri: sofos::view_graph(&facet.id, mask.0),
            }
        })
        .collect())
}

/// Write view `mask`'s `results` (the rows of its view query) into its
/// named graph, replacing any graph of that name.
///
/// Each row `i` becomes the observation `_:v<facet>_<mask>_<i>` with an
/// `rdf:type sofos:Observation` triple and one triple per bound cell;
/// an unbound cell writes no triple. The triples are encoded straight to
/// ids and bulk-loaded.
pub fn load_view(dataset: &mut Dataset, facet: &Facet, mask: ViewMask, results: &QueryResults) {
    let name = dataset.intern_iri(&sofos::view_graph(&facet.id, mask.0));
    dataset.drop_graph(name);
    let triples = encode_view_ids(dataset, facet, mask, results);
    dataset.load_encoded(Some(name), triples);
}

/// The triples of view `mask`'s graph, interned into `dataset`'s
/// dictionary.
///
/// Terms are interned in the graph's triple order (rows by observation
/// label, each row's cells by predicate), the order a term-level load of
/// the same triples would intern them in.
fn encode_view_ids(
    dataset: &mut Dataset,
    facet: &Facet,
    mask: ViewMask,
    results: &QueryResults,
) -> Vec<EncodedTriple> {
    let observation = Term::iri(sofos::OBSERVATION);
    // `None` stands for the `rdf:type sofos:Observation` cell.
    let mut cells: Vec<(Option<usize>, Term)> = encoded_columns(facet, mask, results)
        .into_iter()
        .map(|(column, pred)| (Some(column), pred))
        .chain([(None, Term::iri(rdf::TYPE))])
        .collect();
    cells.sort_by(|(_, a), (_, b)| a.cmp(b));
    let mut pred_ids: Vec<Option<TermId>> = vec![None; cells.len()];

    let prefix = observation_prefix(facet, mask);
    let labels: Vec<Term> = (0..results.len())
        .map(|i| Term::blank(format!("{prefix}{i}")))
        .collect();
    let mut order: Vec<usize> = (0..labels.len()).collect();
    order.sort_unstable_by(|&a, &b| labels[a].cmp(&labels[b]));

    let mut triples = Vec::with_capacity(results.len() * cells.len());
    for i in order {
        let obs = dataset.intern(&labels[i]);
        for ((column, pred), pred_id) in cells.iter().zip(&mut pred_ids) {
            let object = match column {
                None => &observation,
                Some(column) => match &results.rows[i][*column] {
                    Some(value) => value,
                    None => continue,
                },
            };
            let pred = *pred_id.get_or_insert_with(|| dataset.intern(pred));
            triples.push([obs, pred, dataset.intern(object)]);
        }
    }
    triples
}

/// Drop a materialized view's graph; returns `true` if it existed.
pub fn drop_view(dataset: &mut Dataset, facet: &Facet, mask: ViewMask) -> bool {
    let graph_iri = sofos::view_graph(&facet.id, mask.0);
    match dataset.dict().get_id(&Term::iri(&graph_iri)) {
        Some(id) => dataset.drop_graph(id),
        None => false,
    }
}

/// Size a candidate view without mutating the dataset (used by the cost
/// models and the "Full Lattice view" of the demo GUI).
pub fn virtual_view_stats(
    dataset: &Dataset,
    facet: &Facet,
    mask: ViewMask,
) -> Result<ViewStats, SparqlError> {
    let results = evaluate_views(dataset, facet, &[mask])?;
    Ok(view_stats(facet, mask, &results[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofos_cube::{AggOp, Dimension};
    use sofos_sparql::{GroupPattern, PatternTerm, TriplePattern};

    const NS: &str = "http://e/";

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let country = Term::iri(format!("{NS}country"));
        let lang = Term::iri(format!("{NS}lang"));
        let pop = Term::iri(format!("{NS}pop"));
        let rows = [
            ("fr", "french", 67),
            ("de", "german", 82),
            ("ca", "english", 20),
            ("ca", "french", 8),
        ];
        for (i, (c, l, p)) in rows.iter().enumerate() {
            let obs = Term::blank(format!("o{i}"));
            ds.insert(None, &obs, &country, &Term::iri(format!("{NS}{c}")));
            ds.insert(None, &obs, &lang, &Term::literal_str(*l));
            ds.insert(None, &obs, &pop, &Term::literal_int(*p));
        }
        ds
    }

    fn sample_facet(agg: AggOp) -> Facet {
        let pattern = GroupPattern::triples(vec![
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri(format!("{NS}country")),
                PatternTerm::var("country"),
            ),
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri(format!("{NS}lang")),
                PatternTerm::var("lang"),
            ),
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri(format!("{NS}pop")),
                PatternTerm::var("pop"),
            ),
        ]);
        Facet::new(
            "pop",
            vec![Dimension::new("country"), Dimension::new("lang")],
            pattern,
            "pop",
            agg,
        )
        .unwrap()
    }

    #[test]
    fn materializes_base_view() {
        let mut ds = sample_dataset();
        let facet = sample_facet(AggOp::Sum);
        let mask = ViewMask::full(2);
        let view = materialize_view(&mut ds, &facet, mask).unwrap();
        // 4 distinct (country, lang) pairs.
        assert_eq!(view.stats.rows, 4);
        // Each row: type + 2 dims + 1 sum component = 4 triples.
        assert_eq!(view.stats.triples, 16);
        let name = ds.dict().get_id(&Term::iri(&view.graph_iri)).unwrap();
        assert_eq!(ds.graph(Some(name)).unwrap().len(), 16);
    }

    #[test]
    fn apex_view_has_one_row() {
        let mut ds = sample_dataset();
        let facet = sample_facet(AggOp::Sum);
        let view = materialize_view(&mut ds, &facet, ViewMask::APEX).unwrap();
        assert_eq!(view.stats.rows, 1);
        // type + sum = 2 triples.
        assert_eq!(view.stats.triples, 2);
    }

    #[test]
    fn avg_views_carry_sum_and_count() {
        let mut ds = sample_dataset();
        let facet = sample_facet(AggOp::Avg);
        let mask = ViewMask::from_dims(&[0]); // by country
        let view = materialize_view(&mut ds, &facet, mask).unwrap();
        // 3 countries; each row: type + dim + sum + count = 4.
        assert_eq!(view.stats.rows, 3);
        assert_eq!(view.stats.triples, 12);
        // The graph contains sofos:count triples.
        let name = ds.dict().get_id(&Term::iri(&view.graph_iri)).unwrap();
        let count_pred = ds.dict().get_id(&Term::iri(sofos::COUNT)).unwrap();
        let store = ds.graph(Some(name)).unwrap();
        let n = store
            .scan(sofos_store::IdPattern::new(None, Some(count_pred), None))
            .count();
        assert_eq!(n, 3);
    }

    #[test]
    fn view_sums_are_correct() {
        let mut ds = sample_dataset();
        let facet = sample_facet(AggOp::Sum);
        let mask = ViewMask::from_dims(&[1]); // by language
        materialize_view(&mut ds, &facet, mask).unwrap();
        // Query the view graph directly: french = 67 + 8 = 75.
        let graph_iri = sofos::view_graph("pop", mask.0);
        let q = format!(
            "SELECT ?s WHERE {{ GRAPH <{graph_iri}> {{ \
               ?obs <{dim}> \"french\" . ?obs <{sum}> ?s }} }}",
            dim = sofos::dim(1),
            sum = sofos::SUM,
        );
        let r = Evaluator::new(&ds).evaluate_str(&q).unwrap();
        assert_eq!(r.len(), 1);
        let v = r.rows[0][0].as_ref().unwrap();
        assert_eq!(v.as_literal().unwrap().numeric().unwrap().to_f64(), 75.0);
    }

    #[test]
    fn virtual_stats_match_actual_materialization() {
        let mut ds = sample_dataset();
        let facet = sample_facet(AggOp::Avg);
        for mask in [ViewMask::APEX, ViewMask::from_dims(&[0]), ViewMask::full(2)] {
            let virtual_stats = virtual_view_stats(&ds, &facet, mask).unwrap();
            let actual = materialize_view(&mut ds, &facet, mask).unwrap();
            assert_eq!(virtual_stats, actual.stats, "mask {mask}");
            let name = ds.dict().get_id(&Term::iri(&actual.graph_iri)).unwrap();
            let stored = ds.graph(Some(name)).unwrap().len();
            assert_eq!(virtual_stats.triples, stored, "mask {mask}");
            drop_view(&mut ds, &facet, mask);
        }
    }

    #[test]
    fn drop_view_removes_graph() {
        let mut ds = sample_dataset();
        let facet = sample_facet(AggOp::Sum);
        let mask = ViewMask::full(2);
        materialize_view(&mut ds, &facet, mask).unwrap();
        assert!(drop_view(&mut ds, &facet, mask));
        assert!(!drop_view(&mut ds, &facet, mask), "second drop is a no-op");
        let name = ds
            .dict()
            .get_id(&Term::iri(sofos::view_graph("pop", mask.0)));
        assert!(name.is_none() || ds.graph(name).is_none());
    }

    #[test]
    fn materialize_views_batch() {
        let mut ds = sample_dataset();
        let facet = sample_facet(AggOp::Sum);
        let masks = [ViewMask::APEX, ViewMask::from_dims(&[0])];
        let views = materialize_views(&mut ds, &facet, &masks).unwrap();
        assert_eq!(views.len(), 2);
        assert_eq!(ds.graph_names().len(), 2);
        // One evaluation for the batch gives what one per view gives.
        let mut one_by_one = sample_dataset();
        for (view, &mask) in views.iter().zip(&masks) {
            assert_eq!(
                view,
                &materialize_view(&mut one_by_one, &facet, mask).unwrap()
            );
        }
    }

    /// The view graph's triples, decoded and sorted.
    fn view_triples(ds: &Dataset, facet: &Facet, mask: ViewMask) -> Vec<[Term; 3]> {
        let name = ds
            .dict()
            .get_id(&Term::iri(sofos::view_graph(&facet.id, mask.0)))
            .unwrap();
        let mut triples: Vec<[Term; 3]> = ds
            .graph(Some(name))
            .unwrap()
            .iter()
            .map(|t| t.map(|id| ds.term(id).clone()))
            .collect();
        triples.sort();
        triples
    }

    #[test]
    fn rematerializing_replaces_the_view_graph() {
        let mut ds = sample_dataset();
        let facet = sample_facet(AggOp::Sum);
        let mask = ViewMask::from_dims(&[0]); // by country
        materialize_view(&mut ds, &facet, mask).unwrap();
        // One more French observation: the "fr" group's sum changes.
        let obs = Term::blank("o4");
        ds.insert(
            None,
            &obs,
            &Term::iri(format!("{NS}country")),
            &Term::iri(format!("{NS}fr")),
        );
        ds.insert(
            None,
            &obs,
            &Term::iri(format!("{NS}lang")),
            &Term::literal_str("french"),
        );
        ds.insert(
            None,
            &obs,
            &Term::iri(format!("{NS}pop")),
            &Term::literal_int(1),
        );
        let again = materialize_view(&mut ds, &facet, mask).unwrap();

        let mut fresh = ds.clone();
        for name in fresh.graph_names() {
            fresh.drop_graph(name);
        }
        let once = materialize_view(&mut fresh, &facet, mask).unwrap();
        assert_eq!(again, once);
        assert_eq!(
            view_triples(&ds, &facet, mask),
            view_triples(&fresh, &facet, mask)
        );
        assert_eq!(view_triples(&ds, &facet, mask).len(), once.stats.triples);
    }

    #[test]
    fn node_count_deduplicates_shared_values() {
        let ds = sample_dataset();
        let facet = sample_facet(AggOp::Count);
        // Group by language: 3 languages; counts are 1, 1, 2 → values {1, 2}.
        let stats = virtual_view_stats(&ds, &facet, ViewMask::from_dims(&[1])).unwrap();
        assert_eq!(stats.rows, 3);
        // Nodes: 3 blanks + Observation + 3 language strings + 2 distinct counts.
        assert_eq!(stats.nodes, 3 + 1 + 3 + 2);
    }

    #[test]
    fn bytes_accounting_is_positive_and_monotone() {
        let ds = sample_dataset();
        let facet = sample_facet(AggOp::Sum);
        let apex = virtual_view_stats(&ds, &facet, ViewMask::APEX).unwrap();
        let base = virtual_view_stats(&ds, &facet, ViewMask::full(2)).unwrap();
        assert!(apex.bytes > 0);
        assert!(base.bytes > apex.bytes, "finer views cost more bytes");
    }
}
