//! The id-level evaluation of a star facet's view query.
//!
//! A *star* facet joins legs `?s p_i ?o_i` around one subject variable,
//! with constant predicates, pairwise distinct object variables (none of
//! them `?s`) and nothing else in its pattern: no FILTER, OPTIONAL, UNION,
//! BIND, VALUES or named graph. The synthetic cube and the swdf-like
//! facet are stars. For such a facet [`Star::evaluate`] computes exactly what
//! [`sofos_sparql::Evaluator`] returns for
//! [`sofos_cube::view_query`] — same columns, rows and row order — in one
//! pass over ids:
//!
//! 1. The candidate subjects are the AND of the legs' `pred_subjects`
//!    bitmaps: a subject missing any leg joins nothing.
//! 2. Each candidate's triples are read once, in ascending subject order,
//!    through a cursor that gallops forward over the SPO index
//!    ([`sofos_store::ScanCursor`]).
//! 3. The evaluator's greedy join starts with the leg of the fewest
//!    triples, scanning it in (object, subject) order, and extends each
//!    row with the other legs in ascending triple count, ties going to
//!    the slot its `swap_remove` loop leaves them in. The kernel sorts
//!    the first leg's (object, subject) pairs the same way and enumerates
//!    the other legs' objects in that nested order.
//! 4. Bindings are grouped on the ids of the mask's dimensions, in
//!    first-occurrence order, and folded by the roll-up's own
//!    [`Groups`]: a binding is a group of one whose SUM, MIN and MAX
//!    are the measure and whose COUNT is 1. Terms are resolved only for
//!    the output groups.

use crate::{view_vars, Groups};
use sofos_cube::{Facet, MaterialComponent, ViewMask};
use sofos_rdf::{Term, TermId};
use sofos_sparql::{GraphSpec, PatternElement, PatternTerm, QueryResults};
use sofos_store::{Dataset, IdPattern};

/// A star facet's legs: `(predicate, object variable)`, subject shared.
pub(crate) struct Star<'f> {
    subject: &'f str,
    legs: Vec<(&'f Term, &'f str)>,
}

impl<'f> Star<'f> {
    /// The facet's legs when its pattern is a star (see the module docs).
    pub(crate) fn detect(facet: &'f Facet) -> Option<Star<'f>> {
        let [PatternElement::Triples {
            graph: GraphSpec::Default,
            patterns,
        }] = facet.pattern.elements.as_slice()
        else {
            return None;
        };
        let PatternTerm::Var(subject) = &patterns.first()?.subject else {
            return None;
        };
        let mut legs: Vec<(&Term, &str)> = Vec::with_capacity(patterns.len());
        for pattern in patterns {
            let (PatternTerm::Var(s), PatternTerm::Const(pred), PatternTerm::Var(object)) =
                (&pattern.subject, &pattern.predicate, &pattern.object)
            else {
                return None;
            };
            if s != subject || object == subject || legs.iter().any(|(_, o)| o == object) {
                return None;
            }
            legs.push((pred, object));
        }
        Some(Star { subject, legs })
    }

    /// Evaluate `view_query(facet, mask)` over the default graph.
    pub(crate) fn evaluate(
        &self,
        dataset: &Dataset,
        facet: &Facet,
        mask: ViewMask,
    ) -> QueryResults {
        let vars = view_vars(facet, mask);
        let components = facet.agg.components();
        // A binding is a tuple: the subject, then each leg's object.
        let position = |var: &str| {
            if var == self.subject {
                0
            } else {
                1 + self
                    .legs
                    .iter()
                    .position(|(_, object)| *object == var)
                    .expect("facet variables are bound by its pattern")
            }
        };
        let key_positions: Vec<usize> = vars[..vars.len() - components.len()]
            .iter()
            .map(|var| position(var))
            .collect();
        let measure = position(&facet.measure);
        let one = Term::literal_int(1);
        let mut groups = Groups::new(key_positions.len(), components);
        let mut key: Vec<TermId> = Vec::with_capacity(key_positions.len());
        self.for_each_binding(dataset, |binding| {
            key.clear();
            key.extend(key_positions.iter().map(|&p| binding[p]));
            let value = dataset.term(binding[measure]);
            let cells = components.iter().map(|c| match c {
                MaterialComponent::Count => Some(&one),
                _ => Some(value),
            });
            groups.push(&key, cells);
        });
        let rows = groups.finish(|id| Some(dataset.term(id).clone()));
        QueryResults { vars, rows }
    }

    /// Call `visit` with every binding tuple of the star's BGP over the
    /// default graph, in the order the evaluator's join emits them.
    fn for_each_binding(&self, dataset: &Dataset, mut visit: impl FnMut(&[TermId])) {
        let store = dataset.default_graph();
        let Some(preds) = self
            .legs
            .iter()
            .map(|(pred, _)| dataset.dict().get_id(pred))
            .collect::<Option<Vec<TermId>>>()
        else {
            return; // a predicate absent from the data matches nothing
        };
        let Some(mut candidates) = store.pred_subjects(preds[0]).cloned() else {
            return;
        };
        for &pred in &preds[1..] {
            match store.pred_subjects(pred) {
                Some(subjects) => candidates = candidates.and(subjects),
                None => return,
            }
        }

        // The evaluator's greedy leg order: fewest triples first; each
        // pick is swap-removed from the pending legs.
        let counts: Vec<usize> = preds
            .iter()
            .map(|&p| store.count(IdPattern::new(None, Some(p), None)))
            .collect();
        let mut pending: Vec<usize> = (0..preds.len()).collect();
        let mut order = Vec::with_capacity(pending.len());
        while let Some(next) = (0..pending.len()).min_by_key(|&i| counts[pending[i]]) {
            order.push(pending.swap_remove(next));
        }
        let k = order.len();

        // One forward pass over the candidates' SPO triples collects
        // every leg's objects per subject, in greedy leg order; each
        // (first leg's object, subject) pair is one join row to extend.
        let mut subjects: Vec<TermId> = Vec::new();
        let mut bounds: Vec<usize> = vec![0];
        let mut objects: Vec<TermId> = Vec::new();
        let mut firsts: Vec<(TermId, usize)> = Vec::new();
        let mut triples: Vec<(TermId, TermId)> = Vec::new();
        let mut cursor = store.scan_cursor();
        for s in candidates.iter().map(TermId) {
            triples.clear();
            let read = cursor.scan(IdPattern::new(Some(s), None, None));
            triples.extend(read.map(|[_, p, o]| (p, o)));
            let mark = (objects.len(), bounds.len());
            for &leg in &order {
                let legs = triples.iter().filter(|(p, _)| *p == preds[leg]);
                objects.extend(legs.map(|&(_, o)| o));
                bounds.push(objects.len());
            }
            let lists = &bounds[mark.1 - 1..];
            if lists.windows(2).any(|w| w[0] == w[1]) {
                objects.truncate(mark.0);
                bounds.truncate(mark.1);
                continue;
            }
            let slot = subjects.len();
            subjects.push(s);
            firsts.extend(objects[lists[0]..lists[1]].iter().map(|&o| (o, slot)));
        }
        // The evaluator scans the first leg in (object, subject) order;
        // slots ascend with subject ids.
        firsts.sort_unstable();

        let mut binding = vec![TermId(0); 1 + preds.len()];
        let mut at = vec![0usize; k];
        for (o, slot) in firsts {
            binding[0] = subjects[slot];
            binding[1 + order[0]] = o;
            let lists = &bounds[slot * k..=(slot + 1) * k];
            // Nested loops over the other legs, the last one innermost.
            at.fill(0);
            'bindings: loop {
                for j in 1..k {
                    binding[1 + order[j]] = objects[lists[j] + at[j]];
                }
                visit(&binding);
                for j in (1..k).rev() {
                    at[j] += 1;
                    if lists[j] + at[j] < lists[j + 1] {
                        continue 'bindings;
                    }
                    at[j] = 0;
                }
                break;
            }
        }
    }
}
