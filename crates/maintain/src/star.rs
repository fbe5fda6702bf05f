//! Star-shaped facet patterns and their delta bindings.
//!
//! Every SOFOS facet pattern in this repository is a *star*: one subject
//! variable (the observation) with one triple pattern per bound variable,
//! `?o <p_i> ?v_i`. Stars make incremental binding computation exact and
//! cheap: the pattern's bindings for one subject are the cartesian product
//! of its per-predicate object lists, so a batch's effect on the binding
//! multiset only involves the subjects the batch touched.

use sofos_cube::Facet;
use sofos_rdf::{FxHashSet, Term, TermId};
use sofos_sparql::{GraphSpec, PatternElement, PatternTerm};
use sofos_store::{Dataset, GraphStore, IdPattern};

/// One leg of the star: a constant predicate binding one variable.
#[derive(Debug, Clone)]
pub struct StarLeg {
    /// The predicate IRI.
    pub predicate: Term,
    /// The object variable it binds.
    pub var: String,
}

/// A facet pattern recognized as a star join.
#[derive(Debug, Clone)]
pub struct StarPattern {
    /// The shared subject variable (the observation node).
    pub subject_var: String,
    /// All legs, in pattern order.
    pub legs: Vec<StarLeg>,
    /// Leg index of each facet dimension (`dims[d]` binds dimension `d`).
    pub dim_legs: Vec<usize>,
    /// Leg index of the measure variable.
    pub measure_leg: usize,
}

impl StarPattern {
    /// Recognize a facet's pattern as a star; `None` when it has filters,
    /// optionals, non-default graphs, non-constant predicates, repeated
    /// object variables, or more than one subject variable.
    pub fn detect(facet: &Facet) -> Option<StarPattern> {
        let [PatternElement::Triples {
            graph: GraphSpec::Default,
            patterns,
        }] = facet.pattern.elements.as_slice()
        else {
            return None;
        };
        let mut subject_var: Option<&str> = None;
        let mut legs: Vec<StarLeg> = Vec::with_capacity(patterns.len());
        let mut seen_vars: FxHashSet<&str> = FxHashSet::default();
        for pattern in patterns {
            let subject = pattern.subject.as_var()?;
            match subject_var {
                None => subject_var = Some(subject),
                Some(s) if s == subject => {}
                Some(_) => return None,
            }
            let PatternTerm::Const(predicate) = &pattern.predicate else {
                return None;
            };
            let var = pattern.object.as_var()?;
            if var == subject || !seen_vars.insert(var) {
                return None;
            }
            legs.push(StarLeg {
                predicate: predicate.clone(),
                var: var.to_string(),
            });
        }
        let subject_var = subject_var?.to_string();

        let mut dim_legs = Vec::with_capacity(facet.dim_count());
        for dim in &facet.dimensions {
            dim_legs.push(legs.iter().position(|l| l.var == dim.var)?);
        }
        let measure_leg = legs.iter().position(|l| l.var == facet.measure)?;
        Some(StarPattern {
            subject_var,
            legs,
            dim_legs,
            measure_leg,
        })
    }

    /// Interned predicate ids of all legs (interning is idempotent).
    pub fn leg_ids(&self, dataset: &mut Dataset) -> Vec<TermId> {
        self.legs
            .iter()
            .map(|l| dataset.intern(&l.predicate))
            .collect()
    }

    /// Subjects a delta can affect: subjects of ops whose predicate is one
    /// of the star's predicates. Deltas write the default graph only
    /// (`Engine::update` refuses named-graph ops).
    pub fn affected_subjects(
        &self,
        dataset: &mut Dataset,
        delta: &sofos_store::Delta,
    ) -> FxHashSet<TermId> {
        let mut affected = FxHashSet::default();
        for op in delta.ops() {
            let [s, p, _] = &op.triple;
            if !self.legs.iter().any(|l| l.predicate == *p) {
                continue;
            }
            match op.kind {
                // Inserts intern their subject during apply anyway.
                sofos_store::OpKind::Insert => {
                    affected.insert(dataset.intern(s));
                }
                // A subject the dictionary has never seen has no triples,
                // so deleting from it cannot change any binding — and
                // interning it here would leak ghost terms into the
                // never-garbage-collected dictionary.
                sofos_store::OpKind::Delete => {
                    if let Some(id) = dataset.dict().get_id(s) {
                        affected.insert(id);
                    }
                }
            }
        }
        affected
    }

    /// The full binding rows of one subject, projected to
    /// `(dimension values, measure)` with multiplicities.
    ///
    /// Legs that bind neither a dimension nor the measure only multiply
    /// row multiplicity, so they are not enumerated — their sizes are.
    pub fn subject_rows(
        &self,
        base: &GraphStore,
        leg_ids: &[TermId],
        subject: TermId,
        out: &mut Vec<(Vec<TermId>, TermId, i64)>,
    ) {
        let mut relevant: Vec<Vec<TermId>> = Vec::with_capacity(self.dim_legs.len() + 1);
        let mut multiplier: i64 = 1;
        let mut relevant_index: Vec<usize> = Vec::new();
        for (leg, &pred) in leg_ids.iter().enumerate() {
            let values: Vec<TermId> = base
                .scan(IdPattern::new(Some(subject), Some(pred), None))
                .map(|[_, _, o]| o)
                .collect();
            if values.is_empty() {
                return; // inner join: no bindings for this subject
            }
            if self.dim_legs.contains(&leg) || leg == self.measure_leg {
                relevant_index.push(leg);
                relevant.push(values);
            } else {
                multiplier *= values.len() as i64;
            }
        }
        // Odometer over the relevant legs' value lists.
        let mut cursor = vec![0usize; relevant.len()];
        loop {
            let value_of = |leg: usize| -> TermId {
                let i = relevant_index
                    .iter()
                    .position(|&l| l == leg)
                    .expect("dimension and measure legs are enumerated");
                relevant[i][cursor[i]]
            };
            let dims: Vec<TermId> = self.dim_legs.iter().map(|&l| value_of(l)).collect();
            let measure = value_of(self.measure_leg);
            out.push((dims, measure, multiplier));

            let mut pos = relevant.len();
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                cursor[pos] += 1;
                if cursor[pos] < relevant[pos].len() {
                    break;
                }
                cursor[pos] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofos_cube::{AggOp, Dimension};
    use sofos_sparql::{Expr, GroupPattern, TriplePattern};

    fn leg(p: &str, v: &str) -> TriplePattern {
        TriplePattern::new(
            PatternTerm::var("o"),
            PatternTerm::iri(format!("http://e/{p}")),
            PatternTerm::var(v),
        )
    }

    fn star_facet() -> Facet {
        Facet::new(
            "f",
            vec![Dimension::new("a"), Dimension::new("b")],
            GroupPattern::triples(vec![leg("a", "a"), leg("b", "b"), leg("m", "m")]),
            "m",
            AggOp::Sum,
        )
        .unwrap()
    }

    #[test]
    fn detects_star_and_maps_legs() {
        let star = StarPattern::detect(&star_facet()).expect("star");
        assert_eq!(star.subject_var, "o");
        assert_eq!(star.legs.len(), 3);
        assert_eq!(star.dim_legs, [0, 1]);
        assert_eq!(star.measure_leg, 2);
    }

    #[test]
    fn rejects_non_star_shapes() {
        // Filter inside the pattern.
        let mut facet = star_facet();
        facet
            .pattern
            .elements
            .push(PatternElement::Filter(Expr::int(1)));
        assert!(StarPattern::detect(&facet).is_none());

        // Two subject variables.
        let pattern = GroupPattern::triples(vec![
            leg("a", "a"),
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::iri("http://e/m"),
                PatternTerm::var("m"),
            ),
        ]);
        let facet = Facet::new("f", vec![Dimension::new("a")], pattern, "m", AggOp::Sum).unwrap();
        assert!(StarPattern::detect(&facet).is_none());

        // Variable predicate.
        let pattern = GroupPattern::triples(vec![
            leg("a", "a"),
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::var("p"),
                PatternTerm::var("m"),
            ),
        ]);
        let facet = Facet::new("f", vec![Dimension::new("a")], pattern, "m", AggOp::Sum).unwrap();
        assert!(StarPattern::detect(&facet).is_none());
    }

    #[test]
    fn subject_rows_enumerate_cartesian_products() {
        let facet = star_facet();
        let star = StarPattern::detect(&facet).unwrap();
        let mut ds = Dataset::new();
        let s = Term::blank("o1");
        let pa = Term::iri("http://e/a");
        let pb = Term::iri("http://e/b");
        let pm = Term::iri("http://e/m");
        // Two values for dimension a, one for b, one measure: 2 rows.
        ds.insert(None, &s, &pa, &Term::iri("http://e/a1"));
        ds.insert(None, &s, &pa, &Term::iri("http://e/a2"));
        ds.insert(None, &s, &pb, &Term::iri("http://e/b1"));
        ds.insert(None, &s, &pm, &Term::literal_int(5));
        let leg_ids = star.leg_ids(&mut ds);
        let subject = ds.dict().get_id(&s).unwrap();
        let mut rows = Vec::new();
        star.subject_rows(ds.default_graph(), &leg_ids, subject, &mut rows);
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|(dims, _, mult)| dims.len() == 2 && *mult == 1));

        // Remove the measure: no rows at all.
        ds.remove(None, &s, &pm, &Term::literal_int(5));
        let mut rows = Vec::new();
        star.subject_rows(ds.default_graph(), &leg_ids, subject, &mut rows);
        assert!(rows.is_empty());
    }

    #[test]
    fn irrelevant_legs_become_multiplicity() {
        // Facet with an extra leg that is neither dimension nor measure.
        let facet = Facet::new(
            "f",
            vec![Dimension::new("a")],
            GroupPattern::triples(vec![leg("a", "a"), leg("extra", "x"), leg("m", "m")]),
            "m",
            AggOp::Count,
        )
        .unwrap();
        let star = StarPattern::detect(&facet).unwrap();
        let mut ds = Dataset::new();
        let s = Term::blank("o1");
        ds.insert(
            None,
            &s,
            &Term::iri("http://e/a"),
            &Term::iri("http://e/a1"),
        );
        ds.insert(
            None,
            &s,
            &Term::iri("http://e/extra"),
            &Term::iri("http://e/x1"),
        );
        ds.insert(
            None,
            &s,
            &Term::iri("http://e/extra"),
            &Term::iri("http://e/x2"),
        );
        ds.insert(
            None,
            &s,
            &Term::iri("http://e/extra"),
            &Term::iri("http://e/x3"),
        );
        ds.insert(None, &s, &Term::iri("http://e/m"), &Term::literal_int(1));
        let leg_ids = star.leg_ids(&mut ds);
        let subject = ds.dict().get_id(&s).unwrap();
        let mut rows = Vec::new();
        star.subject_rows(ds.default_graph(), &leg_ids, subject, &mut rows);
        assert_eq!(rows.len(), 1, "extra leg is not enumerated");
        assert_eq!(rows[0].2, 3, "it multiplies row multiplicity instead");
    }
}
