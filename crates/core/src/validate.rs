//! Result-set equivalence: the correctness oracle for view answering.
//!
//! A query answered from a materialized view must return exactly the same
//! bag of rows as the same query answered from the base graph. Cells are
//! compared by SPARQL *value* (so `"75"^^xsd:integer` equals
//! `"75"^^xsd:decimal` when numerically equal) because re-aggregation may
//! legally change the numeric datatype (e.g. SUM of stored sums).

use sofos_rdf::Term;
use sofos_sparql::{QueryResults, Value};
use std::cmp::Ordering;

/// Are two result sets equivalent as bags of rows (column order must
/// match; row order is ignored)?
pub fn results_equivalent(a: &QueryResults, b: &QueryResults) -> bool {
    if a.vars.len() != b.vars.len() || a.rows.len() != b.rows.len() {
        return false;
    }
    let mut rows_a = decode(a);
    let mut rows_b = decode(b);
    sort_rows(&mut rows_a);
    sort_rows(&mut rows_b);
    rows_a.iter().zip(&rows_b).all(|(ra, rb)| {
        ra.iter().zip(rb).all(|(ca, cb)| match (ca, cb) {
            (None, None) => true,
            (Some(x), Some(y)) => x.sparql_eq(y),
            _ => false,
        })
    })
}

/// One cell as the comparison sees it: IRIs and blank nodes borrowed from
/// the result, literals decoded to their SPARQL [`Value`]. Orders and
/// compares exactly as the decoded `Value`s would.
enum Cell<'a> {
    Blank(&'a str),
    Iri(&'a str),
    Literal(Value),
}

impl<'a> Cell<'a> {
    fn new(term: &'a Term) -> Cell<'a> {
        match term {
            Term::Blank(b) => Cell::Blank(b.as_str()),
            Term::Iri(iri) => Cell::Iri(iri.as_str()),
            Term::Literal(lit) => Cell::Literal(Value::from_literal(lit)),
        }
    }

    /// [`Value::total_cmp`]: blank < IRI < every literal value.
    fn total_cmp(&self, other: &Cell<'_>) -> Ordering {
        match (self, other) {
            (Cell::Blank(a), Cell::Blank(b)) | (Cell::Iri(a), Cell::Iri(b)) => a.cmp(b),
            (Cell::Literal(a), Cell::Literal(b)) => a.total_cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Cell::Blank(_) => 0,
            Cell::Iri(_) => 1,
            Cell::Literal(_) => 2,
        }
    }

    /// [`Value::sparql_eq`]: same IRI or label, or equal literal values.
    fn sparql_eq(&self, other: &Cell<'_>) -> bool {
        match (self, other) {
            (Cell::Blank(a), Cell::Blank(b)) | (Cell::Iri(a), Cell::Iri(b)) => a == b,
            (Cell::Literal(a), Cell::Literal(b)) => a.sparql_eq(b),
            _ => false,
        }
    }
}

fn decode(results: &QueryResults) -> Vec<Vec<Option<Cell<'_>>>> {
    results
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|cell| cell.as_ref().map(Cell::new))
                .collect()
        })
        .collect()
}

fn sort_rows(rows: &mut [Vec<Option<Cell<'_>>>]) {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            let ord = match (x, y) {
                (None, None) => Ordering::Equal,
                (None, Some(_)) => Ordering::Less,
                (Some(_), None) => Ordering::Greater,
                (Some(cx), Some(cy)) => cx.total_cmp(cy),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofos_rdf::vocab::xsd;
    use sofos_rdf::{Iri, Literal};

    fn results(rows: Vec<Vec<Option<Term>>>) -> QueryResults {
        QueryResults {
            vars: vec!["a".into(), "b".into()],
            rows,
        }
    }

    #[test]
    fn equal_up_to_row_order() {
        let a = results(vec![
            vec![Some(Term::iri("x")), Some(Term::literal_int(1))],
            vec![Some(Term::iri("y")), Some(Term::literal_int(2))],
        ]);
        let b = results(vec![
            vec![Some(Term::iri("y")), Some(Term::literal_int(2))],
            vec![Some(Term::iri("x")), Some(Term::literal_int(1))],
        ]);
        assert!(results_equivalent(&a, &b));
    }

    #[test]
    fn numeric_datatype_differences_are_tolerated() {
        let a = results(vec![vec![
            Some(Term::iri("x")),
            Some(Term::literal_int(75)),
        ]]);
        let b = results(vec![vec![
            Some(Term::iri("x")),
            Some(Term::Literal(Literal::decimal("75".parse().unwrap()))),
        ]]);
        assert!(results_equivalent(&a, &b));
    }

    #[test]
    fn detects_differences() {
        let a = results(vec![vec![Some(Term::iri("x")), Some(Term::literal_int(1))]]);
        let b = results(vec![vec![Some(Term::iri("x")), Some(Term::literal_int(2))]]);
        assert!(!results_equivalent(&a, &b));
        let c = results(vec![]);
        assert!(!results_equivalent(&a, &c), "row-count mismatch");
    }

    #[test]
    fn unbound_cells_must_match() {
        let a = results(vec![vec![Some(Term::iri("x")), None]]);
        let b = results(vec![vec![Some(Term::iri("x")), None]]);
        let c = results(vec![vec![Some(Term::iri("x")), Some(Term::literal_int(0))]]);
        assert!(results_equivalent(&a, &b));
        assert!(!results_equivalent(&a, &c));
    }

    #[test]
    fn duplicate_rows_respect_multiplicity() {
        let twice = results(vec![
            vec![Some(Term::iri("x")), Some(Term::literal_int(1))],
            vec![Some(Term::iri("x")), Some(Term::literal_int(1))],
        ]);
        let once = results(vec![vec![Some(Term::iri("x")), Some(Term::literal_int(1))]]);
        assert!(!results_equivalent(&twice, &once), "bags, not sets");
    }

    fn typed(lexical: &str, datatype: &str) -> Term {
        Term::Literal(Literal::typed(lexical, Iri::new_unchecked(datatype)))
    }

    #[test]
    fn numeric_lexical_forms_compare_by_value() {
        let one = |t: Term| results(vec![vec![Some(Term::iri("x")), Some(t)]]);
        let int = one(Term::literal_int(1));
        for same in [
            typed("01", xsd::INTEGER),
            typed("+1", xsd::INTEGER),
            typed("1.0", xsd::DECIMAL),
            typed("1E0", xsd::DOUBLE),
        ] {
            assert!(results_equivalent(&int, &one(same.clone())), "{same}");
        }
        for different in [
            Term::literal_str("1"),
            typed("1.5", xsd::DECIMAL),
            Term::iri("1"),
            Term::blank("1"),
        ] {
            assert!(
                !results_equivalent(&int, &one(different.clone())),
                "{different}"
            );
        }
        // An IRI, a blank node and a string with the same text differ.
        let iri = one(Term::iri("n"));
        assert!(!results_equivalent(&iri, &one(Term::blank("n"))));
        assert!(!results_equivalent(&iri, &one(Term::literal_str("n"))));
        // Row order is ignored even when equal values are spelled apart.
        let a = results(vec![
            vec![Some(Term::iri("y")), Some(typed("01", xsd::INTEGER))],
            vec![Some(Term::iri("x")), Some(typed("2.0", xsd::DECIMAL))],
        ]);
        let b = results(vec![
            vec![Some(Term::iri("x")), Some(Term::literal_int(2))],
            vec![Some(Term::iri("y")), Some(typed("1E0", xsd::DOUBLE))],
        ]);
        assert!(results_equivalent(&a, &b));
    }

    /// The verdicts of comparing every cell as an owned [`Value`], the
    /// way `results_equivalent` used to.
    fn by_owned_values(a: &QueryResults, b: &QueryResults) -> bool {
        let decode = |r: &QueryResults| {
            let mut rows: Vec<Vec<Option<Value>>> = r
                .rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|c| c.as_ref().map(Value::from_term))
                        .collect()
                })
                .collect();
            rows.sort_by(|x, y| {
                x.iter()
                    .zip(y)
                    .map(|(p, q)| match (p, q) {
                        (None, None) => Ordering::Equal,
                        (None, Some(_)) => Ordering::Less,
                        (Some(_), None) => Ordering::Greater,
                        (Some(p), Some(q)) => p.total_cmp(q),
                    })
                    .find(|o| *o != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            });
            rows
        };
        a.vars.len() == b.vars.len()
            && a.rows.len() == b.rows.len()
            && decode(a).iter().zip(&decode(b)).all(|(x, y)| {
                x.iter().zip(y).all(|(p, q)| match (p, q) {
                    (None, None) => true,
                    (Some(p), Some(q)) => p.sparql_eq(q),
                    _ => false,
                })
            })
    }

    #[test]
    fn verdicts_match_owned_value_comparison() {
        let pool = [
            None,
            Some(Term::iri("a")),
            Some(Term::iri("b")),
            Some(Term::blank("a")),
            Some(Term::literal_str("a")),
            Some(Term::literal_int(1)),
            Some(typed("01", xsd::INTEGER)),
            Some(typed("1.0", xsd::DECIMAL)),
            Some(typed("1E0", xsd::DOUBLE)),
            Some(typed("NaN", xsd::DOUBLE)),
            Some(Term::Literal(Literal::boolean(true))),
            Some(Term::Literal(Literal::year(2020))),
        ];
        // Deterministic bags of one- and two-row results over the pool.
        let bags: Vec<QueryResults> = (0..pool.len() * pool.len())
            .flat_map(|i| {
                let (x, y) = (&pool[i % pool.len()], &pool[i / pool.len()]);
                [
                    results(vec![vec![x.clone(), y.clone()]]),
                    results(vec![vec![x.clone(), y.clone()], vec![y.clone(), x.clone()]]),
                ]
            })
            .collect();
        for a in &bags {
            for b in &bags {
                assert_eq!(
                    results_equivalent(a, b),
                    by_owned_values(a, b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }
}
