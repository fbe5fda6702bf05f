//! # sofos-sparql — a SPARQL subset engine for SOFOS
//!
//! Implements exactly the query language the paper's workloads need (§3):
//! analytical queries `SELECT X̄ agg(u) WHERE P GROUP BY X̄` with
//! `{SUM, AVG, COUNT, MAX, MIN}` aggregates, plus the surrounding machinery
//! — BGP joins, `FILTER` expressions with a function library, `OPTIONAL`,
//! `GRAPH` (how rewritten queries address materialized views), `DISTINCT`,
//! `HAVING`, `ORDER BY`, `LIMIT/OFFSET`.
//!
//! Pipeline: [`token`] → [`parse`] → [`ast`] → [`eval`] (with [`expr`]
//! evaluation over [`value`]s) → [`results`].
//!
//! The evaluator joins over one flat binding table per operator (a
//! row-major `Vec<Option<TermId>>`, one stride per row, no heap row per
//! match), then groups into flat arenas and projects through a SELECT
//! list compiled once into positional cells. Before a triples block runs, every `?v = <iri>` conjunct of a
//! `FILTER` in the same group turns `?v` into that IRI's id inside the
//! block, so the join starts from the matching rows only; the `FILTER`
//! stays and is still evaluated. Literals are never pushed: `=` on
//! literals compares values (`"1"` equals `"01"^^xsd:integer`), not
//! terms. See [`eval`] for the rule and why it is sound.
//!
//! ```
//! use sofos_store::Dataset;
//! use sofos_sparql::Evaluator;
//! use sofos_rdf::Term;
//!
//! let mut ds = Dataset::new();
//! ds.insert(None, &Term::iri("http://e/france"),
//!           &Term::iri("http://e/population"), &Term::literal_int(67));
//! let results = Evaluator::new(&ds)
//!     .evaluate_str("SELECT (SUM(?p) AS ?total) WHERE { ?c <http://e/population> ?p }")
//!     .unwrap();
//! assert_eq!(results.len(), 1);
//! ```

pub mod ast;
pub mod error;
pub mod eval;
pub mod expr;
pub mod parse;
pub mod results;
pub mod to_text;
pub mod token;
pub mod value;

pub use ast::{
    Aggregate, ArithOp, CompareOp, Expr, Func, GraphSpec, GroupPattern, OrderCond, PatternElement,
    PatternTerm, Query, SelectItem, TriplePattern,
};
pub use error::{Result, SparqlError};
pub use eval::Evaluator;
pub use parse::parse_query;
pub use results::QueryResults;
pub use to_text::query_to_sparql;
pub use value::Value;
