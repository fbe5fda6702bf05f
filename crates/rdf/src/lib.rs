//! # sofos-rdf — RDF data model for the SOFOS view-selection framework
//!
//! This crate implements the RDF substrate that every other SOFOS crate
//! builds on. Following the paper's formalization (§3), a knowledge graph
//! `G` is a set of triples `(s, p, o) ∈ (I ∪ B) × I × (I ∪ B ∪ L)` where
//! `I` are IRIs, `B` are blank nodes and `L` are literals.
//!
//! Provided here:
//!
//! * [`term`] — [`Iri`], [`BlankNode`], [`Literal`] and the [`Term`] sum type;
//! * [`literal`] — typed literals with the XSD datatypes SOFOS needs
//!   (strings, booleans, integers, decimals, doubles, dateTimes);
//! * [`decimal`] — an exact fixed-point [`Decimal`] used for `xsd:decimal`
//!   arithmetic so aggregate re-computation is bit-stable;
//! * [`triple`] — term-level [`Triple`]s and a small deterministic [`Graph`]
//!   container used by parsers and tests (the indexed store lives in
//!   `sofos-store`);
//! * [`dictionary`] — interning of terms to dense [`TermId`]s, the basis of
//!   the dictionary-encoded store;
//! * [`ntriples`] — an N-Triples parser/serializer for data interchange;
//! * [`vocab`] — IRI constants (RDF/RDFS/XSD and the `sofos:` namespace used
//!   by materialized views);
//! * [`hash`] — a fast FxHash-style hasher plus `HashMap`/`HashSet` aliases
//!   (integer-keyed maps are pervasive in the store and the perf cost of
//!   SipHash is not justified; implemented in-tree to avoid a dependency).

pub mod decimal;
pub mod dictionary;
pub mod error;
pub mod hash;
pub mod literal;
pub mod ntriples;
pub mod term;
pub mod triple;
pub mod turtle;
pub mod vocab;

pub use decimal::Decimal;
pub use dictionary::{Dictionary, TermId};
pub use error::RdfError;
pub use hash::{FxHashMap, FxHashSet};
pub use literal::{Literal, LiteralKind, Numeric};
pub use ntriples::{parse_ntriples, write_ntriples, write_term};
pub use term::{BlankNode, Iri, Term};
pub use triple::{Graph, Triple};
pub use turtle::{parse_turtle, write_turtle};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RdfError>;
