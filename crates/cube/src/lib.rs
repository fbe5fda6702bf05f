//! # sofos-cube — analytical facets and view lattices
//!
//! The paper (§3) defines an *analytical facet* `F = ⟨X̄, P, agg(u)⟩`: a set
//! of grouping variables `X̄`, a SPARQL pattern `P` selecting the target
//! triples, and an aggregation over a measure variable `u`. A *view*
//! `V = ⟨X̄′, P, agg(u)⟩` aggregates over a subset `X̄′ ⊆ X̄`; the facet
//! therefore induces a lattice `V(F)` of `2^|X̄|` views, partially ordered by
//! dimension-set inclusion.
//!
//! This crate provides:
//! * [`Facet`] / [`Dimension`] / [`AggOp`] — facet definitions;
//! * [`ViewMask`] — a view as a bitmask over the facet's dimensions;
//! * [`Lattice`] — enumeration and cover structure of `V(F)`;
//! * [`query_gen`] — building the SPARQL [`sofos_sparql::Query`] for a view
//!   (used by the materializer) or for a workload query against a facet.
//!
//! A deliberate design decision (documented in `DESIGN.md`): every view
//! keeps the *full* pattern `P`, so row multiplicities — and hence SUM and
//! COUNT — are preserved and any view whose dimensions cover a query's
//! grouping set can answer it by exact re-aggregation.

pub mod facet;
pub mod lattice;
pub mod mask;
pub mod query_gen;

pub use facet::{AggOp, Dimension, Facet, FacetError, MaterialComponent};
pub use lattice::Lattice;
pub use mask::ViewMask;
pub use query_gen::{
    component_alias, component_predicate, facet_query, view_query, COUNT_ALIAS, MAX_ALIAS,
    MIN_ALIAS, SUM_ALIAS, VALUE_ALIAS,
};
