//! The cube fixture the selector tests share: `dims` dimensions over
//! `rows` observations, sized into a cost context. The unit tests in
//! `src/lib.rs` include this file as their `fixture` module.

use sofos_cost::{size_lattice, CostContext};
use sofos_cube::{AggOp, Dimension, Facet, Lattice};
use sofos_rdf::Term;
use sofos_sparql::{GroupPattern, PatternTerm, TriplePattern};

fn setup(dims: usize, rows: usize) -> (sofos_store::Dataset, Facet) {
    let mut ds = sofos_store::Dataset::new();
    let m = Term::iri("http://e/m");
    for i in 0..rows {
        let obs = Term::blank(format!("o{i}"));
        for d in 0..dims {
            ds.insert(
                None,
                &obs,
                &Term::iri(format!("http://e/p{d}")),
                &Term::iri(format!("http://e/D{d}_{}", i % (d + 2))),
            );
        }
        ds.insert(None, &obs, &m, &Term::literal_int(i as i64));
    }
    let mut triples = Vec::new();
    let mut dimensions = Vec::new();
    for d in 0..dims {
        triples.push(TriplePattern::new(
            PatternTerm::var("o"),
            PatternTerm::iri(format!("http://e/p{d}")),
            PatternTerm::var(format!("d{d}")),
        ));
        dimensions.push(Dimension::new(format!("d{d}")));
    }
    triples.push(TriplePattern::new(
        PatternTerm::var("o"),
        PatternTerm::iri("http://e/m"),
        PatternTerm::var("u"),
    ));
    let facet = Facet::new(
        "t",
        dimensions,
        GroupPattern::triples(triples),
        "u",
        AggOp::Sum,
    )
    .unwrap();
    (ds, facet)
}

pub fn with_ctx<R>(dims: usize, rows: usize, f: impl FnOnce(&CostContext<'_>, &Lattice) -> R) -> R {
    let (ds, facet) = setup(dims, rows);
    let lattice = Lattice::new(facet.clone());
    let sized = size_lattice(&ds, &lattice).unwrap();
    let base = sofos_store::GraphStats::compute(ds.default_graph());
    let ctx = CostContext {
        facet: &facet,
        view_stats: &sized,
        base: &base,
    };
    f(&ctx, &lattice)
}
