//! The information cost models draw on.

use sofos_cube::{Facet, Lattice, ViewMask};
use sofos_materialize::{evaluate_views, view_stats, ViewStats};
use sofos_rdf::FxHashMap;
use sofos_sparql::SparqlError;
use sofos_store::{Dataset, GraphStats};

/// Everything a cost model may consult when pricing a view: the facet, the
/// sized lattice (one [`ViewStats`] per candidate view, computed virtually
/// — no materialization), and statistics of the base graph.
#[derive(Debug)]
pub struct CostContext<'a> {
    /// The facet whose lattice is being priced.
    pub facet: &'a Facet,
    /// Per-view sizing (rows / triples / nodes / bytes).
    pub view_stats: &'a FxHashMap<ViewMask, ViewStats>,
    /// Base-graph statistics (predicate frequencies etc.).
    pub base: &'a GraphStats,
}

impl<'a> CostContext<'a> {
    /// Stats of one view; views absent from the map (not sized) return
    /// `None` and models fall back to pessimistic defaults.
    pub fn stats(&self, view: ViewMask) -> Option<&ViewStats> {
        self.view_stats.get(&view)
    }

    /// Distinct values of dimension `d` ≈ rows of the singleton view `{d}`.
    pub fn dim_cardinality(&self, d: usize) -> Option<usize> {
        self.view_stats
            .get(&ViewMask::from_dims(&[d]))
            .map(|s| s.rows)
    }
}

/// Size every view of the lattice virtually (no graph built, no insert).
/// This is the offline "Exploration of the Full Lattice" step of the demo
/// (§4) and the input to all static cost models. It costs one evaluation
/// of the base view; the other `2^d − 1` views are rolled up from it
/// ([`evaluate_views`]).
pub fn size_lattice(
    dataset: &Dataset,
    lattice: &Lattice,
) -> Result<FxHashMap<ViewMask, ViewStats>, SparqlError> {
    let facet = lattice.facet();
    let masks: Vec<ViewMask> = lattice.views().collect();
    let results = evaluate_views(dataset, facet, &masks)?;
    Ok(masks
        .into_iter()
        .zip(&results)
        .map(|(mask, results)| (mask, view_stats(facet, mask, results)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofos_cube::{AggOp, Dimension};
    use sofos_rdf::Term;
    use sofos_sparql::{GroupPattern, PatternTerm, TriplePattern};

    fn dataset_and_facet() -> (Dataset, Facet) {
        let mut ds = Dataset::new();
        let a = Term::iri("http://e/a");
        let b = Term::iri("http://e/b");
        let m = Term::iri("http://e/m");
        for i in 0..12 {
            let obs = Term::blank(format!("o{i}"));
            ds.insert(None, &obs, &a, &Term::iri(format!("http://e/A{}", i % 3)));
            ds.insert(None, &obs, &b, &Term::iri(format!("http://e/B{}", i % 4)));
            ds.insert(None, &obs, &m, &Term::literal_int(i));
        }
        let pattern = GroupPattern::triples(vec![
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri("http://e/a"),
                PatternTerm::var("a"),
            ),
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri("http://e/b"),
                PatternTerm::var("b"),
            ),
            TriplePattern::new(
                PatternTerm::var("o"),
                PatternTerm::iri("http://e/m"),
                PatternTerm::var("m"),
            ),
        ]);
        let facet = Facet::new(
            "t",
            vec![Dimension::new("a"), Dimension::new("b")],
            pattern,
            "m",
            AggOp::Sum,
        )
        .unwrap();
        (ds, facet)
    }

    #[test]
    fn sizes_every_lattice_view() {
        let (ds, facet) = dataset_and_facet();
        let lattice = Lattice::new(facet);
        let sized = size_lattice(&ds, &lattice).unwrap();
        assert_eq!(sized.len() as u64, lattice.num_views());
        // Apex has one row; base has all 12 combos (i%3, i%4 over 12 = 12).
        assert_eq!(sized[&ViewMask::APEX].rows, 1);
        assert_eq!(sized[&lattice.base()].rows, 12);
    }

    #[test]
    fn dim_cardinalities_from_singletons() {
        let (ds, facet) = dataset_and_facet();
        let lattice = Lattice::new(facet.clone());
        let sized = size_lattice(&ds, &lattice).unwrap();
        let base = sofos_store::GraphStats::compute(ds.default_graph());
        let ctx = CostContext {
            facet: &facet,
            view_stats: &sized,
            base: &base,
        };
        assert_eq!(ctx.dim_cardinality(0), Some(3));
        assert_eq!(ctx.dim_cardinality(1), Some(4));
        assert!(ctx.stats(ViewMask::APEX).is_some());
        assert!(ctx.stats(ViewMask(0b1000000)).is_none());
    }
}
