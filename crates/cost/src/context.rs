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

/// Size every view of the lattice *analytically* from generator-level
/// knowledge — per-dimension cardinalities and the observation count —
/// instead of evaluating the base view and rolling the lattice up from it
/// like [`size_lattice`].
///
/// A view's row count is bounded both by the product of its retained
/// dimensions' cardinalities and by the observation count; triples, nodes
/// and bytes follow the encoded-view shape (each row binds one value per
/// retained dimension plus the aggregate). Skewed generators produce
/// fewer distinct groups than the bound, so these are uniform *upper*
/// estimates — consistent across views, which is what relative
/// selection-quality and wall-time comparisons need. O(2^d) arithmetic
/// with no dataset access: the piece that lets selection-at-scale
/// experiments price 10–100× larger lattices without evaluating (and
/// holding) a base view whose rows grow with the lattice.
pub fn estimate_lattice(
    lattice: &Lattice,
    cardinalities: &[usize],
    observations: usize,
) -> FxHashMap<ViewMask, ViewStats> {
    // Encoded terms are IRIs/literals of modest length; one shared
    // estimate keeps byte budgets proportional to triple counts.
    const BYTES_PER_TRIPLE: usize = 48;
    let facet_id = lattice.facet().id.clone();
    let mut out = FxHashMap::default();
    for mask in lattice.views() {
        let mut groups: u128 = 1;
        let mut value_pool: usize = 0;
        for d in mask.dims() {
            let card = cardinalities.get(d).copied().unwrap_or(1).max(1);
            groups = groups.saturating_mul(card as u128);
            value_pool += card;
        }
        let rows = groups.min(observations.max(1) as u128) as usize;
        let dims = mask.dim_count() as usize;
        let triples = rows * (dims + 1);
        // Group nodes + aggregate literals (≈ one distinct per row) +
        // the dimension-value pool.
        let nodes = rows * 2 + value_pool;
        out.insert(
            mask,
            ViewStats {
                facet_id: facet_id.clone(),
                mask,
                rows,
                triples,
                nodes,
                bytes: triples * BYTES_PER_TRIPLE,
            },
        );
    }
    out
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

    #[test]
    fn analytic_estimates_cover_the_lattice_and_respect_bounds() {
        let (_, facet) = dataset_and_facet();
        let lattice = Lattice::new(facet);
        let estimated = estimate_lattice(&lattice, &[3, 4], 12);
        assert_eq!(estimated.len() as u64, lattice.num_views());
        // Apex groups everything into one row.
        assert_eq!(estimated[&ViewMask::APEX].rows, 1);
        // The base view is capped by min(3 × 4, 12 observations).
        assert_eq!(estimated[&lattice.base()].rows, 12);
        // Singleton views are capped by their cardinality.
        assert_eq!(estimated[&ViewMask::from_dims(&[0])].rows, 3);
        assert_eq!(estimated[&ViewMask::from_dims(&[1])].rows, 4);
        // Coarser views never estimate more rows than finer ones, and
        // sizing fields scale together.
        for (&mask, stats) in &estimated {
            assert!(stats.rows <= 12);
            assert_eq!(stats.triples, stats.rows * (mask.dim_count() as usize + 1));
            assert!(stats.bytes >= stats.triples);
        }
    }
}
