//! A parametric synthetic observation cube.
//!
//! The demo's lattice-scaling experiment (E2) and learned-model study (E4)
//! need facets with a *configurable* number of dimensions and per-dimension
//! cardinalities — none of the three dataset generators can vary those
//! freely. This generator produces a flat star of observations
//! `?o dim_i v . ?o measure m` with chosen cardinalities and skew.

use crate::zipf::Zipf;
use crate::GeneratedDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sofos_cube::{AggOp, Dimension, Facet};
use sofos_rdf::{Dictionary, Term, TermId};
use sofos_sparql::{GroupPattern, PatternTerm, TriplePattern};
use sofos_store::{Dataset, EncodedTriple};

/// Namespace of the generated data.
pub const NS: &str = "http://sofos.example/synthetic/";

/// Measures are drawn uniformly from `1..MEASURE_END`.
const MEASURE_END: i64 = 1000;

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of observations.
    pub observations: usize,
    /// Distinct values per dimension (its length = dimension count ≤ 20).
    pub cardinalities: Vec<usize>,
    /// Zipf exponent applied to every dimension's value choice.
    pub skew: f64,
    /// Aggregation of the generated facet.
    pub agg: AggOp,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            observations: 200,
            cardinalities: vec![8, 5, 3],
            skew: 0.8,
            agg: AggOp::Sum,
            seed: 17,
        }
    }
}

impl Config {
    /// A `dims`-dimensional cube with geometric cardinalities, for lattice
    /// scaling sweeps.
    pub fn with_dims(dims: usize, observations: usize) -> Config {
        Config {
            observations,
            cardinalities: (0..dims).map(|d| 2 + 2 * (dims - d)).collect(),
            ..Config::default()
        }
    }

    /// A cube whose lattice holds at least `views` candidate views: the
    /// dimension count is the smallest `d` with `2^d ≥ views` (capped at
    /// [`Facet::MAX_DIMENSIONS`]), so selection-at-scale experiments and
    /// tests can request "a lattice of ~N views" deterministically
    /// instead of reasoning in dimension counts.
    pub fn with_view_target(views: usize, observations: usize) -> Config {
        let mut dims = 1usize;
        while (1u128 << dims) < views as u128 && dims < Facet::MAX_DIMENSIONS {
            dims += 1;
        }
        Config::with_dims(dims, observations)
    }

    /// Candidate views of the lattice this config generates (`2^dims`).
    pub fn lattice_views(&self) -> u64 {
        1u64 << self.cardinalities.len()
    }
}

fn iri(local: impl std::fmt::Display) -> Term {
    Term::iri(format!("{NS}{local}"))
}

/// The id of the term `make` builds, interned the first time `slot` is
/// asked for and read from `slot` afterwards.
fn intern_once(
    dict: &mut Dictionary,
    slot: &mut Option<TermId>,
    make: impl FnOnce() -> Term,
) -> TermId {
    *slot.get_or_insert_with(|| dict.intern(&make()))
}

/// Generate the cube and its facet.
///
/// Each value IRI, measure literal and predicate is formatted and
/// interned once, when the generator first meets it, so ids come out in
/// the order per-triple inserts would assign them. The triples are then
/// bulk-loaded in one call.
pub fn generate(config: &Config) -> GeneratedDataset {
    assert!(
        config.cardinalities.len() <= Facet::MAX_DIMENSIONS,
        "too many dimensions"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut ds = Dataset::new();
    let samplers: Vec<Zipf> = config
        .cardinalities
        .iter()
        .map(|&c| Zipf::new(c.max(1), config.skew))
        .collect();

    let dict = ds.dict_mut();
    let mut measure_p = None;
    let mut dim_preds: Vec<Option<TermId>> = vec![None; samplers.len()];
    let mut values: Vec<Vec<Option<TermId>>> = config
        .cardinalities
        .iter()
        .map(|&c| vec![None; c.max(1)])
        .collect();
    let mut measures: Vec<Option<TermId>> = vec![None; MEASURE_END as usize];
    let mut triples: Vec<EncodedTriple> =
        Vec::with_capacity(config.observations * (samplers.len() + 1));
    for i in 0..config.observations {
        let obs = dict.intern(&Term::blank(format!("o{i}")));
        for (d, sampler) in samplers.iter().enumerate() {
            let v = sampler.sample(&mut rng);
            let pred = intern_once(dict, &mut dim_preds[d], || iri(format!("dim{d}")));
            let value = intern_once(dict, &mut values[d][v], || iri(format!("v{d}_{v}")));
            triples.push([obs, pred, value]);
        }
        let m = rng.gen_range(1..MEASURE_END);
        let pred = intern_once(dict, &mut measure_p, || iri("measure"));
        let value = intern_once(dict, &mut measures[m as usize], || Term::literal_int(m));
        triples.push([obs, pred, value]);
    }
    ds.load_encoded(None, triples);

    let mut patterns = Vec::new();
    let mut dims = Vec::new();
    for d in 0..config.cardinalities.len() {
        patterns.push(TriplePattern::new(
            PatternTerm::var("o"),
            PatternTerm::iri(format!("{NS}dim{d}")),
            PatternTerm::var(format!("d{d}")),
        ));
        dims.push(Dimension::new(format!("d{d}")));
    }
    patterns.push(TriplePattern::new(
        PatternTerm::var("o"),
        PatternTerm::iri(format!("{NS}measure")),
        PatternTerm::var("m"),
    ));
    let facet = Facet::new(
        "cube",
        dims,
        GroupPattern::triples(patterns),
        "m",
        config.agg,
    )
    .expect("facet variables bound by construction");

    GeneratedDataset {
        name: "synthetic-cube",
        description: format!(
            "{} observations over {:?} cardinalities (skew {})",
            config.observations, config.cardinalities, config.skew
        ),
        dataset: ds,
        facets: vec![facet],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_count_matches_config() {
        let g = generate(&Config::with_dims(5, 50));
        assert_eq!(g.default_facet().dim_count(), 5);
        assert_eq!(
            g.dataset.default_graph().len(),
            50 * 6, // 5 dims + 1 measure per observation
        );
    }

    #[test]
    fn view_target_picks_the_smallest_covering_dimension_count() {
        assert_eq!(Config::with_view_target(2, 10).lattice_views(), 2);
        assert_eq!(Config::with_view_target(256, 10).lattice_views(), 256);
        assert_eq!(Config::with_view_target(300, 10).lattice_views(), 512);
        assert_eq!(Config::with_view_target(8192, 10).lattice_views(), 8192);
        // The cap: no config can exceed MAX_DIMENSIONS dims.
        let capped = Config::with_view_target(usize::MAX, 10);
        assert_eq!(capped.cardinalities.len(), Facet::MAX_DIMENSIONS);
        // And the generated facet matches the request deterministically.
        let g = generate(&Config::with_view_target(64, 40));
        assert_eq!(g.default_facet().dim_count(), 6);
    }

    /// The cube built the plain way: one `Dataset::insert` per triple in
    /// generation order, then a merge of the index deltas.
    fn inserted_per_triple(config: &Config) -> Dataset {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut ds = Dataset::new();
        let measure_p = iri("measure");
        let samplers: Vec<Zipf> = config
            .cardinalities
            .iter()
            .map(|&c| Zipf::new(c.max(1), config.skew))
            .collect();
        for i in 0..config.observations {
            let obs = Term::blank(format!("o{i}"));
            for (d, sampler) in samplers.iter().enumerate() {
                let v = sampler.sample(&mut rng);
                ds.insert(
                    None,
                    &obs,
                    &iri(format!("dim{d}")),
                    &iri(format!("v{d}_{v}")),
                );
            }
            let m = Term::literal_int(rng.gen_range(1..MEASURE_END));
            ds.insert(None, &obs, &measure_p, &m);
        }
        ds.optimize();
        ds
    }

    #[test]
    fn bulk_load_matches_per_triple_inserts() {
        let empty = Config {
            observations: 0,
            ..Config::default()
        };
        for config in [Config::default(), Config::with_dims(6, 400), empty] {
            let bulk = generate(&config).dataset;
            let reference = inserted_per_triple(&config);
            let label = format!("{config:?}");
            assert!(
                bulk.dict().iter().eq(reference.dict().iter()),
                "id -> term table: {label}"
            );
            let (got, want) = (bulk.default_graph(), reference.default_graph());
            assert!(got.iter().eq(want.iter()), "triples: {label}");
            assert_eq!(got.len(), want.len(), "{label}");
            for (id, _) in reference.dict().iter() {
                assert_eq!(got.pred_subjects(id), want.pred_subjects(id), "{label}");
                let pred = sofos_store::IdPattern::new(None, Some(id), None);
                assert_eq!(got.count(pred), want.count(pred), "{label}");
            }
            assert_eq!(got.distinct_predicates(), want.distinct_predicates());
            let (got_postings, want_postings) = (got.posting_stats(), want.posting_stats());
            assert_eq!(got_postings.posting_lists, want_postings.posting_lists);
            assert_eq!(got_postings.bytes, want_postings.bytes);
            assert_eq!(
                bulk.estimated_bytes(),
                reference.estimated_bytes(),
                "{label}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(&Config::default());
        let b = generate(&Config::default());
        assert_eq!(a.dataset.total_triples(), b.dataset.total_triples());
    }

    #[test]
    fn cardinalities_are_respected() {
        let g = generate(&Config {
            observations: 500,
            cardinalities: vec![4, 2],
            ..Config::default()
        });
        let e = sofos_sparql::Evaluator::new(&g.dataset);
        let r = e
            .evaluate_str(&format!("SELECT DISTINCT ?v WHERE {{ ?o <{NS}dim0> ?v }}"))
            .unwrap();
        assert!(r.len() <= 4);
        assert!(r.len() >= 2, "with 500 draws most values appear");
    }
}
