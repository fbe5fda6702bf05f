//! Feature encoding for the learned cost model.
//!
//! Per the paper (§3.1): "We encode a query into a vector representing the
//! relationships, the attributes, and the type of aggregates in the query,
//! along with statistics about the relationship frequency and the attribute
//! frequency."
//!
//! For a view `V(X̄′)` of facet `F` the encoding is, in order:
//!
//! 1. one indicator per facet dimension (is it retained?)          — `d`
//! 2. per dimension: `log1p(cardinality)` if retained, else 0      — `d`
//! 3. retained-dimension count                                      — 1
//! 4. `log1p` of the estimated group count (capped product of
//!    retained cardinalities)                                       — 1
//! 5. aggregate one-hot (SUM/AVG/COUNT/MIN/MAX)                     — 5
//! 6. `log1p(base graph triples)`                                   — 1
//! 7. number of triple patterns in `P` (the "relationships")        — 1
//! 8. `log1p` of the base graph's mean predicate frequency
//!    (`triples / distinct predicates`, the "relationship
//!    frequency" statistic), summed over the constant-IRI
//!    predicate patterns and divided by the pattern count           — 1
//!
//! Total dimensionality: `2d + 10`.

use crate::context::CostContext;
use sofos_cube::{AggOp, Facet, ViewMask};
use sofos_rdf::Term;
use sofos_sparql::{PatternElement, PatternTerm};

/// Feature-vector length for a facet.
pub fn feature_dim(facet: &Facet) -> usize {
    2 * facet.dim_count() + 10
}

/// Encode one candidate view.
pub fn view_features(ctx: &CostContext<'_>, view: ViewMask) -> Vec<f64> {
    let facet = ctx.facet;
    let d = facet.dim_count();
    let mut out = Vec::with_capacity(feature_dim(facet));

    // 1. Dimension indicators.
    for i in 0..d {
        out.push(if view.contains(i) { 1.0 } else { 0.0 });
    }
    // 2. Per-dimension cardinalities.
    let mut est_groups: f64 = 1.0;
    for i in 0..d {
        if view.contains(i) {
            let card = ctx.dim_cardinality(i).unwrap_or(1) as f64;
            est_groups = (est_groups * card).min(1e15);
            out.push(card.ln_1p());
        } else {
            out.push(0.0);
        }
    }
    // 3. Level.
    out.push(view.dim_count() as f64);
    // 4. Estimated group count.
    out.push(est_groups.ln_1p());
    // 5. Aggregate one-hot.
    for op in AggOp::ALL {
        out.push(if facet.agg == op { 1.0 } else { 0.0 });
    }
    // 6. Base size.
    out.push((ctx.base.triples as f64).ln_1p());
    // 7./8. Pattern shape and relationship frequency. `GraphStats` is
    // not keyed by predicate, so every constant predicate contributes the
    // base graph's mean frequency.
    let mean_pred_freq = (ctx
        .base
        .triples
        .checked_div(ctx.base.distinct_predicates)
        .unwrap_or(0) as f64)
        .ln_1p();
    let mut pattern_count = 0.0;
    let mut freq_sum = 0.0;
    for element in &facet.pattern.elements {
        if let PatternElement::Triples { patterns, .. } = element {
            for p in patterns {
                pattern_count += 1.0;
                if let PatternTerm::Const(Term::Iri(_)) = &p.predicate {
                    freq_sum += mean_pred_freq;
                }
            }
        }
    }
    out.push(pattern_count);
    out.push(if pattern_count > 0.0 {
        freq_sum / pattern_count
    } else {
        0.0
    });

    debug_assert_eq!(out.len(), feature_dim(facet));
    out
}

/// Z-score normalizer fitted on a training matrix.
#[derive(Debug, Clone)]
pub struct Normalizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Normalizer {
    /// Fit per-column mean/std (std 0 → 1 to keep constants harmless).
    pub fn fit(rows: &[Vec<f64>]) -> Normalizer {
        let dim = rows.first().map_or(0, Vec::len);
        let n = rows.len().max(1) as f64;
        let mut means = vec![0.0; dim];
        for row in rows {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; dim];
        for row in rows {
            for ((s, v), m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Normalizer { means, stds }
    }

    /// Apply the fitted transform.
    pub fn apply(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::size_lattice;
    use sofos_cube::{Dimension, Lattice};
    use sofos_sparql::{GroupPattern, TriplePattern};
    use sofos_store::{Dataset, GraphStats};

    fn setup() -> (Dataset, Facet) {
        let mut ds = Dataset::new();
        let a = Term::iri("http://e/a");
        let m = Term::iri("http://e/m");
        for i in 0..10 {
            let obs = Term::blank(format!("o{i}"));
            ds.insert(None, &obs, &a, &Term::iri(format!("http://e/A{}", i % 3)));
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
                PatternTerm::iri("http://e/m"),
                PatternTerm::var("m"),
            ),
        ]);
        let facet = Facet::new("t", vec![Dimension::new("a")], pattern, "m", AggOp::Sum).unwrap();
        (ds, facet)
    }

    #[test]
    fn feature_dim_formula() {
        let (_, facet) = setup();
        assert_eq!(
            feature_dim(&facet),
            2 + 10,
            "2 per dim x 1 dim, plus 10 globals"
        );
    }

    #[test]
    fn features_have_declared_dim_and_vary_by_view() {
        let (ds, facet) = setup();
        let lattice = Lattice::new(facet.clone());
        let sized = size_lattice(&ds, &lattice).unwrap();
        let base = GraphStats::compute(ds.default_graph());
        let ctx = CostContext {
            facet: &facet,
            view_stats: &sized,
            base: &base,
        };
        let apex = view_features(&ctx, ViewMask::APEX);
        let full = view_features(&ctx, ViewMask::full(1));
        assert_eq!(apex.len(), feature_dim(&facet));
        assert_eq!(full.len(), feature_dim(&facet));
        assert_ne!(apex, full);
        assert_eq!(full[0], 1.0, "dimension indicator set");
        assert_eq!(apex[0], 0.0);
    }

    #[test]
    fn normalizer_zero_means_unit_stds() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let norm = Normalizer::fit(&rows);
        let transformed: Vec<Vec<f64>> = rows.iter().map(|r| norm.apply(r)).collect();
        let mean0: f64 = transformed.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
        // Constant column: untouched scale (std forced to 1), zero centered.
        assert!(transformed.iter().all(|r| r[1].abs() < 1e-12));
    }

    #[test]
    fn normalizer_handles_empty() {
        let norm = Normalizer::fit(&[]);
        assert!(norm.apply(&[]).is_empty());
    }
}
