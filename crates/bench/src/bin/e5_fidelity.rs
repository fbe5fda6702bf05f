//! E5 — the paper's core claim (§3): "in the relational case … there is a
//! linear correlation between number of tuples and running time. This
//! linear correlation does not trivially hold in the case of knowledge
//! graphs."
//!
//! For every demo dataset this experiment measures, per lattice view, the
//! actual time to answer a covered query from that view, then reports the
//! Spearman rank correlation between each static cost statistic
//! (triples / agg-values / nodes) and the measured time. Correlations far
//! below 1 are exactly the pitfall SOFOS demonstrates.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e5_fidelity [--smoke]`
//!
//! Emits `BENCH_fidelity.json`.

use sofos_bench::Fmt::{Fixed, Raw};
use sofos_bench::{sized, BenchReport, Json};
use sofos_core::{measure_median, SizedLattice};
use sofos_cost::spearman;
use sofos_cube::facet_query;
use sofos_materialize::materialize_view;
use sofos_rewrite::{analyze_query, rewrite_query};
use sofos_sparql::{CompareOp, Evaluator, Expr};
use sofos_workload::{all_datasets, derivable_aggs, dimension_values};

fn main() {
    let reps = sized(5, 2);
    let mut datasets = all_datasets();
    if sofos_bench::smoke() {
        datasets.truncate(1);
    }
    let mut report = BenchReport::new(
        "fidelity",
        format!("Spearman(cost statistic, measured time), median of {reps} reps"),
    )
    .table(
        "E5 · Spearman(cost statistic, measured time): \
         E5a exactly-matching queries, E5b filtered re-aggregating queries",
        &[
            ("dataset", "dataset", Raw),
            ("views", "views", Raw),
            ("spearman_triples", "a: triples", Fixed(3)),
            ("spearman_agg_values", "a: agg-values", Fixed(3)),
            ("spearman_nodes", "a: nodes", Fixed(3)),
            ("mixed_queries", "b: queries", Raw),
            ("spearman_mixed_triples", "b: triples", Fixed(3)),
        ],
    );
    for generated in datasets {
        let facet = generated.default_facet().clone();
        let sized_lattice = SizedLattice::compute(&generated.dataset, &facet).expect("sizing");
        let agg = derivable_aggs(&facet)[0];
        let dim_values = dimension_values(&generated.dataset, &facet);

        // Materialize the full lattice once.
        let mut expanded = generated.dataset.clone();
        for mask in sized_lattice.lattice.views() {
            materialize_view(&mut expanded, &facet, mask).expect("materializes");
        }
        let evaluator = Evaluator::new(&expanded);

        // Series 1 — identity: answer the exactly-matching query from each
        // view. Series 2 — mixed: a *coarser* query with a filter on the
        // dropped dimension, answered from the same view (re-aggregation +
        // selection, the realistic online path).
        let mut triples = Vec::new();
        let mut rows_stat = Vec::new();
        let mut nodes = Vec::new();
        let mut identity_times = Vec::new();
        let mut mixed_triples = Vec::new();
        let mut mixed_times = Vec::new();
        for mask in sized_lattice.lattice.views() {
            let query = facet_query(&facet, mask, agg, vec![]);
            let analysis = analyze_query(&facet, &query).expect("facet query analyzes");
            let rewritten = rewrite_query(&facet, &analysis, mask);
            let (us, result) = measure_median(reps, || evaluator.evaluate(&rewritten));
            result.expect("query evaluates");
            let stats = &sized_lattice.stats[&mask];
            triples.push(stats.triples as f64);
            rows_stat.push(stats.rows as f64);
            nodes.push(stats.nodes as f64);
            identity_times.push(us as f64);

            // Mixed: drop the view's highest dimension, filter on it.
            if let Some(&dropped) = mask.dims().last() {
                let coarser = mask.without(dropped);
                if let Some(value) = dim_values[dropped].first() {
                    let filter = Expr::Compare(
                        CompareOp::Eq,
                        Box::new(Expr::var(facet.dimensions[dropped].var.clone())),
                        Box::new(Expr::Const(value.clone())),
                    );
                    let q = facet_query(&facet, coarser, agg, vec![filter]);
                    let a = analyze_query(&facet, &q).expect("filtered query analyzes");
                    debug_assert!(mask.covers(a.required));
                    let rewritten = rewrite_query(&facet, &a, mask);
                    let (us, result) = measure_median(reps, || evaluator.evaluate(&rewritten));
                    result.expect("query evaluates");
                    mixed_triples.push(stats.triples as f64);
                    mixed_times.push(us as f64);
                }
            }
        }

        let s_triples = spearman(&triples, &identity_times);
        let s_rows = spearman(&rows_stat, &identity_times);
        let s_nodes = spearman(&nodes, &identity_times);
        let s_mixed = spearman(&mixed_triples, &mixed_times);
        report.push(Json::object([
            ("dataset", Json::from(generated.name)),
            ("views", Json::from(sized_lattice.lattice.num_views())),
            ("spearman_triples", Json::from(s_triples)),
            ("spearman_agg_values", Json::from(s_rows)),
            ("spearman_nodes", Json::from(s_nodes)),
            ("mixed_queries", Json::from(mixed_times.len())),
            ("spearman_mixed_triples", Json::from(s_mixed)),
        ]));
    }
    report.finish(
        "Reading: 1.000 would mean the relational 'size ⇒ time' proxy transfers\n\
         perfectly to RDF. Identity queries track view size closely on this\n\
         substrate; the filtered/re-aggregating series (E5b) is where the\n\
         proxy degrades — selective filters decouple work from view size.",
    );
}
