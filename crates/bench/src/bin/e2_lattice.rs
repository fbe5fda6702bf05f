//! E2 — "Exploration of the Full Lattice" (demo §4): why materializing
//! everything is impractical. Sweeps the dimension count d = 1..=6 and
//! reports lattice size (2^d views), total materialized rows/triples/bytes
//! and full-materialization wall time.
//!
//! Run with: `cargo run -p sofos-bench --release --bin e2_lattice [--smoke]`
//!
//! Emits `BENCH_lattice.json`.

use sofos_bench::Fmt::{Fixed, Ms, Raw};
use sofos_bench::{sized, BenchReport, Json};
use sofos_core::measure_once;
use sofos_cube::Lattice;
use sofos_materialize::materialize_views;
use sofos_workload::synthetic;

fn main() {
    let max_dims = sized(6usize, 4);
    let observations = sized(400, 120);
    let mut report = BenchReport::new(
        "lattice",
        format!("full-lattice materialization, d = 1..={max_dims}, {observations} observations"),
    )
    .table(
        format!(
            "E2 · full-lattice materialization vs dimension count ({observations} observations)"
        ),
        &[
            ("dims", "dims", Raw),
            ("views", "views", Raw),
            ("edges", "edges", Raw),
            ("rows", "rows", Raw),
            ("triples", "triples", Raw),
            ("space_amplification", "space amp", Fixed(2)),
            ("materialize_us", "time ms", Ms),
        ],
    );
    for dims in 1..=max_dims {
        let generated = synthetic::generate(&synthetic::Config::with_dims(dims, observations));
        let facet = generated.default_facet().clone();
        let lattice = Lattice::new(facet.clone());
        let base_bytes = generated.dataset.estimated_bytes();

        let mut dataset = generated.dataset.clone();
        let masks: Vec<_> = lattice.views().collect();
        let (elapsed_us, views) = measure_once(|| {
            materialize_views(&mut dataset, &facet, &masks).expect("materialization succeeds")
        });
        let stats = views
            .iter()
            .fold((0usize, 0usize), |(rows, triples), view| {
                (rows + view.stats.rows, triples + view.stats.triples)
            });
        let expanded_bytes = dataset.estimated_bytes();
        let amplification = expanded_bytes as f64 / base_bytes as f64;

        report.push(Json::object([
            ("dims", Json::from(dims)),
            ("views", Json::from(lattice.num_views())),
            ("edges", Json::from(lattice.num_edges())),
            ("rows", Json::from(stats.0)),
            ("triples", Json::from(stats.1)),
            ("space_amplification", Json::from(amplification)),
            ("materialize_us", Json::from(elapsed_us)),
        ]));
    }
    report.finish(
        "Reading: views double per dimension; space amplification and\n\
         materialization time grow with them — the motivation for selecting k views.",
    );
}
