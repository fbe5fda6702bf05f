//! `sofos` — command-line front end to the SOFOS engine.
//!
//! ```text
//! sofos datasets                             list the demo datasets + facets
//! sofos lattice  <dataset>                   size the facet's full lattice
//! sofos compare  <dataset> [k] [queries]     compare all six cost models
//! sofos query    <dataset> <sparql>          run an ad-hoc query
//! sofos export   <dataset> [nt|ttl]          dump the base graph
//! ```
//!
//! Datasets: `dbpedia`, `lubm`, `swdf` (generated, deterministic seeds).

use sofos::core::{compare_cost_models, EngineConfig, SizedLattice};
use sofos::cost::CostModelKind;
use sofos::select::Budget;
use sofos::sparql::Evaluator;
use sofos::workload::{dbpedia, lubm, swdf, GeneratedDataset};
use std::io::Write;
use std::process::ExitCode;

/// Print to stdout, exiting quietly when the consumer closed the pipe
/// (`sofos export ... | head` must not panic).
macro_rules! out {
    ($($arg:tt)*) => {
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            return ExitCode::SUCCESS;
        }
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sofos datasets\n  sofos lattice <dataset>\n  \
         sofos compare <dataset> [k] [queries]\n  sofos query <dataset> <sparql>\n  \
         sofos export <dataset> [nt|ttl]\n\ndatasets: dbpedia | lubm | swdf"
    );
    ExitCode::FAILURE
}

fn load(name: &str) -> Option<GeneratedDataset> {
    match name {
        "dbpedia" => Some(dbpedia::generate(&dbpedia::Config::default())),
        "lubm" => Some(lubm::generate(&lubm::Config::default())),
        "swdf" => Some(swdf::generate(&swdf::Config::default())),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("datasets") => {
            for g in sofos::workload::all_datasets() {
                let facet = g.default_facet();
                println!(
                    "{:<14} {:>7} triples  facet `{}` ({} dims → {} views)  — {}",
                    g.name,
                    g.dataset.total_triples(),
                    facet.id,
                    facet.dim_count(),
                    1u64 << facet.dim_count(),
                    g.description
                );
            }
            ExitCode::SUCCESS
        }
        Some("lattice") => {
            let Some(g) = args.get(1).and_then(|n| load(n)) else {
                return usage();
            };
            let facet = g.default_facet();
            let sized = match SizedLattice::compute(&g.dataset, facet) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "facet `{}`: {} views sized in {:.1} ms",
                facet.id,
                sized.lattice.num_views(),
                sized.sizing_us as f64 / 1000.0
            );
            out!(
                "{:<40} {:>8} {:>9} {:>8} {:>10}",
                "view",
                "rows",
                "triples",
                "nodes",
                "bytes"
            );
            for mask in sized.lattice.views() {
                let s = &sized.stats[&mask];
                out!(
                    "{:<40} {:>8} {:>9} {:>8} {:>10}",
                    sized.lattice.view_name(mask),
                    s.rows,
                    s.triples,
                    s.nodes,
                    s.bytes
                );
            }
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let Some(g) = args.get(1).and_then(|n| load(n)) else {
                return usage();
            };
            let k: usize = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(4);
            let queries: usize = args.get(3).and_then(|v| v.parse().ok()).unwrap_or(40);
            let mut config = EngineConfig {
                budget: Budget::Views(k),
                ..EngineConfig::default()
            };
            config.workload.num_queries = queries;
            let facet = g.default_facet();
            match compare_cost_models(g.name, &g.dataset, facet, &CostModelKind::ALL, &config) {
                Ok(report) => {
                    println!("{}", report.to_table());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("query") => {
            let (Some(g), Some(text)) = (args.get(1).and_then(|n| load(n)), args.get(2)) else {
                return usage();
            };
            match Evaluator::new(&g.dataset).evaluate_str(text) {
                Ok(results) => {
                    println!("{results}");
                    println!("{} row(s)", results.len());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("export") => {
            let Some(g) = args.get(1).and_then(|n| load(n)) else {
                return usage();
            };
            let format = args.get(2).map(String::as_str).unwrap_or("nt");
            let ds = &g.dataset;
            let mut graph = sofos::rdf::Graph::new();
            for [s, p, o] in ds.default_graph().iter() {
                graph.insert(sofos::rdf::Triple::new_unchecked(
                    ds.term(s).clone(),
                    ds.term(p).clone(),
                    ds.term(o).clone(),
                ));
            }
            match format {
                "nt" => out!("{}", sofos::rdf::write_ntriples(&graph)),
                "ttl" => out!("{}", sofos::rdf::write_turtle(&graph, &[])),
                other => {
                    eprintln!("unknown format {other:?} (use nt or ttl)");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
