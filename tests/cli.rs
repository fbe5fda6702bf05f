//! The `sofos` command-line front end, driven as a process.

use std::process::{Command, Output};

fn sofos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sofos"))
        .args(args)
        .output()
        .expect("sofos runs")
}

/// The report names the dataset it was asked for, and every model's view
/// answers validate against the base graph.
#[test]
fn compare_names_the_dataset_and_validates_every_model() {
    let output = sofos(&["compare", "swdf", "2", "6"]);
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "exit {:?}:\n{text}", output.status);
    let header = text.lines().next().expect("a header line");
    assert!(
        header.starts_with("dataset=swdf-like "),
        "header names the dataset: {header}"
    );

    // Header, column names and a dashed rule; then the no-views baseline
    // and one row per model.
    let rows: Vec<&str> = text.lines().skip(3).take_while(|l| !l.is_empty()).collect();
    assert!(rows[0].starts_with("(no views)"), "{text}");
    let models = &rows[1..];
    assert_eq!(models.len(), 6, "six cost models:\n{text}");
    for row in models {
        let valid = row.split_whitespace().last();
        assert_eq!(valid, Some("yes"), "invalid view answers: {row}");
    }
}

#[test]
fn query_prints_the_row_count() {
    let output = sofos(&[
        "query",
        "swdf",
        "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
    ]);
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "exit {:?}:\n{text}", output.status);
    assert!(text.lines().any(|line| line == "1 row(s)"), "{text}");
}

#[test]
fn unknown_dataset_prints_usage_and_fails() {
    let output = sofos(&["compare", "nosuch"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.starts_with("usage:"), "{stderr}");
    assert!(stderr.contains("sofos compare <dataset>"), "{stderr}");
}
