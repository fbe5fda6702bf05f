//! Report structures and rendering (text tables + CSV).
//!
//! These are the programmatic equivalents of the demo GUI's panels
//! (Figure 3): the lattice view, the selection outcome, and the query
//! performance analyzer, rendered as text tables and CSV. Machine-readable
//! reports go through `sofos_telemetry::Json`.

use crate::compare::OnlineOutcome;
use crate::offline::OfflineOutcome;
use crate::timing::TimeSummary;

/// One cost model's end-to-end measurements.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Cost model name.
    pub model: String,
    /// Human-readable names of the selected views.
    pub selected_views: Vec<String>,
    /// Model preparation/training time (µs).
    pub training_us: u64,
    /// Selection algorithm time (µs).
    pub selection_us: u64,
    /// Materialization time (µs).
    pub materialization_us: u64,
    /// Total triples across materialized view graphs.
    pub materialized_triples: usize,
    /// Total rows across materialized views.
    pub materialized_rows: usize,
    /// Bytes added by materialization.
    pub added_bytes: usize,
    /// `expanded / base` storage ratio.
    pub storage_amplification: f64,
    /// Queries answered from views.
    pub view_hits: usize,
    /// Queries that fell back to the base graph.
    pub fallbacks: usize,
    /// Online latency summary.
    pub latency: TimeSummary,
    /// `baseline_total / total` — wall-clock speedup on the workload.
    pub speedup: f64,
    /// Did every validated query match the base-graph answer?
    pub all_valid: bool,
}

/// The cross-model comparison for one dataset + facet (demo step
/// "Exploring Cost Models"; experiment E1).
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    /// Dataset name.
    pub dataset: String,
    /// Facet id.
    pub facet: String,
    /// Facet dimension count.
    pub dims: usize,
    /// Budget description (e.g. `4 views`).
    pub budget: String,
    /// Number of workload queries.
    pub queries: usize,
    /// Lattice sizing time (µs), shared across models.
    pub sizing_us: u64,
    /// No-views baseline latency.
    pub baseline: TimeSummary,
    /// Per-model rows.
    pub models: Vec<ModelRow>,
}

impl ModelRow {
    /// Assemble a row from the offline and online outcomes.
    pub fn new(
        offline: &OfflineOutcome,
        online: &OnlineOutcome,
        baseline: &TimeSummary,
        view_names: Vec<String>,
    ) -> ModelRow {
        ModelRow {
            model: offline.model.clone(),
            selected_views: view_names,
            training_us: offline.training_us,
            selection_us: offline.selection_us,
            materialization_us: offline.materialization_us,
            materialized_triples: offline.materialized.iter().map(|v| v.stats.triples).sum(),
            materialized_rows: offline.materialized.iter().map(|v| v.stats.rows).sum(),
            added_bytes: offline.expanded_bytes.saturating_sub(offline.base_bytes),
            storage_amplification: offline.storage_amplification(),
            view_hits: online.view_hits,
            fallbacks: online.fallbacks,
            latency: online.summary,
            speedup: if online.summary.total_us > 0 {
                baseline.total_us as f64 / online.summary.total_us as f64
            } else {
                f64::INFINITY
            },
            all_valid: online.all_valid,
        }
    }
}

impl ComparisonReport {
    /// Render the comparison as an aligned text table (the paper's panel ④).
    pub fn to_table(&self) -> String {
        let headers = [
            "model",
            "views",
            "hit/q",
            "select ms",
            "mat. ms",
            "space amp",
            "total ms",
            "mean µs",
            "p95 µs",
            "speedup",
            "valid",
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        rows.push(vec![
            "(no views)".into(),
            "0".into(),
            format!("0/{}", self.queries),
            "-".into(),
            "-".into(),
            "1.00".into(),
            format!("{:.2}", self.baseline.total_us as f64 / 1000.0),
            format!("{:.0}", self.baseline.mean_us),
            self.baseline.p95_us.to_string(),
            "1.00".into(),
            "-".into(),
        ]);
        for m in &self.models {
            rows.push(vec![
                m.model.clone(),
                m.selected_views.len().to_string(),
                format!("{}/{}", m.view_hits, self.queries),
                format!("{:.2}", m.selection_us as f64 / 1000.0),
                format!("{:.2}", m.materialization_us as f64 / 1000.0),
                format!("{:.2}", m.storage_amplification),
                format!("{:.2}", m.latency.total_us as f64 / 1000.0),
                format!("{:.0}", m.latency.mean_us),
                m.latency.p95_us.to_string(),
                format!("{:.2}", m.speedup),
                if m.all_valid {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
        let mut out = format!(
            "dataset={} facet={} dims={} budget={} queries={} (lattice sizing {:.1} ms)\n",
            self.dataset,
            self.facet,
            self.dims,
            self.budget,
            self.queries,
            self.sizing_us as f64 / 1000.0
        );
        out.push_str(&render_table(&headers, &rows));
        out
    }

    /// Render as CSV (one row per model, baseline first).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "dataset,facet,model,views,view_hits,queries,training_us,selection_us,\
             materialization_us,storage_amplification,total_us,mean_us,median_us,p95_us,\
             speedup,all_valid\n",
        );
        out.push_str(&format!(
            "{},{},no-views,0,0,{},0,0,0,1.0,{},{:.1},{},{},1.0,true\n",
            self.dataset,
            self.facet,
            self.queries,
            self.baseline.total_us,
            self.baseline.mean_us,
            self.baseline.median_us,
            self.baseline.p95_us,
        ));
        for m in &self.models {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{:.4},{},{:.1},{},{},{:.4},{}\n",
                self.dataset,
                self.facet,
                m.model,
                m.selected_views.len(),
                m.view_hits,
                self.queries,
                m.training_us,
                m.selection_us,
                m.materialization_us,
                m.storage_amplification,
                m.latency.total_us,
                m.latency.mean_us,
                m.latency.median_us,
                m.latency.p95_us,
                m.speedup,
                m.all_valid,
            ));
        }
        out
    }
}

/// Render an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("{:<w$}  ", h, w = widths[i]));
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        out.push_str(&"-".repeat(widths[i]));
        out.push_str("  ");
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyyyy".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with("------"));
        // Columns align: the second column starts at the same offset.
        let pos0 = lines[2].find('1').unwrap();
        let pos1 = lines[3].find('2').unwrap();
        assert_eq!(pos0, pos1);
    }

    #[test]
    fn csv_has_header_and_baseline() {
        let report = ComparisonReport {
            dataset: "d".into(),
            facet: "f".into(),
            dims: 3,
            budget: "4 views".into(),
            queries: 10,
            sizing_us: 1000,
            baseline: TimeSummary::from_samples(&[10, 20]),
            models: vec![],
        };
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("dataset,facet,model"));
        assert!(csv.contains("no-views"));
        let table = report.to_table();
        assert!(table.contains("(no views)"));
    }
}
