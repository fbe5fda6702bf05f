//! The experiment-report format: `BENCH_<experiment>.json`.
//!
//! Every experiment binary records its sweep as a [`BenchReport`]: one
//! JSON object per cell, written to `BENCH_<experiment>.json` so the
//! performance trajectory accumulates across runs. The same rows drive
//! the printed table (through the report's [`Column`]s) and the report's
//! gates decide whether the file is written at all. The underlying JSON
//! value type ([`Json`] — writer *and* recursive-descent parser) lives in
//! `sofos_telemetry::json` so the HTTP serving tier can share it without
//! depending on the bench crate; the `bench_diff` regression harness
//! parses committed baselines with the same type.

pub use sofos_telemetry::json::{escape_into, Json};

use sofos_core::render_table;
use std::path::{Path, PathBuf};

/// How a table column renders its JSON value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fmt {
    /// The value as written (strings without quotes).
    Raw,
    /// Microseconds shown as milliseconds with two decimals.
    Ms,
    /// A quotient with two decimals and an `x` suffix.
    Ratio,
    /// A number with this many decimals.
    Fixed(usize),
}

impl Fmt {
    pub(crate) fn render(self, value: &Json) -> String {
        match (self, value.as_f64()) {
            (Fmt::Ms, Some(us)) => format!("{:.2}", us / 1000.0),
            (Fmt::Ratio, Some(r)) => format!("{r:.2}x"),
            (Fmt::Fixed(decimals), Some(v)) => format!("{v:.decimals$}"),
            _ => value
                .as_str()
                .map_or_else(|| value.to_string(), str::to_string),
        }
    }
}

/// A printed table column: the JSON key it reads, its header, its format.
pub type Column = (&'static str, &'static str, Fmt);

/// A sweep report: one row per experiment cell, the table those rows
/// print as, and the gates that must hold before the file is written.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Experiment id (`maintenance` → `BENCH_maintenance.json`).
    pub experiment: String,
    /// Free-form sweep description.
    pub description: String,
    /// One object per cell.
    pub rows: Vec<Json>,
    title: String,
    columns: Vec<Column>,
    gates: Vec<(bool, String)>,
}

impl BenchReport {
    /// Start a report.
    pub fn new(experiment: impl Into<String>, description: impl Into<String>) -> BenchReport {
        BenchReport {
            experiment: experiment.into(),
            description: description.into(),
            rows: Vec::new(),
            title: String::new(),
            columns: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Declare the printed table: its title and the row keys it shows.
    pub fn table(mut self, title: impl Into<String>, columns: &[Column]) -> BenchReport {
        self.title = title.into();
        self.columns = columns.to_vec();
        self
    }

    /// Append one cell row.
    pub fn push(&mut self, row: Json) {
        self.rows.push(row);
    }

    /// Record a named acceptance gate; [`BenchReport::finish`] fails on
    /// any gate whose `ok` is false.
    pub fn gate(&mut self, ok: bool, message: impl Into<String>) {
        self.gates.push((ok, message.into()));
    }

    /// The rows as a table of the declared columns. A key a row lacks is
    /// an empty cell; a summary row (`"summary": true`) reads `summary`
    /// in its first empty cell.
    fn render_table(&self) -> String {
        let headers: Vec<&str> = self.columns.iter().map(|column| column.1).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                let mut cells: Vec<String> = self
                    .columns
                    .iter()
                    .map(|&(key, _, fmt)| row.get(key).map_or_else(String::new, |v| fmt.render(v)))
                    .collect();
                if row.get("summary").is_some() {
                    if let Some(cell) = cells.iter_mut().find(|cell| cell.is_empty()) {
                        *cell = "summary".into();
                    }
                }
                cells
            })
            .collect();
        render_table(&headers, &rows)
    }

    /// The shared tail of every experiment binary: print the table and
    /// the `reading` text, panic if any gate failed, then write
    /// `BENCH_<experiment>.json` into the current directory. A failed gate
    /// writes no report.
    pub fn finish(self, reading: &str) {
        let dir = std::env::current_dir().expect("cwd");
        self.finish_in(&dir, reading);
    }

    fn finish_in(self, dir: &Path, reading: &str) {
        println!("== {} ==\n{}", self.title, self.render_table());
        println!("{reading}");
        let failed: Vec<&str> = self
            .gates
            .iter()
            .filter(|(ok, _)| !ok)
            .map(|(_, message)| message.as_str())
            .collect();
        assert!(
            failed.is_empty(),
            "{} gate(s) failed:\n{}",
            failed.len(),
            failed.join("\n")
        );
        let path = self.write_to(dir).expect("report written");
        println!("wrote {}", path.display());
    }

    /// The report as a JSON string (pretty enough for diffs: one row per
    /// line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"experiment\": ");
        escape_into(&self.experiment, &mut out);
        out.push_str(",\n  \"description\": ");
        escape_into(&self.description, &mut out);
        out.push_str(",\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    ");
            row.write(&mut out);
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_<experiment>.json` into the given directory, returning
    /// the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_pretty_reports() {
        let mut report = BenchReport::new("x", "d");
        report.push(Json::object([("a", Json::from(1usize))]));
        let parsed = Json::parse(&report.to_json()).expect("report parses");
        assert_eq!(
            parsed.get("rows").and_then(Json::items).map(<[_]>::len),
            Some(1)
        );
    }

    #[test]
    fn report_round_trip_shape() {
        let mut report = BenchReport::new("maintenance", "sweep");
        report.push(Json::object([("cell", Json::from(1usize))]));
        report.push(Json::object([("cell", Json::from(2usize))]));
        let text = report.to_json();
        assert!(text.contains("\"experiment\": \"maintenance\""));
        assert_eq!(text.matches("{\"cell\":").count(), 2);
        assert!(text.trim_end().ends_with('}'));

        let dir = std::env::temp_dir();
        let path = report.write_to(&dir).unwrap();
        assert!(path.ends_with("BENCH_maintenance.json"));
        let read_back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read_back, text);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn table_is_drawn_from_the_json_rows() {
        let mut report = BenchReport::new("t", "d").table(
            "title",
            &[
                ("mode", "mode", Fmt::Raw),
                ("wall_us", "wall ms", Fmt::Ms),
                ("speedup", "speedup", Fmt::Ratio),
            ],
        );
        report.push(Json::object([
            ("mode", Json::from("epoch")),
            ("wall_us", Json::from(2500u64)),
        ]));
        report.push(Json::object([
            ("summary", Json::from(true)),
            ("speedup", Json::from(1.5)),
        ]));
        let table = report.render_table();
        let lines: Vec<Vec<&str>> = table
            .lines()
            .map(|line| line.split_whitespace().collect())
            .collect();
        assert_eq!(lines[0], ["mode", "wall", "ms", "speedup"]);
        assert_eq!(lines[2], ["epoch", "2.50"]);
        assert_eq!(lines[3], ["summary", "1.50x"]);
    }

    #[test]
    fn failed_gate_panics_before_any_file_is_written() {
        let dir = std::env::temp_dir().join(format!("sofos-bench-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_gated.json");

        let mut report = BenchReport::new("gated", "d").table("t", &[("a", "a", Fmt::Raw)]);
        report.push(Json::object([("a", Json::from(1usize))]));
        report.gate(true, "the first gate holds");
        let mut failing = report.clone();
        failing.gate(false, "the second gate fails");
        let panic = std::panic::catch_unwind(|| failing.finish_in(&dir, "reading"))
            .expect_err("a failed gate panics");
        let message = panic.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("the second gate fails"), "{message}");
        assert!(!message.contains("the first gate holds"), "{message}");
        assert!(!path.exists(), "a failed gate must write no report");

        report.finish_in(&dir, "reading");
        assert!(path.exists(), "passing gates write the report");
        std::fs::remove_dir_all(&dir).ok();
    }
}
