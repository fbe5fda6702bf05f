//! # sofos-bench — the SOFOS experiment harness
//!
//! One experiment binary per demo-scenario station (the committed
//! `BENCH_<experiment>.json` files at the repo root hold the recorded
//! results):
//!
//! | id | binary |
//! |----|--------|
//! | E1 cost-model comparison     | `e1_cost_models`  |
//! | E2 full-lattice exploration  | `e2_lattice`      |
//! | E3 budget sweep / sweet spot | `e3_budget_sweep` |
//! | E4 learned-model quality     | `e4_learned`      |
//! | E5 cost↛time fidelity        | `e5_fidelity`     |
//! | E6 hands-on challenge oracle | `e6_challenge`    |
//! | E7 maintenance sweep         | `e7_maintenance`  |
//! | E8 adaptive re-selection     | `e8_adaptive`     |
//! | E9 concurrent serving        | `e9_concurrency`  |
//! | E10 two-phase pipeline       | `e10_pipeline`    |
//! | E11 network serving          | `e11_serving`     |
//! | E12 durability               | `e12_durability`  |
//! | E13 bitmap scan planning     | `e13_bitmap_scan` |
//! | CI bench-regression gate     | `bench_diff`      |
//!
//! Store and SPARQL substrate timings live in the claim benchmark's
//! `store.*` / `sparql.*` per-layer metrics (`benchmarks/sofos-e2e`).
//!
//! Every experiment binary accepts `--smoke` ([`smoke`]): a
//! seconds-not-minutes sweep for CI, emitting the same JSON shape as the
//! full run. `bench_diff` closes the loop: CI compares the fresh smoke
//! reports against the committed `benchmarks/baselines/` and fails on
//! drift.
//!
//! ## Adding an experiment
//!
//! A new `crates/bench/src/bin/eN_<name>.rs` is picked up by CI's smoke
//! loop on its own. It states each cell once:
//!
//! 1. **Declare columns.** `BenchReport::new(id, description)
//!    .table(title, &[(key, header, Fmt::…), …])` names the row keys the
//!    printed table shows and how ([`Fmt::Raw`], [`Fmt::Ms`] for µs,
//!    [`Fmt::Ratio`], [`Fmt::Fixed`]).
//! 2. **Push rows.** One [`Json::object`] per cell with
//!    [`BenchReport::push`]; the table is drawn from these rows, so a
//!    value is written once. Mark summary rows with `"summary": true`.
//! 3. **Add gates.** [`BenchReport::gate`]`(ok, message)` for every
//!    acceptance criterion, next to the verdict field it also reports.
//! 4. **Call `finish`.** [`BenchReport::finish`]`(reading)` prints the
//!    table and the reading text, panics on a failed gate, and only then
//!    writes `BENCH_<id>.json` into the current directory.
//!
//! The serving experiments share one subject, [`Cube`]: a seeded
//! synthetic cube with an offline-selected catalog and an engine builder.
//!
//! Once a smoke report is copied into `benchmarks/baselines/`,
//! `bench_diff` gates it field by field, by name:
//!
//! * **exactly** — strings, booleans and integer counts;
//! * **with tolerance** — `_us` / `_ms` fields and every float, within
//!   20 % or 5 ms, whichever is more lenient;
//! * **not at all** — the scheduling- and wall-derived names in its
//!   `VOLATILE` list (and `adaptive_beats_*`), shown as `info` rows.

pub mod fixture;
pub mod json;

pub use fixture::{Cube, Demand};
pub use json::{BenchReport, Column, Fmt, Json};

use sofos_core::render_table;
use sofos_telemetry::Histogram;

/// True when the binary was invoked with `--smoke`: shrink the sweep to
/// run in seconds (CI), keeping the report shape identical.
pub fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Pick the full- or smoke-sized value of a parameter.
pub fn sized<T>(full: T, smoke_sized: T) -> T {
    if smoke() {
        smoke_sized
    } else {
        full
    }
}

/// Print a titled table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("== {title} ==");
    println!("{}", render_table(headers, rows));
}

/// The `p`-th percentile (0–100, nearest-rank) of a sample set; 0 when
/// empty.
///
/// Computed through a [`sofos_telemetry::Histogram`] snapshot so bench
/// reports and the engine's metrics layer agree on one quantile
/// definition: exact below 32, < 1/32 relative error above (the answer is
/// the lower bound of the bucket holding the nearest-rank sample).
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    let hist = Histogram::new();
    hist.record_all(samples);
    hist.snapshot().quantile((p / 100.0).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(Fmt::Ms.render(&Json::from(1500u64)), "1.50");
        assert_eq!(Fmt::Ratio.render(&Json::from(2.0)), "2.00x");
        assert_eq!(Fmt::Fixed(1).render(&Json::from(-2.34)), "-2.3");
        assert_eq!(Fmt::Raw.render(&Json::from("epoch")), "epoch");
        assert_eq!(Fmt::Raw.render(&Json::from(true)), "true");
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 95.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        // 95 lands in the [64, 128) range where buckets are 2 wide: the
        // histogram answers the bucket lower bound, 94.
        assert_eq!(percentile(&samples, 95.0), 94);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
    }

    #[test]
    fn sized_follows_smoke_flag() {
        // The test harness is never invoked with `--smoke`.
        assert!(!smoke());
        assert_eq!(sized(100, 10), 100);
    }
}
