//! # uops-bench
//!
//! The experiment harness that regenerates the paper's evaluation (§7).
//! [`findings`] holds the paper's findings (§5.1, §7.2, §7.3.1–§7.3.6) as
//! one table, which `tests/paper_findings.rs` asserts. Each experiment is a
//! binary under `src/bin/`:
//!
//! | binary | experiment |
//! |---|---|
//! | `paper` | the findings table, then Table 1: variants per microarchitecture and agreement with IACA |
//! | `build_db` | §6.4: characterize a catalog slice on all generations, persist and query the `uops-db` snapshot |
//! | `serve_smoke` | boot the serving stack on a segment and check HTTP answers against in-process ones |
//!
//! The benches under `benches/` (`db_query`, `sweep`, `serve`) are plain
//! `harness = false` programs. Every number they gate or record comes from
//! [`median_ns`], and every ratio the `serve` bench gates comes from
//! [`median_ratio`] over interleaved pairs of rounds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod findings;

use std::hint::black_box;
use std::time::Instant;

use uops_core::{CharacterizationEngine, CharacterizationReport, EngineConfig};
use uops_iaca::MeasuredInstruction;
use uops_isa::{Catalog, InstructionDesc};
use uops_measure::SimBackend;
use uops_uarch::MicroArch;

/// Creates the engine/backend pair used by all experiments.
#[must_use]
pub fn experiment_setup(
    catalog: &Catalog,
    arch: MicroArch,
) -> (SimBackend, CharacterizationEngine<'_>) {
    let backend = SimBackend::new(arch);
    let engine = CharacterizationEngine::with_config(catalog, arch, EngineConfig::fast());
    (backend, engine)
}

/// Converts a characterization report into the comparison records used by
/// the IACA agreement statistics.
#[must_use]
pub fn to_measured_instructions(
    catalog: &Catalog,
    report: &CharacterizationReport,
) -> Vec<(MeasuredInstruction, InstructionDesc)> {
    report
        .profiles
        .iter()
        .filter_map(|p| {
            let desc = catalog.try_get(p.uid)?;
            Some((
                MeasuredInstruction::new(desc, p.uop_count, p.port_usage.entries().to_vec()),
                desc.clone(),
            ))
        })
        .collect()
}

/// The median of `values`: the middle value of an odd count, the mean of
/// the middle two of an even one. NaN when `values` is empty or holds a
/// NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The median wall-clock time of `runs` timed calls of `f`, after three
/// untimed warm-up calls, in nanoseconds.
pub fn median_ns<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..3 {
        black_box(f());
    }
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    median(&samples)
}

/// The number a ratio gate compares with its bound: the median, over
/// interleaved pairs of rounds, of `numerator[i] / denominator[i]`.
///
/// One disturbed round moves one pair's ratio and so cannot move the
/// median past the clean pairs, in either direction. A pair with a zero
/// denominator has no ratio: the result is then NaN, which fails every
/// `>=` and `<=` bound instead of passing as an infinity.
///
/// # Panics
///
/// If the two series differ in length.
#[must_use]
pub fn median_ratio(numerator: &[f64], denominator: &[f64]) -> f64 {
    assert_eq!(numerator.len(), denominator.len(), "a ratio gate compares pairs of rounds");
    let ratios: Vec<f64> = numerator
        .iter()
        .zip(denominator)
        .map(|(&n, &d)| if d == 0.0 { f64::NAN } else { n / d })
        .collect();
    median(&ratios)
}

/// Simple markdown-style table printer used by the experiment binaries.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Table {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Adds a row (must have the same number of cells as the header).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> =
                cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}", w = w)).collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(&["uarch", "value"]);
        t.row(&["Skylake".to_string(), "1".to_string()]);
        t.row(&["Nehalem".to_string(), "22".to_string()]);
        let rendered = t.render();
        assert!(rendered.contains("| uarch   | value |"));
        assert_eq!(rendered.lines().count(), 4);
    }

    #[test]
    fn median_ratio_of_an_odd_number_of_pairs_is_the_middle_ratio() {
        let loaded = [90.0, 120.0, 100.0, 80.0, 110.0];
        let unloaded = [100.0; 5];
        assert_eq!(median_ratio(&loaded, &unloaded), 1.0);
    }

    #[test]
    fn median_ratio_of_an_even_number_of_pairs_averages_the_middle_two() {
        let batch = [3.0, 1.0, 4.0, 2.0];
        let single = [10.0, 10.0, 40.0, 10.0];
        // Ratios 0.3, 0.1, 0.1, 0.2: the middle two are 0.1 and 0.2.
        assert!((median_ratio(&batch, &single) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn a_zero_denominator_fails_the_gate_in_either_direction() {
        let ratio = median_ratio(&[100.0, 100.0, 100.0], &[100.0, 0.0, 100.0]);
        assert!(ratio.is_nan());
        assert!(!(ratio >= 0.8), "a >= gate must fail");
        assert!(!(ratio <= 0.10), "a <= gate must fail");
    }

    #[test]
    fn one_outlier_pair_cannot_carry_the_gate() {
        // Four pairs at ~0.7x and one disturbed unloaded round: the old
        // best-paired-round rule read 2.0 and passed a >= 0.8 bound.
        let loaded = [70.0, 72.0, 71.0, 69.0, 100.0];
        let unloaded = [100.0, 100.0, 100.0, 100.0, 50.0];
        let best_pair = loaded.iter().zip(&unloaded).map(|(l, u)| l / u).fold(0.0, f64::max);
        assert_eq!(best_pair, 2.0);
        assert!((median_ratio(&loaded, &unloaded) - 0.71).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "pairs of rounds")]
    fn median_ratio_rejects_unpaired_series() {
        let _ = median_ratio(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn median_ns_times_every_run() {
        let mut calls = 0;
        let ns = median_ns(5, || calls += 1);
        assert_eq!(calls, 8, "three warm-up calls, then five timed ones");
        assert!(ns >= 0.0);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".to_string()]);
    }
}
