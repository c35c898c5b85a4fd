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

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod findings;

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
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".to_string()]);
    }
}
