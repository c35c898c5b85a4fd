//! The paper's findings (§5.1, §7.2, §7.3.1–§7.3.6), asserted row by row.
//!
//! Every row of `uops_bench::findings::FINDINGS` must read the paper's
//! value, or, where the row records a divergence, the recorded observed
//! value. A recorded divergence that now reads the paper's value fails too,
//! so the table is updated rather than left describing old behaviour.

use uops_bench::findings::{observe_all, FINDINGS};
use uops_info::prelude::*;

#[test]
fn every_finding_reads_the_paper_or_its_recorded_divergence() {
    let catalog = Catalog::intel_core();
    let observed = observe_all(&catalog, &MicroArch::ALL);
    assert_eq!(observed.len(), FINDINGS.len(), "every row is observed");
    let failures: Vec<String> =
        observed.iter().filter_map(|(finding, value)| finding.check(value).err()).collect();
    assert!(
        failures.is_empty(),
        "{} of {} findings fail:\n{}",
        failures.len(),
        observed.len(),
        failures.join("\n")
    );
}
