//! Hardware-measurement vs. IACA comparison (Table 1 and §7.2).
//!
//! The evaluation compares, for every instruction variant supported by both
//! the measurements and IACA, (1) whether *some* IACA version reports the
//! same µop count and (2) — among the variants where the µop counts agree —
//! whether the port usage also agrees.

use uops_isa::InstructionDesc;
use uops_uarch::{MicroArch, PortSet};

use crate::analyzer::IacaAnalyzer;
use crate::version::IacaVersion;

/// A measured instruction characterization, in the minimal form needed for
/// the comparison (produced from `uops-core`'s profiles by the caller).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredInstruction {
    /// Mnemonic.
    pub mnemonic: String,
    /// Variant string.
    pub variant: String,
    /// The instruction has a LOCK prefix.
    pub locked: bool,
    /// The instruction has a REP prefix.
    pub rep_prefix: bool,
    /// Measured µop count.
    pub uop_count: u32,
    /// Measured port usage.
    pub port_usage: Vec<(PortSet, u32)>,
}

impl MeasuredInstruction {
    /// Builds a measured-instruction record from a descriptor and the
    /// measured µop count and port usage.
    #[must_use]
    pub fn new(desc: &InstructionDesc, uop_count: u32, port_usage: Vec<(PortSet, u32)>) -> Self {
        MeasuredInstruction {
            mnemonic: desc.mnemonic.clone(),
            variant: desc.variant(),
            locked: desc.attrs.locked,
            rep_prefix: desc.attrs.rep_prefix,
            uop_count,
            port_usage,
        }
    }
}

/// Aggregate agreement statistics between measurements and IACA for one
/// microarchitecture — one row of Table 1.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AgreementStats {
    /// The microarchitecture.
    pub arch: Option<MicroArch>,
    /// The IACA version range string (e.g. `"2.1–2.3"`), if supported.
    pub versions: Option<String>,
    /// Number of measured variants.
    pub measured_variants: usize,
    /// Number of variants supported by both the measurements and IACA.
    pub compared_variants: usize,
    /// Variants where at least one IACA version reports the same µop count.
    pub uops_match: usize,
    /// Same, but excluding LOCK- and REP-prefixed variants.
    pub uops_match_excluding_lock_rep: usize,
    /// Number of compared variants excluding LOCK/REP.
    pub compared_excluding_lock_rep: usize,
    /// Among the variants with matching µop counts, those where the port
    /// usage also matches for at least one version.
    pub ports_match: usize,
}

impl AgreementStats {
    /// Percentage of compared variants with matching µop counts.
    #[must_use]
    pub fn uops_match_pct(&self) -> f64 {
        percentage(self.uops_match, self.compared_variants)
    }

    /// Percentage of compared variants (excluding LOCK/REP) with matching
    /// µop counts — the fifth column of Table 1.
    #[must_use]
    pub fn uops_match_excl_pct(&self) -> f64 {
        percentage(self.uops_match_excluding_lock_rep, self.compared_excluding_lock_rep)
    }

    /// Percentage of µop-matching variants whose port usage also matches —
    /// the last column of Table 1.
    #[must_use]
    pub fn ports_match_pct(&self) -> f64 {
        percentage(self.ports_match, self.uops_match)
    }
}

fn percentage(num: usize, denom: usize) -> f64 {
    if denom == 0 {
        0.0
    } else {
        100.0 * num as f64 / denom as f64
    }
}

/// Compares measured characterizations against all IACA versions supporting
/// the microarchitecture. Returns `None` statistics (all zeros, `versions:
/// None`) if no IACA version supports the architecture (Kaby Lake, Coffee
/// Lake).
#[must_use]
pub fn compare_against_iaca(
    arch: MicroArch,
    measured: &[(MeasuredInstruction, InstructionDesc)],
) -> AgreementStats {
    let versions = IacaVersion::supporting(arch);
    let mut stats = AgreementStats {
        arch: Some(arch),
        versions: IacaVersion::range_string(arch),
        measured_variants: measured.len(),
        ..AgreementStats::default()
    };
    if versions.is_empty() {
        return stats;
    }
    let analyzers: Vec<IacaAnalyzer> =
        versions.iter().filter_map(|v| IacaAnalyzer::new(arch, *v)).collect();

    for (m, desc) in measured {
        // Collect IACA's views from every supporting version.
        let views: Vec<_> = analyzers.iter().filter_map(|a| a.analyze_instruction(desc)).collect();
        if views.is_empty() {
            continue; // not supported by IACA at all
        }
        stats.compared_variants += 1;
        let excluded = m.locked || m.rep_prefix;
        if !excluded {
            stats.compared_excluding_lock_rep += 1;
        }

        let uops_agree = views.iter().any(|v| v.uop_count == m.uop_count);
        if uops_agree {
            stats.uops_match += 1;
            if !excluded {
                stats.uops_match_excluding_lock_rep += 1;
            }
            let ports_agree = views.iter().any(|v| {
                let mut a = v.port_usage.clone();
                let mut b = m.port_usage.clone();
                a.sort();
                b.sort();
                a == b
            });
            if ports_agree {
                stats.ports_match += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use uops_asm::{Inst, RegisterPool};
    use uops_isa::Catalog;
    use uops_uarch::{characterize, TruthOptions, UarchConfig};

    /// Builds "measured" data directly from the ground truth (the comparison
    /// logic itself is what is under test here).
    fn measured_from_truth(
        catalog: &Catalog,
        arch: MicroArch,
        limit: usize,
    ) -> Vec<(MeasuredInstruction, InstructionDesc)> {
        let cfg = UarchConfig::for_arch(arch);
        let mut out = Vec::new();
        for desc in catalog.iter() {
            if out.len() >= limit {
                break;
            }
            if !arch.supports(desc.extension) || desc.attrs.system {
                continue;
            }
            let arc = Arc::new(desc.clone());
            let mut pool = RegisterPool::new();
            let Ok(inst) = Inst::bind(&arc, &BTreeMap::new(), &mut pool) else { continue };
            let truth = characterize(&inst, &cfg, TruthOptions::default());
            let m = MeasuredInstruction::new(desc, truth.uop_count() as u32, truth.port_usage());
            out.push((m, desc.clone()));
        }
        out
    }

    #[test]
    fn agreement_is_high_but_not_perfect() {
        let catalog = Catalog::intel_core();
        for arch in [MicroArch::Skylake, MicroArch::Haswell, MicroArch::Nehalem] {
            let measured = measured_from_truth(&catalog, arch, 600);
            let stats = compare_against_iaca(arch, &measured);
            assert!(stats.compared_variants > 400, "{arch:?}: too few compared");
            let uops_pct = stats.uops_match_excl_pct();
            assert!(
                (80.0..100.0).contains(&uops_pct),
                "{arch:?}: µop agreement {uops_pct:.1}% out of expected range"
            );
            assert!(uops_pct < 99.9, "{arch:?}: agreement should not be perfect");
            let ports_pct = stats.ports_match_pct();
            assert!(
                (85.0..=100.0).contains(&ports_pct),
                "{arch:?}: port agreement {ports_pct:.1}% out of expected range"
            );
        }
    }

    #[test]
    fn unsupported_architectures_have_no_versions() {
        let catalog = Catalog::intel_core();
        let measured = measured_from_truth(&catalog, MicroArch::KabyLake, 50);
        let stats = compare_against_iaca(MicroArch::KabyLake, &measured);
        assert_eq!(stats.versions, None);
        assert_eq!(stats.compared_variants, 0);
        assert_eq!(stats.uops_match_pct(), 0.0);
    }

    #[test]
    fn lock_and_rep_are_excluded_from_the_adjusted_percentage() {
        let catalog = Catalog::intel_core();
        let arch = MicroArch::Haswell;
        let measured: Vec<_> = measured_from_truth(&catalog, arch, 2000)
            .into_iter()
            .filter(|(m, _)| m.locked || m.rep_prefix)
            .collect();
        assert!(!measured.is_empty(), "catalog contains LOCK/REP variants");
        let stats = compare_against_iaca(arch, &measured);
        assert_eq!(stats.compared_excluding_lock_rep, 0);
        // LOCK/REP µop counts are deliberately wrong in the IACA model.
        assert_eq!(stats.uops_match, 0);
    }

    #[test]
    fn percentages_handle_empty_inputs() {
        let stats = AgreementStats::default();
        assert_eq!(stats.uops_match_pct(), 0.0);
        assert_eq!(stats.ports_match_pct(), 0.0);
    }
}
