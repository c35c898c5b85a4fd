//! The prior-work measurement methodology, implemented as a baseline.
//!
//! The paper contrasts its algorithms with the approach used by earlier
//! instruction tables (Agner Fog's scripts, Granlund's and AIDA64's
//! latency measurements, §5.1, §7.3.2–§7.3.4):
//!
//! * **Port usage**: run the instruction in isolation and attribute the
//!   average per-port µop counts directly, which cannot distinguish
//!   `2*p05` from `1*p0 + 1*p5`.
//! * **Latency**: report a single latency value, obtained either by chaining
//!   the instruction with itself using the *same* register for source and
//!   destination operands (Granlund/AIDA64 style) or by chaining *different*
//!   registers through the implicit destination operand (Fog style).
//!
//! Comparing the baseline's conclusions with the results of the full
//! algorithms reproduces the discrepancies discussed in the paper.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use uops_asm::{CodeSequence, Inst, Op, RegisterPool};
use uops_isa::{InstructionDesc, OperandKind};
use uops_measure::{measure, MeasurementBackend, MeasurementConfig, RunContext};
use uops_uarch::PortSet;

use crate::error::CoreError;
use crate::port_usage::{isolation_profile, IsolationProfile, PortUsage};

/// The port usage that the run-in-isolation methodology concludes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NaivePortUsage {
    /// Average µops observed per port.
    pub per_port: Vec<(u8, f64)>,
    /// The naive interpretation: ports with (roughly) equal averages are
    /// grouped and each group is reported as `count * p<group>`.
    pub interpretation: PortUsage,
}

/// Infers the port usage the way prior work does: from the per-port averages
/// of the instruction run in isolation (§5.1).
///
/// # Errors
///
/// Returns an error if the instruction cannot be instantiated.
pub fn naive_port_usage<B: MeasurementBackend + ?Sized>(
    backend: &B,
    desc: &Arc<InstructionDesc>,
    config: &MeasurementConfig,
) -> Result<NaivePortUsage, CoreError> {
    Ok(naive_from_isolation(&isolation_profile(backend, desc, config)?))
}

/// The prior-work interpretation of an isolation profile the caller has
/// already measured (see [`naive_port_usage`]).
#[must_use]
pub fn naive_from_isolation(profile: &IsolationProfile) -> NaivePortUsage {
    let per_port: Vec<(u8, f64)> =
        profile.port_averages.iter().copied().filter(|(_, v)| *v > 0.05).collect();

    // The heuristic used by prior work (§5.1): a port whose average is close
    // to a whole number of µops is reported on its own (e.g. "1 µop on port
    // 0, 1 µop on port 5" → 1*p0 + 1*p5); ports with equal *fractional*
    // averages are assumed to share µops and are grouped (e.g. 0.5 µops on
    // each of ports 0, 1, 5, 6 → 2*p0156).
    let mut entries: Vec<(PortSet, u32)> = Vec::new();
    let mut fractional: Vec<(u8, f64)> = Vec::new();
    for &(port, value) in &per_port {
        if value >= 0.85 {
            entries.push((PortSet::single(port), value.round() as u32));
        } else {
            fractional.push((port, value));
        }
    }
    // Group the fractional ports by similar averages.
    fractional.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite averages"));
    while let Some((_, value)) = fractional.first().copied() {
        let group: Vec<(u8, f64)> = fractional
            .iter()
            .copied()
            .filter(|(_, v)| (v - value).abs() <= 0.15 * value.max(0.1))
            .collect();
        fractional.retain(|(p, _)| !group.iter().any(|(gp, _)| gp == p));
        let ports: PortSet = group.iter().map(|(p, _)| *p).collect();
        let total: f64 = group.iter().map(|(_, v)| v).sum();
        let count = total.round().max(0.0) as u32;
        if count > 0 {
            entries.push((ports, count));
        }
    }
    NaivePortUsage { per_port, interpretation: PortUsage::from_entries(entries) }
}

/// A single-value latency measurement in the style of prior work.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NaiveLatency {
    /// Latency measured with the same register used for both operands
    /// (Granlund / AIDA64 style), if the instruction allows it.
    pub same_register: Option<f64>,
    /// Latency measured by chaining only through the first (destination)
    /// operand with distinct registers elsewhere (Fog style).
    pub destination_chain: Option<f64>,
}

/// Measures the single-value latency the way prior work does (§7.3.2).
///
/// # Errors
///
/// Returns an error if the instruction has no register destination operand.
pub fn naive_latency<B: MeasurementBackend + ?Sized>(
    backend: &B,
    desc: &Arc<InstructionDesc>,
    config: &MeasurementConfig,
) -> Result<NaiveLatency, CoreError> {
    let ctx = RunContext::default();
    let explicit_regs: Vec<usize> = desc
        .operands
        .iter()
        .enumerate()
        .filter(|(_, od)| od.is_explicit() && matches!(od.kind, OperandKind::Reg(_)))
        .map(|(i, _)| i)
        .collect();
    if explicit_regs.is_empty() {
        return Err(CoreError::Unsupported {
            instruction: desc.full_name(),
            reason: "no explicit register operands".to_string(),
        });
    }

    // Same register for all explicit register operands.
    let same_register = {
        let mut pool = RegisterPool::new();
        let class = match desc.operands[explicit_regs[0]].kind {
            OperandKind::Reg(c) => c,
            _ => unreachable!("filtered to register operands"),
        };
        match pool.alloc(class) {
            Ok(reg) => {
                let mut assignment = BTreeMap::new();
                for &idx in &explicit_regs {
                    if let OperandKind::Reg(c) = desc.operands[idx].kind {
                        if c.file == class.file {
                            assignment.insert(
                                idx,
                                Op::Reg(uops_isa::Register {
                                    file: reg.file,
                                    index: reg.index,
                                    width: c.width,
                                }),
                            );
                        }
                    }
                }
                match Inst::bind(desc, &assignment, &mut pool) {
                    Ok(inst) => {
                        let mut seq = CodeSequence::new();
                        seq.push(inst);
                        Some(measure(backend, &seq, config, ctx).cycles)
                    }
                    Err(_) => None,
                }
            }
            Err(_) => None,
        }
    };

    // Chain only through the destination operand: distinct registers, the
    // read-write destination forms its own chain across iterations.
    let destination_chain = {
        let mut pool = RegisterPool::new();
        match Inst::bind(desc, &BTreeMap::new(), &mut pool) {
            Ok(inst) => {
                let has_rw_dest = desc.operands.iter().any(|od| {
                    od.is_explicit()
                        && od.read
                        && od.write
                        && matches!(od.kind, OperandKind::Reg(_))
                });
                if has_rw_dest {
                    let mut seq = CodeSequence::new();
                    seq.push(inst);
                    Some(measure(backend, &seq, config, ctx).cycles)
                } else {
                    None
                }
            }
            Err(_) => None,
        }
    };

    Ok(NaiveLatency { same_register, destination_chain })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uops_isa::Catalog;
    use uops_measure::SimBackend;
    use uops_uarch::MicroArch;

    fn desc(catalog: &Catalog, mnemonic: &str, variant: &str) -> Arc<InstructionDesc> {
        Arc::new(catalog.find_variant(mnemonic, variant).unwrap().clone())
    }

    #[test]
    fn naive_port_usage_matches_simple_instructions() {
        // For a plain 1-µop ALU instruction the naive interpretation is
        // usually right (one µop spread over the ALU ports).
        let backend = SimBackend::new(MicroArch::Skylake);
        let catalog = Catalog::intel_core();
        let naive = naive_port_usage(
            &backend,
            &desc(&catalog, "PSHUFD", "XMM, XMM, I8"),
            &MeasurementConfig::fast(),
        )
        .unwrap();
        assert_eq!(naive.interpretation.to_string(), "1*p5");
    }

    #[test]
    fn naive_latency_requires_register_operands() {
        let backend = SimBackend::new(MicroArch::Skylake);
        let catalog = Catalog::intel_core();
        let err = naive_latency(&backend, &desc(&catalog, "NOP", ""), &MeasurementConfig::fast());
        assert!(err.is_err());
    }
}
