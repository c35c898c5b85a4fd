//! Throughput measurement and computation (§4.2, §5.3).
//!
//! Two notions of throughput are supported:
//!
//! * **Measured throughput** (Fog's definition, Definition 2): the average
//!   number of cycles per instruction for a sequence of independent
//!   instances of the instruction. Sequences of 1, 2, 4, and 8 instances are
//!   measured, optionally with dependency-breaking instructions for implicit
//!   read-write operands, and the minimum is reported.
//! * **Throughput computed from the port usage** (Intel's definition,
//!   Definition 1): the minimum achievable maximum port load, obtained by
//!   solving the small optimization problem of §5.3.2 with `uops-lp`.

use std::sync::Arc;

use uops_asm::{CodeSequence, Inst, Op, RegisterPool};
use uops_isa::{InstructionDesc, OperandKind};
use uops_measure::{measure, MeasurementBackend, MeasurementConfig, RunContext};

use crate::codegen::{flag_dependency_breaker, independent_copies, register_dependency_breaker};
use crate::error::CoreError;
use crate::port_usage::PortUsage;

/// The measured and computed throughput of an instruction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Throughput {
    /// Measured cycles per instruction: the minimum over sequences of 1, 2,
    /// 4, and 8 independent instances (implicit dependencies — e.g. on the
    /// status flags — are *not* broken, matching Definition 2), with
    /// high-latency divider operand values where applicable.
    pub measured: f64,
    /// Measured cycles per instruction when dependency-breaking instructions
    /// are inserted for implicit read-write operands (§5.3.1); `None` if the
    /// instruction has no such operands. This is not necessarily lower than
    /// `measured`, since the breaking instructions consume execution
    /// resources themselves.
    pub measured_with_breaking: Option<f64>,
    /// Measured cycles per instruction with low-latency divider operand
    /// values (§5.3.1); `None` for instructions not using the divider.
    pub measured_low_values: Option<f64>,
    /// Throughput according to Intel's definition, computed from the port
    /// usage (§5.3.2); `None` if the port usage is unknown or the
    /// instruction uses the (not fully pipelined) divider.
    pub from_port_usage: Option<f64>,
}

impl Throughput {
    /// The best (smallest) available measured throughput value.
    #[must_use]
    pub fn best(&self) -> f64 {
        let mut best = self.measured;
        if let Some(v) = self.measured_low_values {
            best = best.min(v);
        }
        if let Some(v) = self.measured_with_breaking {
            best = best.min(v);
        }
        best
    }
}

/// Measures the throughput of an instruction according to Definition 2
/// (§5.3.1).
///
/// The sequences are built once and measured with the high-latency operand
/// values, and, for divider instructions, again with the low-latency ones.
///
/// # Errors
///
/// Returns an error if the instruction cannot be instantiated.
pub fn measure_throughput<B: MeasurementBackend + ?Sized>(
    backend: &B,
    catalog: &uops_isa::Catalog,
    desc: &Arc<InstructionDesc>,
    config: &MeasurementConfig,
) -> Result<Throughput, CoreError> {
    // Sequences of 1, 2, 4, and 8 independent instances (§5.3.1: longer
    // sequences are not always better), each with its length; for
    // instructions with implicit read-write operands also the same
    // sequences with dependency-breaking instructions.
    let mut plain = Vec::new();
    let mut breaking = Vec::new();
    for len in [1usize, 2, 4, 8] {
        let mut pool = RegisterPool::new();
        let Ok(copies) = independent_copies(desc, len, &mut pool) else { continue };
        if has_implicit_read_write_operand(desc) {
            breaking.push((len, with_breakers(catalog, &copies, &mut pool)));
        }
        plain.push((len, copies.into_iter().collect::<CodeSequence>()));
    }
    if plain.is_empty() {
        return Err(CoreError::Unsupported {
            instruction: desc.full_name(),
            reason: "could not build an independent instruction sequence".to_string(),
        });
    }

    // The minimum cycles per instruction over the sequences.
    let cpi = |seqs: &[(usize, CodeSequence)], ctx| {
        seqs.iter()
            .map(|(len, seq)| measure(backend, seq, config, ctx).cycles / *len as f64)
            .fold(f64::INFINITY, f64::min)
            .max(0.0)
    };
    let high = RunContext::default();
    let low = RunContext { divider_low_latency: true };
    Ok(Throughput {
        measured: cpi(&plain, high),
        measured_with_breaking: (!breaking.is_empty()).then(|| cpi(&breaking, high)),
        measured_low_values: desc.attrs.uses_divider.then(|| cpi(&plain, low)),
        from_port_usage: None,
    })
}

/// `copies`, each followed by the instructions breaking its dependencies
/// through the status flags and its implicit read-write registers.
fn with_breakers(
    catalog: &uops_isa::Catalog,
    copies: &[Inst],
    pool: &mut RegisterPool,
) -> CodeSequence {
    let mut seq = CodeSequence::new();
    for inst in copies {
        let avoid: Vec<_> = inst.operands().iter().filter_map(Op::register).collect();
        let breaks_flags = inst.desc().reads_flags() && inst.desc().writes_flags();
        let implicit_rw_regs: Vec<_> = inst
            .desc()
            .operands
            .iter()
            .zip(inst.operands())
            .filter(|(od, _)| od.implicit && od.read && od.write)
            .filter_map(|(_, op)| op.register())
            .collect();
        seq.push(inst.clone());
        if breaks_flags {
            if let Ok(b) = flag_dependency_breaker(catalog, pool, &avoid) {
                seq.push(b);
            }
        }
        for reg in implicit_rw_regs {
            if let Ok(b) = register_dependency_breaker(catalog, pool, reg) {
                seq.push(b);
            }
        }
    }
    seq
}

/// Returns `true` if the instruction has an implicit operand that is both
/// read and written (for which true independence is impossible, §5.3.1).
fn has_implicit_read_write_operand(desc: &InstructionDesc) -> bool {
    desc.operands.iter().any(|od| od.implicit && od.read && od.write)
        || (desc.reads_flags() && desc.writes_flags())
}

/// Computes the throughput according to Intel's definition from the port
/// usage (§5.3.2). Returns `None` for instructions that use the divider (the
/// divider is not fully pipelined, so port usage alone does not determine
/// the throughput) or whose port usage has unattributed µops.
#[must_use]
pub fn throughput_from_port_usage(
    port_usage: &PortUsage,
    desc: &InstructionDesc,
    port_count: u8,
) -> Option<f64> {
    if desc.attrs.uses_divider || port_usage.unattributed() > 0 || port_usage.is_empty() {
        return None;
    }
    let usage = port_usage.to_usage_map();
    let all_ports: u16 = (0..port_count).fold(0u16, |m, p| m | (1 << p));
    Some(uops_lp::min_max_load(&usage, all_ports))
}

/// Returns the set of operand kinds that prevent fully independent sequences
/// (implicit read-write operands), used for reporting.
#[must_use]
pub fn blocking_implicit_operands(desc: &InstructionDesc) -> Vec<String> {
    desc.operands
        .iter()
        .filter(|od| od.implicit && od.read && od.write)
        .map(|od| match od.kind {
            OperandKind::Flags(_) => "status flags".to_string(),
            other => other.type_name(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uops_isa::Catalog;
    use uops_measure::SimBackend;
    use uops_uarch::{MicroArch, PortSet};

    fn throughput_of(arch: MicroArch, mnemonic: &str, variant: &str) -> Throughput {
        let backend = SimBackend::new(arch);
        let catalog = Catalog::intel_core();
        let desc = Arc::new(catalog.find_variant(mnemonic, variant).unwrap().clone());
        measure_throughput(&backend, &catalog, &desc, &MeasurementConfig::fast()).unwrap()
    }

    #[test]
    fn add_throughput_is_a_quarter_cycle_on_skylake() {
        // Four ALU ports, issue width 4: ~0.25 cycles per instruction.
        let tp = throughput_of(MicroArch::Skylake, "ADD", "R64, R64");
        assert!(tp.measured <= 0.45, "measured = {}", tp.measured);
        assert!(tp.measured_low_values.is_none());
    }

    #[test]
    fn shuffle_throughput_is_one_cycle() {
        // Only one shuffle port: 1 cycle per instruction.
        let tp = throughput_of(MicroArch::Skylake, "PSHUFD", "XMM, XMM, I8");
        assert!((tp.measured - 1.0).abs() < 0.3, "measured = {}", tp.measured);
    }

    #[test]
    fn cmc_throughput_is_limited_by_the_flag_dependency() {
        // §7.2: CMC cannot reach 0.25 cycles because every instance reads the
        // carry flag written by the previous one; the measured throughput is
        // about 1 cycle.
        let tp = throughput_of(MicroArch::Skylake, "CMC", "");
        assert!(tp.measured >= 0.8, "measured = {}", tp.measured);
    }

    #[test]
    fn division_throughput_depends_on_operand_values() {
        let tp = throughput_of(MicroArch::Skylake, "DIV", "R32");
        let low = tp.measured_low_values.expect("divider low-value throughput");
        assert!(low < tp.measured, "low {} vs high {}", low, tp.measured);
        assert!(tp.measured > 5.0, "division throughput = {}", tp.measured);
        assert!(tp.best() <= low + 1e-9);
    }

    #[test]
    fn throughput_from_port_usage_matches_expectations() {
        let catalog = Catalog::intel_core();
        let add = catalog.find_variant("ADD", "R64, R64").unwrap();
        // 1*p0156 → 0.25.
        let pu = PortUsage::from_entries(vec![(PortSet::of(&[0, 1, 5, 6]), 1)]);
        let tp = throughput_from_port_usage(&pu, add, 8).unwrap();
        assert!((tp - 0.25).abs() < 1e-9);
        // VHADDPD-style 1*p01 + 2*p5 → 2.0 (port 5 is the bottleneck).
        let vhaddpd = catalog.find_variant("VHADDPD", "XMM, XMM, XMM").unwrap();
        let pu = PortUsage::from_entries(vec![(PortSet::of(&[0, 1]), 1), (PortSet::of(&[5]), 2)]);
        let tp = throughput_from_port_usage(&pu, vhaddpd, 8).unwrap();
        assert!((tp - 2.0).abs() < 1e-9);
        // Divider instructions are excluded.
        let div = catalog.find_variant("DIV", "R64").unwrap();
        let pu = PortUsage::from_entries(vec![(PortSet::of(&[0]), 1)]);
        assert!(throughput_from_port_usage(&pu, div, 8).is_none());
        // Empty port usage yields no value.
        assert!(throughput_from_port_usage(&PortUsage::new(), add, 8).is_none());
    }

    #[test]
    fn implicit_read_write_detection() {
        let catalog = Catalog::intel_core();
        let adc = catalog.find_variant("ADC", "R64, R64").unwrap();
        assert!(has_implicit_read_write_operand(adc));
        let mul = catalog.find_variant("MUL", "R64").unwrap();
        assert!(has_implicit_read_write_operand(mul));
        assert!(!blocking_implicit_operands(mul).is_empty());
        let pshufd = catalog.find_variant("PSHUFD", "XMM, XMM, I8").unwrap();
        assert!(!has_implicit_read_write_operand(pshufd));
    }

    #[test]
    fn dependency_breaking_improves_flag_chained_throughput() {
        // ADC has an implicit carry-flag dependency; with dependency-breaking
        // instructions the sequence should not be slower than without.
        let backend = SimBackend::new(MicroArch::Haswell);
        let catalog = Catalog::intel_core();
        let desc = Arc::new(catalog.find_variant("ADC", "R64, R64").unwrap().clone());
        let tp = measure_throughput(&backend, &catalog, &desc, &MeasurementConfig::fast()).unwrap();
        // Without breaking, the carry chain forces ~1+ cycle per instruction;
        // the reported minimum must not exceed that.
        assert!(tp.measured <= 1.3, "measured = {}", tp.measured);
    }
}
