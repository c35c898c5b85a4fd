//! Latency inference (§4.1, §5.2).
//!
//! The latency of an instruction is modelled as a mapping from
//! (source operand, destination operand) pairs to cycle counts: `lat(s, d)`
//! is the time from the source operand becoming ready until the destination
//! operand is ready, assuming all other dependencies are off the critical
//! path. The mapping is measured by constructing, for every pair, a
//! dependency chain from the destination back to the source — using chain
//! instructions whose own latency is calibrated separately — and breaking
//! every other dependency with dependency-breaking instructions.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use uops_asm::{variant_arc, CodeSequence, Inst, Op, RegisterPool};
use uops_isa::{Catalog, InstructionDesc, OperandKind, RegClass, RegFile, Register, Width};
use uops_measure::{measure, MeasurementBackend, MeasurementConfig, RunContext};

use crate::codegen::{
    classify_operand, flag_dependency_breaker, register_dependency_breaker, OperandClass,
};
use crate::error::CoreError;

/// The measured latency for one (source, destination) operand pair.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyValue {
    /// Latency in cycles (with operand values causing the *high* latency for
    /// divider instructions).
    pub cycles: f64,
    /// The value is only an upper bound (different-type register pairs,
    /// memory destinations, §5.2.1/§5.2.4).
    pub is_upper_bound: bool,
    /// Latency measured with the same architectural register bound to both
    /// operands (only for pairs of distinct explicit register operands of the
    /// same class, §5.2.1; reveals e.g. the SHLD behaviour of §7.3.2).
    pub same_register_cycles: Option<f64>,
    /// Latency with operand values causing the *low* divider latency
    /// (§5.2.5); `None` for instructions that do not use the divider.
    pub low_value_cycles: Option<f64>,
}

/// The latency mapping of one instruction: `(source index, destination
/// index) → latency`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyMap {
    entries: BTreeMap<(usize, usize), LatencyValue>,
}

impl LatencyMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> LatencyMap {
        LatencyMap::default()
    }

    /// Inserts a value for an operand pair.
    pub fn insert(&mut self, source: usize, destination: usize, value: LatencyValue) {
        self.entries.insert((source, destination), value);
    }

    /// The value for an operand pair, if measured.
    #[must_use]
    pub fn get(&self, source: usize, destination: usize) -> Option<&LatencyValue> {
        self.entries.get(&(source, destination))
    }

    /// Iterates over all measured pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&(usize, usize), &LatencyValue)> {
        self.entries.iter()
    }

    /// The number of measured pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no pair was measured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The classical single-value latency: the maximum over all pairs
    /// (ignoring pure upper bounds if at least one exact value exists).
    #[must_use]
    pub fn single_value(&self) -> Option<f64> {
        let exact: Vec<f64> =
            self.entries.values().filter(|v| !v.is_upper_bound).map(|v| v.cycles).collect();
        if !exact.is_empty() {
            return exact.into_iter().reduce(f64::max);
        }
        self.entries.values().map(|v| v.cycles).reduce(f64::max)
    }

    /// The maximum latency rounded up to a whole number of cycles (used to
    /// size the blocking-instruction sequences of Algorithm 1); at least 1.
    #[must_use]
    pub fn max_latency_cycles(&self) -> u32 {
        self.single_value().map(|v| v.ceil().max(1.0) as u32).unwrap_or(1)
    }

    /// Returns `true` if different operand pairs have substantially different
    /// (exact) latencies — the instructions listed in §7.3.5.
    #[must_use]
    pub fn has_multiple_latencies(&self) -> bool {
        let exact: Vec<f64> =
            self.entries.values().filter(|v| !v.is_upper_bound).map(|v| v.cycles).collect();
        if exact.len() < 2 {
            return false;
        }
        let min = exact.iter().copied().fold(f64::INFINITY, f64::min);
        let max = exact.iter().copied().fold(0.0f64, f64::max);
        max - min > 0.6
    }
}

impl fmt::Display for LatencyMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|((s, d), v)| {
                let bound = if v.is_upper_bound { "≤" } else { "" };
                format!("{s}→{d}: {bound}{:.2}", v.cycles)
            })
            .collect();
        write!(f, "{}", parts.join(", "))
    }
}

/// Calibrated latencies of the chain instructions used by the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ChainCalibration {
    /// Latency of `MOVSX r64, r16` (general-purpose chain instruction).
    pub movsx: f64,
    /// Latency of `PSHUFD xmm, xmm, imm` (integer-domain vector chain).
    pub pshufd: f64,
    /// Latency of `SHUFPS xmm, xmm, imm` (floating-point-domain vector
    /// chain).
    pub shufps: f64,
    /// Latency of `PSHUFW mm, mm, imm` (MMX chain).
    pub pshufw: f64,
    /// Latency from the status flags to a general-purpose register through
    /// `CMOVNZ r64, r64`.
    pub cmov_flags_to_reg: f64,
}

/// The latency analyzer: owns the calibration of the chain instructions and
/// infers latency mappings for arbitrary instruction variants.
pub struct LatencyAnalyzer<'a, B: ?Sized> {
    backend: &'a B,
    catalog: &'a Catalog,
    config: MeasurementConfig,
    calibration: ChainCalibration,
}

impl<'a, B: MeasurementBackend + ?Sized> LatencyAnalyzer<'a, B> {
    /// Creates an analyzer and calibrates the chain instructions on the
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns an error if the catalog lacks one of the chain instructions.
    pub fn new(
        backend: &'a B,
        catalog: &'a Catalog,
        config: MeasurementConfig,
    ) -> Result<Self, CoreError> {
        let mut analyzer =
            LatencyAnalyzer { backend, catalog, config, calibration: ChainCalibration::default() };
        analyzer.calibrate()?;
        Ok(analyzer)
    }

    /// Creates an analyzer reusing a previously obtained calibration (avoids
    /// re-measuring the chain instructions).
    #[must_use]
    pub fn with_calibration(
        backend: &'a B,
        catalog: &'a Catalog,
        config: MeasurementConfig,
        calibration: ChainCalibration,
    ) -> Self {
        LatencyAnalyzer { backend, catalog, config, calibration }
    }

    /// The calibrated chain-instruction latencies.
    #[must_use]
    pub fn calibration(&self) -> ChainCalibration {
        self.calibration
    }

    fn ctx(&self) -> RunContext {
        RunContext::default()
    }

    fn measure_cycles(&self, seq: &CodeSequence, ctx: RunContext) -> f64 {
        measure(self.backend, seq, &self.config, ctx).cycles
    }

    fn calibrate(&mut self) -> Result<(), CoreError> {
        // MOVSX r64, r16 alternating between two registers.
        let movsx = variant_arc(self.catalog, "MOVSX", "R64, R16")?;
        let a = Register::gpr(uops_isa::gpr::RBX, Width::W64);
        let b = Register::gpr(uops_isa::gpr::RSI, Width::W64);
        let mut pool = RegisterPool::new();
        let mut seq = CodeSequence::new();
        for i in 0..2 {
            let (dst, src) = if i % 2 == 0 { (a, b) } else { (b, a) };
            let mut assign = BTreeMap::new();
            assign.insert(0, Op::Reg(dst));
            assign.insert(1, Op::Reg(src.with_width(Width::W16)));
            seq.push(Inst::bind(&movsx, &assign, &mut pool)?);
        }
        self.calibration.movsx = self.measure_cycles(&seq, self.ctx()) / 2.0;

        // Vector shuffles alternating between two registers.
        let xmm_a = Register::vec(1, Width::W128);
        let xmm_b = Register::vec(2, Width::W128);
        for (field, mnemonic, variant) in
            [(0usize, "PSHUFD", "XMM, XMM, I8"), (1usize, "SHUFPS", "XMM, XMM, I8")]
        {
            let desc = variant_arc(self.catalog, mnemonic, variant)?;
            let mut pool = RegisterPool::new();
            let mut seq = CodeSequence::new();
            for i in 0..2 {
                let (dst, src) = if i % 2 == 0 { (xmm_a, xmm_b) } else { (xmm_b, xmm_a) };
                let mut assign = BTreeMap::new();
                assign.insert(0, Op::Reg(dst));
                assign.insert(1, Op::Reg(src));
                assign.insert(2, Op::Imm(0));
                seq.push(Inst::bind(&desc, &assign, &mut pool)?);
            }
            let value = self.measure_cycles(&seq, self.ctx()) / 2.0;
            if field == 0 {
                self.calibration.pshufd = value;
            } else {
                self.calibration.shufps = value;
            }
        }

        // MMX shuffle.
        let pshufw = variant_arc(self.catalog, "PSHUFW", "MM, MM, I8")?;
        let mm_a = Register::mmx(1);
        let mm_b = Register::mmx(2);
        let mut pool = RegisterPool::new();
        let mut seq = CodeSequence::new();
        for i in 0..2 {
            let (dst, src) = if i % 2 == 0 { (mm_a, mm_b) } else { (mm_b, mm_a) };
            let mut assign = BTreeMap::new();
            assign.insert(0, Op::Reg(dst));
            assign.insert(1, Op::Reg(src));
            assign.insert(2, Op::Imm(0));
            seq.push(Inst::bind(&pshufw, &assign, &mut pool)?);
        }
        self.calibration.pshufw = self.measure_cycles(&seq, self.ctx()) / 2.0;

        // Flags → register through CMOVNZ, calibrated with a TEST-based
        // producer whose register → flags latency is taken to be 1 cycle.
        let test = variant_arc(self.catalog, "TEST", "R64, R64")?;
        let cmov = variant_arc(self.catalog, "CMOVNZ", "R64, R64")?;
        let r = Register::gpr(uops_isa::gpr::RBX, Width::W64);
        let other = Register::gpr(uops_isa::gpr::RSI, Width::W64);
        let mut pool = RegisterPool::new();
        let mut seq = CodeSequence::new();
        let mut assign = BTreeMap::new();
        assign.insert(0, Op::Reg(r));
        assign.insert(1, Op::Reg(r));
        seq.push(Inst::bind(&test, &assign, &mut pool)?);
        let mut assign = BTreeMap::new();
        assign.insert(0, Op::Reg(r));
        assign.insert(1, Op::Reg(other));
        seq.push(Inst::bind(&cmov, &assign, &mut pool)?);
        let cycle = self.measure_cycles(&seq, self.ctx());
        self.calibration.cmov_flags_to_reg = (cycle - 1.0).max(0.5);

        Ok(())
    }

    /// Infers the latency mapping of an instruction variant.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unsupported`] for instructions that cannot be
    /// chained (branches, system instructions, REP-prefixed instructions).
    pub fn infer(&self, desc: &Arc<InstructionDesc>) -> Result<LatencyMap, CoreError> {
        if desc.attrs.system || desc.attrs.serializing || desc.attrs.rep_prefix {
            return Err(CoreError::Unsupported {
                instruction: desc.full_name(),
                reason: "system, serializing, or REP-prefixed instruction".to_string(),
            });
        }
        if desc.attrs.control_flow {
            return Err(CoreError::Unsupported {
                instruction: desc.full_name(),
                reason: "control-flow instructions cannot be put in a dependency chain".to_string(),
            });
        }

        let mut map = LatencyMap::new();
        for &s in &desc.source_indices() {
            for &d in &desc.destination_indices() {
                let s_class = classify_operand(desc, s);
                let d_class = classify_operand(desc, d);
                if s_class == OperandClass::Immediate || d_class == OperandClass::Immediate {
                    continue;
                }
                // No instructions read flags and write vector registers, and
                // memory-to-memory pairs are not meaningful dependency
                // chains.
                if s_class == OperandClass::Flags
                    && matches!(d_class, OperandClass::Vec | OperandClass::Mmx)
                {
                    continue;
                }
                if s_class == OperandClass::Memory && d_class == OperandClass::Memory {
                    continue;
                }
                if d_class == OperandClass::Flags
                    && matches!(
                        s_class,
                        OperandClass::Vec | OperandClass::Mmx | OperandClass::Memory
                    )
                {
                    // Reading flags into a vector register is impossible and
                    // the remaining chains add little information.
                    continue;
                }
                if let Ok(value) = self.measure_pair(desc, s, d, s_class, d_class) {
                    map.insert(s, d, value);
                }
            }
        }
        Ok(map)
    }

    /// Measures one (source, destination) pair.
    fn measure_pair(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        s_class: OperandClass,
        d_class: OperandClass,
    ) -> Result<LatencyValue, CoreError> {
        use OperandClass as OC;
        let mut value = match (s_class, d_class) {
            // Same operand (read-modify-write): a self chain.
            _ if s == d => self.self_chain(desc, s, d)?,
            (OC::Gpr, OC::Gpr) => self.gpr_to_gpr(desc, s, d)?,
            (OC::Vec, OC::Vec) => self.vec_to_vec(desc, s, d, RegFile::Vec)?,
            (OC::Mmx, OC::Mmx) => self.vec_to_vec(desc, s, d, RegFile::Mmx)?,
            (OC::Memory, _) => self.mem_to_reg(desc, s, d, d_class)?,
            (_, OC::Memory) => self.reg_to_mem(desc, s, d, s_class)?,
            (OC::Flags, OC::Gpr) => self.flags_to_gpr(desc, s, d)?,
            (OC::Flags, OC::Flags) => self.self_chain(desc, s, d)?,
            (OC::Gpr, OC::Flags) => self.gpr_to_flags(desc, s, d)?,
            // Different register files: compose with a cross-file chain
            // instruction and report an upper bound.
            _ => self.cross_file(desc, s, d)?,
        };

        // Divider instructions: repeat the measurement with operand values
        // that lead to the low latency (§5.2.5).
        if desc.attrs.uses_divider {
            let low_ctx = RunContext { divider_low_latency: true };
            if let Ok(low) = self.measure_pair_with_ctx(desc, s, d, s_class, d_class, low_ctx) {
                value.low_value_cycles = Some(low);
            }
        }

        // For pairs of distinct explicit register operands of the same class,
        // additionally measure the variant that uses the same register for
        // both operands (§5.2.1).
        if s != d
            && s_class == d_class
            && matches!(s_class, OC::Gpr | OC::Vec | OC::Mmx)
            && desc.operands[s].is_explicit()
            && desc.operands[d].is_explicit()
            && matches!(desc.operands[s].kind, OperandKind::Reg(_))
            && matches!(desc.operands[d].kind, OperandKind::Reg(_))
        {
            if let Ok(cycles) = self.same_register_chain(desc, s, d) {
                value.same_register_cycles = Some(cycles);
            }
        }

        Ok(value)
    }

    /// Re-measures a pair under a different run context, returning only the
    /// cycle count. Used for the divider's low-latency operand values.
    fn measure_pair_with_ctx(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        s_class: OperandClass,
        d_class: OperandClass,
        ctx: RunContext,
    ) -> Result<f64, CoreError> {
        use OperandClass as OC;
        let value = match (s_class, d_class) {
            _ if s == d => self.self_chain_with_ctx(desc, s, d, ctx)?,
            (OC::Gpr, OC::Gpr) => self.gpr_to_gpr_with_ctx(desc, s, d, ctx)?,
            (OC::Vec, OC::Vec) => self.vec_to_vec_with_ctx(desc, s, d, RegFile::Vec, ctx)?,
            (OC::Mmx, OC::Mmx) => self.vec_to_vec_with_ctx(desc, s, d, RegFile::Mmx, ctx)?,
            _ => {
                return Err(CoreError::NoChainInstruction {
                    pair: format!("{s}→{d} (low values)")
                })
            }
        };
        Ok(value.cycles)
    }

    // -----------------------------------------------------------------
    // Chain constructions for the individual cases
    // -----------------------------------------------------------------

    /// Registers used by the operands of an instruction instance (for
    /// exclusion lists).
    fn bound_registers(inst: &Inst) -> Vec<Register> {
        inst.operands().iter().filter_map(Op::register).collect()
    }

    /// Appends dependency-breaking instructions for every implicit or
    /// read-write operand that is not part of the chain through `s` and `d`.
    fn append_breakers(
        &self,
        seq: &mut CodeSequence,
        inst: &Inst,
        s: usize,
        d: usize,
        pool: &mut RegisterPool,
    ) -> Result<(), CoreError> {
        let desc = inst.desc();
        let chain_regs = [inst.operand(s).register(), inst.operand(d).register()];
        // Break the flag self-dependency unless the chain itself goes through
        // the flags.
        let flags_in_chain = matches!(desc.operands[s].kind, OperandKind::Flags(_))
            || matches!(desc.operands[d].kind, OperandKind::Flags(_));
        if desc.reads_flags() && desc.writes_flags() && !flags_in_chain {
            let avoid: Vec<Register> = Self::bound_registers(inst);
            seq.push(flag_dependency_breaker(self.catalog, pool, &avoid)?);
        }
        // Break self-dependencies of other read-write register operands.
        for (idx, od) in desc.operands.iter().enumerate() {
            if idx == s || idx == d || !od.read || !od.write {
                continue;
            }
            if let Some(reg) = inst.operand(idx).register() {
                if chain_regs.iter().flatten().any(|r| r.aliases(reg)) {
                    continue;
                }
                seq.push(register_dependency_breaker(self.catalog, pool, reg)?);
            }
        }
        Ok(())
    }

    /// Builds the instruction instance used by a latency chain, with
    /// specified registers for `s` and `d` and fresh operands elsewhere.
    fn bind_for_chain(
        &self,
        desc: &Arc<InstructionDesc>,
        assignments: &BTreeMap<usize, Op>,
        pool: &mut RegisterPool,
    ) -> Result<Inst, CoreError> {
        Inst::bind(desc, assignments, pool).map_err(CoreError::from)
    }

    /// Measures a chain unit and returns the per-iteration cycles.
    fn run_unit(&self, seq: &CodeSequence, ctx: RunContext) -> f64 {
        self.measure_cycles(seq, ctx)
    }

    /// Self chain: the destination operand of one instance is the source
    /// operand of the next (same operand index, or flags → flags).
    fn self_chain(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<LatencyValue, CoreError> {
        self.self_chain_with_ctx(desc, s, d, self.ctx())
    }

    fn self_chain_with_ctx(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        ctx: RunContext,
    ) -> Result<LatencyValue, CoreError> {
        let mut pool = RegisterPool::new();
        let inst = self.bind_for_chain(desc, &BTreeMap::new(), &mut pool)?;
        let mut seq = CodeSequence::new();
        seq.push(inst.clone());
        self.append_breakers(&mut seq, &inst, s, d, &mut pool)?;
        let cycles = self.run_unit(&seq, ctx);
        Ok(LatencyValue { cycles, ..LatencyValue::default() })
    }

    /// General-purpose register → general-purpose register, chained through
    /// MOVSX (§5.2.1).
    fn gpr_to_gpr(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<LatencyValue, CoreError> {
        self.gpr_to_gpr_with_ctx(desc, s, d, self.ctx())
    }

    fn gpr_to_gpr_with_ctx(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        ctx: RunContext,
    ) -> Result<LatencyValue, CoreError> {
        let mut pool = RegisterPool::new();
        let (s_reg, d_reg, mut assignments) =
            self.allocate_pair_registers(desc, s, d, &mut pool)?;
        let inst =
            self.bind_chain_instruction(desc, s, d, s_reg, d_reg, &mut assignments, &mut pool)?;

        // Chain instruction: MOVSX s_reg64, d_regNN where NN avoids partial
        // register stalls (source width no wider than what the instruction
        // writes).
        let d_width = desc.operands[d].kind.width().unwrap_or(Width::W64);
        let (variant, src_width) =
            if d_width == Width::W8 { ("R64, R8", Width::W8) } else { ("R64, R16", Width::W16) };
        let movsx = variant_arc(self.catalog, "MOVSX", variant)?;
        let mut chain_assign = BTreeMap::new();
        chain_assign.insert(0, Op::Reg(s_reg.with_width(Width::W64)));
        chain_assign.insert(1, Op::Reg(d_reg.with_width(src_width)));
        let chain = Inst::bind(&movsx, &chain_assign, &mut pool)?;

        let mut seq = CodeSequence::new();
        seq.push(inst.clone());
        seq.push(chain);
        self.append_breakers(&mut seq, &inst, s, d, &mut pool)?;
        self.push_rw_destination_breaker(&mut seq, desc, d, d_reg, s_reg, &mut pool)?;

        let cycles = (self.run_unit(&seq, ctx) - self.calibration.movsx).max(0.0);
        Ok(LatencyValue { cycles, ..LatencyValue::default() })
    }

    /// Vector register → vector register (XMM/YMM or MMX), chained through an
    /// integer shuffle and a floating-point shuffle; the minimum of the two
    /// (after subtracting the respective chain latency) is reported
    /// (§5.2.1).
    fn vec_to_vec(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        file: RegFile,
    ) -> Result<LatencyValue, CoreError> {
        self.vec_to_vec_with_ctx(desc, s, d, file, self.ctx())
    }

    fn vec_to_vec_with_ctx(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        file: RegFile,
        ctx: RunContext,
    ) -> Result<LatencyValue, CoreError> {
        let chains: Vec<(&str, &str, f64)> = match file {
            RegFile::Mmx => vec![("PSHUFW", "MM, MM, I8", self.calibration.pshufw)],
            _ => vec![
                ("PSHUFD", "XMM, XMM, I8", self.calibration.pshufd),
                ("SHUFPS", "XMM, XMM, I8", self.calibration.shufps),
            ],
        };
        let mut best: Option<f64> = None;
        for (mnemonic, variant, chain_latency) in chains {
            let mut pool = RegisterPool::new();
            let (s_reg, d_reg, mut assignments) =
                self.allocate_pair_registers(desc, s, d, &mut pool)?;
            let inst =
                self.bind_chain_instruction(desc, s, d, s_reg, d_reg, &mut assignments, &mut pool)?;
            let chain_desc = variant_arc(self.catalog, mnemonic, variant)?;
            let mut chain_assign = BTreeMap::new();
            // The chain instruction reads the destination register and writes
            // the source register (at 128-bit width for XMM/YMM operands).
            let (chain_dst, chain_src) = match file {
                RegFile::Mmx => (s_reg, d_reg),
                _ => (s_reg.with_width(Width::W128), d_reg.with_width(Width::W128)),
            };
            chain_assign.insert(0, Op::Reg(chain_dst));
            chain_assign.insert(1, Op::Reg(chain_src));
            chain_assign.insert(2, Op::Imm(0));
            let chain = Inst::bind(&chain_desc, &chain_assign, &mut pool)?;

            let mut seq = CodeSequence::new();
            seq.push(inst.clone());
            seq.push(chain);
            self.append_breakers(&mut seq, &inst, s, d, &mut pool)?;
            self.push_rw_destination_breaker(&mut seq, desc, d, d_reg, s_reg, &mut pool)?;

            let cycles = (self.run_unit(&seq, ctx) - chain_latency).max(0.0);
            best = Some(best.map_or(cycles, |b: f64| b.min(cycles)));
        }
        let cycles = best.ok_or_else(|| CoreError::NoChainInstruction {
            pair: format!("{s}→{d} ({file:?})"),
        })?;
        Ok(LatencyValue { cycles, ..LatencyValue::default() })
    }

    /// Memory → register (§5.2.2): the "double XOR" technique creates a
    /// dependency from the destination register back to the base register of
    /// the memory operand.
    fn mem_to_reg(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        d_class: OperandClass,
    ) -> Result<LatencyValue, CoreError> {
        let mut pool = RegisterPool::new();
        // The memory operand uses a fixed cell addressed through a dedicated
        // base register.
        let base = pool.memory_base();
        let width = match desc.operands[s].kind {
            OperandKind::Mem(w) => w,
            _ => Width::W64,
        };
        let mut assignments = BTreeMap::new();
        assignments.insert(s, Op::Mem(uops_asm::MemOperand::new(base, 0, width)));
        let inst = self.bind_for_chain(desc, &assignments, &mut pool)?;

        let mut seq = CodeSequence::new();
        seq.push(inst.clone());

        // Route the destination value into a general-purpose register.
        let (gpr_for_xor, is_upper_bound) = match d_class {
            OperandClass::Gpr => {
                (inst.operand(d).register().expect("GPR destination operand"), false)
            }
            _ => {
                // Move the vector/MMX destination into a scratch GPR first.
                let d_reg = inst.operand(d).register().ok_or_else(|| {
                    CoreError::NoChainInstruction { pair: format!("{s}→{d} (memory)") }
                })?;
                let tmp = pool.alloc(RegClass::gpr(Width::W64)).map_err(CoreError::from)?;
                let mover = self.cross_move(d_reg, tmp, &mut pool)?;
                seq.push(mover);
                (tmp, true)
            }
        };

        // XOR base, r; XOR base, r — leaves the base register value unchanged
        // but creates the dependency; a TEST breaks the flag dependency the
        // XORs introduce.
        let xor = variant_arc(self.catalog, "XOR", "R64, R64")?;
        for _ in 0..2 {
            let mut a = BTreeMap::new();
            a.insert(0, Op::Reg(base));
            a.insert(1, Op::Reg(gpr_for_xor.with_width(Width::W64)));
            seq.push(Inst::bind(&xor, &a, &mut pool)?);
        }
        let avoid: Vec<Register> =
            Self::bound_registers(&inst).into_iter().chain([base, gpr_for_xor]).collect();
        seq.push(flag_dependency_breaker(self.catalog, &mut pool, &avoid)?);

        let cycles = (self.run_unit(&seq, self.ctx()) - 2.0).max(0.0);
        Ok(LatencyValue { cycles, is_upper_bound, ..LatencyValue::default() })
    }

    /// Register → memory (§5.2.4): measure the store together with a load
    /// from the same address; the result is a store-load round trip and is
    /// reported as an upper bound.
    fn reg_to_mem(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        s_class: OperandClass,
    ) -> Result<LatencyValue, CoreError> {
        let mut pool = RegisterPool::new();
        let base = pool.memory_base();
        let width = match desc.operands[d].kind {
            OperandKind::Mem(w) => w,
            _ => Width::W64,
        };
        let mut assignments = BTreeMap::new();
        assignments.insert(d, Op::Mem(uops_asm::MemOperand::new(base, 0, width)));
        let inst = self.bind_for_chain(desc, &assignments, &mut pool)?;
        let s_reg = match inst.operand(s).register() {
            Some(r) => r,
            None => {
                return Err(CoreError::NoChainInstruction { pair: format!("{s}→{d} (store)") });
            }
        };

        // Load from the stored cell back into the source register.
        let load: Inst = match s_class {
            OperandClass::Gpr => {
                let mov = variant_arc(self.catalog, "MOV", "R64, M64")?;
                let mut a = BTreeMap::new();
                a.insert(0, Op::Reg(s_reg.with_width(Width::W64)));
                a.insert(1, Op::Mem(uops_asm::MemOperand::new(base, 0, Width::W64)));
                Inst::bind(&mov, &a, &mut pool)?
            }
            OperandClass::Vec => {
                let mov = variant_arc(self.catalog, "MOVDQA", "XMM, M128")?;
                let mut a = BTreeMap::new();
                a.insert(0, Op::Reg(s_reg.with_width(Width::W128)));
                a.insert(1, Op::Mem(uops_asm::MemOperand::new(base, 0, Width::W128)));
                Inst::bind(&mov, &a, &mut pool)?
            }
            OperandClass::Mmx => {
                let mov = variant_arc(self.catalog, "MOVQ", "MM, M64")?;
                let mut a = BTreeMap::new();
                a.insert(0, Op::Reg(s_reg));
                a.insert(1, Op::Mem(uops_asm::MemOperand::new(base, 0, Width::W64)));
                Inst::bind(&mov, &a, &mut pool)?
            }
            _ => {
                return Err(CoreError::NoChainInstruction { pair: format!("{s}→{d} (store)") });
            }
        };

        let mut seq = CodeSequence::new();
        seq.push(inst.clone());
        seq.push(load);
        self.append_breakers(&mut seq, &inst, s, d, &mut pool)?;
        let cycles = self.run_unit(&seq, self.ctx());
        Ok(LatencyValue { cycles, is_upper_bound: true, ..LatencyValue::default() })
    }

    /// Status flags → general-purpose register (§5.2.3): `TEST r, r` creates
    /// the register → flags dependency for the next iteration.
    fn flags_to_gpr(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<LatencyValue, CoreError> {
        let mut pool = RegisterPool::new();
        let inst = self.bind_for_chain(desc, &BTreeMap::new(), &mut pool)?;
        let d_reg = inst
            .operand(d)
            .register()
            .ok_or_else(|| CoreError::NoChainInstruction { pair: format!("{s}→{d} (flags)") })?;
        let test = variant_arc(self.catalog, "TEST", "R64, R64")?;
        let mut a = BTreeMap::new();
        a.insert(0, Op::Reg(d_reg.with_width(Width::W64)));
        a.insert(1, Op::Reg(d_reg.with_width(Width::W64)));
        let chain = Inst::bind(&test, &a, &mut pool)?;
        let mut seq = CodeSequence::new();
        seq.push(inst.clone());
        seq.push(chain);
        self.append_breakers(&mut seq, &inst, s, d, &mut pool)?;
        self.push_rw_destination_breaker(&mut seq, desc, d, d_reg, d_reg, &mut pool)?;
        let cycles = (self.run_unit(&seq, self.ctx()) - 1.0).max(0.0);
        Ok(LatencyValue { cycles, ..LatencyValue::default() })
    }

    /// General-purpose register → status flags: chained through `CMOVNZ`.
    fn gpr_to_flags(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<LatencyValue, CoreError> {
        let mut pool = RegisterPool::new();
        let inst = self.bind_for_chain(desc, &BTreeMap::new(), &mut pool)?;
        let s_reg = inst.operand(s).register().ok_or_else(|| CoreError::NoChainInstruction {
            pair: format!("{s}→{d} (to flags)"),
        })?;
        let cmov = variant_arc(self.catalog, "CMOVNZ", "R64, R64")?;
        let mut a = BTreeMap::new();
        a.insert(0, Op::Reg(s_reg.with_width(Width::W64)));
        a.insert(1, Op::Reg(s_reg.with_width(Width::W64)));
        let chain = Inst::bind(&cmov, &a, &mut pool)?;
        let mut seq = CodeSequence::new();
        seq.push(inst.clone());
        seq.push(chain);
        self.append_breakers(&mut seq, &inst, s, d, &mut pool)?;
        let cycles =
            (self.run_unit(&seq, self.ctx()) - self.calibration.cmov_flags_to_reg).max(0.0);
        // If the source register is also written by the instruction, the
        // CMOV chain inevitably adds a register → register path through its
        // own destination; the result is then only an upper bound.
        let is_upper_bound = desc.operands[s].write;
        Ok(LatencyValue { cycles, is_upper_bound, ..LatencyValue::default() })
    }

    /// Register pairs of different files (§5.2.1, "the registers have
    /// different types"): compose with every available cross-file move and
    /// report the minimum composed time minus one as an upper bound.
    fn cross_file(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<LatencyValue, CoreError> {
        let mut best: Option<f64> = None;
        let s_file = operand_file(desc, s);
        let d_file = operand_file(desc, d);
        let (Some(s_file), Some(d_file)) = (s_file, d_file) else {
            return Err(CoreError::NoChainInstruction { pair: format!("{s}→{d}") });
        };
        let candidates = self.cross_chain_candidates(d_file, s_file);
        if candidates.is_empty() {
            return Err(CoreError::NoChainInstruction { pair: format!("{s}→{d}") });
        }
        for chain_desc in candidates.into_iter().take(3) {
            let mut pool = RegisterPool::new();
            let (s_reg, d_reg, mut assignments) =
                self.allocate_pair_registers(desc, s, d, &mut pool)?;
            let inst = match self.bind_chain_instruction(
                desc,
                s,
                d,
                s_reg,
                d_reg,
                &mut assignments,
                &mut pool,
            ) {
                Ok(i) => i,
                Err(_) => continue,
            };
            // The chain instruction writes s_reg and reads d_reg.
            let mut chain_assign = BTreeMap::new();
            let mut ok = true;
            for (idx, od) in chain_desc.operands.iter().enumerate() {
                match od.kind {
                    OperandKind::Reg(class) if od.write && class.file == s_file => {
                        chain_assign.insert(
                            idx,
                            Op::Reg(Register {
                                file: s_reg.file,
                                index: s_reg.index,
                                width: class.width,
                            }),
                        );
                    }
                    OperandKind::Reg(class) if od.read && class.file == d_file => {
                        chain_assign.insert(
                            idx,
                            Op::Reg(Register {
                                file: d_reg.file,
                                index: d_reg.index,
                                width: class.width,
                            }),
                        );
                    }
                    OperandKind::Imm(_) => {
                        chain_assign.insert(idx, Op::Imm(0));
                    }
                    OperandKind::Mem(_) => {
                        ok = false;
                    }
                    _ => {}
                }
            }
            if !ok {
                continue;
            }
            let chain = match Inst::bind(&chain_desc, &chain_assign, &mut pool) {
                Ok(c) => c,
                Err(_) => continue,
            };
            let mut seq = CodeSequence::new();
            seq.push(inst.clone());
            seq.push(chain);
            if self.append_breakers(&mut seq, &inst, s, d, &mut pool).is_err() {
                continue;
            }
            let _ = self.push_rw_destination_breaker(&mut seq, desc, d, d_reg, s_reg, &mut pool);
            let cycles = self.run_unit(&seq, self.ctx());
            best = Some(best.map_or(cycles, |b: f64| b.min(cycles)));
        }
        let composed =
            best.ok_or_else(|| CoreError::NoChainInstruction { pair: format!("{s}→{d}") })?;
        Ok(LatencyValue {
            cycles: (composed - 1.0).max(0.0),
            is_upper_bound: true,
            ..LatencyValue::default()
        })
    }

    /// The same-register microbenchmark of §5.2.1: bind the same register to
    /// both operands and measure the resulting self chain.
    fn same_register_chain(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<f64, CoreError> {
        let mut pool = RegisterPool::new();
        let class = match desc.operands[d].kind {
            OperandKind::Reg(c) => c,
            _ => {
                return Err(CoreError::NoChainInstruction { pair: format!("{s}→{d} (same reg)") })
            }
        };
        let reg = pool.alloc(class).map_err(CoreError::from)?;
        let mut assignments = BTreeMap::new();
        assignments.insert(s, Op::Reg(reg));
        assignments.insert(d, Op::Reg(reg));
        let inst = self.bind_for_chain(desc, &assignments, &mut pool)?;
        let mut seq = CodeSequence::new();
        seq.push(inst.clone());
        self.append_breakers(&mut seq, &inst, s, d, &mut pool)?;
        Ok(self.run_unit(&seq, self.ctx()))
    }

    // -----------------------------------------------------------------
    // Small helpers
    // -----------------------------------------------------------------

    /// Allocates registers for the source and destination operands of a pair
    /// and returns the partially filled assignment map.
    fn allocate_pair_registers(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        pool: &mut RegisterPool,
    ) -> Result<(Register, Register, BTreeMap<usize, Op>), CoreError> {
        let mut assignments = BTreeMap::new();
        let d_reg = match desc.operands[d].kind {
            OperandKind::Reg(class) => {
                let r = pool.alloc(class).map_err(CoreError::from)?;
                assignments.insert(d, Op::Reg(r));
                r
            }
            OperandKind::FixedReg(r) => {
                pool.mark_used(r);
                r
            }
            _ => return Err(CoreError::NoChainInstruction { pair: format!("{s}→{d}") }),
        };
        let s_reg = if s == d {
            d_reg
        } else {
            match desc.operands[s].kind {
                OperandKind::Reg(class) => {
                    let r = pool.alloc_excluding(class, &[d_reg]).map_err(CoreError::from)?;
                    assignments.insert(s, Op::Reg(r));
                    r
                }
                OperandKind::FixedReg(r) => {
                    pool.mark_used(r);
                    r
                }
                _ => return Err(CoreError::NoChainInstruction { pair: format!("{s}→{d}") }),
            }
        };
        Ok((s_reg, d_reg, assignments))
    }

    /// Binds the instruction under test with the pair registers fixed and
    /// everything else fresh.
    #[allow(clippy::too_many_arguments)]
    fn bind_chain_instruction(
        &self,
        desc: &Arc<InstructionDesc>,
        _s: usize,
        _d: usize,
        _s_reg: Register,
        _d_reg: Register,
        assignments: &mut BTreeMap<usize, Op>,
        pool: &mut RegisterPool,
    ) -> Result<Inst, CoreError> {
        self.bind_for_chain(desc, assignments, pool)
    }

    /// If the destination operand is also read by the instruction (and is not
    /// the chain's source), its self-dependency is broken by overwriting it
    /// after the chain instruction has consumed it (§5.2).
    fn push_rw_destination_breaker(
        &self,
        seq: &mut CodeSequence,
        desc: &Arc<InstructionDesc>,
        d: usize,
        d_reg: Register,
        s_reg: Register,
        pool: &mut RegisterPool,
    ) -> Result<(), CoreError> {
        if desc.operands[d].read && desc.operands[d].write && !d_reg.aliases(s_reg) {
            seq.push(register_dependency_breaker(self.catalog, pool, d_reg)?);
        }
        Ok(())
    }

    /// An instruction moving `from` (vector or MMX register) into the
    /// general-purpose register `to`.
    fn cross_move(
        &self,
        from: Register,
        to: Register,
        pool: &mut RegisterPool,
    ) -> Result<Inst, CoreError> {
        let (mnemonic, variant) = match from.file {
            RegFile::Vec => ("MOVQ", "R64, XMM"),
            RegFile::Mmx => ("MOVQ", "R64, MM"),
            RegFile::Gpr => ("MOV", "R64, R64"),
        };
        let desc = variant_arc(self.catalog, mnemonic, variant)?;
        let mut a = BTreeMap::new();
        a.insert(0, Op::Reg(to.with_width(Width::W64)));
        a.insert(
            1,
            Op::Reg(match from.file {
                RegFile::Vec => from.with_width(Width::W128),
                _ => from,
            }),
        );
        Inst::bind(&desc, &a, pool).map_err(CoreError::from)
    }

    /// Cross-file chain instruction candidates reading a register of
    /// `from_file` and writing a register of `to_file`. Candidates are the
    /// catalog's interned handles — no descriptor is deep-cloned here.
    fn cross_chain_candidates(
        &self,
        from_file: RegFile,
        to_file: RegFile,
    ) -> Vec<Arc<InstructionDesc>> {
        let arch = self.backend.arch();
        let mut candidates: Vec<Arc<InstructionDesc>> = self
            .catalog
            .iter_arcs()
            .filter(|c| {
                if !arch.supports(c.extension) || c.has_memory_operand() || c.attrs.system {
                    return false;
                }
                let mut reads_from = false;
                let mut writes_to = false;
                let mut other_regs = 0;
                for od in c.explicit_operands() {
                    match od.kind {
                        OperandKind::Reg(class) => {
                            if od.write && !od.read && class.file == to_file {
                                writes_to = true;
                            } else if od.read && !od.write && class.file == from_file {
                                reads_from = true;
                            } else {
                                other_regs += 1;
                            }
                        }
                        OperandKind::Imm(_) => {}
                        _ => other_regs += 1,
                    }
                }
                reads_from && writes_to && other_regs == 0
            })
            .map(Arc::clone)
            .collect();
        // Prefer plain moves over extracts/converts.
        candidates.sort_by_key(|c| (c.operands.len(), c.mnemonic.clone()));
        candidates
    }
}

fn operand_file(desc: &InstructionDesc, idx: usize) -> Option<RegFile> {
    desc.operands[idx].kind.reg_class().map(|c| c.file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uops_measure::SimBackend;
    use uops_uarch::MicroArch;

    fn analyzer(arch: MicroArch) -> (SimBackend, Catalog) {
        (SimBackend::new(arch), Catalog::intel_core())
    }

    fn infer(arch: MicroArch, mnemonic: &str, variant: &str) -> LatencyMap {
        let (backend, catalog) = analyzer(arch);
        let la = LatencyAnalyzer::new(&backend, &catalog, MeasurementConfig::fast()).unwrap();
        let desc = Arc::new(catalog.find_variant(mnemonic, variant).unwrap().clone());
        la.infer(&desc).unwrap()
    }

    /// Finds the operand indices of the first two explicit operands.
    fn explicit_indices(catalog: &Catalog, mnemonic: &str, variant: &str) -> Vec<usize> {
        let desc = catalog.find_variant(mnemonic, variant).unwrap();
        desc.operands
            .iter()
            .enumerate()
            .filter(|(_, od)| od.is_explicit())
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn calibration_measures_unit_latency_chains() {
        let (backend, catalog) = analyzer(MicroArch::Skylake);
        let la = LatencyAnalyzer::new(&backend, &catalog, MeasurementConfig::fast()).unwrap();
        let cal = la.calibration();
        assert!((cal.movsx - 1.0).abs() < 0.3, "movsx = {}", cal.movsx);
        assert!((cal.pshufd - 1.0).abs() < 0.3, "pshufd = {}", cal.pshufd);
        assert!((cal.pshufw - 1.0).abs() < 0.3, "pshufw = {}", cal.pshufw);
        assert!(cal.cmov_flags_to_reg >= 0.5);
    }

    #[test]
    fn add_latency_is_one_cycle_for_register_pairs() {
        let map = infer(MicroArch::Skylake, "ADD", "R64, R64");
        // Operand 0 is read+write, operand 1 is read, operand 2 is the flag
        // output.
        let v00 = map.get(0, 0).expect("lat(0,0)");
        let v10 = map.get(1, 0).expect("lat(1,0)");
        assert!((v00.cycles - 1.0).abs() < 0.4, "lat(0,0) = {}", v00.cycles);
        assert!((v10.cycles - 1.0).abs() < 0.4, "lat(1,0) = {}", v10.cycles);
        assert!(!map.has_multiple_latencies());
        assert_eq!(map.max_latency_cycles(), 1);
    }

    #[test]
    fn load_latency_is_visible_for_memory_sources() {
        let (_backend, catalog) = analyzer(MicroArch::Skylake);
        let map = infer(MicroArch::Skylake, "ADD", "R64, M64");
        let idx = explicit_indices(&catalog, "ADD", "R64, M64");
        let mem_src = idx[1];
        let v = map.get(mem_src, 0).expect("memory source latency");
        assert!(v.cycles >= 5.0, "memory → register latency = {}", v.cycles);
        // The register → register pair is still ~1 cycle.
        let rr = map.get(0, 0).unwrap();
        assert!(rr.cycles < 2.0);
    }

    #[test]
    fn store_pairs_are_reported_as_upper_bounds() {
        let map = infer(MicroArch::Skylake, "MOV", "M64, R64");
        // Operand 1 (the data register) → operand 0 (memory).
        let v = map.get(1, 0).expect("store latency entry");
        assert!(v.is_upper_bound);
        assert!(v.cycles >= 4.0, "store-load round trip = {}", v.cycles);
    }

    #[test]
    fn cmc_flag_to_flag_latency_is_one() {
        let map = infer(MicroArch::Skylake, "CMC", "");
        // CMC reads and writes CF: one (flags, flags) self-chain pair.
        let ((_, _), v) = map.iter().next().expect("CMC has a latency entry");
        assert!((v.cycles - 1.0).abs() < 0.4, "CMC latency = {}", v.cycles);
    }

    #[test]
    fn rotate_has_higher_latency_to_flags_than_to_register() {
        // The rotate's register result is ready one cycle before its flags
        // (§7.3.5); measured through the shift-count operand (CL), which is
        // a pure source, both values are exact.
        let map = infer(MicroArch::Skylake, "ROL", "R64, CL");
        let desc_catalog = Catalog::intel_core();
        let desc = desc_catalog.find_variant("ROL", "R64, CL").unwrap();
        let flag_idx = desc
            .operands
            .iter()
            .enumerate()
            .find(|(_, od)| matches!(od.kind, OperandKind::Flags(_)))
            .map(|(i, _)| i)
            .unwrap();
        let to_reg = map.get(1, 0).expect("reg latency");
        let to_flags = map.get(1, flag_idx).expect("flag latency");
        assert!(!to_reg.is_upper_bound && !to_flags.is_upper_bound);
        assert!(
            to_flags.cycles > to_reg.cycles + 0.5,
            "reg {} vs flags {}",
            to_reg.cycles,
            to_flags.cycles
        );
        assert!(map.has_multiple_latencies());
    }

    #[test]
    fn division_reports_low_and_high_latencies() {
        let map = infer(MicroArch::Skylake, "DIV", "R32");
        let mut found = false;
        for (_, v) in map.iter() {
            if let Some(low) = v.low_value_cycles {
                assert!(low < v.cycles, "low {} should be below high {}", low, v.cycles);
                found = true;
            }
        }
        assert!(found, "no divider pair with low-value measurement: {map}");
    }

    #[test]
    fn movq2dq_cross_file_latency_is_an_upper_bound() {
        let map = infer(MicroArch::Skylake, "MOVQ2DQ", "XMM, MM");
        let v = map.get(1, 0).expect("MM → XMM pair");
        assert!(v.is_upper_bound);
        assert!(v.cycles >= 1.0);
    }

    #[test]
    fn branches_are_rejected() {
        let (backend, catalog) = analyzer(MicroArch::Skylake);
        let la = LatencyAnalyzer::new(&backend, &catalog, MeasurementConfig::fast()).unwrap();
        let desc = Arc::new(catalog.find_variant("JNZ", "I32").unwrap().clone());
        assert!(matches!(la.infer(&desc), Err(CoreError::Unsupported { .. })));
        let desc = Arc::new(catalog.find_variant("RDMSR", "").unwrap().clone());
        assert!(matches!(la.infer(&desc), Err(CoreError::Unsupported { .. })));
    }

    #[test]
    fn latency_map_accessors() {
        let mut map = LatencyMap::new();
        assert!(map.is_empty());
        map.insert(0, 1, LatencyValue { cycles: 3.0, ..LatencyValue::default() });
        map.insert(
            2,
            1,
            LatencyValue { cycles: 1.0, is_upper_bound: true, ..LatencyValue::default() },
        );
        assert_eq!(map.len(), 2);
        assert_eq!(map.single_value(), Some(3.0));
        assert_eq!(map.max_latency_cycles(), 3);
        assert!(!map.has_multiple_latencies());
        let display = map.to_string();
        assert!(display.contains("0→1"));
        assert!(display.contains('≤'));
    }
}
