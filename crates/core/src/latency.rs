//! Latency inference (§4.1, §5.2).
//!
//! The latency of an instruction is modelled as a mapping from
//! (source operand, destination operand) pairs to cycle counts: `lat(s, d)`
//! is the time from the source operand becoming ready until the destination
//! operand is ready, assuming all other dependencies are off the critical
//! path.
//!
//! Every pair is measured as a chain: one iteration of a dependency chain
//! from the destination back to the source, closed by chain instructions
//! whose own latency is calibrated once per backend ([`ChainCalibration`]),
//! with every other dependency broken by dependency-breaking instructions.
//! One builder per §5.2 case makes the chain (or the candidate chains) of a
//! pair, and the measured cycles per iteration become the latency as
//! follows:
//!
//! | case | closing instructions | latency | upper bound |
//! |---|---|---|---|
//! | `s == d`, flags → flags | none (self chain) | cycles | no |
//! | GPR → GPR | `MOVSX` | cycles − `movsx`, clamped at 0 | no |
//! | vector → vector | `PSHUFD`, `SHUFPS` | min over both of cycles − `pshufd` / `shufps`, each clamped at 0 | no |
//! | MMX → MMX | `PSHUFW` | cycles − `pshufw`, clamped at 0 | no |
//! | memory → register (§5.2.2) | `XOR` twice on the base register, after a `MOVQ` to a GPR for vector/MMX destinations | cycles − 2, clamped at 0 | unless the destination is a GPR |
//! | register → memory (§5.2.4) | a load from the stored cell | cycles (a store-load round trip) | yes |
//! | flags → GPR (§5.2.3) | `TEST r, r` | cycles − 1, clamped at 0 | no |
//! | GPR → flags | `CMOVNZ r, r` | cycles − `cmov_flags_to_reg`, clamped at 0 | if the source is also written |
//! | other register files | each of the first three cross-file moves, skipping any that cannot be bound | (min cycles) − 1, clamped at 0 | yes |
//! | same register (§5.2.1) | none (both operands bound to one register) | cycles | — |
//!
//! The chains are built once. Divider instructions measure the self, GPR,
//! vector and MMX chains again with operand values that give the low
//! latency (§5.2.5).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use uops_asm::{variant_arc, CodeSequence, Inst, MemOperand, Op, RegisterPool};
use uops_isa::{Catalog, InstructionDesc, OperandKind, RegClass, RegFile, Register, Width};
use uops_measure::{measure, MeasurementBackend, MeasurementConfig, RunContext};

use crate::codegen::{
    classify_operand, flag_dependency_breaker, register_dependency_breaker, OperandClass,
};
use crate::error::CoreError;

/// The measured latency for one (source, destination) operand pair.
#[derive(Debug, Clone, PartialEq, Default)]
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
#[derive(Debug, Clone, PartialEq, Default)]
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
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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

/// A latency microbenchmark: one iteration of a dependency chain from the
/// destination operand back to the source operand of the instruction under
/// test.
struct Chain {
    /// The instruction under test, the instructions closing the chain, and
    /// the breakers of every dependency outside it.
    body: CodeSequence,
    /// Calibrated cycles of the closing instructions, subtracted from the
    /// measured cycles.
    offset: f64,
    /// The chain yields only an upper bound of the latency.
    upper_bound: bool,
}

/// How a case turns the cycles of its candidate chains into one latency.
#[derive(Clone, Copy)]
enum Combine {
    /// The cycles of the one chain, as measured.
    Measured,
    /// The minimum over the candidates of their cycles minus their offset,
    /// each clamped at 0.
    MinOfClamped,
    /// The minimum cycles over the candidates minus the (common) offset,
    /// clamped at 0.
    ClampedMin,
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
        let mut analyzer = LatencyAnalyzer::with_calibration(
            backend,
            catalog,
            config,
            ChainCalibration::default(),
        );
        analyzer.calibration = analyzer.calibrate()?;
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

    fn measure_cycles(&self, seq: &CodeSequence, ctx: RunContext) -> f64 {
        measure(self.backend, seq, &self.config, ctx).cycles
    }

    fn calibrate(&self) -> Result<ChainCalibration, CoreError> {
        let gpr = |index| Register::gpr(index, Width::W64);
        let xmm = |index| Register::vec(index, Width::W128);
        let (rbx, rsi) = (gpr(uops_isa::gpr::RBX), gpr(uops_isa::gpr::RSI));

        // Flags → register through CMOVNZ, calibrated with a TEST-based
        // producer whose register → flags latency is taken to be 1 cycle.
        let test = variant_arc(self.catalog, "TEST", "R64, R64")?;
        let cmov = variant_arc(self.catalog, "CMOVNZ", "R64, R64")?;
        let mut pool = RegisterPool::new();
        let flags_chain: CodeSequence = [
            chain_instruction(&test, rbx, rbx, &mut pool)?,
            chain_instruction(&cmov, rbx, rsi, &mut pool)?,
        ]
        .into_iter()
        .collect();

        Ok(ChainCalibration {
            movsx: self.alternating("MOVSX", "R64, R16", rbx, rsi)?,
            pshufd: self.alternating("PSHUFD", "XMM, XMM, I8", xmm(1), xmm(2))?,
            shufps: self.alternating("SHUFPS", "XMM, XMM, I8", xmm(1), xmm(2))?,
            pshufw: self.alternating("PSHUFW", "MM, MM, I8", Register::mmx(1), Register::mmx(2))?,
            cmov_flags_to_reg: (self.measure_cycles(&flags_chain, RunContext::default()) - 1.0)
                .max(0.5),
        })
    }

    /// The latency of a chain instruction, measured as two instances
    /// alternating between two registers (`a ← b`, then `b ← a`).
    fn alternating(
        &self,
        mnemonic: &str,
        variant: &str,
        a: Register,
        b: Register,
    ) -> Result<f64, CoreError> {
        let desc = variant_arc(self.catalog, mnemonic, variant)?;
        let mut pool = RegisterPool::new();
        let seq = [(a, b), (b, a)]
            .into_iter()
            .map(|(dst, src)| chain_instruction(&desc, dst, src, &mut pool))
            .collect::<Result<CodeSequence, _>>()?;
        Ok(self.measure_cycles(&seq, RunContext::default()) / 2.0)
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
        let destinations = desc.destination_indices();
        for &s in &desc.source_indices() {
            for &d in &destinations {
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

    /// Measures one (source, destination) pair: builds the chains of its
    /// case once and measures them in every run context the pair needs.
    fn measure_pair(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        s_class: OperandClass,
        d_class: OperandClass,
    ) -> Result<LatencyValue, CoreError> {
        use Combine::{ClampedMin, Measured, MinOfClamped};
        use OperandClass as OC;
        let (chains, combine) = match (s_class, d_class) {
            // Same operand (read-modify-write): a self chain.
            _ if s == d => (vec![self.self_chain(desc, s, d)?], Measured),
            (OC::Gpr, OC::Gpr) => (vec![self.gpr_to_gpr(desc, s, d)?], MinOfClamped),
            (OC::Vec, OC::Vec) => (self.vec_to_vec(desc, s, d, RegFile::Vec)?, MinOfClamped),
            (OC::Mmx, OC::Mmx) => (self.vec_to_vec(desc, s, d, RegFile::Mmx)?, MinOfClamped),
            (OC::Memory, _) => (vec![self.mem_to_reg(desc, s, d, d_class)?], MinOfClamped),
            (_, OC::Memory) => (vec![self.reg_to_mem(desc, s, d, s_class)?], Measured),
            (OC::Flags, OC::Gpr) => (vec![self.flags_to_gpr(desc, s, d)?], MinOfClamped),
            (OC::Flags, OC::Flags) => (vec![self.self_chain(desc, s, d)?], Measured),
            (OC::Gpr, OC::Flags) => (vec![self.gpr_to_flags(desc, s, d)?], MinOfClamped),
            // Different register files: compose with a cross-file chain
            // instruction and report an upper bound.
            _ => (self.cross_file(desc, s, d)?, ClampedMin),
        };
        let mut value = LatencyValue {
            cycles: self.latency(&chains, combine, RunContext::default()),
            is_upper_bound: chains[0].upper_bound,
            ..LatencyValue::default()
        };

        // Divider instructions: measure the self and same-file register
        // chains again with operand values that lead to the low latency
        // (§5.2.5).
        let same_file = s_class == d_class && matches!(s_class, OC::Gpr | OC::Vec | OC::Mmx);
        if desc.attrs.uses_divider && (s == d || same_file) {
            let low = RunContext { divider_low_latency: true };
            value.low_value_cycles = Some(self.latency(&chains, combine, low));
        }

        // For pairs of distinct explicit register operands of the same class,
        // additionally measure the variant that uses the same register for
        // both operands (§5.2.1).
        if s != d
            && same_file
            && desc.operands[s].is_explicit()
            && desc.operands[d].is_explicit()
            && matches!(desc.operands[s].kind, OperandKind::Reg(_))
            && matches!(desc.operands[d].kind, OperandKind::Reg(_))
        {
            if let Ok(chain) = self.same_register(desc, s, d) {
                value.same_register_cycles =
                    Some(self.latency(&[chain], Measured, RunContext::default()));
            }
        }

        Ok(value)
    }

    /// Measures the candidate chains of one case in `ctx` and combines their
    /// cycles into the pair's latency.
    fn latency(&self, chains: &[Chain], combine: Combine, ctx: RunContext) -> f64 {
        let measured = chains.iter().map(|c| self.measure_cycles(&c.body, ctx));
        match combine {
            Combine::Measured => min_of(measured),
            Combine::MinOfClamped => {
                min_of(chains.iter().zip(measured).map(|(c, m)| (m - c.offset).max(0.0)))
            }
            Combine::ClampedMin => (min_of(measured) - chains[0].offset).max(0.0),
        }
    }

    // -----------------------------------------------------------------
    // One chain builder per §5.2 case
    // -----------------------------------------------------------------

    /// Self chain: the destination operand of one instance is the source
    /// operand of the next (same operand index, or flags → flags).
    fn self_chain(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<Chain, CoreError> {
        let mut pool = RegisterPool::new();
        let inst = Inst::bind(desc, &BTreeMap::new(), &mut pool)?;
        Ok(Chain { body: self.body(inst, None, s, d, &mut pool)?, offset: 0.0, upper_bound: false })
    }

    /// General-purpose register → general-purpose register, chained through
    /// MOVSX (§5.2.1).
    fn gpr_to_gpr(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<Chain, CoreError> {
        // MOVSX s_reg64, d_regNN where NN avoids partial register stalls
        // (source width no wider than what the instruction writes).
        let d_width = desc.operands[d].kind.width().unwrap_or(Width::W64);
        let variant = if d_width == Width::W8 { "R64, R8" } else { "R64, R16" };
        let movsx = variant_arc(self.catalog, "MOVSX", variant)?;
        let body = self.pair_chain(desc, s, d, &movsx)?;
        Ok(Chain { body, offset: self.calibration.movsx, upper_bound: false })
    }

    /// Vector register → vector register (XMM/YMM or MMX), chained through an
    /// integer shuffle and a floating-point shuffle, or the MMX shuffle; the
    /// minimum over the candidates is reported (§5.2.1).
    fn vec_to_vec(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        file: RegFile,
    ) -> Result<Vec<Chain>, CoreError> {
        let cal = &self.calibration;
        let shuffles = match file {
            RegFile::Mmx => vec![("PSHUFW", "MM, MM, I8", cal.pshufw)],
            _ => {
                vec![("PSHUFD", "XMM, XMM, I8", cal.pshufd), ("SHUFPS", "XMM, XMM, I8", cal.shufps)]
            }
        };
        shuffles
            .into_iter()
            .map(|(mnemonic, variant, offset)| {
                let shuffle = variant_arc(self.catalog, mnemonic, variant)?;
                Ok(Chain {
                    body: self.pair_chain(desc, s, d, &shuffle)?,
                    offset,
                    upper_bound: false,
                })
            })
            .collect()
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
    ) -> Result<Chain, CoreError> {
        let mut pool = RegisterPool::new();
        let base = pool.memory_base();
        let inst = Inst::bind(desc, &memory_cell(desc, s, base), &mut pool)?;
        let mut body = CodeSequence::new();
        body.push(inst.clone());

        // Route the destination value into a general-purpose register.
        let (gpr_for_xor, upper_bound) = match d_class {
            OperandClass::Gpr => {
                (inst.operand(d).register().expect("GPR destination operand"), false)
            }
            _ => {
                // Move the vector/MMX destination into a scratch GPR first.
                let d_reg = inst.operand(d).register().ok_or_else(|| {
                    CoreError::NoChainInstruction { pair: format!("{s}→{d} (memory)") }
                })?;
                let tmp = pool.alloc(RegClass::gpr(Width::W64))?;
                let variant = if d_reg.file == RegFile::Vec { "R64, XMM" } else { "R64, MM" };
                let movq = variant_arc(self.catalog, "MOVQ", variant)?;
                body.push(chain_instruction(&movq, tmp, d_reg, &mut pool)?);
                (tmp, true)
            }
        };

        // XOR base, r; XOR base, r — leaves the base register value unchanged
        // but creates the dependency; a TEST breaks the flag dependency the
        // XORs introduce.
        let xor = variant_arc(self.catalog, "XOR", "R64, R64")?;
        for _ in 0..2 {
            body.push(chain_instruction(&xor, base, gpr_for_xor, &mut pool)?);
        }
        let avoid: Vec<Register> =
            bound_registers(&inst).into_iter().chain([base, gpr_for_xor]).collect();
        body.push(flag_dependency_breaker(self.catalog, &mut pool, &avoid)?);
        Ok(Chain { body, offset: 2.0, upper_bound })
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
    ) -> Result<Chain, CoreError> {
        let no_chain = || CoreError::NoChainInstruction { pair: format!("{s}→{d} (store)") };
        let mut pool = RegisterPool::new();
        let base = pool.memory_base();
        let inst = Inst::bind(desc, &memory_cell(desc, d, base), &mut pool)?;
        let s_reg = inst.operand(s).register().ok_or_else(no_chain)?;

        // Load from the stored cell back into the source register.
        let (mnemonic, variant, width) = match s_class {
            OperandClass::Gpr => ("MOV", "R64, M64", Width::W64),
            OperandClass::Vec => ("MOVDQA", "XMM, M128", Width::W128),
            OperandClass::Mmx => ("MOVQ", "MM, M64", Width::W64),
            _ => return Err(no_chain()),
        };
        let mov = variant_arc(self.catalog, mnemonic, variant)?;
        let cell = BTreeMap::from([
            (0, Op::Reg(s_reg.with_width(width))),
            (1, Op::Mem(MemOperand::new(base, 0, width))),
        ]);
        let load = Inst::bind(&mov, &cell, &mut pool)?;
        Ok(Chain {
            body: self.body(inst, Some(load), s, d, &mut pool)?,
            offset: 0.0,
            upper_bound: true,
        })
    }

    /// Status flags → general-purpose register (§5.2.3): `TEST r, r` creates
    /// the register → flags dependency for the next iteration.
    fn flags_to_gpr(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<Chain, CoreError> {
        let mut pool = RegisterPool::new();
        let inst = Inst::bind(desc, &BTreeMap::new(), &mut pool)?;
        let d_reg = inst
            .operand(d)
            .register()
            .ok_or_else(|| CoreError::NoChainInstruction { pair: format!("{s}→{d} (flags)") })?;
        let test = variant_arc(self.catalog, "TEST", "R64, R64")?;
        let chain = chain_instruction(&test, d_reg, d_reg, &mut pool)?;
        Ok(Chain {
            body: self.body(inst, Some(chain), s, d, &mut pool)?,
            offset: 1.0,
            upper_bound: false,
        })
    }

    /// General-purpose register → status flags: chained through `CMOVNZ`.
    fn gpr_to_flags(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<Chain, CoreError> {
        let mut pool = RegisterPool::new();
        let inst = Inst::bind(desc, &BTreeMap::new(), &mut pool)?;
        let s_reg = inst.operand(s).register().ok_or_else(|| CoreError::NoChainInstruction {
            pair: format!("{s}→{d} (to flags)"),
        })?;
        let cmov = variant_arc(self.catalog, "CMOVNZ", "R64, R64")?;
        let chain = chain_instruction(&cmov, s_reg, s_reg, &mut pool)?;
        let body = self.body(inst, Some(chain), s, d, &mut pool)?;
        // If the source register is also written by the instruction, the
        // CMOV chain inevitably adds a register → register path through its
        // own destination; the result is then only an upper bound.
        let upper_bound = desc.operands[s].write;
        Ok(Chain { body, offset: self.calibration.cmov_flags_to_reg, upper_bound })
    }

    /// Register pairs of different files (§5.2.1, "the registers have
    /// different types"): compose with up to three cross-file moves and
    /// report the minimum composed time minus one as an upper bound. A move
    /// that cannot be bound is skipped.
    fn cross_file(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<Vec<Chain>, CoreError> {
        let no_chain = || CoreError::NoChainInstruction { pair: format!("{s}→{d}") };
        let (Some(s_file), Some(d_file)) = (operand_file(desc, s), operand_file(desc, d)) else {
            return Err(no_chain());
        };
        let chains: Vec<Chain> = self
            .cross_chain_candidates(d_file, s_file)
            .iter()
            .take(3)
            .filter_map(|mover| self.pair_chain(desc, s, d, mover).ok())
            .map(|body| Chain { body, offset: 1.0, upper_bound: true })
            .collect();
        if chains.is_empty() {
            return Err(no_chain());
        }
        Ok(chains)
    }

    /// The same-register microbenchmark of §5.2.1: bind the same register to
    /// both operands and measure the resulting self chain.
    fn same_register(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
    ) -> Result<Chain, CoreError> {
        let OperandKind::Reg(class) = desc.operands[d].kind else {
            return Err(CoreError::NoChainInstruction { pair: format!("{s}→{d} (same reg)") });
        };
        let mut pool = RegisterPool::new();
        let reg = pool.alloc(class)?;
        let assignments = BTreeMap::from([(s, Op::Reg(reg)), (d, Op::Reg(reg))]);
        let inst = Inst::bind(desc, &assignments, &mut pool)?;
        Ok(Chain { body: self.body(inst, None, s, d, &mut pool)?, offset: 0.0, upper_bound: false })
    }

    // -----------------------------------------------------------------
    // Shared pieces of the builders
    // -----------------------------------------------------------------

    /// The chain of the register-pair cases: the instruction under test
    /// with fresh registers for `s` and `d`, the chain instruction `mover`
    /// reading `d`'s register and writing `s`'s, the breakers of every other
    /// dependency and, if the destination is also read, one that overwrites
    /// it after the chain instruction has consumed it (§5.2).
    fn pair_chain(
        &self,
        desc: &Arc<InstructionDesc>,
        s: usize,
        d: usize,
        mover: &Arc<InstructionDesc>,
    ) -> Result<CodeSequence, CoreError> {
        let mut pool = RegisterPool::new();
        let (s_reg, d_reg, assignments) = allocate_pair_registers(desc, s, d, &mut pool)?;
        let inst = Inst::bind(desc, &assignments, &mut pool)?;
        let chain = chain_instruction(mover, s_reg, d_reg, &mut pool)?;
        let mut body = self.body(inst, Some(chain), s, d, &mut pool)?;
        if desc.operands[d].read && desc.operands[d].write && !d_reg.aliases(s_reg) {
            body.push(register_dependency_breaker(self.catalog, &mut pool, d_reg)?);
        }
        Ok(body)
    }

    /// `inst`, the instruction closing its chain (if any), and
    /// dependency-breaking instructions for every implicit or read-write
    /// operand of `inst` that is not part of the chain through `s` and `d`.
    fn body(
        &self,
        inst: Inst,
        chain: Option<Inst>,
        s: usize,
        d: usize,
        pool: &mut RegisterPool,
    ) -> Result<CodeSequence, CoreError> {
        let desc = inst.desc();
        let chain_regs = [inst.operand(s).register(), inst.operand(d).register()];
        let mut breakers = Vec::new();
        // Break the flag self-dependency unless the chain itself goes through
        // the flags.
        let flags_in_chain = matches!(desc.operands[s].kind, OperandKind::Flags(_))
            || matches!(desc.operands[d].kind, OperandKind::Flags(_));
        if desc.reads_flags() && desc.writes_flags() && !flags_in_chain {
            breakers.push(flag_dependency_breaker(self.catalog, pool, &bound_registers(&inst))?);
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
                breakers.push(register_dependency_breaker(self.catalog, pool, reg)?);
            }
        }
        Ok([inst].into_iter().chain(chain).chain(breakers).collect())
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

/// Binds a chain instruction that reads `src` and writes `dst`: each of its
/// register operands of `dst`'s file that it writes gets `dst`, each of
/// `src`'s file that it reads gets `src` (at the operand's width), and every
/// immediate is 0. Chain instructions with a memory operand are refused.
fn chain_instruction(
    desc: &Arc<InstructionDesc>,
    dst: Register,
    src: Register,
    pool: &mut RegisterPool,
) -> Result<Inst, CoreError> {
    let mut assignments = BTreeMap::new();
    for (idx, od) in desc.operands.iter().enumerate() {
        let op = match od.kind {
            OperandKind::Reg(class) if od.write && class.file == dst.file => {
                Op::Reg(dst.with_width(class.width))
            }
            OperandKind::Reg(class) if od.read && class.file == src.file => {
                Op::Reg(src.with_width(class.width))
            }
            OperandKind::Imm(_) => Op::Imm(0),
            OperandKind::Mem(_) => {
                return Err(CoreError::NoChainInstruction {
                    pair: format!("{} has a memory operand", desc.full_name()),
                })
            }
            _ => continue,
        };
        assignments.insert(idx, op);
    }
    Ok(Inst::bind(desc, &assignments, pool)?)
}

/// An assignment placing memory operand `idx` in the fixed cell addressed
/// through `base`.
fn memory_cell(desc: &InstructionDesc, idx: usize, base: Register) -> BTreeMap<usize, Op> {
    let width = match desc.operands[idx].kind {
        OperandKind::Mem(w) => w,
        _ => Width::W64,
    };
    BTreeMap::from([(idx, Op::Mem(MemOperand::new(base, 0, width)))])
}

/// Allocates registers for the source and destination operands of a pair
/// and returns them with the partially filled assignment map.
fn allocate_pair_registers(
    desc: &InstructionDesc,
    s: usize,
    d: usize,
    pool: &mut RegisterPool,
) -> Result<(Register, Register, BTreeMap<usize, Op>), CoreError> {
    let no_chain = || CoreError::NoChainInstruction { pair: format!("{s}→{d}") };
    let mut assignments = BTreeMap::new();
    let d_reg = match desc.operands[d].kind {
        OperandKind::Reg(class) => {
            let r = pool.alloc(class)?;
            assignments.insert(d, Op::Reg(r));
            r
        }
        OperandKind::FixedReg(r) => {
            pool.mark_used(r);
            r
        }
        _ => return Err(no_chain()),
    };
    let s_reg = if s == d {
        d_reg
    } else {
        match desc.operands[s].kind {
            OperandKind::Reg(class) => {
                let r = pool.alloc_excluding(class, &[d_reg])?;
                assignments.insert(s, Op::Reg(r));
                r
            }
            OperandKind::FixedReg(r) => {
                pool.mark_used(r);
                r
            }
            _ => return Err(no_chain()),
        }
    };
    Ok((s_reg, d_reg, assignments))
}

/// Registers used by the operands of an instruction instance (for
/// exclusion lists).
fn bound_registers(inst: &Inst) -> Vec<Register> {
    inst.operands().iter().filter_map(Op::register).collect()
}

/// The minimum of a case's per-chain values.
fn min_of(values: impl Iterator<Item = f64>) -> f64 {
    values.reduce(f64::min).expect("every case builds at least one chain")
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
