//! Shared microbenchmark code-generation helpers.
//!
//! The latency, throughput, and port-usage algorithms all need to instantiate
//! instruction variants with carefully chosen operands: independent copies
//! for throughput, dependency chains for latency, and blocking-instruction
//! prefixes for port usage. This module centralizes that machinery.

use std::collections::BTreeMap;
use std::sync::Arc;

use uops_asm::{AsmError, Inst, Op, RegisterPool};
use uops_isa::{InstructionDesc, OperandKind, RegClass, RegFile, Register, Width};

/// Binds an instruction with fresh operands from the pool and no constraints.
///
/// # Errors
///
/// Returns an error if the pool runs out of registers.
pub fn instantiate(desc: &Arc<InstructionDesc>, pool: &mut RegisterPool) -> Result<Inst, AsmError> {
    Inst::bind(desc, &BTreeMap::new(), pool)
}

/// Binds `count` copies of an instruction such that no copy reads a register
/// or memory cell written by another copy (to the extent the architecture
/// allows it — implicit fixed operands and flags cannot be made independent,
/// §5.3.1).
///
/// Registers are drawn from a small rotating pool so that arbitrarily many
/// copies can be created; copies only become dependent on copies at least
/// `pool size` positions earlier.
///
/// # Errors
///
/// Returns an error if no registers of a required class are available at all.
pub fn independent_copies(
    desc: &Arc<InstructionDesc>,
    count: usize,
    pool: &mut RegisterPool,
) -> Result<Vec<Inst>, AsmError> {
    // Give every register-class operand its own disjoint rotation of
    // registers. Reads then only ever touch registers that are never written
    // by another operand slot, so copies can only depend on copies that
    // reuse the *same* slot's rotation — i.e. on copies at least
    // `rotation length` positions earlier.
    let class_operand_indices: Vec<(usize, RegClass)> = desc
        .operands
        .iter()
        .enumerate()
        .filter_map(|(i, od)| match od.kind {
            OperandKind::Reg(class) => Some((i, class)),
            _ => None,
        })
        .collect();

    // How many *written* operand slots share each register file. Only writes
    // create cross-copy dependencies, so read-only slots can make do with a
    // small rotation while written slots get as many registers as possible.
    let mut written_slots_per_file: BTreeMap<RegFile, usize> = BTreeMap::new();
    for (idx, class) in &class_operand_indices {
        if desc.operands[*idx].write {
            *written_slots_per_file.entry(class.file).or_insert(0) += 1;
        }
    }

    let mut rotations: BTreeMap<usize, Vec<Register>> = BTreeMap::new();
    for (idx, class) in &class_operand_indices {
        let budget = if desc.operands[*idx].write {
            let slots = written_slots_per_file.get(&class.file).copied().unwrap_or(1).max(1);
            let available = match class.file {
                RegFile::Gpr => 12,
                RegFile::Vec => 16,
                RegFile::Mmx => 8,
            };
            (available / slots).clamp(1, 8)
        } else {
            2
        };
        let mut regs = Vec::new();
        for _ in 0..budget {
            match pool.alloc(*class) {
                Ok(r) => regs.push(r),
                Err(_) => break,
            }
        }
        if regs.is_empty() {
            return Err(AsmError::OutOfRegisters { class: class.to_string() });
        }
        rotations.insert(*idx, regs);
    }

    let mut result = Vec::with_capacity(count);
    for i in 0..count {
        let mut assignment: BTreeMap<usize, Op> = BTreeMap::new();
        for (idx, od) in desc.operands.iter().enumerate() {
            match od.kind {
                OperandKind::Reg(_) => {
                    let regs = &rotations[&idx];
                    assignment.insert(idx, Op::Reg(regs[i % regs.len()]));
                }
                OperandKind::Mem(width) => {
                    // Each copy gets its own memory cell from the shared
                    // pool, so cells never collide with those of other
                    // instructions bound from the same pool.
                    assignment.insert(idx, Op::Mem(pool.fresh_mem(width)));
                }
                _ => {}
            }
        }
        result.push(Inst::bind(desc, &assignment, pool)?);
    }
    Ok(result)
}

/// Returns a dependency-breaking instruction for the status flags: an
/// instruction that overwrites the flags without reading them and without
/// touching any register in `avoid` (§5.2). `TEST r, r` with a scratch
/// register is used.
///
/// # Errors
///
/// Returns an error if the catalog does not contain `TEST` or no scratch
/// register is available.
pub fn flag_dependency_breaker(
    catalog: &uops_isa::Catalog,
    pool: &mut RegisterPool,
    avoid: &[Register],
) -> Result<Inst, AsmError> {
    let desc = uops_asm::variant_arc(catalog, "TEST", "R64, R64")?;
    let scratch = pool.alloc_excluding(RegClass::gpr(Width::W64), avoid)?;
    let mut assignment = BTreeMap::new();
    assignment.insert(0, Op::Reg(scratch));
    assignment.insert(1, Op::Reg(scratch));
    Inst::bind(&desc, &assignment, pool)
}

/// Returns a dependency-breaking instruction for a general-purpose register:
/// `MOV reg, imm` overwrites the register without reading anything.
///
/// # Errors
///
/// Returns an error if the catalog does not contain the required MOV variant.
pub fn register_dependency_breaker(
    catalog: &uops_isa::Catalog,
    pool: &mut RegisterPool,
    reg: Register,
) -> Result<Inst, AsmError> {
    match reg.file {
        RegFile::Gpr => {
            let desc = uops_asm::variant_arc(catalog, "MOV", "R64, I64")?;
            let mut assignment = BTreeMap::new();
            assignment.insert(0, Op::Reg(reg.with_width(Width::W64)));
            assignment.insert(1, Op::Imm(1));
            Inst::bind(&desc, &assignment, pool)
        }
        RegFile::Vec | RegFile::Mmx => {
            // PCMPEQD reg, reg is a dependency-breaking idiom that overwrites
            // the register without a true read.
            let (mnemonic, variant) = if reg.file == RegFile::Vec {
                ("PCMPEQD", "XMM, XMM")
            } else {
                ("PCMPEQD", "MM, MM")
            };
            let desc = uops_asm::variant_arc(catalog, mnemonic, variant)?;
            let mut assignment = BTreeMap::new();
            assignment.insert(0, Op::Reg(reg));
            assignment.insert(1, Op::Reg(reg));
            Inst::bind(&desc, &assignment, pool)
        }
    }
}

/// Classification of an operand for the latency algorithm's case analysis
/// (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandClass {
    /// General-purpose register (explicit or implicit).
    Gpr,
    /// Vector register (XMM/YMM).
    Vec,
    /// MMX register.
    Mmx,
    /// Memory operand.
    Memory,
    /// Status flags.
    Flags,
    /// Immediate (has no latency).
    Immediate,
}

/// Classifies an operand.
#[must_use]
pub fn classify_operand(desc: &InstructionDesc, idx: usize) -> OperandClass {
    match desc.operands[idx].kind {
        OperandKind::Reg(class) => match class.file {
            RegFile::Gpr => OperandClass::Gpr,
            RegFile::Vec => OperandClass::Vec,
            RegFile::Mmx => OperandClass::Mmx,
        },
        OperandKind::FixedReg(reg) => match reg.file {
            RegFile::Gpr => OperandClass::Gpr,
            RegFile::Vec => OperandClass::Vec,
            RegFile::Mmx => OperandClass::Mmx,
        },
        OperandKind::Mem(_) => OperandClass::Memory,
        OperandKind::Imm(_) => OperandClass::Immediate,
        OperandKind::Flags(_) => OperandClass::Flags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uops_asm::variant_arc;
    use uops_isa::Catalog;

    fn catalog() -> Catalog {
        Catalog::intel_core()
    }

    #[test]
    fn independent_copies_are_independent() {
        let c = catalog();
        for (mnemonic, variant) in [("ADD", "R64, R64"), ("PADDD", "XMM, XMM"), ("MOV", "R64, M64")]
        {
            let desc = variant_arc(&c, mnemonic, variant).unwrap();
            let mut pool = RegisterPool::new();
            let copies = independent_copies(&desc, 4, &mut pool).unwrap();
            assert_eq!(copies.len(), 4);
            for i in 0..copies.len() {
                for j in (i + 1)..copies.len() {
                    // Ignore flag resources: ALU copies unavoidably share them.
                    let writes_i: Vec<_> = copies[i]
                        .writes()
                        .into_iter()
                        .filter(|r| !matches!(r, uops_asm::Resource::Flag(_)))
                        .collect();
                    let reads_j: Vec<_> = copies[j]
                        .reads()
                        .into_iter()
                        .filter(|r| !matches!(r, uops_asm::Resource::Flag(_)))
                        .collect();
                    assert!(
                        !reads_j.iter().any(|r| writes_i.contains(r)),
                        "{mnemonic}: copy {j} depends on copy {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn many_copies_can_be_generated() {
        let c = catalog();
        let desc = variant_arc(&c, "ADD", "R64, R64").unwrap();
        let mut pool = RegisterPool::new();
        let copies = independent_copies(&desc, 64, &mut pool).unwrap();
        assert_eq!(copies.len(), 64);
    }

    #[test]
    fn flag_breaker_writes_flags_without_reading_chain_registers() {
        let c = catalog();
        let mut pool = RegisterPool::new();
        let rbx = Register::gpr(uops_isa::gpr::RBX, Width::W64);
        let breaker = flag_dependency_breaker(&c, &mut pool, &[rbx]).unwrap();
        assert!(breaker.writes().iter().any(|r| matches!(r, uops_asm::Resource::Flag(_))));
        assert!(!breaker.reads().iter().any(|r| *r == uops_asm::Resource::of_register(rbx)));
        assert!(!breaker.reads().iter().any(|r| matches!(r, uops_asm::Resource::Flag(_))));
    }

    #[test]
    fn register_breaker_overwrites_without_reading() {
        let c = catalog();
        let mut pool = RegisterPool::new();
        let rbx = Register::gpr(uops_isa::gpr::RBX, Width::W64);
        let breaker = register_dependency_breaker(&c, &mut pool, rbx).unwrap();
        assert!(breaker.writes().contains(&uops_asm::Resource::of_register(rbx)));
        assert!(!breaker.reads().contains(&uops_asm::Resource::of_register(rbx)));
        // Vector register breaker.
        let xmm3 = Register::vec(3, Width::W128);
        let vb = register_dependency_breaker(&c, &mut pool, xmm3).unwrap();
        assert!(vb.writes().contains(&uops_asm::Resource::of_register(xmm3)));
    }

    #[test]
    fn operand_classification() {
        let c = catalog();
        let add_mem = c.find_variant("ADD", "R64, M64").unwrap();
        assert_eq!(classify_operand(add_mem, 0), OperandClass::Gpr);
        assert_eq!(classify_operand(add_mem, 1), OperandClass::Memory);
        let paddd = c.find_variant("PADDD", "XMM, XMM").unwrap();
        assert_eq!(classify_operand(paddd, 0), OperandClass::Vec);
        let shl = c.find_variant("SHL", "R64, I8").unwrap();
        assert_eq!(classify_operand(shl, 1), OperandClass::Immediate);
        let movq2dq = c.find_variant("MOVQ2DQ", "XMM, MM").unwrap();
        assert_eq!(classify_operand(movq2dq, 1), OperandClass::Mmx);
        // The implicit flag operand of ADD.
        let add = c.find_variant("ADD", "R64, R64").unwrap();
        let flag_idx = add.operands.len() - 1;
        assert_eq!(classify_operand(add, flag_idx), OperandClass::Flags);
    }

    #[test]
    fn instantiate_produces_valid_instruction() {
        let c = catalog();
        let desc = variant_arc(&c, "SHLD", "R64, R64, I8").unwrap();
        let mut pool = RegisterPool::new();
        let inst = instantiate(&desc, &mut pool).unwrap();
        assert_eq!(inst.operands().len(), desc.operands.len());
    }
}
