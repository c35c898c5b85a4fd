//! Instruction instances: an instruction variant with concrete operands.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use uops_isa::{InstructionDesc, OperandKind, Width};

use crate::error::AsmError;
use crate::operand::{Op, Resource};
use crate::pool::RegisterPool;

/// A concrete instruction instance: a variant descriptor together with one
/// bound operand per operand description (explicit and implicit).
#[derive(Debug, Clone)]
pub struct Inst {
    desc: Arc<InstructionDesc>,
    operands: Vec<Op>,
}

impl Inst {
    /// Creates an instruction instance with explicitly provided operands.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of operands does not match the
    /// descriptor.
    pub fn new(desc: Arc<InstructionDesc>, operands: Vec<Op>) -> Result<Inst, AsmError> {
        if operands.len() != desc.operands.len() {
            return Err(AsmError::OperandCount {
                instruction: desc.full_name(),
                expected: desc.operands.len(),
                actual: operands.len(),
            });
        }
        Ok(Inst { desc, operands })
    }

    /// Instantiates the descriptor, taking operands from `assignment` where
    /// provided (keyed by operand index) and allocating the remaining
    /// operands from the register pool.
    ///
    /// * Register-class operands are allocated from the pool.
    /// * Fixed-register operands are bound to their fixed register.
    /// * Memory operands are bound to a fresh cell in the pool's scratch
    ///   memory area (unless assigned).
    /// * Immediate operands default to the value `1`.
    /// * Flag operands are bound to their flag set.
    ///
    /// # Errors
    ///
    /// Returns an error if the pool runs out of registers.
    pub fn bind(
        desc: &Arc<InstructionDesc>,
        assignment: &BTreeMap<usize, Op>,
        pool: &mut RegisterPool,
    ) -> Result<Inst, AsmError> {
        let mut operands = Vec::with_capacity(desc.operands.len());
        for (i, od) in desc.operands.iter().enumerate() {
            if let Some(op) = assignment.get(&i) {
                operands.push(*op);
                continue;
            }
            let op = match od.kind {
                OperandKind::Reg(class) => Op::Reg(pool.alloc(class)?),
                OperandKind::FixedReg(reg) => Op::Reg(reg),
                OperandKind::Mem(width) => Op::Mem(pool.fresh_mem(width)),
                OperandKind::Imm(_) => Op::Imm(1),
                OperandKind::Flags(set) => Op::Flags(set),
            };
            operands.push(op);
        }
        Ok(Inst { desc: Arc::clone(desc), operands })
    }

    /// The instruction descriptor.
    #[must_use]
    pub fn desc(&self) -> &InstructionDesc {
        &self.desc
    }

    /// The bound operands (one per descriptor operand, explicit and implicit).
    #[must_use]
    pub fn operands(&self) -> &[Op] {
        &self.operands
    }

    /// The operand at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn operand(&self, i: usize) -> Op {
        self.operands[i]
    }

    /// The mnemonic of the instruction.
    #[must_use]
    pub fn mnemonic(&self) -> &str {
        &self.desc.mnemonic
    }

    /// Architectural resources read by this instance, including address
    /// registers of memory operands and individual status flags.
    #[must_use]
    pub fn reads(&self) -> Vec<Resource> {
        let mut out = Vec::new();
        for (od, op) in self.desc.operands.iter().zip(&self.operands) {
            match op {
                Op::Reg(r) => {
                    if od.read {
                        push_unique(&mut out, Resource::of_register(*r));
                    }
                }
                Op::Mem(m) => {
                    // The base register is always read for address generation,
                    // even by stores and LEA.
                    push_unique(&mut out, Resource::of_register(m.base));
                    if od.read {
                        push_unique(&mut out, Resource::Mem(m.cell()));
                    }
                }
                Op::Imm(_) => {}
                Op::Flags(set) => {
                    if od.read {
                        for f in set.iter() {
                            push_unique(&mut out, Resource::Flag(f));
                        }
                    }
                }
            }
        }
        out
    }

    /// Architectural resources written by this instance.
    #[must_use]
    pub fn writes(&self) -> Vec<Resource> {
        let mut out = Vec::new();
        for (od, op) in self.desc.operands.iter().zip(&self.operands) {
            if !od.write {
                continue;
            }
            match op {
                Op::Reg(r) => push_unique(&mut out, Resource::of_register(*r)),
                Op::Mem(m) => push_unique(&mut out, Resource::Mem(m.cell())),
                Op::Imm(_) => {}
                Op::Flags(set) => {
                    for f in set.iter() {
                        push_unique(&mut out, Resource::Flag(f));
                    }
                }
            }
        }
        out
    }

    /// Returns `true` if this instance has a read-after-write dependency on
    /// `earlier` (i.e. it reads a resource that `earlier` writes).
    #[must_use]
    pub fn depends_on(&self, earlier: &Inst) -> bool {
        let writes = earlier.writes();
        self.reads().iter().any(|r| writes.contains(r))
    }

    /// Returns `true` if all explicit register operands that are both read
    /// and written use the same register as some other explicit source
    /// operand — the "same register for both operands" scenario of §5.2.1.
    #[must_use]
    pub fn uses_same_register_for(&self, a: usize, b: usize) -> bool {
        match (self.operands.get(a), self.operands.get(b)) {
            (Some(Op::Reg(ra)), Some(Op::Reg(rb))) => ra.aliases(*rb),
            _ => false,
        }
    }

    /// Formats the instruction in Intel syntax (explicit operands only).
    #[must_use]
    pub fn to_intel_syntax(&self) -> String {
        let explicit: Vec<String> = self
            .desc
            .operands
            .iter()
            .zip(&self.operands)
            .filter(|(od, _)| od.is_explicit())
            .map(|(od, op)| match (od.kind, op) {
                // Print register operands at the width requested by the
                // descriptor (relevant when a wider register was assigned).
                (OperandKind::Reg(class), Op::Reg(r)) => r.with_width(class.width).name(),
                _ => op.to_string(),
            })
            .collect();
        if explicit.is_empty() {
            self.desc.mnemonic.clone()
        } else {
            format!("{} {}", self.desc.mnemonic, explicit.join(", "))
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_intel_syntax())
    }
}

fn push_unique(v: &mut Vec<Resource>, r: Resource) {
    if !v.contains(&r) {
        v.push(r);
    }
}

/// Convenience: looks up a variant in a catalog and returns its interned
/// [`Arc`] handle for repeated instantiation.
///
/// The catalog interns every descriptor behind an `Arc` at insertion time,
/// so this is a reference-count bump, not a deep clone — it is called for
/// every chain/breaker instruction the latency analyzer generates, which
/// made the old clone-and-wrap implementation a per-microbenchmark
/// allocation hot spot.
///
/// # Errors
///
/// Returns an error if the variant does not exist.
pub fn variant_arc(
    catalog: &uops_isa::Catalog,
    mnemonic: &str,
    variant: &str,
) -> Result<Arc<InstructionDesc>, AsmError> {
    catalog.find_variant_arc(mnemonic, variant).cloned().ok_or_else(|| AsmError::UnknownVariant {
        mnemonic: mnemonic.to_string(),
        variant: variant.to_string(),
    })
}

/// Width of a memory operand a descriptor expects at operand index `i`, if
/// that operand is a memory operand.
#[must_use]
pub fn mem_width_of(desc: &InstructionDesc, i: usize) -> Option<Width> {
    match desc.operands.get(i).map(|o| o.kind) {
        Some(OperandKind::Mem(w)) => Some(w),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uops_isa::{gpr, Catalog, Register};

    fn catalog() -> Catalog {
        Catalog::intel_core()
    }

    #[test]
    fn bind_allocates_missing_operands() {
        let c = catalog();
        let desc = variant_arc(&c, "ADD", "R64, R64").unwrap();
        let mut pool = RegisterPool::new();
        let inst = Inst::bind(&desc, &BTreeMap::new(), &mut pool).unwrap();
        assert_eq!(inst.operands().len(), desc.operands.len());
        let r0 = inst.operand(0).register().unwrap();
        let r1 = inst.operand(1).register().unwrap();
        assert!(!r0.aliases(r1), "pool must allocate distinct registers");
        assert!(inst.to_intel_syntax().starts_with("ADD "));
    }

    #[test]
    fn bind_respects_assignment() {
        let c = catalog();
        let desc = variant_arc(&c, "ADD", "R64, R64").unwrap();
        let mut pool = RegisterPool::new();
        let rbx = Register::gpr(gpr::RBX, Width::W64);
        let mut assignment = BTreeMap::new();
        assignment.insert(0, Op::Reg(rbx));
        assignment.insert(1, Op::Reg(rbx));
        let inst = Inst::bind(&desc, &assignment, &mut pool).unwrap();
        assert_eq!(inst.to_intel_syntax(), "ADD RBX, RBX");
        assert!(inst.uses_same_register_for(0, 1));
    }

    #[test]
    fn reads_and_writes_track_flags_and_memory() {
        let c = catalog();
        let desc = variant_arc(&c, "ADD", "R64, M64").unwrap();
        let mut pool = RegisterPool::new();
        let inst = Inst::bind(&desc, &BTreeMap::new(), &mut pool).unwrap();
        let reads = inst.reads();
        let writes = inst.writes();
        // Reads: destination register (rw), memory cell, base register.
        assert!(reads.iter().any(|r| matches!(r, Resource::Mem(_))));
        assert!(reads.iter().filter(|r| matches!(r, Resource::Reg(..))).count() >= 2);
        // Writes: destination register + all six flags.
        assert!(writes.iter().filter(|r| matches!(r, Resource::Flag(_))).count() == 6);
        assert!(writes.iter().any(|r| matches!(r, Resource::Reg(..))));
    }

    #[test]
    fn store_reads_base_register_but_writes_cell() {
        let c = catalog();
        let desc = variant_arc(&c, "MOV", "M64, R64").unwrap();
        let mut pool = RegisterPool::new();
        let inst = Inst::bind(&desc, &BTreeMap::new(), &mut pool).unwrap();
        let reads = inst.reads();
        let writes = inst.writes();
        assert!(
            reads.iter().any(|r| matches!(r, Resource::Reg(..))),
            "store must read its base and data registers"
        );
        assert!(!reads.iter().any(|r| matches!(r, Resource::Mem(_))));
        assert!(writes.iter().any(|r| matches!(r, Resource::Mem(_))));
    }

    #[test]
    fn dependency_detection() {
        let c = catalog();
        let desc = variant_arc(&c, "ADD", "R64, R64").unwrap();
        let mut pool = RegisterPool::new();
        let rbx = Register::gpr(gpr::RBX, Width::W64);
        let rcx = Register::gpr(gpr::RCX, Width::W64);
        let rdx = Register::gpr(gpr::RDX, Width::W64);
        let mk = |dst: Register, src: Register, pool: &mut RegisterPool| {
            let mut a = BTreeMap::new();
            a.insert(0, Op::Reg(dst));
            a.insert(1, Op::Reg(src));
            Inst::bind(&desc, &a, pool).unwrap()
        };
        let first = mk(rbx, rcx, &mut pool);
        let dependent = mk(rdx, rbx, &mut pool);
        let independent_regs = mk(rcx, rdx, &mut pool);
        assert!(dependent.depends_on(&first));
        // Even "independent" ALU instructions depend via the flags they both write...
        // reads of independent_regs include RDX (written by `dependent`), so check a
        // truly independent pair explicitly:
        let other = mk(rcx, rcx, &mut pool);
        assert!(
            !first.depends_on(&other) || first.reads().iter().any(|r| other.writes().contains(r))
        );
        assert!(independent_regs.depends_on(&dependent));
    }

    #[test]
    fn intel_syntax_for_memory_and_immediates() {
        let c = catalog();
        let desc = variant_arc(&c, "SHLD", "R64, R64, I8").unwrap();
        let mut pool = RegisterPool::new();
        let mut assignment = BTreeMap::new();
        assignment.insert(0, Op::Reg(Register::gpr(gpr::RBX, Width::W64)));
        assignment.insert(1, Op::Reg(Register::gpr(gpr::RCX, Width::W64)));
        assignment.insert(2, Op::Imm(5));
        let inst = Inst::bind(&desc, &assignment, &mut pool).unwrap();
        assert_eq!(inst.to_intel_syntax(), "SHLD RBX, RCX, 5");

        let desc = variant_arc(&c, "MOV", "R64, M64").unwrap();
        let inst = Inst::bind(&desc, &BTreeMap::new(), &mut pool).unwrap();
        assert!(inst.to_intel_syntax().contains("qword ptr ["));
    }

    #[test]
    fn register_width_follows_descriptor() {
        let c = catalog();
        let desc = variant_arc(&c, "ADD", "R32, R32").unwrap();
        let mut pool = RegisterPool::new();
        let mut assignment = BTreeMap::new();
        // Assign 64-bit registers; the printer must narrow them to 32 bits.
        assignment.insert(0, Op::Reg(Register::gpr(gpr::RBX, Width::W64)));
        assignment.insert(1, Op::Reg(Register::gpr(gpr::RCX, Width::W64)));
        let inst = Inst::bind(&desc, &assignment, &mut pool).unwrap();
        assert_eq!(inst.to_intel_syntax(), "ADD EBX, ECX");
    }

    #[test]
    fn unknown_variant_error() {
        let c = catalog();
        let err = variant_arc(&c, "FROBNICATE", "R64").unwrap_err();
        assert!(err.to_string().contains("FROBNICATE"));
    }

    #[test]
    fn operand_count_mismatch_error() {
        let c = catalog();
        let desc = variant_arc(&c, "ADD", "R64, R64").unwrap();
        let err = Inst::new(Arc::clone(&desc), vec![Op::Imm(0)]).unwrap_err();
        match err {
            AsmError::OperandCount { expected, actual, .. } => {
                assert_eq!(expected, desc.operands.len());
                assert_eq!(actual, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn implicit_fixed_registers_are_bound() {
        let c = catalog();
        let desc = variant_arc(&c, "SHL", "R64, CL").unwrap();
        let mut pool = RegisterPool::new();
        let inst = Inst::bind(&desc, &BTreeMap::new(), &mut pool).unwrap();
        let cl = inst.operand(1).register().unwrap();
        assert_eq!(cl.name(), "CL");
        // The CL register must not be handed out by the pool afterwards for
        // a fresh allocation (the pool reserves fixed registers it has seen).
        assert!(inst.reads().contains(&Resource::Reg(uops_isa::RegFile::Gpr, gpr::RCX)));
    }
}
