//! Concrete (bound) operands of instruction instances.
//!
//! While [`uops_isa::OperandDesc`] describes what *kind* of operand an
//! instruction variant takes, the types in this module represent the concrete
//! values chosen when the instruction is instantiated in a microbenchmark: a
//! specific register, a specific memory location (base register +
//! displacement), or a specific immediate value.

use std::fmt;

use uops_isa::{Flag, FlagSet, RegFile, Register, Width};

/// A concrete memory operand. The tool only uses base-register addressing
/// with a small displacement (the paper does not vary addressing modes, §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemOperand {
    /// The base register holding the address.
    pub base: Register,
    /// Byte displacement added to the base register.
    pub disp: i32,
    /// The access width.
    pub width: Width,
}

impl MemOperand {
    /// Creates a memory operand `[base + disp]` of the given width.
    #[must_use]
    pub fn new(base: Register, disp: i32, width: Width) -> MemOperand {
        MemOperand { base, disp, width }
    }

    /// The abstract identity of the accessed memory cell, used for
    /// dependence analysis: two memory operands with the same base register
    /// (by architectural identity) and displacement refer to the same cell.
    #[must_use]
    pub fn cell(&self) -> MemCell {
        MemCell { base_file: self.base.file, base_index: self.base.index, disp: self.disp }
    }
}

impl fmt::Display for MemOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix = match self.width {
            Width::W8 => "byte ptr ",
            Width::W16 => "word ptr ",
            Width::W32 => "dword ptr ",
            Width::W64 => "qword ptr ",
            Width::W128 => "xmmword ptr ",
            Width::W256 => "ymmword ptr ",
        };
        if self.disp == 0 {
            write!(f, "{prefix}[{}]", self.base.with_width(Width::W64).name())
        } else if self.disp > 0 {
            write!(f, "{prefix}[{}+{}]", self.base.with_width(Width::W64).name(), self.disp)
        } else {
            write!(f, "{prefix}[{}{}]", self.base.with_width(Width::W64).name(), self.disp)
        }
    }
}

/// The identity of a memory cell for dependence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemCell {
    /// Register file of the base register.
    pub base_file: RegFile,
    /// Index of the base register.
    pub base_index: u8,
    /// Displacement.
    pub disp: i32,
}

/// A concrete operand of an instruction instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A concrete register.
    Reg(Register),
    /// A concrete memory location.
    Mem(MemOperand),
    /// An immediate value.
    Imm(i64),
    /// The status flags (implicit operand).
    Flags(FlagSet),
}

impl Op {
    /// Returns the register if this is a register operand.
    #[must_use]
    pub fn register(&self) -> Option<Register> {
        match self {
            Op::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// Returns the memory operand if this is one.
    #[must_use]
    pub fn memory(&self) -> Option<MemOperand> {
        match self {
            Op::Mem(m) => Some(*m),
            _ => None,
        }
    }

    /// Returns the immediate value if this is one.
    #[must_use]
    pub fn immediate(&self) -> Option<i64> {
        match self {
            Op::Imm(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Reg(r) => write!(f, "{}", r.name()),
            Op::Mem(m) => write!(f, "{m}"),
            Op::Imm(v) => write!(f, "{v}"),
            Op::Flags(set) => write!(f, "<flags:{set}>"),
        }
    }
}

/// An architectural resource read or written by an instruction instance:
/// either an architectural register (identified by file and index, ignoring
/// the access width), a single status flag, or a memory cell.
///
/// Resources are the granularity at which read-after-write dependencies are
/// detected, both by the benchmark generator (to ensure independence where
/// required) and by the simulator's renamer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// An architectural register (width-insensitive identity).
    Reg(RegFile, u8),
    /// A single status flag.
    Flag(Flag),
    /// A memory cell.
    Mem(MemCell),
}

impl Resource {
    /// The resource corresponding to a register.
    #[must_use]
    pub fn of_register(r: Register) -> Resource {
        Resource::Reg(r.file, r.index)
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Reg(file, idx) => write!(f, "{file}{idx}"),
            Resource::Flag(flag) => write!(f, "{flag}"),
            Resource::Mem(cell) => {
                write!(f, "[{}{}+{}]", cell.base_file, cell.base_index, cell.disp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uops_isa::gpr;

    #[test]
    fn memory_operand_display() {
        let base = Register::gpr(gpr::R14, Width::W64);
        assert_eq!(MemOperand::new(base, 0, Width::W64).to_string(), "qword ptr [R14]");
        assert_eq!(MemOperand::new(base, 8, Width::W32).to_string(), "dword ptr [R14+8]");
        assert_eq!(MemOperand::new(base, -16, Width::W128).to_string(), "xmmword ptr [R14-16]");
    }

    #[test]
    fn memory_cell_identity() {
        let r14 = Register::gpr(gpr::R14, Width::W64);
        let a = MemOperand::new(r14, 0, Width::W64);
        let b = MemOperand::new(r14, 0, Width::W32);
        let c = MemOperand::new(r14, 8, Width::W64);
        assert_eq!(a.cell(), b.cell(), "width must not affect cell identity");
        assert_ne!(a.cell(), c.cell());
    }

    #[test]
    fn op_accessors() {
        let reg = Op::Reg(Register::gpr(0, Width::W64));
        let imm = Op::Imm(42);
        let mem = Op::Mem(MemOperand::new(Register::gpr(gpr::R14, Width::W64), 0, Width::W64));
        assert!(reg.register().is_some());
        assert!(reg.memory().is_none());
        assert_eq!(imm.immediate(), Some(42));
        assert!(mem.memory().is_some());
        assert!(mem.register().is_none());
    }

    #[test]
    fn resource_identity_is_width_insensitive() {
        let rax = Register::gpr(gpr::RAX, Width::W64);
        let eax = Register::gpr(gpr::RAX, Width::W32);
        assert_eq!(Resource::of_register(rax), Resource::of_register(eax));
        let xmm0 = Register::vec(0, Width::W128);
        assert_ne!(Resource::of_register(rax), Resource::of_register(xmm0));
    }

    #[test]
    fn op_display() {
        assert_eq!(Op::Reg(Register::gpr(gpr::RBX, Width::W64)).to_string(), "RBX");
        assert_eq!(Op::Imm(7).to_string(), "7");
        assert_eq!(Op::Flags(FlagSet::CF).to_string(), "<flags:CF>");
    }
}
