//! Operand descriptions.
//!
//! An *operand description* ([`OperandDesc`]) belongs to an instruction
//! descriptor and states what kind of value the operand is (register class,
//! fixed register, memory, immediate, or status flags), whether it is read
//! and/or written, and whether it is explicit (appears in the assembler
//! syntax) or implicit.

use std::fmt;

use crate::flags::FlagSet;
use crate::register::{RegClass, Register, Width};

/// The kind of value an operand denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// Any register of the given class; the concrete register is chosen when
    /// the instruction is instantiated.
    Reg(RegClass),
    /// A fixed architectural register (used for implicit operands such as
    /// `RAX` for `MUL`, or `CL` for shift counts).
    FixedReg(Register),
    /// A memory location of the given access width. Memory operands are
    /// addressed through a base register chosen at instantiation time (the
    /// tool only uses base-register addressing, §8 of the paper).
    Mem(Width),
    /// An immediate of the given width.
    Imm(Width),
    /// The status flags (or a subset of them).
    Flags(FlagSet),
}

impl OperandKind {
    /// Returns `true` if the operand is a (class or fixed) register operand.
    #[must_use]
    pub fn is_register(self) -> bool {
        matches!(self, OperandKind::Reg(_) | OperandKind::FixedReg(_))
    }

    /// Returns `true` if the operand is a memory operand.
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(self, OperandKind::Mem(_))
    }

    /// Returns `true` if the operand is an immediate.
    #[must_use]
    pub fn is_immediate(self) -> bool {
        matches!(self, OperandKind::Imm(_))
    }

    /// Returns `true` if the operand is a status-flag operand.
    #[must_use]
    pub fn is_flags(self) -> bool {
        matches!(self, OperandKind::Flags(_))
    }

    /// The register class of a register operand, if any.
    #[must_use]
    pub fn reg_class(self) -> Option<RegClass> {
        match self {
            OperandKind::Reg(c) => Some(c),
            OperandKind::FixedReg(r) => Some(r.class()),
            _ => None,
        }
    }

    /// The access width of the operand, if it has one (registers, memory and
    /// immediates do; flag operands do not).
    #[must_use]
    pub fn width(self) -> Option<Width> {
        match self {
            OperandKind::Reg(c) => Some(c.width),
            OperandKind::FixedReg(r) => Some(r.width),
            OperandKind::Mem(w) | OperandKind::Imm(w) => Some(w),
            OperandKind::Flags(_) => None,
        }
    }

    /// A short type name used in variant strings, e.g. `R64`, `XMM`, `M32`,
    /// `I8`, `FLAGS`.
    #[must_use]
    pub fn type_name(self) -> String {
        match self {
            OperandKind::Reg(c) => c.to_string(),
            OperandKind::FixedReg(r) => r.name(),
            OperandKind::Mem(w) => format!("M{}", w.bits()),
            OperandKind::Imm(w) => format!("I{}", w.bits()),
            OperandKind::Flags(_) => "FLAGS".to_string(),
        }
    }
}

impl fmt::Display for OperandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.type_name())
    }
}

/// Description of one operand of an instruction variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperandDesc {
    /// What kind of value the operand is.
    pub kind: OperandKind,
    /// Whether the instruction reads the operand.
    pub read: bool,
    /// Whether the instruction writes the operand.
    pub write: bool,
    /// Whether the operand is implicit (does not appear in the assembler
    /// syntax).
    pub implicit: bool,
}

impl OperandDesc {
    /// An explicit operand that is only read.
    #[must_use]
    pub fn read(kind: OperandKind) -> OperandDesc {
        OperandDesc { kind, read: true, write: false, implicit: false }
    }

    /// An explicit operand that is only written.
    #[must_use]
    pub fn write(kind: OperandKind) -> OperandDesc {
        OperandDesc { kind, read: false, write: true, implicit: false }
    }

    /// An explicit operand that is both read and written.
    #[must_use]
    pub fn read_write(kind: OperandKind) -> OperandDesc {
        OperandDesc { kind, read: true, write: true, implicit: false }
    }

    /// Marks the operand as implicit.
    #[must_use]
    pub fn implicit(mut self) -> OperandDesc {
        self.implicit = true;
        self
    }

    /// Returns `true` if the operand is a source operand (read by the
    /// instruction). This is the set `S` in the paper's latency definition.
    #[must_use]
    pub fn is_source(&self) -> bool {
        self.read
    }

    /// Returns `true` if the operand is a destination operand (written by the
    /// instruction). This is the set `D` in the paper's latency definition.
    #[must_use]
    pub fn is_destination(&self) -> bool {
        self.write
    }

    /// Returns `true` if this operand is an explicit operand.
    #[must_use]
    pub fn is_explicit(&self) -> bool {
        !self.implicit
    }
}

impl fmt::Display for OperandDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rw = match (self.read, self.write) {
            (true, true) => "rw",
            (true, false) => "r",
            (false, true) => "w",
            (false, false) => "-",
        };
        if self.implicit {
            write!(f, "[{}:{rw}]", self.kind)
        } else {
            write!(f, "{}:{rw}", self.kind)
        }
    }
}

/// Convenience constructors for common operand shapes, used by the catalog.
pub mod shorthand {
    use super::*;

    /// Explicit general-purpose register operand of width `w`.
    #[must_use]
    pub fn r(w: Width) -> OperandKind {
        OperandKind::Reg(RegClass::gpr(w))
    }

    /// Explicit XMM register operand.
    #[must_use]
    pub fn xmm() -> OperandKind {
        OperandKind::Reg(RegClass::vec(Width::W128))
    }

    /// Explicit YMM register operand.
    #[must_use]
    pub fn ymm() -> OperandKind {
        OperandKind::Reg(RegClass::vec(Width::W256))
    }

    /// Explicit MMX register operand.
    #[must_use]
    pub fn mm() -> OperandKind {
        OperandKind::Reg(RegClass::mmx())
    }

    /// Memory operand of width `w`.
    #[must_use]
    pub fn mem(w: Width) -> OperandKind {
        OperandKind::Mem(w)
    }

    /// Immediate operand of width `w`.
    #[must_use]
    pub fn imm(w: Width) -> OperandKind {
        OperandKind::Imm(w)
    }

    /// Status-flag operand covering the given set.
    #[must_use]
    pub fn flags(set: FlagSet) -> OperandKind {
        OperandKind::Flags(set)
    }
}

#[cfg(test)]
mod tests {
    use super::shorthand::*;
    use super::*;
    use crate::register::gpr;

    #[test]
    fn kind_classification() {
        assert!(r(Width::W64).is_register());
        assert!(xmm().is_register());
        assert!(mem(Width::W32).is_memory());
        assert!(imm(Width::W8).is_immediate());
        assert!(flags(FlagSet::ALL).is_flags());
        assert!(!mem(Width::W32).is_register());
    }

    #[test]
    fn widths_and_classes() {
        assert_eq!(r(Width::W16).width(), Some(Width::W16));
        assert_eq!(xmm().width(), Some(Width::W128));
        assert_eq!(mem(Width::W64).width(), Some(Width::W64));
        assert_eq!(flags(FlagSet::CF).width(), None);
        assert_eq!(r(Width::W32).reg_class(), Some(RegClass::gpr(Width::W32)));
        let fixed = OperandKind::FixedReg(Register::gpr(gpr::RAX, Width::W64));
        assert_eq!(fixed.reg_class(), Some(RegClass::gpr(Width::W64)));
        assert_eq!(mem(Width::W8).reg_class(), None);
    }

    #[test]
    fn type_names() {
        assert_eq!(r(Width::W64).type_name(), "R64");
        assert_eq!(xmm().type_name(), "XMM");
        assert_eq!(ymm().type_name(), "YMM");
        assert_eq!(mm().type_name(), "MM");
        assert_eq!(mem(Width::W128).type_name(), "M128");
        assert_eq!(imm(Width::W32).type_name(), "I32");
        assert_eq!(flags(FlagSet::ALL).type_name(), "FLAGS");
    }

    #[test]
    fn source_destination_classification() {
        let src = OperandDesc::read(r(Width::W64));
        let dst = OperandDesc::write(r(Width::W64));
        let both = OperandDesc::read_write(r(Width::W64));
        assert!(src.is_source() && !src.is_destination());
        assert!(!dst.is_source() && dst.is_destination());
        assert!(both.is_source() && both.is_destination());
    }

    #[test]
    fn implicit_marker() {
        let flags_op = OperandDesc::write(flags(FlagSet::ALL)).implicit();
        assert!(flags_op.implicit);
        assert!(!flags_op.is_explicit());
        assert_eq!(flags_op.to_string(), "[FLAGS:w]");
        let explicit = OperandDesc::read_write(r(Width::W32));
        assert_eq!(explicit.to_string(), "R32:rw");
    }
}
