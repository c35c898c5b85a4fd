//! Instruction descriptors: the machine-readable description of one
//! instruction *variant* (a mnemonic together with a specific operand form).
//!
//! This plays the role of the XML instruction description that the paper
//! extracts from Intel XED's configuration files (§6.1): it contains
//! everything needed to automatically generate assembler code for the
//! instruction — explicit and implicit operands, their types and widths,
//! read/write sets (including status flags), the ISA extension, and a set of
//! attributes (system instruction, serializing, zero idiom, ...).

use std::fmt;

use crate::extension::{Category, Extension};
use crate::flags::FlagSet;
use crate::operand::{OperandDesc, OperandKind};
use crate::register::Width;

/// Boolean attributes of an instruction variant that are relevant for
/// microbenchmark generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attributes {
    /// System/privileged instruction (excluded from blocking-instruction
    /// candidates and from characterization in user-mode-only backends).
    pub system: bool,
    /// Serializing instruction (e.g. CPUID, LFENCE-like behaviour).
    pub serializing: bool,
    /// The instruction may be executed with zero latency by the reorder
    /// buffer on some microarchitectures (register-to-register moves).
    pub may_be_zero_latency: bool,
    /// With identical source registers the instruction is a *zero idiom*
    /// (result is always zero) and breaks the dependency on the source.
    pub zero_idiom: bool,
    /// With identical source registers the instruction is dependency-breaking
    /// even though the result is not necessarily zero (e.g. PCMPGT, §7.3.6).
    pub dependency_breaking_same_reg: bool,
    /// The instruction can change control flow depending on a register value
    /// (excluded from blocking instructions).
    pub control_flow: bool,
    /// The instruction has a LOCK prefix variant semantics (atomic RMW).
    pub locked: bool,
    /// The instruction has a REP prefix (variable µop count).
    pub rep_prefix: bool,
    /// The instruction uses the divider unit (latency/throughput depend on
    /// operand values, §5.2.5).
    pub uses_divider: bool,
    /// The instruction is the PAUSE instruction (excluded from blocking
    /// instructions).
    pub pause: bool,
}

impl Attributes {
    /// Returns `true` if the instruction may be used as a blocking-instruction
    /// candidate according to §5.1.1 (no system, serializing, zero-latency,
    /// PAUSE, or register-dependent control-flow instructions).
    #[must_use]
    pub fn blocking_candidate(&self) -> bool {
        !self.system
            && !self.serializing
            && !self.may_be_zero_latency
            && !self.control_flow
            && !self.pause
    }
}

/// A description of one instruction variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionDesc {
    /// Unique identifier of the variant within its catalog.
    pub uid: usize,
    /// The mnemonic, e.g. `ADD`, `VPBLENDVB`.
    pub mnemonic: String,
    /// All operands, explicit first (in assembler order), then implicit.
    pub operands: Vec<OperandDesc>,
    /// The ISA extension the variant belongs to.
    pub extension: Extension,
    /// The semantic category of the instruction.
    pub category: Category,
    /// Attributes relevant for microbenchmark generation.
    pub attrs: Attributes,
    /// Status flags read by the instruction (implicitly).
    pub flags_read: FlagSet,
    /// Status flags written by the instruction (implicitly).
    pub flags_written: FlagSet,
}

impl InstructionDesc {
    /// The variant string, e.g. `"R64, R64"` for `ADD R64, R64`. Only explicit
    /// operands are listed.
    #[must_use]
    pub fn variant(&self) -> String {
        let parts: Vec<String> =
            self.operands.iter().filter(|o| o.is_explicit()).map(|o| o.kind.type_name()).collect();
        parts.join(", ")
    }

    /// Full human-readable form, e.g. `"ADD (R64, R64)"`.
    #[must_use]
    pub fn full_name(&self) -> String {
        let v = self.variant();
        if v.is_empty() {
            self.mnemonic.clone()
        } else {
            format!("{} ({v})", self.mnemonic)
        }
    }

    /// Iterates over the explicit operands in assembler order.
    pub fn explicit_operands(&self) -> impl Iterator<Item = &OperandDesc> {
        self.operands.iter().filter(|o| o.is_explicit())
    }

    /// Iterates over the implicit operands.
    pub fn implicit_operands(&self) -> impl Iterator<Item = &OperandDesc> {
        self.operands.iter().filter(|o| o.implicit)
    }

    /// Indices of source operands (operands read by the instruction),
    /// including implicit ones. This is the set `S` of the paper's latency
    /// definition.
    #[must_use]
    pub fn source_indices(&self) -> Vec<usize> {
        self.operands.iter().enumerate().filter(|(_, o)| o.is_source()).map(|(i, _)| i).collect()
    }

    /// Indices of destination operands (operands written by the instruction),
    /// including implicit ones. This is the set `D` of the paper's latency
    /// definition.
    #[must_use]
    pub fn destination_indices(&self) -> Vec<usize> {
        self.operands
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_destination())
            .map(|(i, _)| i)
            .collect()
    }

    /// Returns `true` if the instruction has at least one memory operand.
    #[must_use]
    pub fn has_memory_operand(&self) -> bool {
        self.operands.iter().any(|o| o.kind.is_memory())
    }

    /// Returns `true` if the instruction reads from memory.
    #[must_use]
    pub fn reads_memory(&self) -> bool {
        self.operands.iter().any(|o| o.kind.is_memory() && o.read)
    }

    /// Returns `true` if the instruction writes to memory.
    #[must_use]
    pub fn writes_memory(&self) -> bool {
        self.operands.iter().any(|o| o.kind.is_memory() && o.write)
    }

    /// Returns `true` if the instruction has an implicit or explicit
    /// status-flag operand that it reads.
    #[must_use]
    pub fn reads_flags(&self) -> bool {
        !self.flags_read.is_empty()
    }

    /// Returns `true` if the instruction writes at least one status flag.
    #[must_use]
    pub fn writes_flags(&self) -> bool {
        !self.flags_written.is_empty()
    }

    /// Returns `true` if the instruction operates (partly) on vector
    /// registers.
    #[must_use]
    pub fn uses_vector_registers(&self) -> bool {
        self.operands.iter().any(|o| {
            o.kind
                .reg_class()
                .map(|c| c.is_vector() || c.file == crate::register::RegFile::Mmx)
                .unwrap_or(false)
        })
    }

    /// The number of explicit operands.
    #[must_use]
    pub fn explicit_operand_count(&self) -> usize {
        self.explicit_operands().count()
    }

    /// The maximum operand width of the variant (useful as a proxy for the
    /// data path width).
    #[must_use]
    pub fn max_width(&self) -> Option<Width> {
        self.operands.iter().filter_map(|o| o.kind.width()).max()
    }

    /// Returns the operand kind of the `i`-th operand.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn operand_kind(&self, i: usize) -> OperandKind {
        self.operands[i].kind
    }
}

impl fmt::Display for InstructionDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.full_name())
    }
}

/// Builder for [`InstructionDesc`]. The catalog uses this to assemble variants
/// from mnemonic specifications.
#[derive(Debug, Clone)]
pub struct DescBuilder {
    mnemonic: String,
    operands: Vec<OperandDesc>,
    extension: Extension,
    category: Category,
    attrs: Attributes,
    flags_read: FlagSet,
    flags_written: FlagSet,
}

impl DescBuilder {
    /// Starts building a descriptor for the given mnemonic.
    #[must_use]
    pub fn new(mnemonic: &str, category: Category, extension: Extension) -> DescBuilder {
        DescBuilder {
            mnemonic: mnemonic.to_string(),
            operands: Vec::new(),
            extension,
            category,
            attrs: Attributes::default(),
            flags_read: FlagSet::EMPTY,
            flags_written: FlagSet::EMPTY,
        }
    }

    /// Adds an operand.
    #[must_use]
    pub fn operand(mut self, op: OperandDesc) -> DescBuilder {
        self.operands.push(op);
        self
    }

    /// Adds several operands.
    #[must_use]
    pub fn operands<I: IntoIterator<Item = OperandDesc>>(mut self, ops: I) -> DescBuilder {
        self.operands.extend(ops);
        self
    }

    /// Declares the flags read by the instruction (adds an implicit read
    /// operand if non-empty).
    #[must_use]
    pub fn reads_flags(mut self, set: FlagSet) -> DescBuilder {
        self.flags_read |= set;
        self
    }

    /// Declares the flags written by the instruction (adds an implicit write
    /// operand if non-empty).
    #[must_use]
    pub fn writes_flags(mut self, set: FlagSet) -> DescBuilder {
        self.flags_written |= set;
        self
    }

    /// Sets the attributes.
    #[must_use]
    pub fn attrs(mut self, attrs: Attributes) -> DescBuilder {
        self.attrs = attrs;
        self
    }

    /// Mutates the attributes through a closure.
    #[must_use]
    pub fn with_attrs(mut self, f: impl FnOnce(&mut Attributes)) -> DescBuilder {
        f(&mut self.attrs);
        self
    }

    /// Finalizes the descriptor. The `uid` is assigned by the catalog; a
    /// placeholder of `usize::MAX` is used until then.
    ///
    /// If the instruction reads or writes flags, a combined implicit flag
    /// operand is appended automatically.
    #[must_use]
    pub fn build(mut self) -> InstructionDesc {
        if self.flags_read == self.flags_written && !self.flags_read.is_empty() {
            // A single read-write flag operand.
            self.operands.push(OperandDesc {
                kind: OperandKind::Flags(self.flags_read),
                read: true,
                write: true,
                implicit: true,
            });
        } else {
            // Distinct read and written flag sets become separate implicit
            // operands so that no information is lost (e.g. ADC reads CF but
            // writes all flags).
            if !self.flags_read.is_empty() {
                self.operands.push(OperandDesc {
                    kind: OperandKind::Flags(self.flags_read),
                    read: true,
                    write: false,
                    implicit: true,
                });
            }
            if !self.flags_written.is_empty() {
                self.operands.push(OperandDesc {
                    kind: OperandKind::Flags(self.flags_written),
                    read: false,
                    write: true,
                    implicit: true,
                });
            }
        }
        if self.category.uses_divider() {
            self.attrs.uses_divider = true;
        }
        if self.category.is_control_flow() {
            self.attrs.control_flow = true;
        }
        InstructionDesc {
            uid: usize::MAX,
            mnemonic: self.mnemonic,
            operands: self.operands,
            extension: self.extension,
            category: self.category,
            attrs: self.attrs,
            flags_read: self.flags_read,
            flags_written: self.flags_written,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::shorthand::*;

    fn add_r64_r64() -> InstructionDesc {
        DescBuilder::new("ADD", Category::IntAlu, Extension::Base)
            .operand(OperandDesc::read_write(r(Width::W64)))
            .operand(OperandDesc::read(r(Width::W64)))
            .writes_flags(FlagSet::ALL)
            .build()
    }

    #[test]
    fn variant_string_lists_only_explicit_operands() {
        let d = add_r64_r64();
        assert_eq!(d.variant(), "R64, R64");
        assert_eq!(d.full_name(), "ADD (R64, R64)");
        assert_eq!(d.explicit_operand_count(), 2);
        assert_eq!(d.implicit_operands().count(), 1);
    }

    #[test]
    fn flag_operand_is_appended() {
        let d = add_r64_r64();
        assert!(d.writes_flags());
        assert!(!d.reads_flags());
        let flag_op = d.operands.last().unwrap();
        assert!(flag_op.implicit);
        assert!(flag_op.kind.is_flags());
        assert!(flag_op.write && !flag_op.read);
    }

    #[test]
    fn source_and_destination_indices() {
        let d = add_r64_r64();
        // Operand 0 is read+write, operand 1 is read, operand 2 (flags) is written.
        assert_eq!(d.source_indices(), vec![0, 1]);
        assert_eq!(d.destination_indices(), vec![0, 2]);
    }

    #[test]
    fn memory_classification() {
        let load = DescBuilder::new("MOV", Category::Mov, Extension::Base)
            .operand(OperandDesc::write(r(Width::W64)))
            .operand(OperandDesc::read(mem(Width::W64)))
            .build();
        assert!(load.has_memory_operand());
        assert!(load.reads_memory());
        assert!(!load.writes_memory());

        let store = DescBuilder::new("MOV", Category::Mov, Extension::Base)
            .operand(OperandDesc::write(mem(Width::W64)))
            .operand(OperandDesc::read(r(Width::W64)))
            .build();
        assert!(store.writes_memory());
        assert!(!store.reads_memory());
    }

    #[test]
    fn blocking_candidate_rules() {
        let mut attrs = Attributes::default();
        assert!(attrs.blocking_candidate());
        attrs.system = true;
        assert!(!attrs.blocking_candidate());
        attrs = Attributes { may_be_zero_latency: true, ..Attributes::default() };
        assert!(!attrs.blocking_candidate());
        attrs = Attributes { control_flow: true, ..Attributes::default() };
        assert!(!attrs.blocking_candidate());
        attrs = Attributes { pause: true, ..Attributes::default() };
        assert!(!attrs.blocking_candidate());
    }

    #[test]
    fn divider_and_control_flow_attrs_derived_from_category() {
        let div = DescBuilder::new("DIV", Category::IntDiv, Extension::Base)
            .operand(OperandDesc::read(r(Width::W64)))
            .build();
        assert!(div.attrs.uses_divider);
        let jmp = DescBuilder::new("JMP", Category::Branch, Extension::Base)
            .operand(OperandDesc::read(r(Width::W64)))
            .build();
        assert!(jmp.attrs.control_flow);
    }

    #[test]
    fn vector_register_detection() {
        let vec_inst = DescBuilder::new("PADDD", Category::VecIntAlu, Extension::Sse2)
            .operand(OperandDesc::read_write(xmm()))
            .operand(OperandDesc::read(xmm()))
            .build();
        assert!(vec_inst.uses_vector_registers());
        assert!(!add_r64_r64().uses_vector_registers());
        assert_eq!(vec_inst.max_width(), Some(Width::W128));
    }
}
