//! Instruction-set extensions and instruction categories.
//!
//! The extension is needed to avoid mixing SSE and AVX code inside one
//! microbenchmark (SSE–AVX transition penalties, §5.1.1 of the paper), and to
//! restrict the catalog per microarchitecture (e.g. AVX2 instructions only
//! exist from Haswell on). The category is a coarse semantic grouping used by
//! the microarchitectural ground truth to assign functional units.

use std::fmt;

/// An x86 instruction-set extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Extension {
    /// Base integer instruction set (always available).
    Base,
    /// Legacy MMX instructions.
    Mmx,
    /// SSE (128-bit, single-precision float).
    Sse,
    /// SSE2 (128-bit, double precision + integer).
    Sse2,
    /// SSE3.
    Sse3,
    /// Supplemental SSE3.
    Ssse3,
    /// SSE4.1.
    Sse41,
    /// SSE4.2.
    Sse42,
    /// AES-NI.
    Aes,
    /// Carry-less multiplication.
    Pclmulqdq,
    /// AVX (256-bit float, VEX encodings).
    Avx,
    /// AVX2 (256-bit integer).
    Avx2,
    /// Fused multiply-add.
    Fma,
    /// Bit-manipulation instructions 1.
    Bmi1,
    /// Bit-manipulation instructions 2.
    Bmi2,
    /// POPCNT/LZCNT style bit counting.
    Popcnt,
    /// MOVBE.
    Movbe,
    /// ADX (ADCX/ADOX).
    Adx,
}

impl Extension {
    /// Returns `true` if the extension is part of the "SSE world" (legacy
    /// 128-bit encodings that may incur SSE–AVX transition penalties when
    /// mixed with VEX-encoded code).
    #[must_use]
    pub fn is_sse_family(self) -> bool {
        matches!(
            self,
            Extension::Sse
                | Extension::Sse2
                | Extension::Sse3
                | Extension::Ssse3
                | Extension::Sse41
                | Extension::Sse42
                | Extension::Aes
                | Extension::Pclmulqdq
        )
    }

    /// Returns `true` if the extension uses VEX encodings (the "AVX world").
    #[must_use]
    pub fn is_avx_family(self) -> bool {
        matches!(self, Extension::Avx | Extension::Avx2 | Extension::Fma)
    }

    /// Returns `true` if the extension operates on vector registers at all.
    #[must_use]
    pub fn is_vector(self) -> bool {
        self.is_sse_family() || self.is_avx_family() || self == Extension::Mmx
    }
}

impl fmt::Display for Extension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Extension::Base => "BASE",
            Extension::Mmx => "MMX",
            Extension::Sse => "SSE",
            Extension::Sse2 => "SSE2",
            Extension::Sse3 => "SSE3",
            Extension::Ssse3 => "SSSE3",
            Extension::Sse41 => "SSE4.1",
            Extension::Sse42 => "SSE4.2",
            Extension::Aes => "AES",
            Extension::Pclmulqdq => "PCLMULQDQ",
            Extension::Avx => "AVX",
            Extension::Avx2 => "AVX2",
            Extension::Fma => "FMA",
            Extension::Bmi1 => "BMI1",
            Extension::Bmi2 => "BMI2",
            Extension::Popcnt => "POPCNT",
            Extension::Movbe => "MOVBE",
            Extension::Adx => "ADX",
        };
        write!(f, "{name}")
    }
}

/// A coarse semantic category of an instruction.
///
/// Categories drive the rule-based part of the per-microarchitecture ground
/// truth (which functional units / ports an instruction's µops use, and what
/// their latencies are) and the algorithmic special cases of the inference
/// engine (e.g. division handling, §5.2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Simple integer ALU operation (ADD, SUB, AND, OR, XOR, CMP, TEST, ...).
    IntAlu,
    /// Integer ALU operation that also reads the carry flag (ADC, SBB).
    IntAluCarry,
    /// Increment/decrement (write all flags except CF).
    IncDec,
    /// Integer negate/complement.
    NegNot,
    /// Register-to-register or memory move of general-purpose data.
    Mov,
    /// Sign/zero-extending move (MOVSX, MOVZX).
    MovExtend,
    /// Conditional move.
    CMov,
    /// Set-byte-on-condition.
    SetCC,
    /// Exchange (XCHG).
    Xchg,
    /// Exchange-and-add (XADD).
    Xadd,
    /// Byte swap.
    Bswap,
    /// Shift by immediate or CL (SHL, SHR, SAR).
    Shift,
    /// Rotate (ROL, ROR, RCL, RCR).
    Rotate,
    /// Double-precision shift (SHLD, SHRD).
    DoubleShift,
    /// Bit test/scan operations (BT, BTS, BSF, BSR, TZCNT, LZCNT, POPCNT).
    BitScan,
    /// BMI-style bit field operations (ANDN, BEXTR, BLSI, PDEP, PEXT, ...).
    BitField,
    /// Integer multiplication.
    IntMul,
    /// Integer division (uses the divider unit).
    IntDiv,
    /// Address generation (LEA).
    Lea,
    /// Flag manipulation (CMC, STC, CLC, SAHF, LAHF).
    FlagOp,
    /// Unconditional or conditional branch.
    Branch,
    /// Call/return.
    CallRet,
    /// Push/pop.
    Stack,
    /// No-operation.
    Nop,
    /// String operation (MOVS, STOS, LODS, ...).
    StringOp,
    /// CRC32.
    Crc32,
    /// Vector integer ALU (PADD, PSUB, PAND, POR, PXOR, ...).
    VecIntAlu,
    /// Vector integer multiply (PMULLW, PMULDQ, PMADDWD, ...).
    VecIntMul,
    /// Vector integer compare (PCMPEQ*, PCMPGT*).
    VecIntCmp,
    /// Vector shift (PSLL, PSRL, PSRA).
    VecShift,
    /// Vector shuffle/permute/unpack.
    VecShuffle,
    /// Vector blend (including variable blends).
    VecBlend,
    /// Vector floating-point add/sub/compare/min/max.
    VecFpAdd,
    /// Vector floating-point multiply.
    VecFpMul,
    /// Fused multiply-add.
    VecFma,
    /// Vector floating-point divide / square root (uses the divider unit).
    VecFpDiv,
    /// Vector logic on floating-point domain (ANDPS, ORPD, XORPS, ...).
    VecFpLogic,
    /// Horizontal add / dot product / MPSADBW style multi-µop reductions.
    VecHorizontal,
    /// Conversion between int and float or between float widths.
    VecConvert,
    /// Vector load/store/move (MOVAPS, MOVDQA, MOVD, MOVQ, ...).
    VecMov,
    /// Moves between register files (MOVQ2DQ, MOVDQ2Q, MOVD/MOVQ gpr<->xmm).
    VecMovCross,
    /// Vector insert/extract of scalar elements.
    VecInsertExtract,
    /// AES-NI instruction.
    AesOp,
    /// Carry-less multiplication.
    ClmulOp,
    /// System / privileged / serializing instruction.
    System,
}

impl Category {
    /// Returns `true` if instructions of this category use the (not fully
    /// pipelined) divider unit.
    #[must_use]
    pub fn uses_divider(self) -> bool {
        matches!(self, Category::IntDiv | Category::VecFpDiv)
    }

    /// Returns `true` if the category operates on vector registers.
    #[must_use]
    pub fn is_vector(self) -> bool {
        matches!(
            self,
            Category::VecIntAlu
                | Category::VecIntMul
                | Category::VecIntCmp
                | Category::VecShift
                | Category::VecShuffle
                | Category::VecBlend
                | Category::VecFpAdd
                | Category::VecFpMul
                | Category::VecFma
                | Category::VecFpDiv
                | Category::VecFpLogic
                | Category::VecHorizontal
                | Category::VecConvert
                | Category::VecMov
                | Category::VecMovCross
                | Category::VecInsertExtract
                | Category::AesOp
                | Category::ClmulOp
        )
    }

    /// Returns `true` if the category belongs to the floating-point bypass
    /// domain (as opposed to the integer SIMD domain).
    #[must_use]
    pub fn is_fp_domain(self) -> bool {
        matches!(
            self,
            Category::VecFpAdd
                | Category::VecFpMul
                | Category::VecFma
                | Category::VecFpDiv
                | Category::VecFpLogic
        )
    }

    /// Returns `true` if the category may change control flow.
    #[must_use]
    pub fn is_control_flow(self) -> bool {
        matches!(self, Category::Branch | Category::CallRet)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sse_avx_families_are_disjoint() {
        for ext in [
            Extension::Base,
            Extension::Mmx,
            Extension::Sse,
            Extension::Sse2,
            Extension::Avx,
            Extension::Avx2,
            Extension::Fma,
            Extension::Aes,
            Extension::Bmi1,
        ] {
            assert!(
                !(ext.is_sse_family() && ext.is_avx_family()),
                "{ext} claims to be both SSE and AVX family"
            );
        }
    }

    #[test]
    fn vector_extension_classification() {
        assert!(Extension::Sse2.is_vector());
        assert!(Extension::Avx2.is_vector());
        assert!(Extension::Mmx.is_vector());
        assert!(!Extension::Base.is_vector());
        assert!(!Extension::Bmi2.is_vector());
    }

    #[test]
    fn divider_categories() {
        assert!(Category::IntDiv.uses_divider());
        assert!(Category::VecFpDiv.uses_divider());
        assert!(!Category::IntMul.uses_divider());
        assert!(!Category::VecFpMul.uses_divider());
    }

    #[test]
    fn vector_and_domain_classification() {
        assert!(Category::VecFpMul.is_vector());
        assert!(Category::VecFpMul.is_fp_domain());
        assert!(Category::VecIntAlu.is_vector());
        assert!(!Category::VecIntAlu.is_fp_domain());
        assert!(!Category::IntAlu.is_vector());
        assert!(Category::Branch.is_control_flow());
        assert!(!Category::Shift.is_control_flow());
    }
}
