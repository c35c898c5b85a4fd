//! Architectural registers of the x86-64 instruction set.
//!
//! The model distinguishes between *register files* (general-purpose, vector,
//! MMX) and the *width* at which a register is accessed. A [`Register`] is a
//! concrete architectural register (e.g. `RAX`, `EBX`, `XMM3`), while a
//! [`RegClass`] describes the set of registers an operand may use (e.g. "any
//! 64-bit general-purpose register").

use std::fmt;

/// The width of a register access or memory/immediate operand, in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// 8-bit access (e.g. `AL`).
    W8,
    /// 16-bit access (e.g. `AX`).
    W16,
    /// 32-bit access (e.g. `EAX`).
    W32,
    /// 64-bit access (e.g. `RAX`, `MM0`).
    W64,
    /// 128-bit access (e.g. `XMM0`).
    W128,
    /// 256-bit access (e.g. `YMM0`).
    W256,
}

impl Width {
    /// The width in bits.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            Width::W8 => 8,
            Width::W16 => 16,
            Width::W32 => 32,
            Width::W64 => 64,
            Width::W128 => 128,
            Width::W256 => 256,
        }
    }

    /// The width in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        self.bits() / 8
    }

    /// All general-purpose widths, from narrowest to widest.
    #[must_use]
    pub fn gpr_widths() -> [Width; 4] {
        [Width::W8, Width::W16, Width::W32, Width::W64]
    }

    /// All vector-register widths supported by the model.
    #[must_use]
    pub fn vec_widths() -> [Width; 2] {
        [Width::W128, Width::W256]
    }

    /// Returns `true` if this is a general-purpose width (8–64 bits).
    #[must_use]
    pub fn is_gpr(self) -> bool {
        matches!(self, Width::W8 | Width::W16 | Width::W32 | Width::W64)
    }

    /// Returns `true` if this is a vector width (128 or 256 bits).
    #[must_use]
    pub fn is_vector(self) -> bool {
        matches!(self, Width::W128 | Width::W256)
    }

    /// Constructs a width from a bit count.
    ///
    /// Returns `None` for unsupported bit counts.
    #[must_use]
    pub fn from_bits(bits: u32) -> Option<Width> {
        match bits {
            8 => Some(Width::W8),
            16 => Some(Width::W16),
            32 => Some(Width::W32),
            64 => Some(Width::W64),
            128 => Some(Width::W128),
            256 => Some(Width::W256),
            _ => None,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bits())
    }
}

/// A register file: the physical storage pool an architectural register
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegFile {
    /// General-purpose registers `RAX`–`R15` and their sub-registers.
    Gpr,
    /// SIMD vector registers `XMM0`–`XMM15` / `YMM0`–`YMM15`.
    Vec,
    /// Legacy MMX registers `MM0`–`MM7` (aliased onto the x87 stack).
    Mmx,
}

impl RegFile {
    /// The number of architectural registers in this file (in 64-bit mode).
    #[must_use]
    pub fn count(self) -> u8 {
        match self {
            RegFile::Gpr => 16,
            RegFile::Vec => 16,
            RegFile::Mmx => 8,
        }
    }
}

impl fmt::Display for RegFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegFile::Gpr => write!(f, "GPR"),
            RegFile::Vec => write!(f, "VEC"),
            RegFile::Mmx => write!(f, "MMX"),
        }
    }
}

/// A class of registers an operand may use: a register file together with an
/// access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegClass {
    /// The register file.
    pub file: RegFile,
    /// The access width.
    pub width: Width,
}

impl RegClass {
    /// A general-purpose register class of the given width.
    #[must_use]
    pub fn gpr(width: Width) -> RegClass {
        debug_assert!(width.is_gpr());
        RegClass { file: RegFile::Gpr, width }
    }

    /// A vector register class of the given width (128 or 256 bits).
    #[must_use]
    pub fn vec(width: Width) -> RegClass {
        debug_assert!(width.is_vector());
        RegClass { file: RegFile::Vec, width }
    }

    /// The MMX register class.
    #[must_use]
    pub fn mmx() -> RegClass {
        RegClass { file: RegFile::Mmx, width: Width::W64 }
    }

    /// Returns `true` if this class denotes general-purpose registers.
    #[must_use]
    pub fn is_gpr(self) -> bool {
        self.file == RegFile::Gpr
    }

    /// Returns `true` if this class denotes SIMD vector registers.
    #[must_use]
    pub fn is_vector(self) -> bool {
        self.file == RegFile::Vec
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.file {
            RegFile::Gpr => write!(f, "R{}", self.width.bits()),
            RegFile::Vec => match self.width {
                Width::W128 => write!(f, "XMM"),
                Width::W256 => write!(f, "YMM"),
                _ => write!(f, "VEC{}", self.width.bits()),
            },
            RegFile::Mmx => write!(f, "MM"),
        }
    }
}

/// A concrete architectural register.
///
/// Registers are identified by their file, their index within the file, and
/// the width at which they are accessed. `RAX`, `EAX`, `AX` and `AL` are the
/// same index (0) in the [`RegFile::Gpr`] file at different widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Register {
    /// The register file.
    pub file: RegFile,
    /// The index within the register file (0-based).
    pub index: u8,
    /// The access width.
    pub width: Width,
}

/// Names of the 64-bit general-purpose registers, indexed by register number.
const GPR64_NAMES: [&str; 16] = [
    "RAX", "RCX", "RDX", "RBX", "RSP", "RBP", "RSI", "RDI", "R8", "R9", "R10", "R11", "R12", "R13",
    "R14", "R15",
];
const GPR32_NAMES: [&str; 16] = [
    "EAX", "ECX", "EDX", "EBX", "ESP", "EBP", "ESI", "EDI", "R8D", "R9D", "R10D", "R11D", "R12D",
    "R13D", "R14D", "R15D",
];
const GPR16_NAMES: [&str; 16] = [
    "AX", "CX", "DX", "BX", "SP", "BP", "SI", "DI", "R8W", "R9W", "R10W", "R11W", "R12W", "R13W",
    "R14W", "R15W",
];
const GPR8_NAMES: [&str; 16] = [
    "AL", "CL", "DL", "BL", "SPL", "BPL", "SIL", "DIL", "R8B", "R9B", "R10B", "R11B", "R12B",
    "R13B", "R14B", "R15B",
];

/// Register indices of commonly named general-purpose registers.
pub mod gpr {
    /// Index of `RAX`.
    pub const RAX: u8 = 0;
    /// Index of `RCX`.
    pub const RCX: u8 = 1;
    /// Index of `RDX`.
    pub const RDX: u8 = 2;
    /// Index of `RBX`.
    pub const RBX: u8 = 3;
    /// Index of `RSP`.
    pub const RSP: u8 = 4;
    /// Index of `RBP`.
    pub const RBP: u8 = 5;
    /// Index of `RSI`.
    pub const RSI: u8 = 6;
    /// Index of `RDI`.
    pub const RDI: u8 = 7;
    /// Index of `R8`.
    pub const R8: u8 = 8;
    /// Index of `R9`.
    pub const R9: u8 = 9;
    /// Index of `R10`.
    pub const R10: u8 = 10;
    /// Index of `R11`.
    pub const R11: u8 = 11;
    /// Index of `R12`.
    pub const R12: u8 = 12;
    /// Index of `R13`.
    pub const R13: u8 = 13;
    /// Index of `R14`.
    pub const R14: u8 = 14;
    /// Index of `R15`.
    pub const R15: u8 = 15;
}

impl Register {
    /// Constructs a general-purpose register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16` or `width` is not a general-purpose width.
    #[must_use]
    pub fn gpr(index: u8, width: Width) -> Register {
        assert!(index < 16, "GPR index out of range: {index}");
        assert!(width.is_gpr(), "not a GPR width: {width}");
        Register { file: RegFile::Gpr, index, width }
    }

    /// Constructs a vector register (`XMM`/`YMM`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 16` or `width` is not a vector width.
    #[must_use]
    pub fn vec(index: u8, width: Width) -> Register {
        assert!(index < 16, "vector register index out of range: {index}");
        assert!(width.is_vector(), "not a vector width: {width}");
        Register { file: RegFile::Vec, index, width }
    }

    /// Constructs an MMX register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`.
    #[must_use]
    pub fn mmx(index: u8) -> Register {
        assert!(index < 8, "MMX register index out of range: {index}");
        Register { file: RegFile::Mmx, index, width: Width::W64 }
    }

    /// The class this register belongs to.
    #[must_use]
    pub fn class(self) -> RegClass {
        RegClass { file: self.file, width: self.width }
    }

    /// Returns `true` if `self` and `other` alias the same underlying
    /// architectural register (same file and index), regardless of width.
    #[must_use]
    pub fn aliases(self, other: Register) -> bool {
        self.file == other.file && self.index == other.index
    }

    /// Returns the same architectural register accessed at a different width.
    #[must_use]
    pub fn with_width(self, width: Width) -> Register {
        Register { width, ..self }
    }

    /// The canonical assembler name of the register (Intel syntax).
    #[must_use]
    pub fn name(self) -> String {
        match self.file {
            RegFile::Gpr => {
                let idx = self.index as usize;
                match self.width {
                    Width::W64 => GPR64_NAMES[idx].to_string(),
                    Width::W32 => GPR32_NAMES[idx].to_string(),
                    Width::W16 => GPR16_NAMES[idx].to_string(),
                    Width::W8 => GPR8_NAMES[idx].to_string(),
                    _ => format!("GPR{}_{}", self.width.bits(), idx),
                }
            }
            RegFile::Vec => match self.width {
                Width::W128 => format!("XMM{}", self.index),
                Width::W256 => format!("YMM{}", self.index),
                _ => format!("VEC{}_{}", self.width.bits(), self.index),
            },
            RegFile::Mmx => format!("MM{}", self.index),
        }
    }

    /// Parses a register from its canonical Intel-syntax name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Register> {
        let upper = name.to_ascii_uppercase();
        for (i, n) in GPR64_NAMES.iter().enumerate() {
            if *n == upper {
                return Some(Register::gpr(i as u8, Width::W64));
            }
        }
        for (i, n) in GPR32_NAMES.iter().enumerate() {
            if *n == upper {
                return Some(Register::gpr(i as u8, Width::W32));
            }
        }
        for (i, n) in GPR16_NAMES.iter().enumerate() {
            if *n == upper {
                return Some(Register::gpr(i as u8, Width::W16));
            }
        }
        for (i, n) in GPR8_NAMES.iter().enumerate() {
            if *n == upper {
                return Some(Register::gpr(i as u8, Width::W8));
            }
        }
        if let Some(rest) = upper.strip_prefix("XMM") {
            if let Ok(i) = rest.parse::<u8>() {
                if i < 16 {
                    return Some(Register::vec(i, Width::W128));
                }
            }
        }
        if let Some(rest) = upper.strip_prefix("YMM") {
            if let Ok(i) = rest.parse::<u8>() {
                if i < 16 {
                    return Some(Register::vec(i, Width::W256));
                }
            }
        }
        if let Some(rest) = upper.strip_prefix("MM") {
            if let Ok(i) = rest.parse::<u8>() {
                if i < 8 {
                    return Some(Register::mmx(i));
                }
            }
        }
        None
    }
}

impl fmt::Display for Register {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_bits_and_bytes() {
        assert_eq!(Width::W8.bits(), 8);
        assert_eq!(Width::W64.bytes(), 8);
        assert_eq!(Width::W256.bits(), 256);
        assert_eq!(Width::from_bits(128), Some(Width::W128));
        assert_eq!(Width::from_bits(12), None);
    }

    #[test]
    fn width_classification() {
        for w in Width::gpr_widths() {
            assert!(w.is_gpr());
            assert!(!w.is_vector());
        }
        for w in Width::vec_widths() {
            assert!(w.is_vector());
            assert!(!w.is_gpr());
        }
    }

    #[test]
    fn gpr_names_across_widths() {
        assert_eq!(Register::gpr(gpr::RAX, Width::W64).name(), "RAX");
        assert_eq!(Register::gpr(gpr::RAX, Width::W32).name(), "EAX");
        assert_eq!(Register::gpr(gpr::RAX, Width::W16).name(), "AX");
        assert_eq!(Register::gpr(gpr::RAX, Width::W8).name(), "AL");
        assert_eq!(Register::gpr(gpr::R8, Width::W32).name(), "R8D");
        assert_eq!(Register::gpr(15, Width::W8).name(), "R15B");
    }

    #[test]
    fn vector_and_mmx_names() {
        assert_eq!(Register::vec(3, Width::W128).name(), "XMM3");
        assert_eq!(Register::vec(12, Width::W256).name(), "YMM12");
        assert_eq!(Register::mmx(5).name(), "MM5");
    }

    #[test]
    fn roundtrip_from_name() {
        for reg in [
            Register::gpr(0, Width::W64),
            Register::gpr(7, Width::W8),
            Register::gpr(13, Width::W16),
            Register::vec(9, Width::W128),
            Register::vec(2, Width::W256),
            Register::mmx(6),
        ] {
            assert_eq!(Register::from_name(&reg.name()), Some(reg));
        }
        assert_eq!(Register::from_name("not_a_register"), None);
        assert_eq!(Register::from_name("XMM99"), None);
    }

    #[test]
    fn aliasing_ignores_width() {
        let rax = Register::gpr(gpr::RAX, Width::W64);
        let eax = Register::gpr(gpr::RAX, Width::W32);
        let rcx = Register::gpr(gpr::RCX, Width::W64);
        assert!(rax.aliases(eax));
        assert!(!rax.aliases(rcx));
        assert!(!rax.aliases(Register::vec(0, Width::W128)));
    }

    #[test]
    fn with_width_changes_only_width() {
        let rbx = Register::gpr(gpr::RBX, Width::W64);
        let bl = rbx.with_width(Width::W8);
        assert_eq!(bl.name(), "BL");
        assert!(rbx.aliases(bl));
    }

    #[test]
    #[should_panic(expected = "GPR index out of range")]
    fn gpr_index_out_of_range_panics() {
        let _ = Register::gpr(16, Width::W64);
    }

    #[test]
    fn class_display() {
        assert_eq!(RegClass::gpr(Width::W64).to_string(), "R64");
        assert_eq!(RegClass::vec(Width::W128).to_string(), "XMM");
        assert_eq!(RegClass::vec(Width::W256).to_string(), "YMM");
        assert_eq!(RegClass::mmx().to_string(), "MM");
    }
}
