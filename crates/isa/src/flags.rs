//! The x86 status flags (`RFLAGS` condition bits) as a small set type.
//!
//! Many instructions have *implicit* operands on the status flags: they read
//! and/or write a subset of the carry, parity, adjust, zero, sign, and
//! overflow flags. These implicit dependencies are central to the paper's
//! latency methodology (dependency-breaking instructions must overwrite flags
//! without reading them) and to its critique of IACA (which ignores flag
//! dependencies, e.g. for `CMC`).

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not, Sub};

/// A single x86 status flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Flag {
    /// Carry flag.
    Cf,
    /// Parity flag.
    Pf,
    /// Adjust (auxiliary carry) flag.
    Af,
    /// Zero flag.
    Zf,
    /// Sign flag.
    Sf,
    /// Overflow flag.
    Of,
}

impl Flag {
    /// All status flags, in canonical order.
    pub const ALL: [Flag; 6] = [Flag::Cf, Flag::Pf, Flag::Af, Flag::Zf, Flag::Sf, Flag::Of];

    /// The bit used to represent this flag inside a [`FlagSet`].
    #[must_use]
    fn bit(self) -> u8 {
        match self {
            Flag::Cf => 1 << 0,
            Flag::Pf => 1 << 1,
            Flag::Af => 1 << 2,
            Flag::Zf => 1 << 3,
            Flag::Sf => 1 << 4,
            Flag::Of => 1 << 5,
        }
    }

    /// The conventional one- or two-letter name of the flag.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Flag::Cf => "CF",
            Flag::Pf => "PF",
            Flag::Af => "AF",
            Flag::Zf => "ZF",
            Flag::Sf => "SF",
            Flag::Of => "OF",
        }
    }
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A set of status flags, represented as a compact bitset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlagSet(u8);

impl FlagSet {
    /// The empty flag set.
    pub const EMPTY: FlagSet = FlagSet(0);
    /// All six status flags.
    pub const ALL: FlagSet = FlagSet(0b11_1111);
    /// The carry flag alone.
    pub const CF: FlagSet = FlagSet(1 << 0);
    /// All flags except the adjust flag (written by `TEST`, `AND`, ...).
    pub const ALL_EXCEPT_AF: FlagSet = FlagSet(0b11_1011);
    /// All flags except the carry flag (written by `INC`/`DEC`).
    pub const ALL_EXCEPT_CF: FlagSet = FlagSet(0b11_1110);
    /// The arithmetic condition flags read by most `CMOVcc`/`Jcc`/`SETcc`
    /// condition codes (CF, ZF, SF, OF).
    pub const CONDITION: FlagSet = FlagSet(0b11_1001);
    /// The zero flag alone.
    pub const ZF: FlagSet = FlagSet(1 << 3);

    /// Creates an empty flag set.
    #[must_use]
    pub fn new() -> FlagSet {
        FlagSet::EMPTY
    }

    /// Creates a flag set from an iterator of flags.
    pub fn from_flags<I: IntoIterator<Item = Flag>>(flags: I) -> FlagSet {
        let mut set = FlagSet::EMPTY;
        for f in flags {
            set |= FlagSet::single(f);
        }
        set
    }

    /// The flag set containing exactly one flag.
    #[must_use]
    pub fn single(flag: Flag) -> FlagSet {
        FlagSet(flag.bit())
    }

    /// Returns `true` if the set contains no flags.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if the set contains the given flag.
    #[must_use]
    pub fn contains(self, flag: Flag) -> bool {
        self.0 & flag.bit() != 0
    }

    /// Returns `true` if the two sets share at least one flag.
    #[must_use]
    pub fn intersects(self, other: FlagSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns `true` if `self` is a subset of `other`.
    #[must_use]
    pub fn is_subset_of(self, other: FlagSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// The number of flags in the set.
    #[must_use]
    pub fn len(self) -> u32 {
        u32::from(self.0.count_ones() as u8)
    }

    /// Iterates over the flags contained in the set.
    pub fn iter(self) -> impl Iterator<Item = Flag> {
        Flag::ALL.into_iter().filter(move |f| self.contains(*f))
    }
}

impl BitOr for FlagSet {
    type Output = FlagSet;
    fn bitor(self, rhs: FlagSet) -> FlagSet {
        FlagSet(self.0 | rhs.0)
    }
}

impl BitOrAssign for FlagSet {
    fn bitor_assign(&mut self, rhs: FlagSet) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for FlagSet {
    type Output = FlagSet;
    fn bitand(self, rhs: FlagSet) -> FlagSet {
        FlagSet(self.0 & rhs.0)
    }
}

impl Sub for FlagSet {
    type Output = FlagSet;
    fn sub(self, rhs: FlagSet) -> FlagSet {
        FlagSet(self.0 & !rhs.0)
    }
}

impl Not for FlagSet {
    type Output = FlagSet;
    fn not(self) -> FlagSet {
        FlagSet(!self.0 & FlagSet::ALL.0)
    }
}

impl fmt::Debug for FlagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FlagSet(")?;
        fmt::Display::fmt(self, f)?;
        write!(f, ")")
    }
}

impl fmt::Display for FlagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        let mut first = true;
        for flag in self.iter() {
            if !first {
                write!(f, "|")?;
            }
            write!(f, "{flag}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<Flag> for FlagSet {
    fn from_iter<T: IntoIterator<Item = Flag>>(iter: T) -> FlagSet {
        FlagSet::from_flags(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_all() {
        assert!(FlagSet::EMPTY.is_empty());
        assert_eq!(FlagSet::ALL.len(), 6);
        for f in Flag::ALL {
            assert!(FlagSet::ALL.contains(f));
            assert!(!FlagSet::EMPTY.contains(f));
        }
    }

    #[test]
    fn set_operations() {
        let cf_zf = FlagSet::CF | FlagSet::ZF;
        assert_eq!(cf_zf.len(), 2);
        assert!(cf_zf.contains(Flag::Cf));
        assert!(cf_zf.contains(Flag::Zf));
        assert!(!cf_zf.contains(Flag::Of));
        assert!(cf_zf.intersects(FlagSet::CF));
        assert!(!cf_zf.intersects(FlagSet::single(Flag::Of)));
        assert!(FlagSet::CF.is_subset_of(cf_zf));
        assert!(!cf_zf.is_subset_of(FlagSet::CF));
        assert_eq!((cf_zf - FlagSet::CF), FlagSet::ZF);
        assert_eq!(!FlagSet::ALL_EXCEPT_CF, FlagSet::CF);
    }

    #[test]
    fn named_subsets_are_consistent() {
        assert_eq!(FlagSet::ALL_EXCEPT_AF | FlagSet::single(Flag::Af), FlagSet::ALL);
        assert_eq!(FlagSet::ALL_EXCEPT_CF | FlagSet::CF, FlagSet::ALL);
        assert!(FlagSet::CONDITION.contains(Flag::Cf));
        assert!(FlagSet::CONDITION.contains(Flag::Zf));
        assert!(!FlagSet::CONDITION.contains(Flag::Af));
    }

    #[test]
    fn iteration_and_from_iter() {
        let set: FlagSet = [Flag::Sf, Flag::Of].into_iter().collect();
        let collected: Vec<Flag> = set.iter().collect();
        assert_eq!(collected, vec![Flag::Sf, Flag::Of]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(FlagSet::EMPTY.to_string(), "-");
        assert_eq!(FlagSet::CF.to_string(), "CF");
        assert_eq!((FlagSet::CF | FlagSet::ZF).to_string(), "CF|ZF");
    }
}
