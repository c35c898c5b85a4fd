//! String symbols.
//!
//! A segment stores every mnemonic, variant, extension, and
//! microarchitecture name exactly once, in a sorted string table, and its
//! record columns refer to them by a 4-byte [`Sym`]. Record filtering and
//! index lookups then compare plain integers, so running millions of
//! queries allocates nothing.

use std::fmt;

/// A handle into a segment's string table. Two symbols from the same
/// segment are equal iff the strings they denote are equal, and — because
/// the table is sorted — order like those strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// The raw index of the symbol.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}
