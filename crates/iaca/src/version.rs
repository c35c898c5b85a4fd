//! IACA versions and their microarchitecture support matrix.

use std::fmt;

use uops_uarch::MicroArch;

/// A version of the Intel Architecture Code Analyzer.
///
/// The paper uses versions 2.1 through 3.0 (§6.3); newer versions add support
/// for more recent microarchitectures and drop older ones, and different
/// versions sometimes disagree about the same instruction (§7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IacaVersion {
    /// IACA 2.1.
    V21,
    /// IACA 2.2.
    V22,
    /// IACA 2.3.
    V23,
    /// IACA 3.0.
    V30,
}

impl IacaVersion {
    /// All versions, oldest first.
    pub const ALL: [IacaVersion; 4] =
        [IacaVersion::V21, IacaVersion::V22, IacaVersion::V23, IacaVersion::V30];

    /// The human-readable version string.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IacaVersion::V21 => "2.1",
            IacaVersion::V22 => "2.2",
            IacaVersion::V23 => "2.3",
            IacaVersion::V30 => "3.0",
        }
    }

    /// Returns `true` if this version supports the given microarchitecture
    /// (matching the fourth column of Table 1: Nehalem/Westmere 2.1–2.2,
    /// Sandy/Ivy Bridge 2.1–2.3, Haswell 2.1–3.0, Broadwell 2.2–3.0,
    /// Skylake 2.3–3.0, Kaby/Coffee Lake unsupported).
    #[must_use]
    pub fn supports(self, arch: MicroArch) -> bool {
        use IacaVersion as V;
        use MicroArch as M;
        match arch {
            M::Nehalem | M::Westmere => matches!(self, V::V21 | V::V22),
            M::SandyBridge | M::IvyBridge => matches!(self, V::V21 | V::V22 | V::V23),
            M::Haswell => true,
            M::Broadwell => matches!(self, V::V22 | V::V23 | V::V30),
            M::Skylake => matches!(self, V::V23 | V::V30),
            M::KabyLake | M::CoffeeLake => false,
        }
    }

    /// The versions that support a given microarchitecture.
    #[must_use]
    pub fn supporting(arch: MicroArch) -> Vec<IacaVersion> {
        IacaVersion::ALL.into_iter().filter(|v| v.supports(arch)).collect()
    }

    /// The version range string for Table 1 (e.g. `"2.1–2.3"`), or `None` if
    /// the microarchitecture is unsupported.
    #[must_use]
    pub fn range_string(arch: MicroArch) -> Option<String> {
        let versions = IacaVersion::supporting(arch);
        let first = versions.first()?;
        let last = versions.last()?;
        Some(format!("{}–{}", first.name(), last.name()))
    }
}

impl fmt::Display for IacaVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IACA {}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_matrix_matches_table_1() {
        assert_eq!(IacaVersion::range_string(MicroArch::Nehalem).unwrap(), "2.1–2.2");
        assert_eq!(IacaVersion::range_string(MicroArch::SandyBridge).unwrap(), "2.1–2.3");
        assert_eq!(IacaVersion::range_string(MicroArch::Haswell).unwrap(), "2.1–3.0");
        assert_eq!(IacaVersion::range_string(MicroArch::Broadwell).unwrap(), "2.2–3.0");
        assert_eq!(IacaVersion::range_string(MicroArch::Skylake).unwrap(), "2.3–3.0");
        assert_eq!(IacaVersion::range_string(MicroArch::KabyLake), None);
        assert_eq!(IacaVersion::range_string(MicroArch::CoffeeLake), None);
    }

    #[test]
    fn display_and_names() {
        assert_eq!(IacaVersion::V21.to_string(), "IACA 2.1");
        assert_eq!(IacaVersion::V30.name(), "3.0");
        assert_eq!(IacaVersion::ALL.len(), 4);
    }

    #[test]
    fn supporting_lists_are_ordered() {
        let versions = IacaVersion::supporting(MicroArch::Haswell);
        assert_eq!(
            versions,
            vec![IacaVersion::V21, IacaVersion::V22, IacaVersion::V23, IacaVersion::V30]
        );
    }
}
