//! The microarchitecture generations of the Intel Core family.

use std::fmt;

use uops_isa::Extension;

/// One generation of the Intel Core microarchitecture, from Nehalem (2008) to
/// Coffee Lake (2017). These are the nine microarchitectures characterized in
/// the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MicroArch {
    /// Nehalem (2008), e.g. Core i5-750.
    Nehalem,
    /// Westmere (2010), e.g. Core i5-650.
    Westmere,
    /// Sandy Bridge (2011), e.g. Core i7-2600.
    SandyBridge,
    /// Ivy Bridge (2012), e.g. Core i5-3470.
    IvyBridge,
    /// Haswell (2013), e.g. Xeon E3-1225 v3.
    Haswell,
    /// Broadwell (2014), e.g. Core i5-5200U.
    Broadwell,
    /// Skylake (2015), e.g. Core i7-6500U.
    Skylake,
    /// Kaby Lake (2016), e.g. Core i7-7700.
    KabyLake,
    /// Coffee Lake (2017), e.g. Core i7-8700K.
    CoffeeLake,
}

impl MicroArch {
    /// All microarchitectures, in chronological order.
    pub const ALL: [MicroArch; 9] = [
        MicroArch::Nehalem,
        MicroArch::Westmere,
        MicroArch::SandyBridge,
        MicroArch::IvyBridge,
        MicroArch::Haswell,
        MicroArch::Broadwell,
        MicroArch::Skylake,
        MicroArch::KabyLake,
        MicroArch::CoffeeLake,
    ];

    /// The canonical name of the microarchitecture.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MicroArch::Nehalem => "Nehalem",
            MicroArch::Westmere => "Westmere",
            MicroArch::SandyBridge => "Sandy Bridge",
            MicroArch::IvyBridge => "Ivy Bridge",
            MicroArch::Haswell => "Haswell",
            MicroArch::Broadwell => "Broadwell",
            MicroArch::Skylake => "Skylake",
            MicroArch::KabyLake => "Kaby Lake",
            MicroArch::CoffeeLake => "Coffee Lake",
        }
    }

    /// The processor model the paper measured for this generation (Table 1).
    #[must_use]
    pub fn reference_processor(self) -> &'static str {
        match self {
            MicroArch::Nehalem => "Core i5-750",
            MicroArch::Westmere => "Core i5-650",
            MicroArch::SandyBridge => "Core i7-2600",
            MicroArch::IvyBridge => "Core i5-3470",
            MicroArch::Haswell => "Xeon E3-1225 v3",
            MicroArch::Broadwell => "Core i5-5200U",
            MicroArch::Skylake => "Core i7-6500U",
            MicroArch::KabyLake => "Core i7-7700",
            MicroArch::CoffeeLake => "Core i7-8700K",
        }
    }

    /// Year the first processors of this generation were released.
    #[must_use]
    pub fn release_year(self) -> u32 {
        match self {
            MicroArch::Nehalem => 2008,
            MicroArch::Westmere => 2010,
            MicroArch::SandyBridge => 2011,
            MicroArch::IvyBridge => 2012,
            MicroArch::Haswell => 2013,
            MicroArch::Broadwell => 2014,
            MicroArch::Skylake => 2015,
            MicroArch::KabyLake => 2016,
            MicroArch::CoffeeLake => 2017,
        }
    }

    /// The chronological index (Nehalem = 0, Coffee Lake = 8), useful for
    /// "at least generation X" comparisons.
    #[must_use]
    pub fn generation_index(self) -> usize {
        MicroArch::ALL.iter().position(|m| *m == self).expect("member of ALL")
    }

    /// Returns `true` if this generation is `other` or a successor of it.
    #[must_use]
    pub fn at_least(self, other: MicroArch) -> bool {
        self.generation_index() >= other.generation_index()
    }

    /// The number of execution ports (6 up to Ivy Bridge, 8 from Haswell).
    #[must_use]
    pub fn port_count(self) -> u8 {
        if self.at_least(MicroArch::Haswell) {
            8
        } else {
            6
        }
    }

    /// Returns `true` if the generation supports the given ISA extension.
    #[must_use]
    pub fn supports(self, ext: Extension) -> bool {
        use Extension as E;
        match ext {
            E::Base
            | E::Mmx
            | E::Sse
            | E::Sse2
            | E::Sse3
            | E::Ssse3
            | E::Sse41
            | E::Sse42
            | E::Popcnt => true,
            // AES and PCLMULQDQ were introduced with Westmere.
            E::Aes | E::Pclmulqdq => self.at_least(MicroArch::Westmere),
            // AVX arrived with Sandy Bridge.
            E::Avx => self.at_least(MicroArch::SandyBridge),
            // AVX2, FMA, BMI1/2, MOVBE arrived with Haswell.
            E::Avx2 | E::Fma | E::Bmi1 | E::Bmi2 | E::Movbe => self.at_least(MicroArch::Haswell),
            // ADX arrived with Broadwell.
            E::Adx => self.at_least(MicroArch::Broadwell),
        }
    }

    /// Returns `true` if register-to-register GPR moves can be eliminated by
    /// the renamer on this generation (move elimination, introduced with Ivy
    /// Bridge).
    #[must_use]
    pub fn has_gpr_move_elimination(self) -> bool {
        self.at_least(MicroArch::IvyBridge)
    }

    /// Returns `true` if vector register moves can be eliminated by the
    /// renamer on this generation (introduced with Ivy Bridge).
    #[must_use]
    pub fn has_vec_move_elimination(self) -> bool {
        self.at_least(MicroArch::IvyBridge)
    }

    /// Returns `true` if recognized zero idioms (e.g. `XOR r,r`) are executed
    /// by the renamer without consuming an execution port on this generation
    /// (Sandy Bridge and later).
    #[must_use]
    pub fn zero_idioms_need_no_port(self) -> bool {
        self.at_least(MicroArch::SandyBridge)
    }
}

impl fmt::Display for MicroArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chronological_order_is_consistent() {
        let mut prev_year = 0;
        for (i, m) in MicroArch::ALL.iter().enumerate() {
            assert_eq!(m.generation_index(), i);
            assert!(m.release_year() >= prev_year);
            prev_year = m.release_year();
        }
    }

    #[test]
    fn port_counts() {
        assert_eq!(MicroArch::Nehalem.port_count(), 6);
        assert_eq!(MicroArch::IvyBridge.port_count(), 6);
        assert_eq!(MicroArch::Haswell.port_count(), 8);
        assert_eq!(MicroArch::CoffeeLake.port_count(), 8);
    }

    #[test]
    fn at_least_relation() {
        assert!(MicroArch::Skylake.at_least(MicroArch::Haswell));
        assert!(MicroArch::Haswell.at_least(MicroArch::Haswell));
        assert!(!MicroArch::SandyBridge.at_least(MicroArch::Haswell));
    }

    #[test]
    fn extension_support_matches_history() {
        use Extension as E;
        assert!(!MicroArch::Nehalem.supports(E::Aes));
        assert!(MicroArch::Westmere.supports(E::Aes));
        assert!(!MicroArch::Westmere.supports(E::Avx));
        assert!(MicroArch::SandyBridge.supports(E::Avx));
        assert!(!MicroArch::IvyBridge.supports(E::Avx2));
        assert!(MicroArch::Haswell.supports(E::Avx2));
        assert!(MicroArch::Haswell.supports(E::Fma));
        assert!(!MicroArch::Haswell.supports(E::Adx));
        assert!(MicroArch::Broadwell.supports(E::Adx));
        for m in MicroArch::ALL {
            assert!(m.supports(E::Base));
            assert!(m.supports(E::Sse42));
        }
    }

    #[test]
    fn renamer_capabilities() {
        assert!(!MicroArch::SandyBridge.has_gpr_move_elimination());
        assert!(MicroArch::IvyBridge.has_gpr_move_elimination());
        assert!(!MicroArch::Nehalem.zero_idioms_need_no_port());
        assert!(MicroArch::SandyBridge.zero_idioms_need_no_port());
    }

    #[test]
    fn table1_processors_are_distinct() {
        let mut names: Vec<&str> = MicroArch::ALL.iter().map(|m| m.reference_processor()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
    }
}
