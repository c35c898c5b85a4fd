//! A miniature, dependency-free property-testing engine that is
//! source-compatible with the subset of `proptest` used by this workspace.
//!
//! The build environment has no access to crates.io, so instead of the real
//! `proptest` this crate implements the same surface on top of a
//! deterministic xorshift generator: [`Strategy`](strategy::Strategy) with `prop_map`, integer
//! range strategies, tuple strategies, `prop::collection::{vec, btree_set}`,
//! the [`proptest!`] macro, and `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from the real crate: no shrinking (failures report the seed
//! and case number instead), and generation is deterministic per test name so
//! CI runs are reproducible.

pub mod strategy;
pub mod test_runner;

/// Strategies over standard collections and common generators, mirroring the
/// `proptest::prelude::prop` module path used in test code
/// (`prop::collection::vec`, `prop::collection::btree_set`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::{btree_set, vec, BTreeSetStrategy, VecStrategy};
    }
}

/// The commonly imported surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares a block of property tests.
///
/// Supports an optional leading `#![proptest_config(..)]` attribute followed
/// by any number of `#[test] fn name(pattern in strategy, ..) { body }`
/// items. Each test runs `config.cases` times with freshly generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@items ($cfg); $($rest)*);
    };
    (@items ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    let _ = case;
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@items ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Asserts a condition inside a property test (panics with context).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u8..10, y in 1u32..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn vec_and_set_sizes(v in prop::collection::vec(0u8..4, 2..5),
                             s in prop::collection::btree_set(0u8..100, 1..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(!s.is_empty() && s.len() < 6);
        }

        #[test]
        fn map_applies(n in (0u16..50).prop_map(|x| x * 2)) {
            prop_assert_eq!(n % 2, 0);
            prop_assert!(n < 100);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::deterministic("seed");
        let mut b = TestRng::deterministic("seed");
        let s = 0u64..u64::MAX;
        for _ in 0..16 {
            assert_eq!(Strategy::generate(&s, &mut a), Strategy::generate(&s, &mut b));
        }
    }
}
