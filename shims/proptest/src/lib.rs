//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro, range / tuple / `Just` / mapped / flat-mapped
//! strategies, `collection::vec`, `sample::select`, `bool::ANY`, the
//! `prop_assert*` macros and `ProptestConfig::with_cases`.
//!
//! Differences from real proptest, deliberate for an offline build:
//! no shrinking (a failing case panics with its case number and the
//! generated inputs are reproducible from the fixed per-test seed), and
//! the default case count is 64 rather than 256 to keep `cargo test`
//! fast on small containers. `PROPTEST_CASES` overrides that default, as in
//! real proptest; an explicit `with_cases` is left alone.

pub mod strategy;
pub mod test_runner;

/// `proptest::collection` — strategies for collections.
pub mod collection {
    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// Strategy for `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// `proptest::sample` — strategies drawing from explicit value sets.
pub mod sample {
    use crate::strategy::Select;

    /// Strategy choosing uniformly from `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        Select { options }
    }
}

/// `proptest::bool` — boolean strategies.
pub mod bool {
    /// Uniform `bool` strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The uniform `bool` strategy value.
    pub const ANY: Any = Any;

    impl crate::strategy::Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut crate::test_runner::TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Everything a test module needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Run `cases` deterministic cases of a property. Used by [`proptest!`];
/// kept as a function so the failure report is uniform.
pub fn run_cases(
    name: &str,
    cases: u32,
    mut case: impl FnMut(&mut test_runner::TestRng) -> Result<(), test_runner::TestCaseError>,
) {
    let mut rng = test_runner::TestRng::for_test(name);
    for k in 0..cases {
        if let Err(e) = case(&mut rng) {
            panic!("property `{name}` failed at case {k}/{cases}: {e}");
        }
    }
}

/// The property-test entry macro. Matches real proptest's surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     #[test]
///     fn my_property(x in 0i64..10, v in proptest::collection::vec(0u8..4, 0..25)) {
///         prop_assert!(x >= 0);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            $crate::run_cases(stringify!($name), config.cases, |__rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                { $body }
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

/// Assert inside a property; failure reports the generated case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {} ({})", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {} == {}: {:?} vs {:?}",
                        stringify!($left), stringify!($right), l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {} == {}: {:?} vs {:?} ({})",
                        stringify!($left), stringify!($right), l, r, format!($($fmt)+)),
            ));
        }
    }};
}

/// Skip the current case when its inputs don't meet a precondition.
/// Unlike real proptest this does not generate a replacement case; with
/// deterministic seeds the retained case count is stable, which is enough
/// for the workspace's uses.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l != r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} != {}: both {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in -5i64..5, y in 0u8..4, f in -1.0f64..1.0) {
            prop_assert!((-5..5).contains(&x));
            prop_assert!(y < 4);
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec(0i64..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| (0..10).contains(&x)));
        }

        #[test]
        fn early_return_ok_works(x in 0i64..10) {
            if x > 100 {
                prop_assert!(false, "unreachable {}", x);
            }
            if x >= 0 {
                return Ok(());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_cases_accepted(pair in (0i64..3, 0i64..3), b in crate::bool::ANY) {
            prop_assert!(pair.0 < 3 && pair.1 < 3);
            let _ = b;
        }
    }

    #[test]
    fn combinators_compose() {
        use crate::strategy::Strategy;
        let strat = crate::collection::vec((0i64..4, 1i64..5), 1..=3)
            .prop_map(|pairs| pairs.iter().map(|&(a, b)| a * b).sum::<i64>());
        let mut rng = crate::test_runner::TestRng::for_test("combinators_compose");
        for _ in 0..50 {
            let v = strat.generate(&mut rng);
            assert!((0..=3 * 12).contains(&v));
        }
        let flat = Just(5i64).prop_flat_map(|n| 0i64..n);
        for _ in 0..50 {
            assert!((0..5).contains(&flat.generate(&mut rng)));
        }
        let sel = crate::sample::select(vec!["a", "b"]);
        for _ in 0..20 {
            assert!(["a", "b"].contains(&sel.generate(&mut rng)));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        crate::run_cases("always_fails", 3, |_| {
            Err(crate::test_runner::TestCaseError::fail("nope".to_string()))
        });
    }
}
