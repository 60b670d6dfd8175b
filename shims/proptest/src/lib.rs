//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the property-testing subset its test suites use: the
//! [`Strategy`] trait (ranges, `any`, tuples, `prop_map`, `Just`,
//! [`collection::vec`]), the [`proptest!`] test macro with optional
//! `#![proptest_config(...)]`, and [`prop_assert!`]/[`prop_assert_eq!`].
//!
//! Unlike upstream there is no shrinking: a failing case reports its
//! case index, its seed, and the failed assertion, and the whole run is
//! reproducible by setting `PROPTEST_SEED=<u64>` (every run is already
//! deterministic for a fixed seed; the default seed is fixed too, per
//! this repo's everything-reproducible-from-a-printed-seed policy).

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic generator handed to strategies (splitmix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator for one test case.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, span)`.
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128 - self.start as u128) as u64;
                (self.start as u128 + u128::from(rng.below(span))) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                if start as u128 == 0 && end as u128 == <$t>::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                let span = (end as u128 - start as u128 + 1) as u64;
                (start as u128 + u128::from(rng.below(span))) as $t
            }
        }
        impl Strategy for std::ops::RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                if self.start == 0 {
                    return rng.next_u64() as $t;
                }
                let span = (<$t>::MAX as u128 - self.start as u128 + 1) as u64;
                (self.start as u128 + u128::from(rng.below(span))) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! range_strategy_signed {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128 + 1) as u64;
                (start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
range_strategy_signed!(i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range strategy");
        start + rng.unit_f64() * (end - start)
    }
}

/// Types with a full-domain [`any`] strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite values only: the workspace's properties do arithmetic.
        rng.unit_f64() * 2e6 - 1e6
    }
}

/// Strategy over the whole domain of `T` (`any::<u8>()` etc.).
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// Creates an [`Any`] strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`].
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    /// Strategy yielding `Vec`s with lengths drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Creates a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration (`cases` is the only knob this shim honours).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Executes one property across `config.cases` seeded cases, panicking
/// with the case seed on the first failure. Called by [`proptest!`].
pub fn run_cases(
    config: ProptestConfig,
    test_name: &str,
    mut case: impl FnMut(&mut TestRng) -> Result<(), String>,
) {
    let base_seed = match std::env::var("PROPTEST_SEED") {
        Ok(v) => v
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("PROPTEST_SEED must be a u64, got `{v}`")),
        // Fixed default: runs are reproducible without any setup.
        Err(_) => 0x5EED_0000_0000_0000,
    };
    // Mix in the test name so properties in one file see distinct data.
    let mut name_hash = 0xcbf29ce484222325u64;
    for b in test_name.bytes() {
        name_hash = (name_hash ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    for i in 0..config.cases {
        let case_seed = base_seed ^ name_hash ^ (u64::from(i) << 1);
        let mut rng = TestRng::new(case_seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| case(&mut rng)));
        let fail = |detail: String| {
            panic!(
                "proptest `{test_name}` failed at case {i}/{} (PROPTEST_SEED={base_seed}, case seed {case_seed:#x}): {detail}",
                config.cases
            )
        };
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => fail(msg),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic (non-string payload)".into());
                fail(format!("panicked: {msg}"));
            }
        }
    }
}

/// Declares property tests: each `fn name(pat in strategy, ...) { .. }`
/// becomes a `#[test]` running the body across seeded cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr) $(
        $(#[$meta:meta])+
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])+
        fn $name() {
            $crate::run_cases($config, stringify!($name), |__rng| {
                $(let $pat = $crate::Strategy::generate(&($strat), __rng);)+
                #[allow(unreachable_code, clippy::diverging_sub_expression)]
                (move || -> ::std::result::Result<(), ::std::string::String> {
                    $body
                    ::std::result::Result::Ok(())
                })()
            });
        }
    )*};
}

/// Fails the enclosing property when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(
                format!("prop_assert!({}) failed", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "prop_assert!({}) failed: {}",
                stringify!($cond),
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the enclosing property when the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err(format!(
                "prop_assert_eq!({}, {}) failed: left = {:?}, right = {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r,
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err(format!(
                "prop_assert_eq!({}, {}) failed: left = {:?}, right = {:?}: {}",
                stringify!($left),
                stringify!($right),
                __l,
                __r,
                format!($($fmt)+),
            ));
        }
    }};
}

/// Fails the enclosing property when the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err(format!(
                "prop_assert_ne!({}, {}) failed: both = {:?}",
                stringify!($left),
                stringify!($right),
                __l,
            ));
        }
    }};
}

/// The glob-import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::collection;
    pub use crate::{any, Any, Arbitrary, Just, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let w = (1u8..=255).generate(&mut rng);
            assert!(w >= 1);
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_lengths() {
        let mut rng = TestRng::new(8);
        for _ in 0..200 {
            let v = collection::vec(any::<u8>(), 3..6).generate(&mut rng);
            assert!((3..6).contains(&v.len()));
        }
        let empty_ok = collection::vec(any::<u8>(), 0..1).generate(&mut rng);
        assert!(empty_ok.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<u64> = {
            let mut rng = TestRng::new(99);
            (0..50)
                .map(|_| (0u64..1_000_000).generate(&mut rng))
                .collect()
        };
        let b: Vec<u64> = {
            let mut rng = TestRng::new(99);
            (0..50)
                .map(|_| (0u64..1_000_000).generate(&mut rng))
                .collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_tuple_patterns((a, b) in (0u32..10, 0u32..10), flip in any::<bool>()) {
            let sum = a + b;
            prop_assert!(sum < 20);
            if flip {
                prop_assert_eq!(sum, a + b, "with message {}", sum);
            }
        }

        #[test]
        fn prop_map_applies(v in (1u32..10).prop_map(|x| x * 2)) {
            prop_assert!(v % 2 == 0);
            prop_assert_ne!(v, 1);
        }
    }

    #[test]
    #[should_panic(expected = "prop_assert!")]
    fn failing_property_reports_seed() {
        crate::run_cases(ProptestConfig::with_cases(4), "demo", |rng| {
            let v = (0u64..100).generate(rng);
            crate::prop_assert!(v > 1_000, "v = {}", v);
            Ok(())
        });
    }
}
