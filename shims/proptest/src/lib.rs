//! Offline stand-in for the [`proptest`](https://proptest-rs.github.io/)
//! property-testing framework.
//!
//! The build environment has no network access, so the workspace vendors the
//! slice of the proptest API its test suites use:
//!
//! * [`strategy::Strategy`] with `prop_map`, implemented for integer ranges,
//! * [`collection::vec`] with exact, half-open or inclusive size ranges,
//! * [`test_runner::ProptestConfig`] (`with_cases`),
//! * the [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`] and
//!   [`prop_assume!`] macros.
//!
//! Differences from real proptest, deliberately accepted for a shim:
//! generation is a fixed-seed PRNG (fully deterministic across runs), there
//! is **no shrinking** (a failing case reports its inputs un-minimized), and
//! `prop_assume!` skips the case rather than drawing a replacement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Test-case generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Returns a strategy that applies `f` to every generated value.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end - start) as u64;
                    if span == u64::MAX {
                        return start + (rng.next_u64() as $t);
                    }
                    start + (rng.next_u64() % (span + 1)) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(usize, u64, u32, u16, u8);

    macro_rules! impl_signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add((rng.next_u64() % span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = end.wrapping_sub(start) as u64;
                    if span == u64::MAX {
                        return start.wrapping_add(rng.next_u64() as $t);
                    }
                    start.wrapping_add((rng.next_u64() % (span + 1)) as $t)
                }
            }
        )*};
    }

    impl_signed_range_strategy!(isize, i64, i32, i16, i8);

    /// Strategy for `bool` values.
    impl Strategy for core::ops::RangeFull {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Strategies for collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// An inclusive size bound for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange { min: exact, max: exact }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    /// Strategy generating a `Vec` whose elements come from `element` and
    /// whose length lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min + (rng.next_u64() % (span + 1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Configuration and runtime support for generated test functions.
pub mod test_runner {
    /// Per-test configuration. Only the `cases` knob is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// Returns a config that runs `cases` generated cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Error type property bodies may return with `?` or `return Err(..)`.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        /// Human-readable failure description.
        pub message: String,
    }

    impl TestCaseError {
        /// Builds a failure with the given message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError { message: message.into() }
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// The deterministic generator driving all strategies (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator for one test function; `case` distinguishes
        /// successive cases so each draws fresh values.
        pub fn deterministic(test_name: &str, case: u64) -> Self {
            // FNV-1a over the test name, mixed with the case index, so every
            // (test, case) pair explores a different region of the space but
            // reruns are bit-for-bit identical.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15) }
        }

        /// Returns the next pseudo-random value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// item expands to a `#[test]` function that samples the strategies for a
/// configurable number of cases and runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_item! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_item! {
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_item {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases as u64 {
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name), case);
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(e) = outcome {
                    ::core::panic!("proptest case {} of {} failed: {}", case, config.cases, e);
                }
            }
        }
        $crate::__proptest_item! { @cfg($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property body, reporting the stringified
/// expression (or a custom formatted message) on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", ::core::stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            ::core::stringify!($left),
            ::core::stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            ::core::stringify!($left),
            ::core::stringify!($right),
            l
        );
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
/// Unlike real proptest, the skipped case counts as passed rather than
/// being replaced by a fresh draw.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::deterministic("ranges_respect_bounds", 0);
        for _ in 0..1000 {
            let v = (3usize..9).sample(&mut rng);
            assert!((3..9).contains(&v));
            let w = (1u64..=4).sample(&mut rng);
            assert!((1..=4).contains(&w));
        }
    }

    #[test]
    fn vec_strategy_respects_size_forms() {
        let mut rng = TestRng::deterministic("vec_strategy", 0);
        for _ in 0..200 {
            assert_eq!(crate::collection::vec(0usize..5, 3).sample(&mut rng).len(), 3);
            let half_open = crate::collection::vec(0usize..5, 0..4).sample(&mut rng);
            assert!(half_open.len() < 4);
            let inclusive = crate::collection::vec(0usize..5, 1..=2).sample(&mut rng);
            assert!((1..=2).contains(&inclusive.len()));
        }
    }

    #[test]
    fn prop_map_composes() {
        let mut rng = TestRng::deterministic("prop_map", 0);
        let doubled = (1usize..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = doubled.sample(&mut rng);
            assert_eq!(v % 2, 0);
            assert!((2..20).contains(&v));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let draw = |case| {
            let mut rng = TestRng::deterministic("stable", case);
            (0..10).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(4), draw(4));
        assert_ne!(draw(4), draw(5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro wires strategies, assume and assertions together.
        #[test]
        fn macro_end_to_end(
            a in 0usize..50,
            v in crate::collection::vec(0u64..10, 0..8),
        ) {
            prop_assume!(a != 13);
            prop_assert!(a < 50);
            prop_assert!(v.len() < 8 && v.iter().all(|x| *x < 10));
            if a == usize::MAX {
                return Ok(());
            }
        }
    }

    // No `#[test]` meta on the inner item: the macro forwards any
    // attributes, and a nested `#[test]` would be unnameable anyway.
    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_panics() {
        proptest! {
            fn inner_always_fails(x in 0usize..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        inner_always_fails();
    }
}
