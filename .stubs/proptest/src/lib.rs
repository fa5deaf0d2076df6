//! Offline API-compatible stand-in for `proptest` (1.x subset).
//!
//! Covers the surface the matchkit workspace uses: the `proptest!` macro
//! (with optional `#![proptest_config(...)]`), `Strategy` + `prop_map`,
//! range and `any::<T>()` strategies, tuple strategies,
//! `proptest::collection::vec`, `Just`, and the `prop_assert*` /
//! `prop_assume!` macros.
//!
//! Semantics: deterministic pseudo-random generation (no shrinking, no
//! persistence). Each test runs `cases` deterministic cases; a failing
//! case panics with the generated message.

/// Deterministic generator handed to strategies.
pub struct TestRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestRng {
    /// Seeded construction (xoshiro256** expanded from SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        TestRng { state: s }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform usize in [0, bound).
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty range");
        (self.next_u64() % bound as u64) as usize
    }
}

pub mod strategy {
    //! The `Strategy` trait and combinators.
    use super::TestRng;

    /// A recipe for generating values.
    pub trait Strategy {
        /// Generated value type.
        type Value;
        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Keep only values passing `pred` (bounded retries).
        fn prop_filter<F>(self, _reason: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, pred }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Output of [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) pred: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 candidates in a row");
        }
    }

    /// Always the same value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    (self.start as i128 + v as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128) % span;
                    (lo as i128 + v as i128) as $t
                }
            }
        )*};
    }
    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for core::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            lo + rng.unit_f64() * (hi - lo)
        }
    }

    impl Strategy for core::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+};
    }
    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }

    /// Strategy for `any::<T>()`.
    pub struct Any<T> {
        pub(crate) _marker: core::marker::PhantomData<T>,
    }

    macro_rules! impl_any {
        ($($t:ty => $gen:expr),* $(,)?) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let g: fn(&mut TestRng) -> $t = $gen;
                    g(rng)
                }
            }
        )*};
    }
    impl_any! {
        u64 => |r| r.next_u64(),
        u32 => |r| (r.next_u64() >> 32) as u32,
        u16 => |r| (r.next_u64() >> 48) as u16,
        u8 => |r| (r.next_u64() >> 56) as u8,
        usize => |r| r.next_u64() as usize,
        i64 => |r| r.next_u64() as i64,
        i32 => |r| (r.next_u64() >> 32) as i32,
        bool => |r| r.next_u64() & 1 == 1,
        f64 => |r| r.unit_f64() * 2e6 - 1e6,
    }
}

/// Uniform-from-`T`'s-domain strategy constructor.
pub fn any<T>() -> strategy::Any<T>
where
    strategy::Any<T>: strategy::Strategy,
{
    strategy::Any {
        _marker: core::marker::PhantomData,
    }
}

pub mod collection {
    //! Collection strategies.
    use super::strategy::Strategy;
    use super::TestRng;

    /// Size specification accepted by [`vec()`]: a fixed size or a range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }
    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }
    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of `elem` values.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// A `Vec` strategy with sizes drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi_exclusive - self.size.lo;
            let len = self.size.lo + if span > 1 { rng.below(span) } else { 0 };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Case driver used by the `proptest!` expansion.
    use super::TestRng;

    /// Subset of proptest's config: only `cases` matters here.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of accepted cases to run per test.
        pub cases: u32,
        /// Maximum rejects (via `prop_assume!`) before giving up.
        pub max_global_rejects: u32,
    }

    /// Name used by proptest's prelude.
    pub type ProptestConfig = Config;

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }

    impl Config {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config {
                cases,
                ..Config::default()
            }
        }
    }

    /// Failure modes a case body can signal.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// Assertion failure — aborts the test.
        Fail(String),
        /// `prop_assume!` rejection — the case is skipped.
        Reject(String),
    }

    impl TestCaseError {
        /// Assertion-failure constructor.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
        /// Assumption-rejection constructor.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Runs the deterministic case loop.
    pub struct TestRunner {
        config: Config,
    }

    impl TestRunner {
        /// Runner for `config`.
        pub fn new(config: Config) -> Self {
            TestRunner { config }
        }

        /// Execute `body` until `cases` accepted cases have passed.
        pub fn run_fn<F>(&mut self, mut body: F)
        where
            F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
        {
            let mut accepted = 0u32;
            let mut rejected = 0u32;
            let mut case = 0u64;
            while accepted < self.config.cases {
                // Fixed base keeps runs reproducible across invocations.
                let mut rng = TestRng::new(0xA076_1D64_78BD_642F ^ case);
                case += 1;
                match body(&mut rng) {
                    Ok(()) => accepted += 1,
                    Err(TestCaseError::Reject(_)) => {
                        rejected += 1;
                        if rejected > self.config.max_global_rejects {
                            panic!(
                                "proptest: too many prop_assume! rejections \
                                 ({rejected}) before {} cases passed",
                                self.config.cases
                            );
                        }
                    }
                    Err(TestCaseError::Fail(msg)) => {
                        panic!("proptest case {case} failed: {msg}");
                    }
                }
            }
        }
    }
}

/// Body of a `proptest!`-generated test: define the test functions.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            cfg = ($crate::test_runner::Config::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let mut __runner = $crate::test_runner::TestRunner::new($cfg);
            __runner.run_fn(|__proptest_rng| {
                $crate::__proptest_bind!(__proptest_rng, $($params)*);
                $body
                #[allow(unreachable_code)]
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $p:pat in $s:expr) => {
        let $p = $crate::strategy::Strategy::generate(&($s), $rng);
    };
    ($rng:ident, $p:pat in $s:expr, $($rest:tt)*) => {
        let $p = $crate::strategy::Strategy::generate(&($s), $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
}

/// Fallible assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(
                    format!("assertion failed: {}", stringify!($cond)),
                ),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fallible equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!(
                    "assertion failed: {} == {} (left: {:?}, right: {:?})",
                    stringify!($a), stringify!($b), left, right,
                )),
            );
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    }};
}

/// Fallible inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both: {:?})",
                stringify!($a),
                stringify!($b),
                left,
            )));
        }
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Mirrors `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn perm(n: usize) -> impl Strategy<Value = Vec<usize>> {
        any::<u64>().prop_map(move |seed| {
            let mut v: Vec<usize> = (0..n).collect();
            let mut rng = crate::TestRng::new(seed);
            for i in (1..n).rev() {
                let j = rng.below(i + 1);
                v.swap(i, j);
            }
            v
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges stay in bounds; tuples and vecs compose.
        fn ranges_and_collections(
            a in 3usize..10,
            b in -2i64..=2,
            f in 0.25f64..0.75,
            pair in (0usize..5, 0usize..5),
            mut xs in collection::vec(0u64..100, 1..8),
            fixed in collection::vec(0.0f64..1.0, 4),
        ) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((-2..=2).contains(&b));
            prop_assert!((0.25..0.75).contains(&f));
            prop_assert!(pair.0 < 5 && pair.1 < 5);
            xs.push(7);
            prop_assert!((2..=8).contains(&xs.len()));
            prop_assert_eq!(fixed.len(), 4);
        }

        fn permutation_strategy_valid(p in perm(9)) {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        }

        fn assume_rejects(x in 0u64..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }
    }
}
