//! Offline stand-in for the [proptest](https://docs.rs/proptest) crate.
//!
//! The SPFE workspace builds in hermetic environments with no access to
//! crates.io, so this crate provides the (small) slice of the proptest API
//! that the workspace's property tests use, with identical spelling:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assume!`,
//! * integer range strategies (`0u64..100`), `any::<T>()`,
//!   `proptest::collection::vec`, `proptest::sample::Index`, and
//!   character-class string strategies (`"[0-9a-f]{1,64}"`),
//! * [`ProptestConfig::with_cases`].
//!
//! Values are drawn from a deterministic splitmix/xorshift PRNG seeded from
//! the test name, so failures reproduce exactly across runs. Unlike real
//! proptest there is no shrinking: a failing case panics with the generated
//! inputs left to the assertion message.

#![forbid(unsafe_code)]

/// Runtime configuration for a [`proptest!`] block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the heavier bignum
        // properties fast while still exploring a meaningful space.
        ProptestConfig { cases: 64 }
    }
}

/// The deterministic PRNG driving all strategies (xorshift64*).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds from a test name (stable across runs and platforms).
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(h | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform value in `[0, bound)` for 128-bit bounds.
    pub fn below_u128(&mut self, bound: u128) -> u128 {
        if bound <= u64::MAX as u128 {
            return self.below(bound as u64) as u128;
        }
        let zone = u128::MAX - u128::MAX % bound;
        loop {
            let v = (self.next_u64() as u128) << 64 | self.next_u64() as u128;
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// A source of random values of one type — the shim's `Strategy` trait.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// `any::<T>()` marker strategy: the full value range of `T`.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Types with a canonical full-range strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        (rng.next_u64() as u128) << 64 | rng.next_u64() as u128
    }
}

impl Strategy for std::ops::Range<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.below_u128(self.end - self.start)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + rng.below_u128(span) as i128) as $t
            }
        }
    )*};
}
impl_arbitrary_int!(i8, i16, i32, i64, isize);

impl Arbitrary for i128 {
    fn arbitrary(rng: &mut TestRng) -> i128 {
        u128::arbitrary(rng) as i128
    }
}

impl Strategy for std::ops::Range<i128> {
    type Value = i128;
    fn generate(&self, rng: &mut TestRng) -> i128 {
        assert!(self.start < self.end, "empty range strategy");
        // Spans up to 2^127 fit in u128.
        let span = self.end.wrapping_sub(self.start) as u128;
        self.start.wrapping_add(rng.below_u128(span) as i128)
    }
}

/// Character-class string strategies: `"[abc0-9]{min,max}"` or `"[..]{n}"`.
///
/// This covers the patterns used in the workspace (hex strings of bounded
/// length); anything fancier panics loudly rather than mis-generating.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (chars, min, max) = parse_char_class(self);
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| chars[rng.below(chars.len() as u64) as usize])
            .collect()
    }
}

/// Parses `[class]{m}` / `[class]{m,n}` into (alphabet, min_len, max_len).
fn parse_char_class(pattern: &str) -> (Vec<char>, usize, usize) {
    fn bad(pattern: &str) -> ! {
        panic!("unsupported string strategy pattern: {pattern:?}")
    }
    let rest = pattern.strip_prefix('[').unwrap_or_else(|| bad(pattern));
    let (class, rest) = rest.split_once(']').unwrap_or_else(|| bad(pattern));
    let rest = rest.strip_prefix('{').unwrap_or_else(|| bad(pattern));
    let counts = rest.strip_suffix('}').unwrap_or_else(|| bad(pattern));
    let (lo, hi) = match counts.split_once(',') {
        Some((a, b)) => (a, b),
        None => (counts, counts),
    };
    let min: usize = lo.trim().parse().unwrap_or_else(|_| bad(pattern));
    let max: usize = hi.trim().parse().unwrap_or_else(|_| bad(pattern));
    assert!(min <= max, "bad repetition in {pattern:?}");
    let mut chars = Vec::new();
    let cs: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < cs.len() {
        if i + 2 < cs.len() && cs[i + 1] == '-' {
            let (a, b) = (cs[i], cs[i + 2]);
            assert!(a <= b, "bad char range in {pattern:?}");
            for c in a..=b {
                chars.push(c);
            }
            i += 3;
        } else {
            chars.push(cs[i]);
            i += 1;
        }
    }
    assert!(!chars.is_empty(), "empty char class in {pattern:?}");
    (chars, min, max)
}

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($( self.$idx.generate(rng), )+)
            }
        }
    };
}
impl_tuple_strategy!(S0.0);
impl_tuple_strategy!(S0.0, S1.1);
impl_tuple_strategy!(S0.0, S1.1, S2.2);
impl_tuple_strategy!(S0.0, S1.1, S2.2, S3.3);
impl_tuple_strategy!(S0.0, S1.1, S2.2, S3.3, S4.4);
impl_tuple_strategy!(S0.0, S1.1, S2.2, S3.3, S4.4, S5.5);
impl_tuple_strategy!(S0.0, S1.1, S2.2, S3.3, S4.4, S5.5, S6.6);
impl_tuple_strategy!(S0.0, S1.1, S2.2, S3.3, S4.4, S5.5, S6.6, S7.7);

/// Drives one property test: `cases` deterministic random draws from `s`,
/// each passed to `f`. The `FnMut(S::Value)` bound is what gives the
/// [`proptest!`] macro's tuple-pattern closures their parameter types.
pub fn for_each_case<S: Strategy, F: FnMut(S::Value)>(
    cfg: ProptestConfig,
    name: &str,
    s: S,
    mut f: F,
) {
    let mut rng = TestRng::from_name(name);
    for _case in 0..cfg.cases {
        f(s.generate(&mut rng));
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// A strategy producing `Vec`s of values from `element`, with a length
    /// drawn from `len` (half-open, like proptest's `SizeRange`).
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling helpers (`proptest::sample::Index`).
pub mod sample {
    use super::{Arbitrary, TestRng};

    /// An index "into any collection": resolved against a length at use
    /// time, so one generated value can index collections of any size.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Resolves against a collection of `len` items.
        ///
        /// # Panics
        ///
        /// Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

/// The glob-import surface used by tests (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a [`proptest!`] case.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a [`proptest!`] case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a [`proptest!`] case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Discards the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $(
        $(#[$attr:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            // `prop_assume!` discards a case by returning from the closure;
            // panics propagate and fail the test.
            $crate::for_each_case(
                $cfg,
                concat!(module_path!(), "::", stringify!($name)),
                ($( ($strat), )+),
                |($($arg,)+)| $body,
            );
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::from_name("ranges");
        for _ in 0..1000 {
            let v = crate::Strategy::generate(&(10u64..20), &mut rng);
            assert!((10..20).contains(&v));
            let s = crate::Strategy::generate(&(-5i64..5), &mut rng);
            assert!((-5..5).contains(&s));
        }
    }

    #[test]
    fn string_class_patterns() {
        let mut rng = crate::TestRng::from_name("strings");
        for _ in 0..200 {
            let s = crate::Strategy::generate(&"[0-9a-f]{1,64}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 64);
            assert!(s
                .chars()
                .all(|c| c.is_ascii_hexdigit() && !c.is_uppercase()));
        }
    }

    #[test]
    fn vec_strategy_lengths() {
        let mut rng = crate::TestRng::from_name("vecs");
        for _ in 0..200 {
            let v = crate::Strategy::generate(&crate::collection::vec(0u64..5, 2..7), &mut rng);
            assert!((2..7).contains(&v.len()));
        }
    }

    #[test]
    fn deterministic_given_name() {
        let mut a = crate::TestRng::from_name("same");
        let mut b = crate::TestRng::from_name("same");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_roundtrip(a in any::<u64>(), b in 1u64..1000) {
            prop_assume!(a != 0);
            prop_assert!(b >= 1);
            prop_assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
        }
    }
}
