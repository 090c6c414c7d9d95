//! Offline, deterministic subset of the [proptest](https://docs.rs/proptest)
//! API.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this vendored stub provides exactly the surface the workspace's property
//! tests use:
//!
//! * [`Strategy`](strategy::Strategy) implemented for integer ranges, tuples
//!   of strategies, plus [`prop_map`](strategy::Strategy::prop_map);
//! * [`collection::vec`] and [`bool::weighted`];
//! * the [`proptest!`], [`prop_compose!`], [`prop_assert!`] and
//!   [`prop_assert_eq!`] macros;
//! * [`ProptestConfig`](test_runner::ProptestConfig) with a `cases` knob.
//!
//! Differences from real proptest: generation is a plain seeded PRNG per
//! `(test name, case index)` — there is **no shrinking** — and assertion
//! failures panic immediately. Both are acceptable for CI-style regression
//! testing and keep every run byte-for-byte reproducible.

#![forbid(unsafe_code)]

/// Pseudo-random generation state and run configuration.
pub mod test_runner {
    /// How many cases each `proptest!` test runs, mirroring the real
    /// `ProptestConfig`'s one knob the workspace sets (the stub never
    /// shrinks a failing case).
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

    /// SplitMix64 generator: tiny, fast, and plenty random for test-case
    /// generation. Kept local so this crate has no dependencies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded from a test identifier and case index, so
        /// every `(test, case)` pair replays identically.
        pub fn deterministic(name: &str, case: u64) -> Self {
            // FNV-1a over the test name, mixed with the case index.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng {
                state: h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; 0 when `bound` is 0.
        pub fn next_below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                return 0;
            }
            // Multiply-shift reduction avoids modulo bias well enough
            // for test-case generation.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform float in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree: `generate` draws a
    /// single unshrinkable value from the given RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy that always yields a clone of its value (like real
    /// proptest's `Just`).
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among same-valued strategies; the expansion
    /// target of [`prop_oneof!`](crate::prop_oneof). Unlike real
    /// proptest there are no per-arm weights: every arm is equally
    /// likely.
    pub struct Union<T> {
        arms: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Creates an empty union; see [`Union::or`].
        pub fn new() -> Self {
            Union { arms: Vec::new() }
        }

        /// Adds one alternative.
        pub fn or(mut self, s: impl Strategy<Value = T> + 'static) -> Self {
            self.arms.push(Box::new(s));
            self
        }
    }

    impl<T> Default for Union<T> {
        fn default() -> Self {
            Union::new()
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(!self.arms.is_empty(), "prop_oneof! needs at least one arm");
            let idx = rng.next_below(self.arms.len() as u64) as usize;
            self.arms[idx].generate(rng)
        }
    }

    /// Wraps a generation closure as a strategy; the expansion target of
    /// [`prop_compose!`](crate::prop_compose).
    pub struct FnStrategy<F>(pub F);

    impl<T, F> Strategy for FnStrategy<F>
    where
        F: Fn(&mut TestRng) -> T,
    {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.next_below(span) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

/// Strategies for collections (`prop::collection`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors whose length lies in `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.next_below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Strategies for booleans (`prop::bool`).
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy yielding `true` with the given probability.
    #[derive(Clone, Copy, Debug)]
    pub struct Weighted(f64);

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn weighted(p: f64) -> Weighted {
        Weighted(p.clamp(0.0, 1.0))
    }

    impl Strategy for Weighted {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_f64() < self.0
        }
    }
}

/// Everything a property test needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_compose, prop_oneof, proptest};

    /// Namespace mirror of real proptest's `prelude::prop`.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// Declares property tests: each `fn` item becomes a `#[test]` running
/// `cases` deterministic generated inputs (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with ($cfg) $($rest)*);
    };
    (@with ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases as u64 {
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name), case);
                $(
                    let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                )*
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Composes named strategies into a function returning
/// `impl Strategy<Value = Out>`, mirroring proptest's two-arg-list form.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])*
     $vis:vis fn $name:ident($($arg:ident: $argty:ty),* $(,)?)
        ($($var:pat in $strat:expr),* $(,)?)
        -> $out:ty
        $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name(
            $($arg: $argty),*
        ) -> impl $crate::strategy::Strategy<Value = $out> {
            $crate::strategy::FnStrategy(
                move |rng: &mut $crate::test_runner::TestRng| -> $out {
                    $(
                        let $var =
                            $crate::strategy::Strategy::generate(&($strat), rng);
                    )*
                    $body
                },
            )
        }
    };
}

/// Assertion inside a property body; panics (fails the case) when false.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Uniform choice among strategies producing the same value type.
///
/// Unlike real proptest, per-arm `weight =>` prefixes are not
/// supported; every arm draws with equal probability.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new()$(.or($strategy))+
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds_and_replay() {
        let mut a = crate::test_runner::TestRng::deterministic("t", 7);
        let mut b = crate::test_runner::TestRng::deterministic("t", 7);
        for _ in 0..1_000 {
            let x = (3u32..17).generate(&mut a);
            assert!((3..17).contains(&x));
            assert_eq!(x, (3u32..17).generate(&mut b));
        }
    }

    #[test]
    fn vec_lengths_respect_size_range() {
        let mut rng = crate::test_runner::TestRng::deterministic("v", 0);
        for _ in 0..200 {
            let v = prop::collection::vec(0u64..10, 1..5).generate(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16 })]

        #[test]
        fn macro_generates_tuples(
            pair in (0u32..4, 0u32..2),
            flag in prop::bool::weighted(0.5),
        ) {
            prop_assert!(pair.0 < 4 && pair.1 < 2);
            prop_assert_eq!(flag as u32 * 2 % 2, 0);
        }
    }

    prop_compose! {
        fn arb_sum(limit: u64)(a in 0u64..10, b in 0u64..10) -> u64 {
            (a + b).min(limit)
        }
    }

    proptest! {
        #[test]
        fn composed_strategies_apply_outer_args(s in arb_sum(5)) {
            prop_assert!(s <= 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32 })]

        #[test]
        fn oneof_draws_from_every_arm(
            picks in prop::collection::vec(
                prop_oneof![
                    Just(0u64),
                    (10u64..20).prop_map(|x| x),
                    Just(99u64),
                ],
                50..60,
            )
        ) {
            for p in &picks {
                prop_assert!(*p == 0 || (10..20).contains(p) || *p == 99);
            }
        }
    }
}
