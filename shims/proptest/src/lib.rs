//! Offline stand-in for `proptest`.
//!
//! The build environment cannot reach crates.io, so the workspace patches
//! `proptest` to this shim: a deterministic randomized-testing engine
//! supporting the surface the workspace uses —
//!
//! - `proptest! { #[test] fn f(x in STRATEGY, y: Type) { .. } }`
//! - `prop_assert!` / `prop_assert_eq!`
//! - strategies: integer/`f64` `Range`s, `&str` regex patterns
//!   (character-class subset), tuples, `collection::vec`,
//!   `bool::ANY`, `num::u8::ANY`
//! - `Arbitrary` for the typed-argument form (ints, `bool`, `Vec<T>`,
//!   fixed-size arrays)
//!
//! No shrinking: on failure the generated inputs are part of the panic
//! payload's context via the deterministic per-test seed, so a failure
//! reproduces exactly on re-run.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Number of cases each property runs. Kept moderate so `cargo test`
/// stays fast while still exploring the input space.
pub const DEFAULT_CASES: usize = 96;

/// Deterministic per-test RNG (splitmix64). Seeded from the test name so
/// failures reproduce across runs without any global state.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the test name for a stable, well-mixed seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self { state: h }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator: the proptest `Strategy` concept, minus shrinking.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_for_uint_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u128 - self.start as u128) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

impl_strategy_for_uint_range!(u8, u16, u32, u64, usize);

macro_rules! impl_strategy_for_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_strategy_for_int_range!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// String strategies are regex patterns. Supports the subset the
/// workspace uses: literal chars, `[a-z0-9]` classes with ranges,
/// `\PC` (any non-control char), and quantifiers `{m,n}`, `{m}`,
/// `*`, `+`, `?`.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        regex_lite::generate(self, rng)
    }
}

mod regex_lite {
    use super::TestRng;

    enum Atom {
        Literal(char),
        Class(Vec<(char, char)>),
        /// `\PC`: any char that is not a control character.
        Printable,
    }

    const STAR_MAX: u64 = 8;

    fn sample_atom(atom: &Atom, rng: &mut TestRng) -> char {
        match atom {
            Atom::Literal(c) => *c,
            Atom::Class(ranges) => {
                let total: u64 =
                    ranges.iter().map(|(lo, hi)| (*hi as u64) - (*lo as u64) + 1).sum();
                let mut pick = rng.below(total);
                for (lo, hi) in ranges {
                    let n = (*hi as u64) - (*lo as u64) + 1;
                    if pick < n {
                        return char::from_u32(*lo as u32 + pick as u32).unwrap_or(*lo);
                    }
                    pick -= n;
                }
                ranges[0].0
            }
            Atom::Printable => {
                // Mostly ASCII printable, occasionally multibyte, so decoders
                // see non-trivial UTF-8 too.
                if rng.below(8) == 0 {
                    let choices = ['é', 'λ', '中', '🦀', 'ß', 'Ω'];
                    choices[rng.below(choices.len() as u64) as usize]
                } else {
                    char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap_or('a')
                }
            }
        }
    }

    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    let mut ranges = Vec::new();
                    i += 1;
                    while i < chars.len() && chars[i] != ']' {
                        let lo = chars[i];
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            ranges.push((lo, chars[i + 2]));
                            i += 3;
                        } else {
                            ranges.push((lo, lo));
                            i += 1;
                        }
                    }
                    assert!(i < chars.len(), "unterminated class in {pattern:?}");
                    i += 1; // skip ']'
                    Atom::Class(ranges)
                }
                '\\' => {
                    assert!(i + 1 < chars.len(), "dangling escape in {pattern:?}");
                    let esc = chars[i + 1];
                    i += 2;
                    if esc == 'P' || esc == 'p' {
                        // \PC / \p{...}: treat as "printable char".
                        if i < chars.len() && chars[i] == 'C' {
                            i += 1;
                        }
                        Atom::Printable
                    } else {
                        Atom::Literal(esc)
                    }
                }
                '.' => {
                    i += 1;
                    Atom::Printable
                }
                c => {
                    i += 1;
                    Atom::Literal(c)
                }
            };
            // Optional quantifier.
            let (min, max) = if i < chars.len() {
                match chars[i] {
                    '*' => {
                        i += 1;
                        (0, STAR_MAX)
                    }
                    '+' => {
                        i += 1;
                        (1, STAR_MAX)
                    }
                    '?' => {
                        i += 1;
                        (0, 1)
                    }
                    '{' => {
                        let close = chars[i..]
                            .iter()
                            .position(|c| *c == '}')
                            .expect("unterminated quantifier")
                            + i;
                        let body: String = chars[i + 1..close].iter().collect();
                        i = close + 1;
                        match body.split_once(',') {
                            Some((m, n)) => (m.trim().parse().unwrap(), n.trim().parse().unwrap()),
                            None => {
                                let m: u64 = body.trim().parse().unwrap();
                                (m, m)
                            }
                        }
                    }
                    _ => (1, 1),
                }
            } else {
                (1, 1)
            };
            let reps = min + rng.below(max - min + 1);
            for _ in 0..reps {
                out.push(sample_atom(&atom, rng));
            }
        }
        out
    }
}

macro_rules! impl_strategy_for_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_strategy_for_tuple!(A: 0);
impl_strategy_for_tuple!(A: 0, B: 1);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// Vectors of `elem`-generated values with length drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty vec length range");
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Full-domain strategies for primitives, mirroring `proptest::num::*::ANY`
/// and `proptest::bool::ANY`.
pub struct AnyPrim<T>(std::marker::PhantomData<T>);

macro_rules! impl_any_prim {
    ($mod_name:ident, $t:ty, $gen:expr) => {
        impl Strategy for AnyPrim<$t> {
            type Value = $t;
            #[allow(clippy::redundant_closure_call)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                ($gen)(rng)
            }
        }

        pub mod $mod_name {
            pub const ANY: super::AnyPrim<$t> = super::AnyPrim(std::marker::PhantomData);
        }
    };
}

impl_any_prim!(bool, bool, |rng: &mut TestRng| rng.next_u64() & 1 == 1);

pub mod num {
    use super::{AnyPrim, Strategy, TestRng};

    macro_rules! num_any {
        ($($m:ident : $t:ty),*) => {$(
            impl Strategy for AnyPrim<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }

            pub mod $m {
                pub const ANY: super::AnyPrim<$t> =
                    super::AnyPrim(std::marker::PhantomData);
            }
        )*};
    }

    num_any!(u8: u8);
}

/// Generator for the `name: Type` parameter form of `proptest!`.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary> Arbitrary for Vec<T> {
    fn arbitrary(rng: &mut TestRng) -> Vec<T> {
        let n = rng.below(96);
        (0..n).map(|_| T::arbitrary(rng)).collect()
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> [T; N] {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// Defines property tests. Each `#[test]` fn inside runs its body
/// [`DEFAULT_CASES`] times with fresh deterministic inputs.
#[macro_export]
macro_rules! proptest {
    () => {};
    (
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let mut __proptest_rng = $crate::TestRng::deterministic(stringify!($name));
            for __proptest_case in 0..$crate::DEFAULT_CASES {
                $crate::__proptest_bind!(__proptest_rng, $($params)*);
                $body
            }
        }
        $crate::proptest!($($rest)*);
    };
}

/// Internal: binds one `proptest!` parameter list entry at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident in $strat:expr) => {
        let $name = $crate::Strategy::generate(&$strat, &mut $rng);
    };
    ($rng:ident, $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::generate(&$strat, &mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $name:ident: $ty:ty) => {
        let $name: $ty = $crate::Arbitrary::arbitrary(&mut $rng);
    };
    ($rng:ident, $name:ident: $ty:ty, $($rest:tt)*) => {
        let $name: $ty = $crate::Arbitrary::arbitrary(&mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    // Entry point without leading comma.
    ($rng:ident, ) => {};
    ($rng:ident $($rest:tt)+) => {
        $crate::__proptest_bind!($rng, $($rest)+);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::proptest! {
        #[test]
        fn ranges_in_bounds(x in 5u64..10, y in -3i32..3, f in 0.5f64..1.5) {
            crate::prop_assert!((5..10).contains(&x));
            crate::prop_assert!((-3..3).contains(&y));
            crate::prop_assert!((0.5..1.5).contains(&f));
        }

        #[test]
        fn typed_args_generate(v: Vec<u8>, n: u64, sig: [u8; 16]) {
            crate::prop_assert!(v.len() < 96);
            let _ = n;
            crate::prop_assert_eq!(sig.len(), 16);
        }

        #[test]
        fn vec_of_tuples(ops in crate::collection::vec((0u64..12, crate::bool::ANY), 1..20)) {
            crate::prop_assert!(!ops.is_empty() && ops.len() < 20);
            for (k, _flag) in ops {
                crate::prop_assert!(k < 12);
            }
        }
    }

    #[test]
    fn regex_class_with_quantifier() {
        let mut rng = TestRng::deterministic("regex_class");
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z0-9]{1,8}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 8, "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()), "{s:?}");
        }
    }

    #[test]
    fn regex_printable_star() {
        let mut rng = TestRng::deterministic("regex_printable");
        for _ in 0..200 {
            let s = Strategy::generate(&"\\PC*", &mut rng);
            assert!(s.chars().all(|c| !c.is_control()), "{s:?}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::deterministic("same-name");
        let mut b = TestRng::deterministic("same-name");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
