//! A deterministic, shrink-free property-testing harness with the subset
//! of the `proptest` crate's API the workspace's property tests use:
//! strategy tuples, integer and float ranges, `any`,
//! `prop::collection::vec`, `prop::option::of`, `prop::sample::select`, a
//! `[class]{lo,hi}` regex-string subset and `prop_map`. Test crates name it
//! `proptest` in their `[dev-dependencies]`, so the tests read as proptest
//! tests. Every case is seeded from the test's name and case number, so a
//! failure reproduces on every run.

/// Deterministic case generator (splitmix64 core).
#[derive(Debug)]
pub struct Gen {
    state: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// A generator seeded from a property's whole name (FNV-1a), so two
    /// properties draw different cases even when their names are equally
    /// long.
    pub fn named(name: &str) -> Self {
        let hash = name.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        });
        Self::new(hash)
    }

    pub fn reseed(&mut self, case: u64) {
        self.state = self.state.wrapping_add(0xA076_1D64_78BD_642F ^ case);
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator. No shrinking: failures report the generated inputs
/// via the panic message only.
pub trait Strategy {
    type Value;

    fn generate(&self, gen: &mut Gen) -> Self::Value;

    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

#[derive(Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, gen: &mut Gen) -> O {
        (self.f)(self.inner.generate(gen))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + gen.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + gen.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i32);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                let unit = gen.f64_unit() as $t;
                self.start + (self.end - self.start) * unit
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, gen: &mut Gen) -> $t {
                let unit = gen.f64_unit() as $t;
                self.start() + (self.end() - self.start()) * unit
            }
        }
    )*};
}

float_range_strategy!(f64);

/// The `[class]{lo,hi}` regex subset: a single character class (literal
/// chars, `a-b` ranges, `\t`/`\n`/`\r`/`\\` escapes) with a bounded
/// repetition. Anything else panics — extend the stub if a test needs it.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, gen: &mut Gen) -> String {
        let (class, lo, hi) = parse_class_repeat(self)
            .unwrap_or_else(|| panic!("proptest stub: unsupported regex strategy {self:?}"));
        let len = lo + gen.below((hi - lo + 1) as u64) as usize;
        (0..len)
            .map(|_| class[gen.below(class.len() as u64) as usize])
            .collect()
    }
}

fn parse_class_repeat(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let (class_src, repeat) = rest.split_once(']')?;
    let repeat = repeat.strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = repeat.split_once(',')?;
    let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
    let (negated, class_src) = match class_src.strip_prefix('^') {
        Some(stripped) => (true, stripped),
        None => (false, class_src),
    };
    let mut class = Vec::new();
    let mut chars = class_src.chars().peekable();
    while let Some(c) = chars.next() {
        let c = if c == '\\' {
            match chars.next()? {
                't' => '\t',
                'n' => '\n',
                'r' => '\r',
                other => other,
            }
        } else {
            c
        };
        if chars.peek() == Some(&'-') {
            let mut lookahead = chars.clone();
            lookahead.next();
            if let Some(&end) = lookahead.peek() {
                if end != ']' {
                    chars.next();
                    let end = chars.next()?;
                    for code in (c as u32)..=(end as u32) {
                        class.push(char::from_u32(code)?);
                    }
                    continue;
                }
            }
        }
        class.push(c);
    }
    if negated {
        // Complement over printable ASCII plus tab/newline — narrower than
        // real proptest's full-unicode complement but plenty for fuzzing.
        let excluded: std::collections::HashSet<char> = class.into_iter().collect();
        class = (0x20u32..=0x7E)
            .filter_map(char::from_u32)
            .chain(['\t', '\n'])
            .filter(|c| !excluded.contains(c))
            .collect();
    }
    if class.is_empty() {
        return None;
    }
    Some((class, lo, hi))
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, gen: &mut Gen) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(gen),)+)
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
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
    (A, B, C, D, E, F, G, H, I)
    (A, B, C, D, E, F, G, H, I, J)
    (A, B, C, D, E, F, G, H, I, J, K)
    (A, B, C, D, E, F, G, H, I, J, K, L)
}

/// Full-range value generation (`any::<T>()`).
pub trait Arbitrary {
    fn arbitrary(gen: &mut Gen) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(gen: &mut Gen) -> $t {
                gen.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u64);

impl Arbitrary for bool {
    fn arbitrary(gen: &mut Gen) -> bool {
        gen.next_u64() & 1 == 1
    }
}

#[derive(Debug)]
pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, gen: &mut Gen) -> T {
        T::arbitrary(gen)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u64,
}

impl ProptestConfig {
    pub fn with_cases(cases: u64) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 32 }
    }
}

pub mod prop {
    pub mod collection {
        use crate::{Gen, Strategy};

        /// Length specification: a fixed size or a (half-open / inclusive)
        /// range.
        pub trait IntoLen {
            fn pick(&self, gen: &mut Gen) -> usize;
        }

        impl IntoLen for std::ops::Range<usize> {
            fn pick(&self, gen: &mut Gen) -> usize {
                self.generate(gen)
            }
        }

        impl IntoLen for std::ops::RangeInclusive<usize> {
            fn pick(&self, gen: &mut Gen) -> usize {
                self.generate(gen)
            }
        }

        #[derive(Debug)]
        pub struct VecStrategy<S, L> {
            element: S,
            len: L,
        }

        impl<S: Strategy, L: IntoLen> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;

            fn generate(&self, gen: &mut Gen) -> Self::Value {
                let len = self.len.pick(gen);
                (0..len).map(|_| self.element.generate(gen)).collect()
            }
        }

        pub fn vec<S: Strategy, L: IntoLen>(element: S, len: L) -> VecStrategy<S, L> {
            VecStrategy { element, len }
        }
    }

    pub mod option {
        use crate::{Gen, Strategy};

        #[derive(Debug)]
        pub struct OptionStrategy<S>(S);

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn generate(&self, gen: &mut Gen) -> Self::Value {
                if gen.next_u64() & 3 == 0 {
                    None
                } else {
                    Some(self.0.generate(gen))
                }
            }
        }

        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy(inner)
        }
    }

    pub mod sample {
        use crate::{Gen, Strategy};

        #[derive(Debug)]
        pub struct Select<T>(Vec<T>);

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, gen: &mut Gen) -> T {
                self.0[gen.below(self.0.len() as u64) as usize].clone()
            }
        }

        pub fn select<T: Clone>(choices: Vec<T>) -> Select<T> {
            assert!(!choices.is_empty(), "select needs at least one choice");
            Select(choices)
        }
    }
}

pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, proptest, Arbitrary, Gen, ProptestConfig, Strategy,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
macro_rules! __proptest_fns {
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut gen = $crate::Gen::named(stringify!($name));
            for case in 0..config.cases {
                gen.reseed(case);
                $(let $pat = $crate::Strategy::generate(&($strat), &mut gen);)+
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::Gen;

    #[test]
    fn equally_long_names_draw_different_cases() {
        let mut a = Gen::named("sizes_round_trip");
        let mut b = Gen::named("sizes_are_sorted");
        assert_ne!(a.next_u64(), b.next_u64());
        assert_eq!(
            Gen::named("sizes_round_trip").next_u64(),
            Gen::named("sizes_round_trip").next_u64()
        );
    }
}
