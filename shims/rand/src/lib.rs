//! Offline shim for `rand`.
//!
//! Implements the (small) slice of the rand 0.8 API the botwall workspace
//! uses: the [`Rng`] extension trait (`gen`, `gen_range`, `gen_bool`,
//! `fill`) and [`seq::SliceRandom`] (`choose`, `shuffle`). Distributions
//! are uniform; streams are deterministic per seed but not bit-compatible
//! with the real crate.

#![forbid(unsafe_code)]

pub use rand_core::{RngCore, SeedableRng};

use std::ops::{Range, RangeInclusive};

/// Types that `Rng::gen` can produce from uniform random bits.
pub trait Standard: Sized {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                let mut bytes = [0u8; std::mem::size_of::<$t>()];
                rng.fill_bytes(&mut bytes);
                <$t>::from_le_bytes(bytes)
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

// usize/isize draw a full u64 regardless of pointer width so the stream's
// byte consumption (and thus every subsequent draw) is platform-independent.
impl Standard for usize {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for isize {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64 as isize
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types `gen_range` can sample uniformly.
///
/// Mirrors rand's `SampleUniform` so a single generic `SampleRange` impl
/// exists per range shape — that is what lets the compiler unify integer
/// literal types in expressions like `rng.gen_range(3..=6).min(len)`.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform draw from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`.
    fn sample_in<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in<R: RngCore + ?Sized>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + inclusive as u128;
                assert!(span > 0, "cannot sample empty range");
                let draw = rng.next_u64();
                // The draw modulo the span. Only the whole of a 64-bit
                // type spans more than `u64` holds (2^64, which leaves the
                // draw as it is); every other span takes a native 64-bit
                // remainder, not a 128-bit one, for the same value.
                let offset = match u64::try_from(span) {
                    Ok(span) => draw % span,
                    Err(_) => draw,
                };
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in<R: RngCore + ?Sized>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                assert!(lo <= hi, "cannot sample empty range");
                let u = <$t as Standard>::from_rng(rng);
                let v = lo + u * (hi - lo);
                // u < 1 but lo + u*(hi-lo) can still round up to hi; an
                // exclusive range must never return its upper bound.
                if !inclusive && v >= hi {
                    hi.next_down().max(lo)
                } else {
                    v
                }
            }
        }
    )*};
}
impl_sample_uniform_float!(f32, f64);

/// Ranges that `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_in(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_in(lo, hi, true, rng)
    }
}

/// Extension trait mirroring `rand::Rng`.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        <f64 as Standard>::from_rng(self) < p
    }

    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::{Rng, RngCore};

    /// Extension trait mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        type Item;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

pub mod rngs {
    //! Placeholder module kept for path compatibility (`rand::rngs`).
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Lcg(u64);
    impl RngCore for Lcg {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let b = self.next_u64().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&b[..n]);
            }
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Lcg(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(5usize..=9);
            assert!((5..=9).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let s = rng.gen_range(-4i64..=4);
            assert!((-4..=4).contains(&s));
        }
    }

    /// The 64-bit remainder is the 128-bit one it replaced, for spans
    /// that fit `u64` and for the whole of one.
    #[test]
    fn a_draw_is_the_remainder_it_always_was() {
        let (mut a, mut b) = (Lcg(5), Lcg(5));
        for span in [1u64, 2, 3, 12, 100_000, u64::MAX / 3, u64::MAX] {
            for _ in 0..100 {
                assert_eq!(
                    a.gen_range(0..span),
                    (b.next_u64() as u128 % span as u128) as u64
                );
            }
        }
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..=u64::MAX), b.next_u64());
            let offset = b.next_u64() as u128 % (1u128 << 64);
            assert_eq!(
                a.gen_range(i64::MIN..=i64::MAX),
                (i64::MIN as i128 + offset as i128) as i64
            );
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Lcg(9);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        use seq::SliceRandom;
        let mut rng = Lcg(11);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        use seq::SliceRandom;
        let mut rng = Lcg(13);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
