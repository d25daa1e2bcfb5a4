//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to a crates.io registry, so the
//! workspace vendors the *subset* of `rand` 0.8 it actually uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], [`Rng::gen`] and
//! [`Rng::gen_range`]. The generator is a SplitMix64 stream — a different
//! algorithm than upstream `StdRng` (ChaCha12), but equally deterministic
//! for a given seed on every platform, which is the only property the
//! workspace relies on (no golden values are baked against upstream
//! `rand` output).

#![forbid(unsafe_code)]

use std::ops::{Range, RangeFrom, RangeInclusive};

/// Low-level generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// The next 64 uniform bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniform bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly from their full value domain (the shim's
/// equivalent of sampling from `rand`'s `Standard` distribution).
pub trait UniformSample: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl UniformSample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl UniformSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value inside the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + off) as $t
            }
        }
        impl SampleRange<$t> for RangeFrom<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                (self.start..=<$t>::MAX).sample_from(rng)
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// u128 spans do not fit the macro's i128 arithmetic, so the half-open
// range gets a dedicated impl built from two 64-bit draws. That is the
// only u128 shape the workspace samples (site indices in `SiteSpace::sample`).
impl SampleRange<u128> for Range<u128> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u128 {
        assert!(self.start < self.end, "cannot sample empty range");
        let span = self.end - self.start;
        let raw = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        self.start + raw % span
    }
}

/// High-level sampling interface, mirroring the parts of `rand::Rng` the
/// workspace uses.
pub trait Rng: RngCore {
    /// Draws a value uniformly over the type's full domain (`[0, 1)` for
    /// floats).
    fn gen<T: UniformSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's pinned deterministic generator (SplitMix64).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            StdRng { state }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let (x, y, z) = (a.gen::<u64>(), b.gen::<u64>(), c.gen::<u64>());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn ranges_are_contained() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: u32 = r.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: u32 = r.gen_range(5..=5);
            assert_eq!(w, 5);
            let f: f32 = r.gen();
            assert!((0.0..1.0).contains(&f));
            let n: i32 = r.gen_range(-16..16);
            assert!((-16..16).contains(&n));
            let m: u32 = r.gen_range(4_000_000_000..);
            assert!(m >= 4_000_000_000);
        }
    }

    #[test]
    fn u128_ranges_are_contained_and_deterministic() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let wide = 1u128 << 90;
        for _ in 0..1000 {
            let lo = 5u128;
            let x = a.gen_range(lo..wide);
            assert!((lo..wide).contains(&x));
            assert_eq!(x, b.gen_range(lo..wide));
            assert_eq!(a.gen_range(9u128..10), 9);
            assert_eq!(b.gen_range(9u128..10), 9);
        }
    }

    #[test]
    fn covers_the_range() {
        let mut r = StdRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..200 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
