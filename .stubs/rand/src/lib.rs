//! Offline API-compatible stand-in for the `rand` crate (0.9 subset).
//!
//! Implements exactly the surface the matchkit workspace uses:
//! `StdRng` (xoshiro256** seeded via SplitMix64), `SeedableRng::seed_from_u64`,
//! `Rng::{random, random_range}`, and `seq::SliceRandom::shuffle`.
//! Deterministic per seed; statistically solid for the workspace's
//! frequency/chi-square style tests. NOT the real rand crate: streams
//! differ from upstream `StdRng`.

/// Low-level source of randomness.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    /// Fill `dst` with random bytes (little-endian words).
    fn fill_bytes(&mut self, dst: &mut [u8]) {
        for chunk in dst.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable from the "standard" distribution.
pub trait StandardSample: Sized {
    /// Draw one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl StandardSample for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl StandardSample for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}
impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}
impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges samplable uniformly.
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics on an empty range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = f64::sample_standard(rng);
        self.start + u * (self.end - self.start)
    }
}
impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        let u = f64::sample_standard(rng);
        lo + u * (hi - lo)
    }
}

/// User-facing random-value methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A random value from the standard distribution of `T`.
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniform random value in `range`.
    fn random_range<T, RG: SampleRange<T>>(&mut self, range: RG) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from seeds.
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed (SplitMix64-expanded).
    fn seed_from_u64(state: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod rngs {
    //! Concrete generators.
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's deterministic RNG: xoshiro256** under the hood.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // Avoid the all-zero state (cannot occur via SplitMix64, but
            // keep the guard for clarity).
            if s.iter().all(|&w| w == 0) {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
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
    }

    /// Alias kept for API completeness.
    pub type SmallRng = StdRng;
}

pub mod seq {
    //! Sequence helpers.
    use super::Rng;

    /// Slice shuffling (Fisher–Yates).
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = r.random_range(3usize..10);
            assert!((3..10).contains(&v));
            let w = r.random_range(-2i64..=2);
            assert!((-2..=2).contains(&w));
            let f = r.random_range(-1.5f64..=1.5);
            assert!((-1.5..=1.5).contains(&f));
        }
    }

    #[test]
    fn rough_uniformity() {
        let mut r = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.random_range(0usize..10)] += 1;
        }
        for &c in &counts {
            let f = c as f64 / n as f64;
            assert!((f - 0.1).abs() < 0.01, "{f}");
        }
    }
}
