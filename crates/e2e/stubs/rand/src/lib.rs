//! Offline stand-in for `rand` 0.9: a seeded `StdRng` (xoshiro256++ seeded
//! through SplitMix64) with `random::<T>()` and `random_range(a..b)`.
//! The stream is deterministic per seed but is **not** the published crate's
//! ChaCha stream, so seeded starting blocks and atom perturbations differ
//! from a crates.io build; energies pinned by the benchmark are pinned
//! against this generator.

use std::ops::Range;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::random` can draw.
pub trait Standard: Sized {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Ranges `Rng::random_range` can draw from.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

pub trait Rng: RngCore {
    fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }
}
impl<R: RngCore + ?Sized> Rng for R {}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}
impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}
impl Standard for f64 {
    /// Uniform on [0, 1) with 53 random bits.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * f64::draw(rng)
    }
}
impl SampleRange<usize> for Range<usize> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "empty range");
        let span = (self.end - self.start) as u64;
        // multiply-shift: bias < 2^-64 * span, irrelevant here
        self.start + ((rng.next_u64() as u128 * span as u128) >> 64) as usize
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.random()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        let mut heads = 0;
        for _ in 0..4000 {
            let x: f64 = a.random_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
            let k = a.random_range(3..10usize);
            assert!((3..10).contains(&k));
            heads += usize::from(a.random::<bool>());
        }
        assert!((1700..2300).contains(&heads));
    }
}
