//! # dcn-rng — deterministic, dependency-free random number generation
//!
//! The build environment of this workspace has no access to crates.io, so the
//! usual `rand` / `rand_chacha` pair is replaced by this small crate. It
//! provides exactly what the simulator and the workload generators need:
//!
//! * [`DetRng`] — a seeded **xoshiro256\*\*** generator (seed expansion via
//!   SplitMix64), deterministic across platforms and runs;
//! * the [`Rng`] trait with `gen`, `gen_range` and `gen_bool`, mirroring the
//!   `rand::Rng` surface used by the rest of the workspace;
//! * [`SeedableRng`] with `seed_from_u64`;
//! * [`SliceRandom`] with `choose` and `shuffle`.
//!
//! Determinism is a hard requirement here — every experiment is reproducible
//! from its seed — while cryptographic quality is not; xoshiro256\*\* passes
//! the statistical tests that matter for simulation workloads.
//!
//! ```
//! use dcn_rng::{DetRng, Rng, SeedableRng};
//!
//! let mut a = DetRng::seed_from_u64(7);
//! let mut b = DetRng::seed_from_u64(7);
//! let xs: Vec<u64> = (0..5).map(|_| a.gen_range(0u64..=99)).collect();
//! let ys: Vec<u64> = (0..5).map(|_| b.gen_range(0u64..=99)).collect();
//! assert_eq!(xs, ys);
//! assert!(xs.iter().all(|&x| x <= 99));
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// One step of the SplitMix64 sequence: mixes `z` into a well-distributed
/// 64-bit value.
///
/// This is the same finaliser [`DetRng::seed_from_u64`] uses for state
/// expansion. It is exposed so that callers can derive *independent* child
/// seeds from a (seed, index) pair — e.g. one seed per cell of a sweep grid —
/// without the streams depending on evaluation order:
///
/// ```
/// use dcn_rng::split_mix64;
///
/// let base = 42u64;
/// let cell_seed = |i: u64| split_mix64(base ^ split_mix64(i));
/// assert_ne!(cell_seed(0), cell_seed(1));
/// assert_eq!(cell_seed(3), cell_seed(3));
/// ```
pub fn split_mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from `seed`; equal seeds give equal streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A deterministic xoshiro256\*\* generator.
///
/// The 256-bit state is expanded from the seed with SplitMix64, which
/// guarantees a well-mixed non-zero state for every seed (including 0).
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

impl SeedableRng for DetRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            // split_mix64 re-adds the increment, so feed it the pre-advance
            // state to keep the historical stream (seeds must stay stable —
            // every recorded experiment replays from them).
            split_mix64(sm.wrapping_sub(0x9E37_79B9_7F4A_7C15))
        };
        DetRng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl DetRng {
    /// Produces the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The sampling surface used throughout the workspace (a small subset of
/// `rand::Rng`).
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly random value of a primitive integer type.
    fn gen<T: FromRng>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// A uniformly random value from `range` (half-open or inclusive integer
    /// ranges).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        let p = p.clamp(0.0, 1.0);
        // 53 uniform mantissa bits, the standard float-in-[0,1) construction.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl Rng for DetRng {
    fn next_u64(&mut self) -> u64 {
        DetRng::next_u64(self)
    }
}

/// Types that can be drawn uniformly from a generator.
pub trait FromRng {
    /// Draws one uniformly random value.
    fn from_rng<R: Rng>(rng: &mut R) -> Self;
}

macro_rules! impl_from_rng {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            fn from_rng<R: Rng>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_from_rng!(u8, u16, u32, u64, usize);

/// Integer ranges a [`Rng`] can sample from.
pub trait SampleRange {
    /// The element type of the range.
    type Output;
    /// Draws one uniformly random element.
    fn sample<R: Rng>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased sampling of `[0, span]` (inclusive) via rejection on 64 bits.
fn bounded_inclusive<R: Rng>(rng: &mut R, span: u64) -> u64 {
    if span == u64::MAX {
        return rng.next_u64();
    }
    let buckets = span + 1;
    // Largest multiple of `buckets` that fits in 64 bits; rejection above it
    // removes the modulo bias.
    let zone = u64::MAX - (u64::MAX % buckets + 1) % buckets;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % buckets;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let span = (self.end - self.start - 1) as u64;
                self.start + bounded_inclusive(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from an empty range");
                let span = (hi - lo) as u64;
                lo + bounded_inclusive(rng, span) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// Random selection and shuffling over slices (the used subset of
/// `rand::seq::SliceRandom`).
pub trait SliceRandom {
    /// The element type.
    type Item;
    /// A uniformly random element, or `None` for an empty slice.
    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
    /// An unbiased Fisher–Yates shuffle in place.
    fn shuffle<R: Rng>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            self.get(rng.gen_range(0..self.len()))
        }
    }

    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            self.swap(i, rng.gen_range(0..=i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_mix64_is_a_deterministic_bijective_mixer() {
        assert_eq!(split_mix64(7), split_mix64(7));
        // Nearby inputs map to far-apart outputs (avalanche sanity check).
        let outs: Vec<u64> = (0..64u64).map(split_mix64).collect();
        let mut dedup = outs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            outs.len(),
            "collision among 64 consecutive inputs"
        );
        assert!(outs.windows(2).all(|w| w[0].abs_diff(w[1]) > 1 << 32));
    }

    #[test]
    fn seed_expansion_still_matches_the_recorded_streams() {
        // The first draws for a few seeds, pinned so that refactors of the
        // seed expansion cannot silently re-seed every recorded experiment.
        let first = |seed: u64| DetRng::seed_from_u64(seed).next_u64();
        assert_eq!(first(0), 11091344671253066420);
        assert_eq!(first(1), 12966619160104079557);
        assert_eq!(first(42), 1546998764402558742);
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = DetRng::seed_from_u64(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn zero_seed_is_well_mixed() {
        let mut rng = DetRng::seed_from_u64(0);
        let xs: Vec<u64> = (0..10).map(|_| rng.next_u64()).collect();
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        assert!(xs.iter().any(|&x| x != 0));
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = DetRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3u64..=9);
            assert!((3..=9).contains(&v));
            let v = rng.gen_range(0u8..100);
            assert!(v < 100);
            let v = rng.gen_range(5usize..6);
            assert_eq!(v, 5);
        }
    }

    #[test]
    fn full_u64_range_is_accepted() {
        let mut rng = DetRng::seed_from_u64(2);
        let _ = rng.gen_range(0u64..=u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = DetRng::seed_from_u64(3);
        let _ = rng.gen_range(5u64..5);
    }

    #[test]
    fn range_sampling_covers_all_buckets() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = DetRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits} hits");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn choose_and_shuffle_behave() {
        let mut rng = DetRng::seed_from_u64(6);
        let empty: &[u8] = &[];
        assert!(empty.choose(&mut rng).is_none());
        let items = [1u8, 2, 3];
        assert!(items.contains(items.choose(&mut rng).unwrap()));

        let mut xs: Vec<u32> = (0..50).collect();
        let original = xs.clone();
        xs.shuffle(&mut rng);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, original, "shuffle must be a permutation");
        assert_ne!(
            xs, original,
            "a 50-element shuffle is a fixed point with negligible probability"
        );
    }

    #[test]
    fn gen_produces_each_width() {
        let mut rng = DetRng::seed_from_u64(7);
        let _: u8 = rng.gen();
        let _: u32 = rng.gen();
        let _: u64 = rng.gen();
        let _: usize = rng.gen();
    }
}
