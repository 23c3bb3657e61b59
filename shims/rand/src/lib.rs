#![warn(missing_docs)]

//! Offline shim for the `rand` crate (0.8 API subset).
//!
//! This workspace builds in an air-gapped container with no crates.io
//! access, so the external crates it depends on are provided as local
//! "shim" crates. Each shim implements exactly the API surface the
//! workspace uses — here that is [`Rng`] (`gen`, `gen_range`,
//! `gen_bool`) and [`SeedableRng`] (`seed_from_u64`, `from_seed`).
//!
//! The sampling algorithms are implemented to be **bit-compatible with
//! upstream rand 0.8** for the paths this workspace exercises:
//! `seed_from_u64` uses rand_core's PCG32 expansion, `next_u64` is
//! low-word-first, integer ranges use the widening-multiply rejection
//! sampler, float ranges use the `[1, 2)` mantissa trick, and
//! `gen_bool` uses the Bernoulli fixed-point comparison. Combined with
//! the faithful ChaCha core in the `rand_chacha` shim, seeded streams
//! reproduce the values the seed repository's tests were tuned
//! against.

/// A source of random bits.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// Next 64 random bits. Low word first, like rand_core's block RNGs.
    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// Fill `dest` with random bytes (little-endian words, whole words
    /// consumed, matching rand_core's `fill_bytes_via_next`).
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types that can be produced uniformly by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value from the standard distribution for this type.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision (rand's
    /// multiply-based conversion).
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    /// Sign test on a `u32`, as upstream does.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

macro_rules! impl_standard_int32 {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u32() as $t
            }
        }
    )*};
}
impl_standard_int32!(u8, u16, u32, i8, i16, i32);

macro_rules! impl_standard_int64 {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int64!(u64, i64, usize, isize);

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

// Upstream's `sample_single_inclusive`: widening multiply with a
// rejection zone. `$unsigned` is the same-width unsigned type and
// `$large` the working width (u32 for sub-32-bit types).
macro_rules! impl_range_int {
    ($($t:ty, $unsigned:ty, $large:ty);* $(;)?) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                sample_inclusive_from(self.start, self.end - 1, rng)
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                sample_inclusive_from(lo, hi, rng)
            }
        }
        impl SampleUniformInt for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(
                low: $t,
                high: $t,
                rng: &mut R,
            ) -> $t {
                let range = high.wrapping_sub(low).wrapping_add(1)
                    as $unsigned as $large;
                if range == 0 {
                    // Full integer width: every value accepted.
                    return <$t as Standard>::sample_standard(rng);
                }
                let zone = if (<$unsigned>::MAX as u128) <= u16::MAX as u128 {
                    // Small types use the exact modulus, as upstream.
                    let ints_to_reject =
                        (<$large>::MAX - range + 1) % range;
                    <$large>::MAX - ints_to_reject
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v = <$large as Standard>::sample_standard(rng);
                    let (hi, lo) = wmul(v, range);
                    if lo <= zone {
                        return low.wrapping_add(hi as $t);
                    }
                }
            }
        }
    )*};
}

/// Widening multiply helper mirroring upstream's `WideningMultiply`.
trait WideMul: Copy {
    /// `(high, low)` halves of the double-width product.
    fn wmul_parts(self, rhs: Self) -> (Self, Self);
}

impl WideMul for u32 {
    fn wmul_parts(self, rhs: Self) -> (Self, Self) {
        let p = u64::from(self) * u64::from(rhs);
        ((p >> 32) as u32, p as u32)
    }
}

impl WideMul for u64 {
    fn wmul_parts(self, rhs: Self) -> (Self, Self) {
        let p = u128::from(self) * u128::from(rhs);
        ((p >> 64) as u64, p as u64)
    }
}

impl WideMul for usize {
    fn wmul_parts(self, rhs: Self) -> (Self, Self) {
        let (hi, lo) = (self as u64).wmul_parts(rhs as u64);
        (hi as usize, lo as usize)
    }
}

fn wmul<T: WideMul>(a: T, b: T) -> (T, T) {
    a.wmul_parts(b)
}

/// Per-type inclusive uniform sampler (the `$large`-width machinery).
trait SampleUniformInt: Sized {
    /// Uniform draw from `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

fn sample_inclusive_from<T: SampleUniformInt, R: RngCore + ?Sized>(
    low: T,
    high: T,
    rng: &mut R,
) -> T {
    T::sample_inclusive(low, high, rng)
}

impl_range_int! {
    u8, u8, u32;
    u16, u16, u32;
    u32, u32, u32;
    u64, u64, u64;
    usize, usize, usize;
    i8, u8, u32;
    i16, u16, u32;
    i32, u32, u32;
    i64, u64, u64;
    isize, usize, usize;
}

macro_rules! impl_range_float {
    ($($t:ty, $bits:ty, $discard:expr, $one_bits:expr);* $(;)?) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let scale = self.end - self.start;
                loop {
                    // Random mantissa onto the [1, 2) window, then an
                    // FMA-shaped rescale — upstream's exact recipe.
                    let value1_2 = <$t>::from_bits(
                        (<$bits as Standard>::sample_standard(rng) >> $discard)
                            | $one_bits,
                    );
                    let value0_1 = value1_2 - 1.0;
                    let res = value0_1 * scale + self.start;
                    if res < self.end {
                        return res;
                    }
                }
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let scale = (hi - lo) / (1.0 - <$t>::EPSILON / 2.0);
                let value1_2 = <$t>::from_bits(
                    (<$bits as Standard>::sample_standard(rng) >> $discard)
                        | $one_bits,
                );
                let value0_1 = value1_2 - 1.0;
                let res = value0_1 * scale + lo;
                if res > hi { hi } else { res }
            }
        }
    )*};
}
impl_range_float! {
    f32, u32, 9u32, 0x3f80_0000u32;
    f64, u64, 12u64, 0x3ff0_0000_0000_0000u64;
}

/// The user-facing random-value interface (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Sample a value from its standard distribution (`[0, 1)` for
    /// floats, uniform over all values for integers).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Sample uniformly from a range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Return `true` with probability `p` (Bernoulli fixed-point
    /// comparison, one `u64` consumed unless `p == 1`).
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} out of range");
        // (p * 2^64) as u64 saturates to u64::MAX at p == 1.0, which
        // upstream treats as "always true" without consuming bits.
        let p_int = (p * 2.0 * (1u64 << 63) as f64) as u64;
        if p_int == u64::MAX {
            return true;
        }
        self.next_u64() < p_int
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a fixed-size seed (subset of
/// `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// The seed byte array type.
    type Seed: Default + AsMut<[u8]>;

    /// Build from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a `u64`, expanded with PCG32 exactly as rand_core 0.6
    /// does, so seeded streams match upstream.
    fn seed_from_u64(mut state: u64) -> Self {
        fn pcg32(state: &mut u64) -> [u8; 4] {
            const MUL: u64 = 6364136223846793005;
            const INC: u64 = 11634580027462260723;
            *state = state.wrapping_mul(MUL).wrapping_add(INC);
            let s = *state;
            let xorshifted = (((s >> 18) ^ s) >> 27) as u32;
            let rot = (s >> 59) as u32;
            xorshifted.rotate_right(rot).to_le_bytes()
        }
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_exact_mut(4) {
            chunk.copy_from_slice(&pcg32(&mut state));
        }
        Self::from_seed(seed)
    }
}

/// Commonly used re-exports, mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 test generator — the widening-multiply range sampler
    /// keys off the *high* bits, so the test RNG needs well-mixed output
    /// (a raw LCG's upper bits correlate across consecutive draws).
    struct Lcg(u64);
    impl RngCore for Lcg {
        fn next_u32(&mut self) -> u32 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u32
        }
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = Lcg(7);
        for _ in 0..1000 {
            let f: f32 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let d: f64 = rng.gen();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Lcg(9);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&y));
            let z = rng.gen_range(5u64..=5);
            assert_eq!(z, 5);
            let w = rng.gen_range(-3i32..=3);
            assert!((-3..=3).contains(&w));
            let b = rng.gen_range(0u8..4);
            assert!(b < 4);
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = Lcg(13);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Lcg(11);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn next_u64_is_low_word_first() {
        struct Fixed(u32);
        impl RngCore for Fixed {
            fn next_u32(&mut self) -> u32 {
                self.0 += 1;
                self.0
            }
        }
        let mut rng = Fixed(0);
        // words 1, 2 -> low = 1, high = 2
        assert_eq!(rng.next_u64(), (2u64 << 32) | 1);
    }

    #[test]
    fn fill_bytes_through_a_reference_reaches_the_override() {
        struct Bulk;
        impl RngCore for Bulk {
            fn next_u32(&mut self) -> u32 {
                0
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                dest.fill(7);
            }
        }
        fn fill_by_value<R: RngCore>(mut rng: R, dest: &mut [u8]) {
            rng.fill_bytes(dest);
        }
        let mut bytes = [0u8; 5];
        fill_by_value(&mut Bulk, &mut bytes);
        assert_eq!(bytes, [7; 5]);
        // the default lays whole words out little-endian
        let (mut bulk, mut words) = (Lcg(1), Lcg(1));
        let mut got = [0u8; 7];
        bulk.fill_bytes(&mut got);
        let want = [
            words.next_u32().to_le_bytes(),
            words.next_u32().to_le_bytes(),
        ]
        .concat();
        assert_eq!(got[..], want[..7]);
    }
}
