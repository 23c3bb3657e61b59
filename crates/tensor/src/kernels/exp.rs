//! One of the two transcendentals the hot kernels spend their time in
//! (the other is GELU's [`tanh`](super::tanh)), owned by the repo: `f32`
//! exp, written out as glibc's `expf` (the algorithm of the ARM
//! optimized-routines `expf`, glibc ≥ 2.28), so softmax, attention and
//! SiLU bits do not depend on which libm a host links.
//!
//! `x · 32/ln 2 = k + r` is reduced in f64 through the `0x1.8p52`
//! shift, `2^(k/32)` comes from a 32-entry table by its low five bits
//! (the rest of `k` is added to the exponent field), and `2^(r/32)` is a
//! cubic in `r`. Both the reduction and the polynomial are fused
//! multiply-adds — the arrangement of the FMA build of glibc that x86-64
//! hosts with FMA and AVX2 select, and which `tests/exp.rs` holds equal
//! to `f32::exp` there. `|x| ≥ 88` and NaN take glibc's branches.
//!
//! [`exp`] is the scalar form; [`exp_slice`] runs the same core over
//! whole chunks of lanes, so its body vectorizes, and sends a chunk that
//! holds a special lane through [`exp`] lane by lane. Every `.exp()` in
//! `matgpt-tensor` and `matgpt-model` is one of the two.

use super::matmul::Avx512;

/// `2^(i/32)` as f64 bits, less `i << 47`: adding `k << 47` for
/// `k ≡ i (mod 32)` puts `k / 32` (rounded down) into the exponent.
pub(crate) const TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `0x1.8p52`: adding it rounds to an integer held in the low mantissa.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// `32 / ln 2` (`0x1.71547652b82fep+5`).
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// glibc's `2^(r/32)` cubic, `c0·r³ + c1·r² + c2·r + 1`, coefficients
/// scaled by `32⁻³`, `32⁻²`, `32⁻¹`.
const C0: f64 = f64::from_bits(0x3ebc6af84b912394);
const C1: f64 = f64::from_bits(0x3f2ebfce50fac4f3);
const C2: f64 = f64::from_bits(0x3f962e42ff0c52d6);

/// `top12(88.0)`: from here up (and for NaN, ±inf) [`exp`] branches.
const SPECIAL_TOP12: u32 = 0x42b;
/// `0x1.62e42ep6` ≈ 88.72, `ln(2^128)` rounded down: above it, `+inf`.
const OVERFLOW: f32 = f32::from_bits(0x42b17217);
/// `-0x1.9fe368p6` ≈ −103.97, `ln(2^-150)`: below it, `+0`.
const UNDERFLOW: f32 = f32::from_bits(0xc2cff1b4);
/// `-0x1.9d1d9ep6` ≈ −103.28, `ln(2^-149)`: below it, the least
/// subnormal (glibc's `__math_may_uflowf`).
const MAY_UNDERFLOW: f32 = f32::from_bits(0xc2ce8ecf);

/// Lanes [`exp_slice`] runs the core over at once.
const CHUNK: usize = 16;

/// Whether `x` is outside the core's range: `|x| ≥ 88`, ±inf or NaN.
#[inline(always)]
fn is_special(x: f32) -> bool {
    (x.to_bits() >> 20) & 0x7ff >= SPECIAL_TOP12
}

/// The core for `|x| < 88`: reduction, table, cubic, all in f64.
#[inline(always)]
fn core(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = C0.mul_add(r, C1);
    let r2 = r * r;
    let y = C2.mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// `e^x`, bit for bit glibc's `expf` on an FMA host.
#[inline]
pub fn exp(x: f32) -> f32 {
    if !is_special(x) {
        return core(x);
    }
    if x == f32::NEG_INFINITY {
        0.0
    } else if (x.to_bits() >> 20) & 0x7ff >= 0x7f8 {
        x + x
    } else if x > OVERFLOW {
        f32::INFINITY
    } else if x < UNDERFLOW {
        0.0
    } else if x < MAY_UNDERFLOW {
        f32::from_bits(1)
    } else {
        core(x)
    }
}

/// [`exp`] of every element, in place, bit for bit: 16 lanes at
/// a time through the core, the tail as one zero-padded chunk, and a
/// chunk with a special lane through [`exp`] lane by lane. The core runs
/// as an AVX-512 body where the host has it — eight f64 lanes a vector,
/// the table held in four registers and read by permutes — and as a
/// portable lane loop elsewhere; the two are the same operations, lane
/// by lane. Built for an AVX-512 host (`target-cpu=native`), the
/// intrinsic body takes about half the portable one's time per element
/// (0.20 against 0.36 µs for 208 lanes on a Xeon with AVX-512).
pub fn exp_slice(xs: &mut [f32]) {
    exp_slice_on(Avx512::detect(), xs);
}

/// [`exp_slice`] through the body `avx512` names (`None`: the portable
/// one), so a test can run the portable body on a host that would never
/// dispatch it.
pub(crate) fn exp_slice_on(avx512: Option<Avx512>, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx512.is_some() {
        // SAFETY: an `Avx512` exists only where avx512f was detected
        return unsafe { exp_slice_avx512(xs) };
    }
    let _ = avx512;
    let mut chunks = xs.chunks_exact_mut(CHUNK);
    for c in &mut chunks {
        exp_chunk(c.try_into().expect("chunks_exact"));
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let mut buf = [0.0f32; CHUNK];
        buf[..rem.len()].copy_from_slice(rem);
        exp_chunk(&mut buf);
        rem.copy_from_slice(&buf[..rem.len()]);
    }
}

/// Whether any lane of a chunk is special.
#[inline(always)]
fn any_special(c: &[f32; CHUNK]) -> bool {
    c.iter().fold(false, |any, &x| any | is_special(x))
}

/// A chunk with a special lane, lane by lane: kept out of line so the
/// vector loop is the core alone.
#[cold]
#[inline(never)]
fn exp_lanes(c: &mut [f32]) {
    for x in c {
        *x = exp(*x);
    }
}

#[inline(always)]
fn exp_chunk(c: &mut [f32; CHUNK]) {
    if any_special(c) {
        exp_lanes(c);
    } else {
        for x in c.iter_mut() {
            *x = core(*x);
        }
    }
}

/// # Safety
/// `avx512f` must have been detected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn exp_slice_avx512(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(CHUNK);
    for c in &mut chunks {
        // SAFETY: the caller detected avx512f
        unsafe { exp_chunk_avx512(c.try_into().expect("chunks_exact")) };
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let mut buf = [0.0f32; CHUNK];
        buf[..rem.len()].copy_from_slice(rem);
        // SAFETY: as above
        unsafe { exp_chunk_avx512(&mut buf) };
        rem.copy_from_slice(&buf[..rem.len()]);
    }
}

/// [`exp_chunk`] in AVX-512: each half of the chunk widened to eight f64
/// lanes, and [`core`]'s operations on them in its order — `fmadd` for
/// each `mul_add`, `fmsub` for the one whose addend is negated, the
/// table entry picked by two `permutex2var`s (entries 0–15 and 16–31 by
/// the low four bits of `k`) and a blend on its fifth.
///
/// # Safety
/// `avx512f` must have been detected.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn exp_chunk_avx512(c: &mut [f32; CHUNK]) {
    use std::arch::x86_64::*;
    if any_special(c) {
        exp_lanes(c);
        return;
    }
    // SAFETY: `c` holds 16 f32, `TABLE` 32 u64 (the same bits as f64);
    // every load and store below stays inside them
    unsafe {
        let table = TABLE.as_ptr().cast::<f64>();
        let tab = [0, 8, 16, 24].map(|i| _mm512_loadu_pd(table.add(i)));
        let half = |x: __m256| {
            let xd = _mm512_cvtps_pd(x);
            let kd = _mm512_fmadd_pd(_mm512_set1_pd(INV_LN2_N), xd, _mm512_set1_pd(SHIFT));
            let ki = _mm512_castpd_si512(kd);
            let kd = _mm512_sub_pd(kd, _mm512_set1_pd(SHIFT));
            let r = _mm512_fmsub_pd(_mm512_set1_pd(INV_LN2_N), xd, kd);
            let low = _mm512_permutex2var_pd(tab[0], ki, tab[1]);
            let high = _mm512_permutex2var_pd(tab[2], ki, tab[3]);
            let upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
            let t = _mm512_castpd_si512(_mm512_mask_blend_pd(upper, low, high));
            let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
            let z = _mm512_fmadd_pd(_mm512_set1_pd(C0), r, _mm512_set1_pd(C1));
            let r2 = _mm512_mul_pd(r, r);
            let y = _mm512_fmadd_pd(_mm512_set1_pd(C2), r, _mm512_set1_pd(1.0));
            let y = _mm512_fmadd_pd(z, r2, y);
            _mm512_cvtpd_ps(_mm512_mul_pd(y, s))
        };
        let p = c.as_mut_ptr();
        let lo = half(_mm256_loadu_ps(p));
        let hi = half(_mm256_loadu_ps(p.add(8)));
        _mm256_storeu_ps(p, lo);
        _mm256_storeu_ps(p.add(8), hi);
    }
}

#[cfg(test)]
mod tests {
    use super::super::host_libm::{is_glibc_fma_build, ulp_distance};
    use super::*;

    /// `(hi + lo)^32` in double-double: five squarings, each product's
    /// rounding error recovered exactly by a fused multiply-add.
    fn pow32(hi: f64, lo: f64) -> (f64, f64) {
        (0..5).fold((hi, lo), |(h, l), _| {
            let p = h * h;
            let e = h.mul_add(h, -p) + 2.0 * h * l;
            let s = p + e;
            (s, e - (s - p))
        })
    }

    #[test]
    fn table_is_two_to_the_i_over_32_rounded_to_nearest() {
        // entry i, as a double s, is the nearest double to 2^(i/32)
        // exactly when the two midpoints s ± ulp/2 raised to the 32nd
        // power bracket 2^i; double-double is exact enough to tell
        for (i, &t) in TABLE.iter().enumerate() {
            let s = f64::from_bits(t + ((i as u64) << 47));
            let two_i = f64::from_bits((1023 + i as u64) << 52);
            if i == 0 {
                assert_eq!(s, 1.0);
                continue;
            }
            assert!((1.0..2.0).contains(&s), "entry {i}");
            let half_ulp = f64::EPSILON / 2.0;
            let below = |(h, l): (f64, f64)| (h - two_i) + l < 0.0;
            assert!(below(pow32(s, -half_ulp)), "entry {i} rounds too high");
            assert!(!below(pow32(s, half_ulp)), "entry {i} rounds too low");
        }
    }

    #[test]
    fn within_one_ulp_of_an_f64_oracle() {
        // a prime stride over all 2^32 patterns, every finite result
        let mut bits = 0u32;
        for _ in 0..1 << 20 {
            bits = bits.wrapping_add(4093);
            let x = f32::from_bits(bits);
            let got = exp(x);
            let want = f64::from(x).exp() as f32;
            if x.is_nan() {
                assert!(got.is_nan());
            } else {
                assert!(ulp_distance(got, want) <= 1, "{x:e}: {got:e} vs {want:e}");
            }
        }
    }

    #[test]
    fn special_inputs_take_glibcs_branches() {
        assert_eq!(exp(0.0).to_bits(), 1f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1f32.to_bits());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(OVERFLOW).to_bits(), 0x7f7fff84);
        assert_eq!(exp(f32::from_bits(OVERFLOW.to_bits() + 1)), f32::INFINITY);
        assert_eq!(exp(UNDERFLOW).to_bits(), 1);
        assert_eq!(exp(f32::from_bits(UNDERFLOW.to_bits() + 1)).to_bits(), 0);
        assert_eq!(exp(MAY_UNDERFLOW).to_bits(), 1);
        assert_eq!(exp(-88.0), f64::from(-88.0f32).exp() as f32);
        // results in the subnormal range
        for x in [-87.5f32, -90.0, -95.5, -100.0, -103.0] {
            let got = exp(x);
            assert!(got < f32::MIN_POSITIVE && got > 0.0, "{x}");
            assert!(ulp_distance(got, f64::from(x).exp() as f32) <= 1, "{x}");
        }
    }

    #[test]
    fn slice_equals_scalar_on_tails_and_mixed_chunks() {
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            88.0,
            OVERFLOW,
            -100.0,
            UNDERFLOW,
            MAY_UNDERFLOW,
            -200.0,
        ];
        for len in [0usize, 1, 5, 15, 16, 17, 31, 32, 33, 100] {
            for stride in [1usize, 3, 16, 1000] {
                let xs: Vec<f32> = (0..len)
                    .map(|i| {
                        if i % stride == stride - 1 {
                            specials[i % specials.len()]
                        } else {
                            (i as f32 * 0.37).sin() * 20.0
                        }
                    })
                    .collect();
                // the portable body, and the AVX-512 one where the host
                // has it
                for body in [None, Avx512::detect()] {
                    let mut got = xs.clone();
                    exp_slice_on(body, &mut got);
                    for (x, g) in xs.iter().zip(&got) {
                        assert_eq!(g.to_bits(), exp(*x).to_bits(), "len {len} x {x}");
                    }
                }
            }
        }
    }

    /// Every f32 against the host's `f32::exp`: run with `--ignored` in
    /// release. It holds where the host libm is glibc's FMA build, which
    /// x86-64 glibc picks where FMA and AVX2 are both usable; elsewhere
    /// it says so and checks nothing. About 30 s on two cores.
    #[test]
    #[ignore]
    fn equals_host_expf_on_all_inputs() {
        use rayon::prelude::*;
        if !is_glibc_fma_build() {
            return;
        }
        let bad: u64 = (0..1usize << 16)
            .into_par_iter()
            .map(|hi| {
                let mut xs: Vec<f32> = (0..1u32 << 16)
                    .map(|lo| f32::from_bits((hi as u32) << 16 | lo))
                    .collect();
                let want: Vec<u32> = xs.iter().map(|x| x.exp().to_bits()).collect();
                let scalar: Vec<u32> = xs.iter().map(|&x| exp(x).to_bits()).collect();
                let mut portable = xs.clone();
                exp_slice_on(None, &mut portable);
                exp_slice(&mut xs);
                let slices = xs.iter().zip(&portable);
                slices
                    .zip(scalar)
                    .zip(&want)
                    .filter(|(((g, p), s), &w)| g.to_bits() != w || p.to_bits() != w || *s != w)
                    .count() as u64
            })
            .sum();
        assert_eq!(bad, 0, "inputs where exp differs from f32::exp");
    }
}
