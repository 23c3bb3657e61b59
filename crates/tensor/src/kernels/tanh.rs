//! `f32` tanh, owned by the repo: glibc's `tanhf` written out — Sun's
//! `s_tanhf.c` over its `s_expm1f.c`, every operation in f32 and none
//! contracted into a fused multiply-add, as glibc builds them — so GELU
//! bits do not depend on which libm a host links.
//!
//! For `1 ≤ |x| < 22`, `tanh |x| = 1 − 2 / (expm1(2|x|) + 2)`; below 1,
//! `−t / (t + 2)` with `t = expm1(−2|x|)`; the sign goes back on last.
//! `expm1` reduces its argument to `r = x − k·ln 2` in two parts, carrying
//! the rounding error `c` of the reduction, approximates `e^r − 1` by a
//! rational form in `r²/2` whose polynomial has degree 5, and applies
//! `2^k` by adding `k` to the exponent field, on one of four formulas
//! picked by `k`. `|x| < 2⁻⁵⁵` (±0 too), `|x| ≥ 22` and non-finite `x`
//! take `tanhf`'s own branches.
//!
//! `tanh`'s arguments to `expm1` are `2|x| ∈ [2, 44)` or `−2|x| ∈ (−2, 0)`,
//! so `expm1f`'s `k = 1` formula (`0.35 < x < 1.04`) and its branches
//! for `|x| ≥ 27·ln 2` below zero, overflow and non-finite input never
//! run, and are left out.
//!
//! [`tanh`] is the scalar form, the branches as glibc takes them;
//! [`tanh_slice`] computes every branch's result in every lane and
//! selects one, so its loop has no branch. It runs an AVX-512 body where
//! the host has it — two 16-lane vectors a step, interleaved, since one
//! vector's chain of dependent operations (two divisions among them)
//! would leave the core waiting — and a portable lane loop elsewhere,
//! which the compiler vectorizes. The two are the same f32 operations
//! lane by lane: adds, multiplies, subtractions and divisions, none
//! fused; `roundscale` for `trunc`, integer ops on the bits for the
//! exponent tricks, and masks for the selects. Every `tanh` in
//! `matgpt-tensor` and `matgpt-model` is one of the two forms.

use super::matmul::Avx512;

/// `ln 2`'s leading bits: `k · LN2_HI` is exact for the `k` here.
const LN2_HI: f32 = f32::from_bits(0x3f317180);
/// `ln 2 − LN2_HI`.
const LN2_LO: f32 = f32::from_bits(0x3717f7d1);
/// `1 / ln 2`.
const INV_LN2: f32 = f32::from_bits(0x3fb8aa3b);
/// `expm1f`'s rational-form polynomial in `r²/2`, lowest degree first.
const Q1: f32 = f32::from_bits(0xbd088889);
const Q2: f32 = f32::from_bits(0x3ad00d01);
const Q3: f32 = f32::from_bits(0xb8a670cd);
const Q4: f32 = f32::from_bits(0x36867e54);
const Q5: f32 = f32::from_bits(0xb457edbb);

/// `|x|` bits from here up: non-finite.
const NON_FINITE: u32 = 0x7f80_0000;
/// `|x| ≥ 22`: `tanh` is `±(1 − 1e-30)`, which rounds to `±1`.
const SATURATED: u32 = 0x41b0_0000;
/// `|x| ≥ 1`: `tanh` goes through `expm1(2|x|)`.
const ONE: u32 = 0x3f80_0000;
/// `|x| < 2⁻⁵⁵`: `tanh x = x · (1 + x)`.
const TINY: u32 = 0x2400_0000;
/// `expm1`: above `ln 2 / 2` the argument is reduced …
const REDUCE: u32 = 0x3eb1_7218;
/// … by one `ln 2` below `1.5 · ln 2`, by `k = ⌊x / ln 2⌉` from there;
const ONE_STEP: u32 = 0x3f85_1592;
/// … and below `2⁻²⁵` `expm1 x = x`.
const EXPM1_TINY: u32 = 0x3300_0000;
/// `1.5 · 2²³`: an integer below `2²²` added to it lands in the low
/// mantissa bits.
const ROUND: f32 = 12_582_912.0;

/// `tanh x`, bit for bit glibc's `tanhf`.
pub fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let neg = x.to_bits() >> 31 != 0;
    if ix >= NON_FINITE {
        return if neg { 1.0 / x - 1.0 } else { 1.0 / x + 1.0 };
    }
    let z = if ix >= SATURATED {
        1.0
    } else if ix == 0 {
        return x;
    } else if ix < TINY {
        return x * (1.0 + x);
    } else {
        let a = f32::from_bits(ix);
        if ix >= ONE {
            1.0 - 2.0 / (expm1(a + a) + 2.0)
        } else {
            let t = expm1(-2.0 * a);
            -t / (t + 2.0)
        }
    };
    if neg {
        -z
    } else {
        z
    }
}

/// `e^x − 1` as glibc's `expm1f` computes it, for the arguments [`tanh`]
/// passes: `x ∈ (−2, 0) ∪ [2, 44)`.
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let (x, c, k) = if hx > REDUCE {
        let (hi, lo, k) = if hx < ONE_STEP {
            (x + LN2_HI, -LN2_LO, -1)
        } else {
            let k = (INV_LN2 * x + 0.5f32.copysign(x)) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < EXPM1_TINY {
        return x;
    } else {
        (x, 0.0, 0)
    };
    let e = rational(x);
    let hxs = x * (0.5 * x);
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23));
    match k {
        -1 => 0.5 * (x - e) - 0.5,
        2..=22 => scale(f32::from_bits((0x3f80_0000 - (0x100_0000 >> k)) as u32) - (e - x)),
        23..=56 => scale(x - (e + f32::from_bits(((0x7f - k) as u32) << 23)) + 1.0),
        _ => scale(1.0 - (e - x)) - 1.0,
    }
}

/// `expm1f`'s correction `e` for the reduced `x`, before the reduction
/// error is folded in.
#[inline(always)]
fn rational(x: f32) -> f32 {
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    hxs * ((r1 - t) / (6.0 - x * t))
}

/// [`tanh`] of every element, in place, bit for bit: each lane computes
/// every branch's result and keeps the one [`tanh`] would return. The
/// AVX-512 body takes 32 lanes a step and the tail as one zero-padded
/// step, and skips a branch's formula where no lane of a vector takes
/// it; the portable body is a lane loop the compiler vectorizes. On
/// 44 032 GELU arguments, one pinned core of a 2-vCPU AVX-512 Xeon, the
/// AVX-512 body took 1.5–1.9 ns per element against the portable one's
/// 5.0–5.3.
pub fn tanh_slice(xs: &mut [f32]) {
    tanh_slice_on(Avx512::detect(), xs);
}

/// [`tanh_slice`] through the body `avx512` names (`None`: the portable
/// one), so a test can run the portable body on a host that would never
/// dispatch it.
pub(crate) fn tanh_slice_on(avx512: Option<Avx512>, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx512.is_some() {
        // SAFETY: an `Avx512` exists only where avx512f was detected
        return unsafe { tanh_slice_avx512(xs) };
    }
    let _ = avx512;
    for x in xs {
        *x = tanh_lane(*x);
    }
}

/// [`tanh`] with every branch computed and one selected.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let neg = x.to_bits() >> 31 != 0;
    let a = f32::from_bits(ix);
    let big = ix >= ONE;
    let t = expm1_lane(if big { a + a } else { -2.0 * a });
    // `1 − 2 / (t + 2)` and `−t / (t + 2)` share their one division
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if ix >= SATURATED {
        1.0
    } else if big {
        1.0 - q
    } else {
        q
    };
    let z = if neg { -z } else { z };
    // ±0 is its own `x · (1 + x)`
    let z = if ix < TINY { x * (1.0 + x) } else { z };
    // ±inf has saturated to `1/x ± 1 = ±1` already; NaN comes back
    // quieted, as `1/x ± 1` returns it
    if ix > NON_FINITE {
        x + x
    } else {
        z
    }
}

/// [`expm1`] with every branch computed and one selected; the shifts
/// and adds wrap, since a lane's unused branches may see any `k`.
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    // `k` truncated, read back from the low mantissa bits after adding
    // `1.5 · 2²³` (exact for an integer this small), since a saturating
    // `as i32` would not vectorize
    let t = (INV_LN2 * x + 0.5f32.copysign(x)).trunc();
    let kn = ((t + ROUND).to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let one_step = hx < ONE_STEP;
    let hi = if one_step { x + LN2_HI } else { x - t * LN2_HI };
    let lo = if one_step { -LN2_LO } else { t * LN2_LO };
    let reduced = hx > REDUCE;
    let k = if !reduced {
        0
    } else if one_step {
        -1
    } else {
        kn
    };
    let r = hi - lo;
    let c = (hi - r) - lo;
    let (x, c) = if reduced { (r, c) } else { (x, 0.0) };
    let e = rational(x);
    let hxs = x * (0.5 * x);
    let zero = x - (x * e - hxs);
    let e = (x * (e - c) - c) - hxs;
    let minus_one = 0.5 * (x - e) - 0.5;
    let kb = (k as u32).wrapping_shl(23);
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add(kb));
    let below_23 = f32::from_bits(0x3f80_0000 - 0x100_0000u32.wrapping_shr(k as u32));
    let below_23 = scale(below_23 - (e - x));
    let to_56 = f32::from_bits(0x7fu32.wrapping_sub(k as u32).wrapping_shl(23));
    let to_56 = scale(x - (e + to_56) + 1.0);
    let far = scale(1.0 - (e - x)) - 1.0;
    let y = if k == 0 {
        zero
    } else if k == -1 {
        minus_one
    } else if (2..=22).contains(&k) {
        below_23
    } else if (23..=56).contains(&k) {
        to_56
    } else {
        far
    };
    if hx < EXPM1_TINY {
        x
    } else {
        y
    }
}

/// Lanes one step of [`tanh_slice_avx512`] takes: two vectors.
#[cfg(target_arch = "x86_64")]
const CHUNK: usize = 32;

/// # Safety
/// `avx512f` must have been detected.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tanh_slice_avx512(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(CHUNK);
    for c in &mut chunks {
        tanh_chunk_avx512(c.try_into().expect("chunks_exact"));
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let mut buf = [0.0f32; CHUNK];
        buf[..rem.len()].copy_from_slice(rem);
        tanh_chunk_avx512(&mut buf);
        rem.copy_from_slice(&buf[..rem.len()]);
    }
}

/// [`tanh_lane`] on the two vectors of a chunk: one inlined
/// [`tanh_avx512`] each, independent work the core runs side by side.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
fn tanh_chunk_avx512(c: &mut [f32; CHUNK]) {
    use std::arch::x86_64::*;
    let p = c.as_mut_ptr();
    // SAFETY: `c` holds 32 f32; the loads and stores cover 0..16 and
    // 16..32
    unsafe {
        let [x0, x1] = [p, p.add(16)].map(|p| _mm512_loadu_ps(p));
        let (y0, y1) = (tanh_avx512(x0), tanh_avx512(x1));
        _mm512_storeu_ps(p, y0);
        _mm512_storeu_ps(p.add(16), y1);
    }
}

/// [`tanh_lane`] on sixteen lanes, its operations in its order.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
fn tanh_avx512(x: std::arch::x86_64::__m512) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    let f = _mm512_set1_ps;
    let u = |c: u32| _mm512_set1_epi32(c as i32);
    let xi = _mm512_castps_si512(x);
    let ix = _mm512_and_si512(xi, u(0x7fff_ffff));
    let sign = _mm512_and_si512(xi, u(0x8000_0000));
    let a = _mm512_castsi512_ps(ix);
    let big = _mm512_cmpge_epu32_mask(ix, u(ONE));
    let arg = _mm512_mask_blend_ps(big, _mm512_mul_ps(f(-2.0), a), _mm512_add_ps(a, a));
    let t = expm1_avx512(arg);
    let minus_t = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(t), u(0x8000_0000)));
    let q = _mm512_div_ps(
        _mm512_mask_blend_ps(big, minus_t, f(2.0)),
        _mm512_add_ps(t, f(2.0)),
    );
    let z = _mm512_mask_blend_ps(big, q, _mm512_sub_ps(f(1.0), q));
    let z = _mm512_mask_blend_ps(_mm512_cmpge_epu32_mask(ix, u(SATURATED)), z, f(1.0));
    let z = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(z), sign));
    let tiny = _mm512_mul_ps(x, _mm512_add_ps(f(1.0), x));
    let z = _mm512_mask_blend_ps(_mm512_cmplt_epu32_mask(ix, u(TINY)), z, tiny);
    let nan = _mm512_cmpgt_epu32_mask(ix, u(NON_FINITE));
    _mm512_mask_blend_ps(nan, z, _mm512_add_ps(x, x))
}

/// [`expm1_lane`] on sixteen lanes, its operations in its order. Shifts
/// by a lane's `k` differ from `wrapping_shr` only where `k` is outside
/// `2..=22`, in lanes whose result is not selected.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
fn expm1_avx512(x: std::arch::x86_64::__m512) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    let f = _mm512_set1_ps;
    let u = |c: u32| _mm512_set1_epi32(c as i32);
    let (ps, si) = (_mm512_castsi512_ps, _mm512_castps_si512);
    let xi = si(x);
    let hx = _mm512_and_si512(xi, u(0x7fff_ffff));
    let one_step = _mm512_cmplt_epu32_mask(hx, u(ONE_STEP));
    let reduced = _mm512_cmpgt_epu32_mask(hx, u(REDUCE));
    let (mut hi, mut lo) = (_mm512_add_ps(x, f(LN2_HI)), f(-LN2_LO));
    let mut k = _mm512_maskz_mov_epi32(reduced, u(u32::MAX));
    if one_step != 0xffff {
        let half = ps(_mm512_or_si512(
            u(0.5f32.to_bits()),
            _mm512_and_si512(xi, u(0x8000_0000)),
        ));
        let t = _mm512_add_ps(_mm512_mul_ps(f(INV_LN2), x), half);
        let t = _mm512_roundscale_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(t);
        let kn = _mm512_sub_epi32(si(_mm512_add_ps(t, f(ROUND))), u(ROUND.to_bits()));
        let far = !one_step;
        hi = _mm512_mask_mov_ps(hi, far, _mm512_sub_ps(x, _mm512_mul_ps(t, f(LN2_HI))));
        lo = _mm512_mask_mov_ps(lo, far, _mm512_mul_ps(t, f(LN2_LO)));
        k = _mm512_mask_mov_epi32(k, reduced & far, kn);
    }
    let r = _mm512_sub_ps(hi, lo);
    let c = _mm512_sub_ps(_mm512_sub_ps(hi, r), lo);
    let x = _mm512_mask_blend_ps(reduced, x, r);
    let c = _mm512_maskz_mov_ps(reduced, c);
    let e = rational_avx512(x);
    let hxs = _mm512_mul_ps(x, _mm512_mul_ps(f(0.5), x));
    // each branch's formula, where some lane takes it
    let mut y = x;
    let zero = _mm512_cmpeq_epi32_mask(k, u(0));
    if zero != 0 {
        let v = _mm512_sub_ps(x, _mm512_sub_ps(_mm512_mul_ps(x, e), hxs));
        y = _mm512_mask_mov_ps(y, zero, v);
    }
    let e = _mm512_sub_ps(_mm512_sub_ps(_mm512_mul_ps(x, _mm512_sub_ps(e, c)), c), hxs);
    let minus_one = _mm512_cmpeq_epi32_mask(k, u(u32::MAX));
    if minus_one != 0 {
        let v = _mm512_sub_ps(_mm512_mul_ps(f(0.5), _mm512_sub_ps(x, e)), f(0.5));
        y = _mm512_mask_mov_ps(y, minus_one, v);
    }
    let kb = _mm512_slli_epi32::<23>(k);
    let scale = |y: __m512| ps(_mm512_add_epi32(si(y), kb));
    // `k` in `lo..=hi`, as one unsigned compare of `k − lo`
    let within = |lo: u32, hi: u32| _mm512_cmple_epu32_mask(_mm512_sub_epi32(k, u(lo)), u(hi - lo));
    let below_23 = within(2, 22);
    if below_23 != 0 {
        let v = _mm512_sub_epi32(u(0x3f80_0000), _mm512_srlv_epi32(u(0x100_0000), k));
        let v = scale(_mm512_sub_ps(ps(v), _mm512_sub_ps(e, x)));
        y = _mm512_mask_mov_ps(y, below_23, v);
    }
    let to_56 = within(23, 56);
    if to_56 != 0 {
        let v = ps(_mm512_slli_epi32::<23>(_mm512_sub_epi32(u(0x7f), k)));
        let v = scale(_mm512_add_ps(_mm512_sub_ps(x, _mm512_add_ps(e, v)), f(1.0)));
        y = _mm512_mask_mov_ps(y, to_56, v);
    }
    let far = !(zero | minus_one | below_23 | to_56);
    if far != 0 {
        let v = _mm512_sub_ps(scale(_mm512_sub_ps(f(1.0), _mm512_sub_ps(e, x))), f(1.0));
        y = _mm512_mask_mov_ps(y, far, v);
    }
    _mm512_mask_blend_ps(_mm512_cmplt_epu32_mask(hx, u(EXPM1_TINY)), y, x)
}

/// [`rational`] on sixteen lanes, its operations in its order.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
fn rational_avx512(x: std::arch::x86_64::__m512) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    let f = _mm512_set1_ps;
    let (add, mul) = (_mm512_add_ps, _mm512_mul_ps);
    let hfx = mul(f(0.5), x);
    let hxs = mul(x, hfx);
    let p = add(f(Q4), mul(hxs, f(Q5)));
    let p = add(f(Q3), mul(hxs, p));
    let p = add(f(Q2), mul(hxs, p));
    let p = add(f(Q1), mul(hxs, p));
    let r1 = add(f(1.0), mul(hxs, p));
    let t = _mm512_sub_ps(f(3.0), mul(r1, hfx));
    mul(
        hxs,
        _mm512_div_ps(_mm512_sub_ps(r1, t), _mm512_sub_ps(f(6.0), mul(x, t))),
    )
}

#[cfg(test)]
mod tests {
    use super::super::host_libm::{is_verified_glibc, ulp_distance};
    use super::*;

    /// The inputs at which [`tanh`] or `expm1` change branch, and their
    /// neighbours.
    fn edges() -> Vec<f32> {
        let mut xs = vec![f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for bits in [SATURATED, ONE, TINY, 0, 1] {
            for b in [bits.saturating_sub(1), bits, bits + 1] {
                xs.push(f32::from_bits(b));
                xs.push(-f32::from_bits(b));
            }
        }
        // where expm1's argument ±2|x| crosses its reduction edges
        for arg in [REDUCE, ONE_STEP, EXPM1_TINY] {
            let half = f32::from_bits(arg) / 2.0;
            for b in [half.to_bits() - 1, half.to_bits(), half.to_bits() + 1] {
                xs.push(f32::from_bits(b));
                xs.push(-f32::from_bits(b));
            }
        }
        // k = 22, 23, 56, 57 at the positive argument 2|x|
        for k in [22.5f32, 23.5, 56.5, 57.5] {
            xs.push(k * std::f32::consts::LN_2 / 2.0);
        }
        xs
    }

    #[test]
    fn within_two_ulp_of_an_f64_oracle() {
        // a prime stride over all 2^32 patterns; the largest distance it
        // meets is 2 ulp (Sun's tanhf is not correctly rounded)
        let mut bits = 0u32;
        let mut worst = 0;
        for _ in 0..1 << 20 {
            bits = bits.wrapping_add(4093);
            let x = f32::from_bits(bits);
            let got = tanh(x);
            if x.is_nan() {
                assert!(got.is_nan());
                continue;
            }
            let want = f64::from(x).tanh() as f32;
            let d = ulp_distance(got, want);
            assert!(d <= 2, "{x:e}: {got:e} vs {want:e}");
            worst = worst.max(d);
        }
        assert_eq!(worst, 2);
    }

    #[test]
    fn edge_inputs_take_tanhfs_branches() {
        assert_eq!(tanh(0.0).to_bits(), 0);
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert_eq!(tanh(22.0), 1.0);
        assert_eq!(tanh(-22.0), -1.0);
        let tiny = f32::from_bits(TINY - 1);
        assert_eq!(tanh(tiny), tiny);
        assert_eq!(tanh(f32::from_bits(1)), f32::from_bits(1));
        for x in edges() {
            if !x.is_nan() {
                let want = f64::from(x).tanh() as f32;
                assert!(ulp_distance(tanh(x), want) <= 2, "{x:e}");
            }
        }
    }

    #[test]
    fn slice_equals_scalar_on_tails_and_mixed_chunks() {
        // the portable body, and the AVX-512 one where the host has it
        let bodies = [None, Avx512::detect()];
        let edges = edges();
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 47, 64, 100] {
            for stride in [1usize, 3, 16, 1000] {
                let xs: Vec<f32> = (0..len)
                    .map(|i| {
                        if i % stride == stride - 1 {
                            edges[i % edges.len()]
                        } else {
                            (i as f32 * 0.37).sin() * 12.0
                        }
                    })
                    .collect();
                for body in bodies {
                    let mut got = xs.clone();
                    tanh_slice_on(body, &mut got);
                    for (x, g) in xs.iter().zip(&got) {
                        assert_eq!(g.to_bits(), tanh(*x).to_bits(), "len {len} x {x:e}");
                    }
                }
            }
        }
        for body in bodies {
            let mut got = edges.clone();
            tanh_slice_on(body, &mut got);
            for (x, g) in edges.iter().zip(&got) {
                assert_eq!(g.to_bits(), tanh(*x).to_bits(), "{x:e}");
            }
        }
    }

    /// Every f32 against the host's `f32::tanh`, through the scalar form
    /// and both slice bodies (the AVX-512 one where the host has it): run
    /// with `--ignored` in release. It holds where the host libm is a
    /// glibc in `VERIFIED_GLIBC`; elsewhere it says so and checks nothing.
    #[test]
    #[ignore]
    fn equals_host_tanhf_on_all_inputs() {
        use rayon::prelude::*;
        if !is_verified_glibc() {
            return;
        }
        let bad: u64 = (0..1usize << 16)
            .into_par_iter()
            .map(|hi| {
                let mut xs: Vec<f32> = (0..1u32 << 16)
                    .map(|lo| f32::from_bits((hi as u32) << 16 | lo))
                    .collect();
                let want: Vec<u32> = xs.iter().map(|x| x.tanh().to_bits()).collect();
                let scalar: Vec<u32> = xs.iter().map(|&x| tanh(x).to_bits()).collect();
                let mut portable = xs.clone();
                tanh_slice_on(None, &mut portable);
                tanh_slice(&mut xs);
                let slices = xs.iter().zip(&portable);
                slices
                    .zip(scalar)
                    .zip(&want)
                    .filter(|(((g, p), s), &w)| g.to_bits() != w || p.to_bits() != w || *s != w)
                    .count() as u64
            })
            .sum();
        assert_eq!(bad, 0, "inputs where tanh differs from f32::tanh");
    }
}
