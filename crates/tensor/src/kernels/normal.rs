//! Box–Muller over raw generator words, owned by the repo: the normal
//! draws of [`init::randn`](crate::init::randn), with the `ln`, `sin`
//! and `cos` inside written out as glibc's FMA builds of `logf`, `sinf`
//! and `cosf` (ARM optimized-routines' `e_logf.c`, `s_sinf.c`,
//! `s_cosf.c` over `sincosf.h`, glibc ≥ 2.28, which x86-64 glibc
//! selects where FMA and AVX2 are both usable), so initial weights do
//! not depend on which libm a host links.
//!
//! A pair of words `w₁, w₂` becomes two uniforms exactly as the `rand`
//! shim's `gen_range` makes them (the mantissa onto `[1, 2)`, minus one,
//! times the range's width plus its start): `u₁ ∈ [2⁻²³, 1 − 2⁻²³]` from
//! `gen_range(f32::EPSILON..1.0)` and `u₂ ∈ [0, 1 − 2⁻²³]` from
//! `gen_range(0.0..1.0)`, whose rejection branches no word reaches. Then,
//! all in f32 as the scalar loop had it, `r = √(−2 ln u₁)`,
//! `θ = 2π·u₂`, and the pair is `(r·cos θ·std, r·sin θ·std)`.
//!
//! That is a small, finite domain, and only the paths it reaches are
//! here, in f64 as glibc computes them, with every fused operation of
//! the host build's disassembly a `mul_add`:
//!
//! - `ln`: `logf`'s main path (every positive normal `u₁` but `1`, which
//!   it also gets right): `u₁ = 2^k·z`, `z` near one of 16 table centres
//!   `c`, and `ln u₁ = k·ln 2 + ln c + log1p(z/c − 1)` with a cubic for
//!   the `log1p`.
//! - `sin` and `cos`, one reduction for both: `θ < 2⁻¹²` returns `θ` and
//!   `1`; otherwise `θ = n·π/2 + x` (`n` from a truncating conversion of
//!   `θ·2²⁴·2/π`, as glibc does without round-to-int instructions,
//!   valid below 120), and an odd polynomial in `x` and an even one in
//!   `x²` give both results by `n`'s quadrant. `θ < π/4` — glibc's own
//!   branch below `0.75` — is `n = 0` of the same formula.
//!
//! [`box_muller`] runs the pairs in chunks of 16 with no branch,
//! so its loop vectorizes: the lookup of `logf`'s table is a gather and
//! the `2⁻¹²` case and the quadrant are selects.

/// `logf`'s table: `(1/c, ln c)` for the 16 subintervals of
/// `[0x3f330000, 0x3fb30000)` (as f32 bits) that `z` falls into.
const LN_TABLE: [(f64, f64); 16] = [
    (
        f64::from_bits(0x3ff661ec79f8f3be),
        f64::from_bits(0xbfd57bf7808caade),
    ),
    (
        f64::from_bits(0x3ff571ed4aaf883d),
        f64::from_bits(0xbfd2bef0a7c06ddb),
    ),
    (
        f64::from_bits(0x3ff49539f0f010b0),
        f64::from_bits(0xbfd01eae7f513a67),
    ),
    (
        f64::from_bits(0x3ff3c995b0b80385),
        f64::from_bits(0xbfcb31d8a68224e9),
    ),
    (
        f64::from_bits(0x3ff30d190c8864a5),
        f64::from_bits(0xbfc6574f0ac07758),
    ),
    (
        f64::from_bits(0x3ff25e227b0b8ea0),
        f64::from_bits(0xbfc1aa2bc79c8100),
    ),
    (
        f64::from_bits(0x3ff1bb4a4a1a343f),
        f64::from_bits(0xbfba4e76ce8c0e5e),
    ),
    (
        f64::from_bits(0x3ff12358f08ae5ba),
        f64::from_bits(0xbfb1973c5a611ccc),
    ),
    (
        f64::from_bits(0x3ff0953f419900a7),
        f64::from_bits(0xbfa252f438e10c1e),
    ),
    (1.0, 0.0),
    (
        f64::from_bits(0x3fee608cfd9a47ac),
        f64::from_bits(0x3faaa5aa5df25984),
    ),
    (
        f64::from_bits(0x3feca4b31f026aa0),
        f64::from_bits(0x3fbc5e53aa362eb4),
    ),
    (
        f64::from_bits(0x3feb2036576afce6),
        f64::from_bits(0x3fc526e57720db08),
    ),
    (
        f64::from_bits(0x3fe9c2d163a1aa2d),
        f64::from_bits(0x3fcbc2860d224770),
    ),
    (
        f64::from_bits(0x3fe886e6037841ed),
        f64::from_bits(0x3fd1058bc8a07ee1),
    ),
    (
        f64::from_bits(0x3fe767dcf5534862),
        f64::from_bits(0x3fd4043057b6ee09),
    ),
];
/// f32 bits of the bottom of `logf`'s reduced range, `≈ 0.6992`.
const LN_OFF: u32 = 0x3f33_0000;
/// `ln 2`.
const LN2: f64 = f64::from_bits(0x3fe62e42fefa39ef);
/// `logf`'s `log1p(r) ≈ r + A2·r² + A1·r³ + A0·r⁴`.
const A0: f64 = f64::from_bits(0xbfd00ea348b88334);
const A1: f64 = f64::from_bits(0x3fd5575b0be00b6a);
const A2: f64 = f64::from_bits(0xbfdffffef20a4123);

/// `2/π · 2²⁴`: the quadrant is the conversion of `θ` times this,
/// plus `2²³`, shifted down by 24.
const HPI_INV: f64 = f64::from_bits(0x41645f306dc9c883);
/// `π/2`.
const HPI: f64 = f64::from_bits(0x3ff921fb54442d18);
/// `cos x ≈ C0 + C1·x² + … + C4·x⁸` (`C0 = 1`).
const C1: f64 = f64::from_bits(0xbfdffffffd0c621c);
const C2: f64 = f64::from_bits(0x3fa55553e1068f19);
const C3: f64 = f64::from_bits(0xbf56c087e89a359d);
const C4: f64 = f64::from_bits(0x3ef99343027bf8c3);
/// `sin x ≈ x + S1·x³ + S2·x⁵ + S3·x⁷`.
const S1: f64 = f64::from_bits(0xbfc555545995a603);
const S2: f64 = f64::from_bits(0x3f81107605230bc4);
const S3: f64 = f64::from_bits(0xbf2994eb3774cf24);
/// f32 bits of `2⁻¹²`: below it `sin θ = θ` and `cos θ = 1`.
const SINCOS_TINY: u32 = 0x3980_0000;
/// `1.5 · 2⁵²`: an integer below `2³¹` added to it lands in the low
/// word of the sum's bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// `2π` as the scalar loop rounded it, `2.0 * std::f32::consts::PI`.
const TWO_PI: f32 = 2.0 * std::f32::consts::PI;
/// f32 bits of `1.0`: a mantissa or-ed into it lands in `[1, 2)`.
const ONE_BITS: u32 = 0x3f80_0000;

/// Pairs [`box_muller`] runs at once.
const LANES: usize = 16;

/// `u₁` from a raw word: `gen_range(f32::EPSILON..1.0)`'s arithmetic.
#[inline(always)]
fn open_unit(word: u32) -> f32 {
    let v = f32::from_bits(word >> 9 | ONE_BITS) - 1.0;
    v * (1.0 - f32::EPSILON) + f32::EPSILON
}

/// `u₂` from a raw word: `gen_range(0.0..1.0)`'s arithmetic, where the
/// scale by one and the shift by zero change nothing.
#[inline(always)]
fn unit(word: u32) -> f32 {
    f32::from_bits(word >> 9 | ONE_BITS) - 1.0
}

/// `ln x` for a positive normal `x`, bit for bit glibc's FMA `logf`.
#[inline(always)]
fn ln(x: f32) -> f32 {
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(LN_OFF);
    let (invc, logc) = LN_TABLE[(tmp >> 19) as usize % 16];
    let k = (tmp as i32) >> 23;
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    let r = z.mul_add(invc, -1.0);
    let y0 = f64::from(k).mul_add(LN2, logc);
    let r2 = r * r;
    let y = r.mul_add(A1, A2);
    let y = r2.mul_add(A0, y);
    r2.mul_add(y, r + y0) as f32
}

/// `(sin θ, cos θ)` for `0 ≤ θ < 120`, bit for bit glibc's FMA `sinf`
/// and `cosf`, through one reduction.
#[inline(always)]
fn sin_cos(theta: f32) -> (f32, f32) {
    let t = f64::from(theta);
    // (int32)(t·HPI_INV) for t ≥ 0: the truncated product is exact in
    // f64, and read back through SHIFT rather than an `as` conversion,
    // which would saturate and keep the loop from vectorizing
    let q = ((t * HPI_INV).trunc() + SHIFT).to_bits() as i32;
    let n = q.wrapping_add(0x80_0000) >> 24;
    let x = (-f64::from(n)).mul_add(HPI, t);
    let x2 = x * x;
    // the odd polynomial: glibc's sin for even n (cos for odd n, where
    // it is evaluated on −x and negates exactly)
    let x3 = x2 * x;
    let s1 = x2.mul_add(S3, S2);
    let x5 = x2 * x3;
    let odd = s1.mul_add(x5, x3.mul_add(S1, x));
    // the even one: cos for even n, sin for odd n; the second table's
    // coefficients are the first's negated, so the result negates
    let x4 = x2 * x2;
    let c1 = x2.mul_add(C1, 1.0);
    let c2 = x2.mul_add(C4, C3);
    let x6 = x2 * x4;
    let even = c2.mul_add(x6, x4.mul_add(C2, c1));
    let (sin, cos) = if n & 1 == 0 { (odd, even) } else { (even, odd) };
    let sin = if n & 2 == 0 { sin } else { -sin };
    let cos = if n.wrapping_add(1) & 2 == 0 {
        cos
    } else {
        -cos
    };
    if theta.to_bits() < SINCOS_TINY {
        (theta, 1.0)
    } else {
        (sin as f32, cos as f32)
    }
}

/// One pair: `(r·cos θ·std, r·sin θ·std)` from the words `w₁, w₂`.
#[inline(always)]
fn pair(w1: u32, w2: u32, std: f32) -> (f32, f32) {
    let r = (-2.0 * ln(open_unit(w1))).sqrt();
    let (sin, cos) = sin_cos(TWO_PI * unit(w2));
    (r * cos * std, r * sin * std)
}

#[inline(always)]
fn pairs(words: &[u32; 2 * LANES], std: f32, out: &mut [f32; 2 * LANES]) {
    for (o, w) in out.chunks_exact_mut(2).zip(words.chunks_exact(2)) {
        let (a, b) = pair(w[0], w[1], std);
        o[0] = a;
        o[1] = b;
    }
}

/// Standard normals times `std` into `out`, from `words` taken in pairs
/// (`u₁`, then `u₂`): the cosine draw to `out[2i]`, the sine draw to
/// `out[2i + 1]`, and an odd `out`'s last pair gives only its cosine.
/// Bit for bit what the scalar Box–Muller loop over `gen_range` draws
/// gives on a host whose libm is glibc's FMA build.
///
/// # Panics
/// If `words` is not `out.len()` rounded up to even.
pub fn box_muller(words: &[u32], std: f32, out: &mut [f32]) {
    assert_eq!(
        words.len(),
        out.len().next_multiple_of(2),
        "words per output"
    );
    let full = out.len() / (2 * LANES) * (2 * LANES);
    let (body, tail) = out.split_at_mut(full);
    for (o, w) in body
        .chunks_exact_mut(2 * LANES)
        .zip(words.chunks_exact(2 * LANES))
    {
        pairs(
            w.try_into().expect("chunks_exact"),
            std,
            o.try_into().expect("chunks_exact"),
        );
    }
    if !tail.is_empty() {
        let mut w = [0u32; 2 * LANES];
        let rest = &words[full..];
        w[..rest.len()].copy_from_slice(rest);
        let mut o = [0.0f32; 2 * LANES];
        pairs(&w, std, &mut o);
        tail.copy_from_slice(&o[..tail.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::super::host_libm::{is_glibc_fma_build, is_verified_glibc, ulp_distance};
    use super::*;
    use rand::{Rng, RngCore};

    /// One word for each value `gen_range` can draw: the top 23 bits
    /// are all it reads.
    fn words() -> impl Iterator<Item = u32> {
        (0..1u32 << 23).map(|m| m << 9)
    }

    /// Every `u₁` and `θ` a pair can reach.
    fn reachable() -> impl Iterator<Item = (f32, f32)> {
        words().map(|w| (open_unit(w), TWO_PI * unit(w)))
    }

    /// Serves one word forever.
    struct Word(u32);

    impl RngCore for Word {
        fn next_u32(&mut self) -> u32 {
            self.0
        }
    }

    #[test]
    fn uniforms_are_gen_ranges_draws_and_never_rejected() {
        for w in words() {
            // below one, so gen_range's rejection loop returns at once
            assert!(open_unit(w) < 1.0 && unit(w) < 1.0, "{w:#010x}");
            let u1: f32 = Word(w).gen_range(f32::EPSILON..1.0);
            let u2: f32 = Word(w).gen_range(0.0..1.0);
            assert_eq!(open_unit(w).to_bits(), u1.to_bits(), "{w:#010x}");
            assert_eq!(unit(w).to_bits(), u2.to_bits(), "{w:#010x}");
        }
        assert_eq!(open_unit(0), f32::EPSILON);
        assert_eq!(open_unit(u32::MAX), 1.0 - f32::EPSILON);
        assert_eq!(TWO_PI * unit(u32::MAX), f32::from_bits(0x40c9_0fd9));
    }

    #[test]
    fn within_one_ulp_of_an_f64_oracle_on_every_reachable_input() {
        // measured over all 2^23 u1 and theta: ln, sin and cos each
        // reach 1 ulp of the f64 function rounded to f32, and no more
        let mut worst = [0u32; 3];
        for (u1, theta) in reachable() {
            let (sin, cos) = sin_cos(theta);
            let t = f64::from(theta);
            let d = [
                ulp_distance(ln(u1), f64::from(u1).ln() as f32),
                ulp_distance(sin, t.sin() as f32),
                ulp_distance(cos, t.cos() as f32),
            ];
            assert!(
                d.iter().all(|&d| d <= 1),
                "u1 {u1:e} theta {theta:e}: {d:?}"
            );
            for (w, d) in worst.iter_mut().zip(d) {
                *w = (*w).max(d);
            }
        }
        assert_eq!(worst, [1, 1, 1]);
    }

    #[test]
    fn branch_counts_over_the_reachable_thetas() {
        // 326 thetas below 2^-12 return (theta, 1); the rest reduce, and
        // those below 0.75 (glibc's first branch) get quadrant 0
        let n = |theta: f32| {
            let q = ((f64::from(theta) * HPI_INV).trunc() + SHIFT).to_bits() as i32;
            q.wrapping_add(0x80_0000) >> 24
        };
        let thetas: Vec<f32> = reachable().map(|(_, t)| t).collect();
        let tiny = thetas.iter().filter(|t| t.to_bits() < SINCOS_TINY).count();
        assert_eq!(tiny, 326);
        assert!(thetas.iter().filter(|&&t| t < 0.75).all(|&t| n(t) == 0));
        let quadrants = thetas.iter().fold([0usize; 5], |mut c, &t| {
            c[n(t) as usize] += 1;
            c
        });
        assert!(quadrants.iter().all(|&c| c > 0), "{quadrants:?}");
    }

    #[test]
    fn box_muller_equals_pair_by_pair_on_tails_and_chunks() {
        let all: Vec<u32> = (0..2 * 3 * LANES as u32 + 2)
            .map(|i| i.wrapping_mul(0x9e37_79b9).rotate_left(i % 32))
            .collect();
        for len in (0..=2 * LANES + 3).chain([4 * LANES - 1, 4 * LANES, 6 * LANES + 1]) {
            for std in [1.0f32, 0.02] {
                let words = &all[..len.next_multiple_of(2)];
                let mut got = vec![f32::NAN; len];
                box_muller(words, std, &mut got);
                for (i, g) in got.iter().enumerate() {
                    let (c, s) = pair(words[i & !1], words[i | 1], std);
                    let want = if i % 2 == 0 { c } else { s };
                    assert_eq!(g.to_bits(), want.to_bits(), "len {len} i {i}");
                }
            }
        }
    }

    /// The host's `f32::ln`, `sin` and `cos` on every reachable input,
    /// and on a stride over the whole domains the scalar forms claim
    /// (`ln` on positive normals, `sin_cos` on `[0, 120)`). It holds
    /// where the host libm is glibc's FMA build in a verified release;
    /// elsewhere it says so and checks nothing.
    #[test]
    fn equal_to_host_logf_sinf_cosf() {
        if !(is_verified_glibc() && is_glibc_fma_build()) {
            return;
        }
        let stride = |lo: u32, hi: u32| (lo..hi).step_by(1021).map(f32::from_bits);
        let u1s = reachable().map(|(u1, _)| u1);
        for x in u1s.chain(stride(0x0080_0000, 0x7f80_0000)) {
            assert_eq!(ln(x).to_bits(), x.ln().to_bits(), "ln {x:e}");
        }
        let thetas = reachable().map(|(_, t)| t);
        for t in thetas.chain(stride(0, 0x42f0_0000)) {
            let (sin, cos) = sin_cos(t);
            assert_eq!(sin.to_bits(), t.sin().to_bits(), "sin {t:e}");
            assert_eq!(cos.to_bits(), t.cos().to_bits(), "cos {t:e}");
        }
    }
}
