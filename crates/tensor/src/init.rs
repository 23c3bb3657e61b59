//! Deterministic random initialisation helpers.
//!
//! All randomness in the workspace flows through seedable ChaCha8 RNGs so
//! every experiment is reproducible bit-for-bit across runs. Across hosts
//! too: the normal draws' `ln`, `sin` and `cos` are the repo's own
//! ([`normal`], glibc's FMA `logf`/`sinf`/`cosf` written out), not the
//! host libm's, so a seed gives the same initial weights everywhere
//! (DESIGN.md §6, numerics).

use crate::kernels::normal;
use crate::tensor::Tensor;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Create a seeded RNG. Thin wrapper so downstream crates do not need to
/// depend on `rand_chacha` directly.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Weights [`randn`] draws per call of the generator: 16 KiB of words,
/// which stay in L1 between the generator and the transform.
const CHUNK: usize = 4096;

/// Standard-normal samples via Box-Muller, scaled by `std`: one pair of
/// words per two weights (`2·⌈numel/2⌉` in all), drawn through
/// `fill_bytes` a chunk at a time and turned into weights in place by
/// [`normal::box_muller`]. The same weights, and the same stream
/// position after, as a `gen_range(f32::EPSILON..1.0)`,
/// `gen_range(0.0..1.0)` loop over `(r·cos θ, r·sin θ)` pairs.
pub fn randn<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Tensor {
    let numel: usize = shape.iter().product();
    let mut data = vec![0.0f32; numel];
    let mut bytes = [0u8; 4 * CHUNK];
    let mut words = [0u32; CHUNK];
    for out in data.chunks_mut(CHUNK) {
        let n = out.len().next_multiple_of(2);
        rng.fill_bytes(&mut bytes[..4 * n]);
        for (w, b) in words.iter_mut().zip(bytes.chunks_exact(4)).take(n) {
            *w = u32::from_le_bytes(b.try_into().expect("chunks_exact"));
        }
        normal::box_muller(&words[..n], std, out);
    }
    Tensor::from_vec(shape, data)
}

/// Uniform samples in `[lo, hi)`.
pub fn uniform<R: Rng>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Tensor {
    let numel: usize = shape.iter().product();
    let data = (0..numel).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(shape, data)
}

/// Xavier/Glorot-style initialisation for a `[fan_in, fan_out]` weight.
pub fn xavier<R: Rng>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let std = (2.0 / (fan_in + fan_out) as f32).sqrt();
    randn(&[fan_in, fan_out], std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// The scalar loop [`randn`] replaced, with the host libm's `ln`,
    /// `sin` and `cos`: on glibc's FMA build it draws the same bits.
    fn randn_reference<R: Rng>(numel: usize, std: f32, rng: &mut R) -> Vec<f32> {
        let mut data = Vec::with_capacity(numel);
        while data.len() < numel {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < numel {
                data.push(r * theta.sin() * std);
            }
        }
        data
    }

    /// FNV-1a over the bits of `xs`.
    fn fnv(xs: &[f32]) -> u64 {
        xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            (h ^ u64::from(x.to_bits())).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn randn_draws_the_scalar_loops_bits_and_leaves_the_stream_where_it_did() {
        if !(crate::kernels::host_libm::is_verified_glibc()
            && crate::kernels::host_libm::is_glibc_fma_build())
        {
            return;
        }
        let lens = [
            0usize,
            1,
            2,
            3,
            31,
            4097,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            3 * CHUNK + 5,
        ];
        for seed in [1u64, 7, 23] {
            for std in [1.0f32, 0.02, 0.5] {
                // one stream, tensors drawn back to back, so every start
                // offset within a block comes up
                let (mut fast, mut slow) = (rng(seed), rng(seed));
                for &len in &lens {
                    let got = randn(&[len], std, &mut fast);
                    let want = randn_reference(len, std, &mut slow);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(got.data()),
                        bits(&want),
                        "seed {seed} std {std} len {len}"
                    );
                    assert_eq!(fast.get_word_pos(), slow.get_word_pos());
                    assert_eq!(fast.next_u32(), slow.next_u32());
                }
            }
        }
    }

    #[test]
    fn initial_weights_are_pinned() {
        // FNV-1a digests of randn's output, and the generator's next word
        // after it, recorded from the scalar loop over the host libm
        // (glibc 2.36's FMA build); they hold on every host now
        for (seed, shape, std, digest, next) in [
            (
                1u64,
                &[0usize][..],
                1.0f32,
                0xcbf2_9ce4_8422_2325u64,
                0x8ca4_0db1u32,
            ),
            (1, &[1], 1.0, 0xd45b_4fd0_b9d2_66a8, 0xfc0e_8e6b),
            (2, &[3], 0.5, 0xfced_2001_bd0d_ed22, 0x0843_4c19),
            (3, &[31], 0.02, 0x6a00_50fc_a122_ce7b, 0x884b_d677),
            (5, &[4097], 0.3, 0x1c0b_a7c3_789d_1d90, 0x70e3_9ce2),
            (7, &[64, 65], 1.0, 0x0bfa_c92d_89c2_c51e, 0x502e_36a6),
        ] {
            let mut r = rng(seed);
            let t = randn(shape, std, &mut r);
            assert_eq!(fnv(t.data()), digest, "seed {seed} shape {shape:?}");
            assert_eq!(r.next_u32(), next, "seed {seed} shape {shape:?}");
        }
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let a = randn(&[100], 1.0, &mut rng(42));
        let b = randn(&[100], 1.0, &mut rng(42));
        let c = randn(&[100], 1.0, &mut rng(43));
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn randn_moments_are_plausible() {
        let t = randn(&[10_000], 1.0, &mut rng(7));
        let mean: f32 = t.data().iter().sum::<f32>() / t.numel() as f32;
        let var: f32 = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.numel() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = uniform(&[1000], -0.5, 0.5, &mut rng(1));
        assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn xavier_scale_shrinks_with_fan() {
        let small = xavier(4, 4, &mut rng(3));
        let large = xavier(1024, 1024, &mut rng(3));
        let v = |t: &Tensor| t.sq_norm() / t.numel() as f32;
        assert!(v(&large) < v(&small));
    }
}
