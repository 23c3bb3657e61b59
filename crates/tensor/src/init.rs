//! Deterministic random initialisation helpers.
//!
//! All randomness in the workspace flows through seedable ChaCha8 RNGs so
//! every experiment is reproducible bit-for-bit across runs. Across hosts
//! the draws are the same, but the normal draws below pass through the
//! host libm's `ln`, `sin` and `cos` (DESIGN.md §5, numerics), so weights
//! agree bit for bit only where those do.

use crate::tensor::Tensor;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Create a seeded RNG. Thin wrapper so downstream crates do not need to
/// depend on `rand_chacha` directly.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Standard-normal samples via Box-Muller, scaled by `std`.
pub fn randn<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Tensor {
    let numel: usize = shape.iter().product();
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
