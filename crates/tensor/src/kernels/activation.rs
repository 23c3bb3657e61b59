//! Pointwise activation functions and their derivatives.
//!
//! GELU (tanh approximation) is the GPT-NeoX MLP activation; SiLU is the
//! gate activation inside LLaMA's SwiGLU block — exactly the two MLP
//! parameterisations the paper contrasts in Fig. 2. Their
//! transcendentals are the repo's own: SiLU's `e^-x` is
//! [`exp`](super::exp), GELU's tanh is [`tanh`](super::tanh). The scalar
//! forms are the reference; each slice form stages the transcendental's
//! argument for one vectorized call and then combines in the scalar
//! form's operation order, so the two agree bit for bit.

use super::exp::{exp, exp_slice};
pub use super::tanh::tanh;
use super::tanh::tanh_slice;

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;

/// `√(2/π)·(x + 0.044715·x³)`, the argument of GELU's tanh.
#[inline(always)]
fn gelu_arg(x: f32) -> f32 {
    SQRT_2_OVER_PI * (x + GELU_C * x * x * x)
}

/// GELU, tanh approximation (as used by GPT-NeoX / Megatron).
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh(gelu_arg(x)))
}

/// Derivative of [`gelu`] with respect to its input.
pub fn gelu_grad(x: f32) -> f32 {
    gelu_grad_from(x, tanh(gelu_arg(x)))
}

/// [`gelu_grad`] given `t = tanh(gelu_arg(x))`.
#[inline(always)]
fn gelu_grad_from(x: f32, t: f32) -> f32 {
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x)
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// SiLU (a.k.a. swish): `x * sigmoid(x)`.
pub fn silu(x: f32) -> f32 {
    x * sigmoid(x)
}

/// Derivative of [`silu`].
pub fn silu_grad(x: f32) -> f32 {
    let s = sigmoid(x);
    s * (1.0 + x * (1.0 - s))
}

/// Lanes [`silu_in_place`] stages the argument of its exp in.
const STAGE: usize = 64;

/// Lanes [`gelu_in_place`] stages the argument of its tanh in: 256 took
/// it from 2.5 to 1.8 ns per element on one AVX-512 core, where 64 left
/// a [`tanh_slice`] call's set-up beside each 64 lanes of its
/// vector body.
const GELU_STAGE: usize = 256;

/// [`silu`] of every element, in place, bit for bit: the `e^-x` of
/// 64 elements at a time through one [`exp_slice`] call.
pub fn silu_in_place(xs: &mut [f32]) {
    let mut e = [0.0f32; STAGE];
    for xc in xs.chunks_mut(STAGE) {
        let e = &mut e[..xc.len()];
        for (e, &x) in e.iter_mut().zip(xc.iter()) {
            *e = -x;
        }
        exp_slice(e);
        for (x, &e) in xc.iter_mut().zip(e.iter()) {
            *x *= 1.0 / (1.0 + e);
        }
    }
}

/// [`silu_grad`] of every element of `xs` into `out`, bit for bit;
/// `out` holds the `e^-x` for the one [`exp_slice`] call first.
pub fn silu_grad_slice(xs: &[f32], out: &mut [f32]) {
    debug_assert_eq!(xs.len(), out.len());
    for (e, &x) in out.iter_mut().zip(xs) {
        *e = -x;
    }
    exp_slice(out);
    for (o, &x) in out.iter_mut().zip(xs) {
        let s = 1.0 / (1.0 + *o);
        *o = s * (1.0 + x * (1.0 - s));
    }
}

/// [`gelu`] of every element, in place, bit for bit: the tanh argument
/// of 256 elements at a time through one [`tanh_slice`] call.
pub fn gelu_in_place(xs: &mut [f32]) {
    let mut t = [0.0f32; GELU_STAGE];
    for xc in xs.chunks_mut(GELU_STAGE) {
        let t = &mut t[..xc.len()];
        for (t, &x) in t.iter_mut().zip(xc.iter()) {
            *t = gelu_arg(x);
        }
        tanh_slice(t);
        for (x, &t) in xc.iter_mut().zip(t.iter()) {
            *x = 0.5 * *x * (1.0 + t);
        }
    }
}

/// [`gelu_grad`] of every element of `xs` into `out`, bit for bit;
/// `out` holds the tanh arguments for the one [`tanh_slice`] call first.
pub fn gelu_grad_slice(xs: &[f32], out: &mut [f32]) {
    debug_assert_eq!(xs.len(), out.len());
    for (u, &x) in out.iter_mut().zip(xs) {
        *u = gelu_arg(x);
    }
    tanh_slice(out);
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = gelu_grad_from(x, *o);
    }
}

/// Derivative of [`tanh`] given the input.
pub fn tanh_grad(x: f32) -> f32 {
    let t = tanh(x);
    1.0 - t * t
}

/// [`tanh_grad`] of every element of `xs` into `out`, bit for bit.
pub fn tanh_grad_slice(xs: &[f32], out: &mut [f32]) {
    out.copy_from_slice(xs);
    tanh_slice(out);
    for t in out.iter_mut() {
        *t = 1.0 - *t * *t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_grad(f: impl Fn(f32) -> f32, x: f32) -> f32 {
        let h = 1e-3;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn gelu_known_values() {
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(100.0) - 100.0).abs() < 1e-3);
        assert!(gelu(-100.0).abs() < 1e-3);
        // gelu(1) ≈ 0.8412
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn silu_known_values() {
        assert!((silu(0.0)).abs() < 1e-7);
        assert!((silu(1.0) - 0.7311).abs() < 1e-3);
        assert!((silu(-1.0) + 0.2689).abs() < 1e-3);
    }

    #[test]
    fn gradients_match_finite_differences() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.2, 1.0, 2.5] {
            assert!(
                (gelu_grad(x) - numeric_grad(gelu, x)).abs() < 1e-2,
                "gelu at {x}"
            );
            assert!(
                (silu_grad(x) - numeric_grad(silu, x)).abs() < 1e-2,
                "silu at {x}"
            );
            assert!(
                (tanh_grad(x) - numeric_grad(tanh, x)).abs() < 1e-2,
                "tanh at {x}"
            );
        }
    }

    #[test]
    fn slice_forms_equal_the_scalar_ones_bitwise() {
        let xs: Vec<f32> = (0..203)
            .map(|i| (i as f32 * 0.61).sin() * 12.0)
            .chain([
                0.0,
                -0.0,
                95.0,
                -95.0,
                200.0,
                -200.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ])
            .collect();
        type Forms = (
            fn(&mut [f32]),
            fn(&[f32], &mut [f32]),
            fn(f32) -> f32,
            fn(f32) -> f32,
        );
        let forms: [(&str, Forms); 2] = [
            ("silu", (silu_in_place, silu_grad_slice, silu, silu_grad)),
            ("gelu", (gelu_in_place, gelu_grad_slice, gelu, gelu_grad)),
        ];
        for (name, (in_place, grad_slice, f, df)) in forms {
            let mut got = xs.clone();
            in_place(&mut got);
            let mut grad_got = vec![0.0f32; xs.len()];
            grad_slice(&xs, &mut grad_got);
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(got[i].to_bits(), f(x).to_bits(), "{name} {x}");
                assert_eq!(grad_got[i].to_bits(), df(x).to_bits(), "{name}_grad {x}");
            }
        }
        let mut grad_got = vec![0.0f32; xs.len()];
        tanh_grad_slice(&xs, &mut grad_got);
        for (&x, g) in xs.iter().zip(&grad_got) {
            assert_eq!(g.to_bits(), tanh_grad(x).to_bits(), "tanh_grad {x}");
        }
    }

    #[test]
    fn sigmoid_bounds_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
    }
}
