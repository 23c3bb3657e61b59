//! Pointwise activation functions and their derivatives.
//!
//! GELU (tanh approximation) is the GPT-NeoX MLP activation; SiLU is the
//! gate activation inside LLaMA's SwiGLU block — exactly the two MLP
//! parameterisations the paper contrasts in Fig. 2.

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;

/// GELU, tanh approximation (as used by GPT-NeoX / Megatron).
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_C * x * x * x)).tanh())
}

/// Derivative of [`gelu`] with respect to its input.
pub fn gelu_grad(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
    let t = u.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x)
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
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

/// Hyperbolic tangent forward.
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// Derivative of tanh given the input.
pub fn tanh_grad(x: f32) -> f32 {
    let t = x.tanh();
    1.0 - t * t
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
    fn sigmoid_bounds_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
    }
}
