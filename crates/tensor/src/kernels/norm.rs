//! Row-wise normalisation kernels: LayerNorm (GPT-NeoX) and RMSNorm (LLaMA).
//!
//! Each operates over the last dimension of a `[rows, d]` view. Forward
//! passes write the per-row statistics the backward pass needs into
//! slices the caller owns, so the tape keeps them without recomputing
//! them and a forward that has no backward reuses one buffer.

/// LayerNorm forward. `y = (x - mean) / sqrt(var + eps) * gamma + beta`.
/// Writes each row's mean to `stats[..rows]` and rstd to `stats[rows..]`
/// (`2 · rows` floats) for the backward pass.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_fwd(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    y: &mut [f32],
    stats: &mut [f32],
    rows: usize,
    d: usize,
    eps: f32,
) {
    debug_assert_eq!(x.len(), rows * d);
    debug_assert_eq!(gamma.len(), d);
    debug_assert_eq!(beta.len(), d);
    let (means, rstds) = stats.split_at_mut(rows);
    assert_eq!(rstds.len(), rows);
    for r in 0..rows {
        let xr = &x[r * d..(r + 1) * d];
        let mean = xr.iter().sum::<f32>() / d as f32;
        let var = xr.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let rstd = 1.0 / (var + eps).sqrt();
        means[r] = mean;
        rstds[r] = rstd;
        let yr = &mut y[r * d..(r + 1) * d];
        for i in 0..d {
            yr[i] = (xr[i] - mean) * rstd * gamma[i] + beta[i];
        }
    }
}

/// LayerNorm backward. Accumulates into `dx`, `dgamma`, `dbeta`.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_bwd(
    x: &[f32],
    gamma: &[f32],
    dy: &[f32],
    means: &[f32],
    rstds: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
    rows: usize,
    d: usize,
) {
    for r in 0..rows {
        let xr = &x[r * d..(r + 1) * d];
        let dyr = &dy[r * d..(r + 1) * d];
        let mean = means[r];
        let rstd = rstds[r];
        // xhat_i = (x_i - mean) * rstd
        let mut sum_dy_g = 0.0f32;
        let mut sum_dy_g_xhat = 0.0f32;
        for i in 0..d {
            let xhat = (xr[i] - mean) * rstd;
            let g = dyr[i] * gamma[i];
            sum_dy_g += g;
            sum_dy_g_xhat += g * xhat;
            dgamma[i] += dyr[i] * xhat;
            dbeta[i] += dyr[i];
        }
        let dxr = &mut dx[r * d..(r + 1) * d];
        let inv_d = 1.0 / d as f32;
        for i in 0..d {
            let xhat = (xr[i] - mean) * rstd;
            let g = dyr[i] * gamma[i];
            dxr[i] += rstd * (g - inv_d * sum_dy_g - xhat * inv_d * sum_dy_g_xhat);
        }
    }
}

/// RMSNorm forward. `y = x / rms(x) * gamma` with
/// `rms = sqrt(mean(x^2) + eps)`. Writes the per-row reciprocal rms into
/// `rrms` (`rows` of them).
pub fn rmsnorm_fwd(
    x: &[f32],
    gamma: &[f32],
    y: &mut [f32],
    rrms: &mut [f32],
    rows: usize,
    d: usize,
    eps: f32,
) {
    debug_assert_eq!(x.len(), rows * d);
    debug_assert_eq!(gamma.len(), d);
    assert_eq!(rrms.len(), rows);
    for r in 0..rows {
        let xr = &x[r * d..(r + 1) * d];
        let ms = xr.iter().map(|v| v * v).sum::<f32>() / d as f32;
        let rr = 1.0 / (ms + eps).sqrt();
        rrms[r] = rr;
        let yr = &mut y[r * d..(r + 1) * d];
        for i in 0..d {
            yr[i] = xr[i] * rr * gamma[i];
        }
    }
}

/// RMSNorm backward. Accumulates into `dx` and `dgamma`.
#[allow(clippy::too_many_arguments)]
pub fn rmsnorm_bwd(
    x: &[f32],
    gamma: &[f32],
    dy: &[f32],
    rrms: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    rows: usize,
    d: usize,
) {
    for r in 0..rows {
        let xr = &x[r * d..(r + 1) * d];
        let dyr = &dy[r * d..(r + 1) * d];
        let rr = rrms[r];
        let mut dot = 0.0f32; // sum_j dy_j * gamma_j * x_j
        for i in 0..d {
            dot += dyr[i] * gamma[i] * xr[i];
            dgamma[i] += dyr[i] * xr[i] * rr;
        }
        let dxr = &mut dx[r * d..(r + 1) * d];
        let c = dot * rr * rr * rr / d as f32;
        for i in 0..d {
            dxr[i] += dyr[i] * gamma[i] * rr - xr[i] * c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layernorm_normalises_rows() {
        let d = 8;
        let x: Vec<f32> = (0..d).map(|i| i as f32).collect();
        let gamma = vec![1.0; d];
        let beta = vec![0.0; d];
        let mut y = vec![0.0; d];
        layernorm_fwd(&x, &gamma, &beta, &mut y, &mut [0.0; 2], 1, d, 1e-5);
        let mean: f32 = y.iter().sum::<f32>() / d as f32;
        let var: f32 = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rmsnorm_unit_rms() {
        let d = 16;
        let x: Vec<f32> = (0..d).map(|i| (i as f32 - 4.0) * 0.7).collect();
        let gamma = vec![1.0; d];
        let mut y = vec![0.0; d];
        rmsnorm_fwd(&x, &gamma, &mut y, &mut [0.0], 1, d, 1e-6);
        let ms: f32 = y.iter().map(|v| v * v).sum::<f32>() / d as f32;
        assert!((ms - 1.0).abs() < 1e-3, "rms {ms}");
    }

    /// Finite-difference gradient check for both norms through a scalar
    /// objective `sum(w ⊙ norm(x))`.
    #[test]
    fn norm_backward_matches_finite_difference() {
        let rows = 2;
        let d = 5;
        let x0: Vec<f32> = (0..rows * d).map(|i| (i as f32 * 0.77).sin()).collect();
        let gamma: Vec<f32> = (0..d).map(|i| 1.0 + 0.1 * i as f32).collect();
        let beta: Vec<f32> = (0..d).map(|i| 0.05 * i as f32).collect();
        let w: Vec<f32> = (0..rows * d)
            .map(|i| ((i * 13 % 7) as f32 - 3.0) * 0.2)
            .collect();

        let f_ln = |x: &[f32]| {
            let (mut y, mut stats) = (vec![0.0; rows * d], vec![0.0; 2 * rows]);
            layernorm_fwd(x, &gamma, &beta, &mut y, &mut stats, rows, d, 1e-5);
            y.iter().zip(w.iter()).map(|(a, b)| a * b).sum::<f32>()
        };
        let f_rms = |x: &[f32]| {
            let mut y = vec![0.0; rows * d];
            rmsnorm_fwd(x, &gamma, &mut y, &mut vec![0.0; rows], rows, d, 1e-5);
            y.iter().zip(w.iter()).map(|(a, b)| a * b).sum::<f32>()
        };

        // analytic
        let mut y = vec![0.0; rows * d];
        let mut stats = vec![0.0; 2 * rows];
        layernorm_fwd(&x0, &gamma, &beta, &mut y, &mut stats, rows, d, 1e-5);
        let (means, rstds) = stats.split_at(rows);
        let mut dx = vec![0.0; rows * d];
        let mut dg = vec![0.0; d];
        let mut db = vec![0.0; d];
        layernorm_bwd(
            &x0, &gamma, &w, means, rstds, &mut dx, &mut dg, &mut db, rows, d,
        );
        for i in 0..rows * d {
            let mut xp = x0.clone();
            xp[i] += 1e-2;
            let mut xm = x0.clone();
            xm[i] -= 1e-2;
            let num = (f_ln(&xp) - f_ln(&xm)) / 2e-2;
            assert!((num - dx[i]).abs() < 2e-2, "ln dx[{i}]: {num} vs {}", dx[i]);
        }

        let mut rrms = vec![0.0; rows];
        rmsnorm_fwd(&x0, &gamma, &mut y, &mut rrms, rows, d, 1e-5);
        let mut dx = vec![0.0; rows * d];
        let mut dg = vec![0.0; d];
        rmsnorm_bwd(&x0, &gamma, &w, &rrms, &mut dx, &mut dg, rows, d);
        for i in 0..rows * d {
            let mut xp = x0.clone();
            xp[i] += 1e-2;
            let mut xm = x0.clone();
            xm[i] -= 1e-2;
            let num = (f_rms(&xp) - f_rms(&xm)) / 2e-2;
            assert!(
                (num - dx[i]).abs() < 2e-2,
                "rms dx[{i}]: {num} vs {}",
                dx[i]
            );
        }
    }
}
