//! Row-wise normalisation kernels: LayerNorm (GPT-NeoX) and RMSNorm (LLaMA).
//!
//! Each operates over the last dimension of a `[rows, d]` view. Forward
//! passes write the per-row statistics the backward pass needs into
//! slices the caller owns, so the tape keeps them without recomputing
//! them and a forward that has no backward reuses one buffer.
//!
//! A row's statistics are sums over its `d` elements, each one serial
//! chain of adds. The kernels take the rows eight at a time and
//! advance those rows' chains side by side (`row_folds`), so the adds of
//! eight rows overlap instead of each waiting on the one before it. Each
//! chain is still the one its row makes alone — the same terms, in
//! element order, from the same start — so no bit moves; the tests hold
//! every kernel to the one-row-at-a-time loop it replaced. A last block of
//! fewer rows, and so a one-row call (serving decode), goes one row at a
//! time.

/// Rows whose statistics the kernels take side by side.
pub(crate) const ROWS: usize = 8;

/// `term(r, 0)`, `term(r, 1)`, … `term(r, d - 1)` folded in order into
/// `start` with `op`, for each row `r < n` (`n ≤ ROWS`): with
/// `n = ROWS` the eight chains advance side by side, otherwise one row
/// after another. Either way each row's chain is the one a loop over
/// its own elements makes.
#[inline(always)]
pub(crate) fn row_folds(
    n: usize,
    d: usize,
    start: f32,
    term: impl Fn(usize, usize) -> f32,
    op: impl Fn(f32, f32) -> f32,
) -> [f32; ROWS] {
    let mut acc = [start; ROWS];
    if n == ROWS {
        for i in 0..d {
            for (r, a) in acc.iter_mut().enumerate() {
                *a = op(*a, term(r, i));
            }
        }
    } else {
        for (r, a) in acc.iter_mut().enumerate().take(n) {
            for i in 0..d {
                *a = op(*a, term(r, i));
            }
        }
    }
    acc
}

/// [`row_folds`] with `+`: each row's sum in element order from `start`.
#[inline(always)]
pub(crate) fn row_sums(
    n: usize,
    d: usize,
    start: f32,
    term: impl Fn(usize, usize) -> f32,
) -> [f32; ROWS] {
    row_folds(n, d, start, term, |s, x| s + x)
}

/// Rows `r0..r0 + n` of `[rows, d]` `x`, `n ≤ ROWS`, and empty slices
/// after them.
fn rows_of(x: &[f32], r0: usize, n: usize, d: usize) -> [&[f32]; ROWS] {
    std::array::from_fn(|r| if r < n { &x[(r0 + r) * d..][..d] } else { &[] })
}

/// `s[r0..r0 + n]`, `n ≤ ROWS`, and zeros after them.
fn stat_of(s: &[f32], r0: usize, n: usize) -> [f32; ROWS] {
    std::array::from_fn(|r| if r < n { s[r0 + r] } else { 0.0 })
}

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
    for r0 in (0..rows).step_by(ROWS) {
        let n = ROWS.min(rows - r0);
        let xs = &x[r0 * d..(r0 + n) * d];
        let sums = row_sums(n, d, -0.0, |r, i| xs[r * d + i]);
        let mean = sums.map(|s| s / d as f32);
        let sq = row_sums(n, d, -0.0, |r, i| {
            let v = xs[r * d + i];
            (v - mean[r]) * (v - mean[r])
        });
        for r in 0..n {
            let (mean, var) = (mean[r], sq[r] / d as f32);
            let rstd = 1.0 / (var + eps).sqrt();
            means[r0 + r] = mean;
            rstds[r0 + r] = rstd;
            let xr = &xs[r * d..][..d];
            let yr = &mut y[(r0 + r) * d..][..d];
            for i in 0..d {
                yr[i] = (xr[i] - mean) * rstd * gamma[i] + beta[i];
            }
        }
    }
}

/// LayerNorm backward. Accumulates into `dx`, `dgamma`, `dbeta`, rows in
/// order.
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
    let inv_d = 1.0 / d as f32;
    for r0 in (0..rows).step_by(ROWS) {
        let n = ROWS.min(rows - r0);
        let (xs, dys) = (rows_of(x, r0, n, d), rows_of(dy, r0, n, d));
        let (mean, rstd) = (stat_of(means, r0, n), stat_of(rstds, r0, n));
        // xhat_i = (x_i - mean) * rstd, g_i = dy_i * gamma_i
        let xhat = |r: usize, i: usize| (xs[r][i] - mean[r]) * rstd[r];
        let g = |r: usize, i: usize| dys[r][i] * gamma[i];
        let sum_dy_g = row_sums(n, d, 0.0, g);
        let sum_dy_g_xhat = row_sums(n, d, 0.0, |r, i| g(r, i) * xhat(r, i));
        for r in 0..n {
            let (xr, dyr) = (xs[r], dys[r]);
            let (mean, rstd) = (mean[r], rstd[r]);
            for i in 0..d {
                let xhat = (xr[i] - mean) * rstd;
                dgamma[i] += dyr[i] * xhat;
                dbeta[i] += dyr[i];
            }
            let (sg, sgx) = (sum_dy_g[r], sum_dy_g_xhat[r]);
            let dxr = &mut dx[(r0 + r) * d..][..d];
            for i in 0..d {
                let xhat = (xr[i] - mean) * rstd;
                let g = dyr[i] * gamma[i];
                dxr[i] += rstd * (g - inv_d * sg - xhat * inv_d * sgx);
            }
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
    for r0 in (0..rows).step_by(ROWS) {
        let n = ROWS.min(rows - r0);
        let xs = &x[r0 * d..(r0 + n) * d];
        let sq = row_sums(n, d, -0.0, |r, i| xs[r * d + i] * xs[r * d + i]);
        for r in 0..n {
            let rr = 1.0 / (sq[r] / d as f32 + eps).sqrt();
            rrms[r0 + r] = rr;
            let xr = &xs[r * d..][..d];
            let yr = &mut y[(r0 + r) * d..][..d];
            for i in 0..d {
                yr[i] = xr[i] * rr * gamma[i];
            }
        }
    }
}

/// RMSNorm backward. Accumulates into `dx` and `dgamma`, rows in order.
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
    for r0 in (0..rows).step_by(ROWS) {
        let n = ROWS.min(rows - r0);
        let (xs, dys) = (&x[r0 * d..(r0 + n) * d], &dy[r0 * d..(r0 + n) * d]);
        // sum_j dy_j * gamma_j * x_j
        let dot = row_sums(n, d, 0.0, |r, i| dys[r * d + i] * gamma[i] * xs[r * d + i]);
        for r in 0..n {
            let (xr, dyr, rr) = (&xs[r * d..][..d], &dys[r * d..][..d], rrms[r0 + r]);
            for i in 0..d {
                dgamma[i] += dyr[i] * xr[i] * rr;
            }
            let dxr = &mut dx[(r0 + r) * d..][..d];
            let c = dot[r] * rr * rr * rr / d as f32;
            for i in 0..d {
                dxr[i] += dyr[i] * gamma[i] * rr - xr[i] * c;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The kernels as they were before they took rows side by side: one
    /// row at a time, each statistic one loop.
    mod reference {
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
            let (means, rstds) = stats.split_at_mut(rows);
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

        pub fn rmsnorm_fwd(
            x: &[f32],
            gamma: &[f32],
            y: &mut [f32],
            rrms: &mut [f32],
            rows: usize,
            d: usize,
            eps: f32,
        ) {
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
                let mut dot = 0.0f32;
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
    }

    /// `n` values, mostly of either sign and a few magnitudes, with `-0.0`,
    /// NaN and ±∞ at a few places when `special`.
    pub(crate) fn values(n: usize, seed: usize, special: bool) -> Vec<f32> {
        (0..n)
            .map(|i| match (i * 7 + seed) % 53 {
                3 if special => -0.0,
                11 if special => f32::NAN,
                19 if special => f32::INFINITY,
                29 if special => f32::NEG_INFINITY,
                k => ((i * 31 + seed * 17) as f32 * 0.37).sin() * (1 + k % 5) as f32,
            })
            .collect()
    }

    /// Each value's bits, every NaN as one: Rust leaves a NaN's sign and
    /// payload unspecified, and codegen may swap an add's operands, which
    /// picks which NaN an x86 add passes on.
    pub(crate) fn bits(x: &[f32]) -> Vec<u32> {
        x.iter()
            .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
            .collect()
    }

    #[test]
    fn norms_equal_their_one_row_loops_bitwise() {
        for rows in [1, 7, 8, 9, 130] {
            for d in [2, 16, 24] {
                for special in [false, true] {
                    let at = format!("rows {rows} d {d} special {special}");
                    let n = rows * d;
                    let x = values(n, rows + d, special);
                    let dy = values(n, 3 * rows + d, special);
                    let gamma = values(d, 5, false);
                    let beta = values(d, 6, false);
                    let start = values(n, 7, false);
                    let wide = |x: &[f32]| x.to_vec();

                    let (mut y, mut want_y) = (vec![0.0; n], vec![0.0; n]);
                    let (mut st, mut want_st) = (vec![0.0; 2 * rows], vec![0.0; 2 * rows]);
                    layernorm_fwd(&x, &gamma, &beta, &mut y, &mut st, rows, d, 1e-5);
                    reference::layernorm_fwd(
                        &x,
                        &gamma,
                        &beta,
                        &mut want_y,
                        &mut want_st,
                        rows,
                        d,
                        1e-5,
                    );
                    assert_eq!(bits(&y), bits(&want_y), "ln fwd {at}");
                    assert_eq!(bits(&st), bits(&want_st), "ln stats {at}");
                    let (means, rstds) = st.split_at(rows);
                    let mut got = [wide(&start), wide(&gamma), wide(&beta)];
                    let mut want = got.clone();
                    let [dx, dg, db] = &mut got;
                    layernorm_bwd(&x, &gamma, &dy, means, rstds, dx, dg, db, rows, d);
                    let [dx, dg, db] = &mut want;
                    reference::layernorm_bwd(&x, &gamma, &dy, means, rstds, dx, dg, db, rows, d);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(bits(g), bits(w), "ln bwd {at}");
                    }

                    let (mut rr, mut want_rr) = (vec![0.0; rows], vec![0.0; rows]);
                    rmsnorm_fwd(&x, &gamma, &mut y, &mut rr, rows, d, 1e-6);
                    reference::rmsnorm_fwd(&x, &gamma, &mut want_y, &mut want_rr, rows, d, 1e-6);
                    assert_eq!(bits(&y), bits(&want_y), "rms fwd {at}");
                    assert_eq!(bits(&rr), bits(&want_rr), "rms stats {at}");
                    let mut got = [wide(&start), wide(&gamma)];
                    let mut want = got.clone();
                    let [dx, dg] = &mut got;
                    rmsnorm_bwd(&x, &gamma, &dy, &rr, dx, dg, rows, d);
                    let [dx, dg] = &mut want;
                    reference::rmsnorm_bwd(&x, &gamma, &dy, &rr, dx, dg, rows, d);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(bits(g), bits(w), "rms bwd {at}");
                    }
                }
            }
        }
    }

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
