//! Rayon-parallel dense matrix multiplication kernels.
//!
//! Two loop nests. `matmul_small_m` is the weight-stationary tier: up to
//! [`SMALL_M_MAX`] output rows accumulate in cache while `b` streams
//! past once. `row_axpy` is the classic `ikj` row update — for one
//! output row, stream over `p`, broadcasting a coefficient against row
//! `p` of `b`; cache-friendly for row-major data and auto-vectorised.
//! Every public entry is a choice of nest, coefficient walk and packing:
//!
//! | entry | per output row | chain per element |
//! |---|---|---|
//! | [`matmul`], `m = 1` | `row_axpy`, coefficients `a[p]` | fused, zero-skip |
//! | [`matmul`], `m ≥ 2` | `matmul_small_m` over ≤ 8-row groups | the same chain, grouped |
//! | [`matmul_at_acc`] | `row_axpy` into `c[p]`, coefficients `a[i·k + p]` (strided, no pack) | unfused, zero-skip |
//! | [`matmul_bt_acc`] | `b^T` packed once; `row_axpy` into a zeroed temp; `c += temp` | unfused, no skip |
//!
//! The chain an output element sees — its order, fusing and zero-skip —
//! is a function of the inner dimension only, never of `m`, the group a
//! row fell in or the worker that ran it; the bitwise training and
//! serving equivalences all rest on that. `matmul_bt_acc` goes through a
//! temp because its chain is a dot product's: the accumulator starts at
//! `+0` and meets `c` once, at the end, and `(c + x₀) + x₁ …` rounds
//! differently from `c + (x₀ + x₁ …)` whenever `c` is non-zero.
//! Output rows (or row groups) are distributed over the rayon pool by
//! `par_rows`.

use rayon::prelude::*;

/// Minimum number of output elements before we bother spinning up rayon.
/// Below this the sequential loop wins (thread handoff costs more than the
/// multiply itself).
const PAR_THRESHOLD: usize = 64 * 64;

/// Batches up to this many rows take the weight-stationary path in
/// [`matmul`]: `b` is streamed from memory exactly once while all `m`
/// output rows accumulate in cache. The per-row `ikj` loop streams the
/// full `k*n` weight matrix once *per row*, so for the small-`m` batches
/// of batched decode and speculative verify (`m = k_draft + 1`) it would
/// cost `m` weight passes where one suffices. Kept small so the `m`
/// output rows stay cache-resident.
pub const SMALL_M_MAX: usize = 8;

/// Weight-stationary `c[m,n] = a[m,k] @ b[k,n]` for small `m`.
///
/// Per output element the accumulation is still one `p`-ascending chain
/// of fused multiply-adds with the same `a[i][p] == 0.0` skip as the
/// per-row loop, so the result is bitwise identical to calling the
/// per-row path (or `m` single-row calls) — speculative verify depends
/// on that.
///
/// Eight weight rows are fused per pass: each output element gets eight
/// sequential `mul_add`s (one per `p`, ascending), which cuts the
/// load/store traffic on the cached output rows 8× without reordering
/// any per-element sum — grouping a chain does not change the chain. A
/// pass containing a zero coefficient falls back to the per-`p` loop so
/// the zero-skip stays element-exact.
///
/// Output rows are additionally processed in pairs so each loaded
/// weight vector feeds two independent FMA chains: the per-row loop is
/// load-port bound, while the paired loop amortises the eight `b` loads
/// over sixteen FMAs and lets the two rows' chains issue in parallel.
/// Each row's chain is element-for-element the same as the unpaired
/// loop, so pairing changes nothing bitwise.
fn matmul_small_m(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    c.fill(0.0);
    let mut p = 0;
    while p + 8 <= k {
        let brows: [&[f32]; 8] = std::array::from_fn(|r| &b[(p + r) * n..(p + r + 1) * n]);
        let [b0, b1, b2, b3, b4, b5, b6, b7] = brows;
        let oct_one = |ci: &mut [f32], ar: &[f32]| {
            if ar.iter().all(|&v| v != 0.0) {
                let a: [f32; 8] = ar.try_into().unwrap();
                let w = ci.len();
                let (b0, b1, b2, b3) = (&b0[..w], &b1[..w], &b2[..w], &b3[..w]);
                let (b4, b5, b6, b7) = (&b4[..w], &b5[..w], &b6[..w], &b7[..w]);
                for (j, cv) in ci.iter_mut().enumerate() {
                    let mut x = a[0].mul_add(b0[j], *cv);
                    x = a[1].mul_add(b1[j], x);
                    x = a[2].mul_add(b2[j], x);
                    x = a[3].mul_add(b3[j], x);
                    x = a[4].mul_add(b4[j], x);
                    x = a[5].mul_add(b5[j], x);
                    x = a[6].mul_add(b6[j], x);
                    *cv = a[7].mul_add(b7[j], x);
                }
            } else {
                for (aip, brow) in ar.iter().zip(brows) {
                    if *aip == 0.0 {
                        continue;
                    }
                    for (cv, &bv) in ci.iter_mut().zip(brow.iter()) {
                        *cv = aip.mul_add(bv, *cv);
                    }
                }
            }
        };
        let mut i = 0;
        while i + 4 <= m {
            let rows: [&[f32]; 4] =
                std::array::from_fn(|r| &a[(i + r) * k + p..(i + r) * k + p + 8]);
            if rows.iter().all(|ar| ar.iter().all(|&v| v != 0.0)) {
                let av: [[f32; 8]; 4] = std::array::from_fn(|r| rows[r].try_into().unwrap());
                let (c01, c23) = c[i * n..(i + 4) * n].split_at_mut(2 * n);
                let (c0, c1) = c01.split_at_mut(n);
                let (c2, c3) = c23.split_at_mut(n);
                let w = c0.len();
                let (b0, b1, b2, b3) = (&b0[..w], &b1[..w], &b2[..w], &b3[..w]);
                let (b4, b5, b6, b7) = (&b4[..w], &b5[..w], &b6[..w], &b7[..w]);
                let c1 = &mut c1[..w];
                let c2 = &mut c2[..w];
                let c3 = &mut c3[..w];
                for (j, cv0) in c0.iter_mut().enumerate() {
                    let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
                    let (v4, v5, v6, v7) = (b4[j], b5[j], b6[j], b7[j]);
                    let mut x0 = av[0][0].mul_add(v0, *cv0);
                    let mut x1 = av[1][0].mul_add(v0, c1[j]);
                    let mut x2 = av[2][0].mul_add(v0, c2[j]);
                    let mut x3 = av[3][0].mul_add(v0, c3[j]);
                    x0 = av[0][1].mul_add(v1, x0);
                    x1 = av[1][1].mul_add(v1, x1);
                    x2 = av[2][1].mul_add(v1, x2);
                    x3 = av[3][1].mul_add(v1, x3);
                    x0 = av[0][2].mul_add(v2, x0);
                    x1 = av[1][2].mul_add(v2, x1);
                    x2 = av[2][2].mul_add(v2, x2);
                    x3 = av[3][2].mul_add(v2, x3);
                    x0 = av[0][3].mul_add(v3, x0);
                    x1 = av[1][3].mul_add(v3, x1);
                    x2 = av[2][3].mul_add(v3, x2);
                    x3 = av[3][3].mul_add(v3, x3);
                    x0 = av[0][4].mul_add(v4, x0);
                    x1 = av[1][4].mul_add(v4, x1);
                    x2 = av[2][4].mul_add(v4, x2);
                    x3 = av[3][4].mul_add(v4, x3);
                    x0 = av[0][5].mul_add(v5, x0);
                    x1 = av[1][5].mul_add(v5, x1);
                    x2 = av[2][5].mul_add(v5, x2);
                    x3 = av[3][5].mul_add(v5, x3);
                    x0 = av[0][6].mul_add(v6, x0);
                    x1 = av[1][6].mul_add(v6, x1);
                    x2 = av[2][6].mul_add(v6, x2);
                    x3 = av[3][6].mul_add(v6, x3);
                    *cv0 = av[0][7].mul_add(v7, x0);
                    c1[j] = av[1][7].mul_add(v7, x1);
                    c2[j] = av[2][7].mul_add(v7, x2);
                    c3[j] = av[3][7].mul_add(v7, x3);
                }
            } else {
                for (r, ar) in rows.iter().enumerate() {
                    oct_one(&mut c[(i + r) * n..(i + r + 1) * n], ar);
                }
            }
            i += 4;
        }
        while i + 2 <= m {
            let ar = &a[i * k + p..i * k + p + 8];
            let sr = &a[(i + 1) * k + p..(i + 1) * k + p + 8];
            if ar.iter().all(|&v| v != 0.0) && sr.iter().all(|&v| v != 0.0) {
                let av: [f32; 8] = ar.try_into().unwrap();
                let sv: [f32; 8] = sr.try_into().unwrap();
                let (head, rest) = c.split_at_mut((i + 1) * n);
                let ci = &mut head[i * n..];
                let cj = &mut rest[..n];
                let w = ci.len();
                let (b0, b1, b2, b3) = (&b0[..w], &b1[..w], &b2[..w], &b3[..w]);
                let (b4, b5, b6, b7) = (&b4[..w], &b5[..w], &b6[..w], &b7[..w]);
                for (j, (cv, cw)) in ci.iter_mut().zip(cj.iter_mut()).enumerate() {
                    let mut x = av[0].mul_add(b0[j], *cv);
                    let mut y = sv[0].mul_add(b0[j], *cw);
                    x = av[1].mul_add(b1[j], x);
                    y = sv[1].mul_add(b1[j], y);
                    x = av[2].mul_add(b2[j], x);
                    y = sv[2].mul_add(b2[j], y);
                    x = av[3].mul_add(b3[j], x);
                    y = sv[3].mul_add(b3[j], y);
                    x = av[4].mul_add(b4[j], x);
                    y = sv[4].mul_add(b4[j], y);
                    x = av[5].mul_add(b5[j], x);
                    y = sv[5].mul_add(b5[j], y);
                    x = av[6].mul_add(b6[j], x);
                    y = sv[6].mul_add(b6[j], y);
                    *cv = av[7].mul_add(b7[j], x);
                    *cw = sv[7].mul_add(b7[j], y);
                }
            } else {
                oct_one(&mut c[i * n..(i + 1) * n], ar);
                oct_one(&mut c[(i + 1) * n..(i + 2) * n], sr);
            }
            i += 2;
        }
        if i < m {
            oct_one(&mut c[i * n..(i + 1) * n], &a[i * k + p..i * k + p + 8]);
        }
        p += 8;
    }
    while p < k {
        let brow = &b[p * n..(p + 1) * n];
        for i in 0..m {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let ci = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in ci.iter_mut().zip(brow.iter()) {
                *cv = aip.mul_add(bv, *cv);
            }
        }
        p += 1;
    }
}

/// The row nest every entry but the small-`m` tier is an instance of:
/// `out[j] ⊕= coef(p) · b[p][j]`, `p` ascending over the rows of
/// `b[·, out.len()]`. `FUSED` picks `mul_add` (one rounding per step)
/// over mul-then-add; `SKIP` passes over zero coefficients without
/// touching their `b` row. Both are part of an entry's per-element
/// chain, so each entry pins them.
#[inline(always)]
fn row_axpy<const FUSED: bool, const SKIP: bool>(
    out: &mut [f32],
    coef: impl Iterator<Item = f32>,
    b: &[f32],
) {
    let n = out.len();
    for (p, ap) in coef.enumerate() {
        if SKIP && ap == 0.0 {
            continue;
        }
        for (o, &bv) in out.iter_mut().zip(&b[p * n..(p + 1) * n]) {
            *o = if FUSED {
                ap.mul_add(bv, *o)
            } else {
                *o + ap * bv
            };
        }
    }
}

/// Hand `c` out in `chunk`-float pieces as `f(piece index, piece)`: on
/// the rayon pool from [`PAR_THRESHOLD`] outputs up when there is more
/// than one piece, inline otherwise. Pieces are independent in every
/// caller, so where they run changes no output bit.
fn par_rows(c: &mut [f32], chunk: usize, f: impl Fn(usize, &mut [f32]) + Sync + Send) {
    if c.len() >= PAR_THRESHOLD && c.len() > chunk {
        c.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, ci)| f(i, ci));
    } else {
        c.chunks_mut(chunk).enumerate().for_each(|(i, ci)| f(i, ci));
    }
}

/// `c[m,n] = a[m,k] @ b[k,n]`.
///
/// Accumulation uses `f32::mul_add` (a true fused multiply-add, one
/// rounding per step): it halves the FP-port pressure of separate
/// mul/add pairs, and because both paths here — the single row and the
/// weight-stationary groups every `m ≥ 2` is walked in — apply the
/// identical per-element FMA chain, outputs remain bitwise reproducible
/// across batch shapes.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 1 {
        c.fill(0.0);
        return row_axpy::<true, true>(c, a.iter().copied(), b);
    }
    in_small_m_groups(a, c, m, k, n, |ag, cg, rows| {
        matmul_small_m(ag, b, cg, rows, k, n)
    });
}

/// Run a small-`m` matmul `kernel(a_rows, c_rows, rows)` over all `m`
/// rows of `a[m,k]` / `c[m,n]` in groups of at most [`SMALL_M_MAX`], so
/// a weight-stationary kernel streams its weights `⌈m / SMALL_M_MAX⌉`
/// times instead of once per row — how [`matmul`] and the int8 store's
/// `matmul_q8` take a training batch, a prefill or a stacked decode
/// batch of any size. Groups run on the rayon pool past
/// `PAR_THRESHOLD` outputs (inline on a one-worker pool). Rows are
/// independent in every such kernel, so grouping changes no output bit.
pub fn in_small_m_groups(
    a: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    kernel: impl Fn(&[f32], &mut [f32], usize) + Sync + Send,
) {
    if m <= SMALL_M_MAX {
        return kernel(a, c, m);
    }
    par_rows(c, SMALL_M_MAX * n, |g, cg| {
        let rows = cg.len() / n;
        kernel(&a[g * SMALL_M_MAX * k..][..rows * k], cg, rows)
    });
}

/// `c[m,n] += a[m,k] @ b[n,k]^T` — `dA = dC @ B^T`, `b` being the
/// forward weight as stored: `b^T` is packed once into row-major
/// `[k,n]`, then each output row is the nest into a zeroed temp and one
/// add into `c` (the module docs say why not straight into `c`).
pub fn matmul_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let mut bt = Vec::with_capacity(k * n);
    for p in 0..k {
        bt.extend(b.iter().skip(p).step_by(k));
    }
    par_rows(c, n, |i, ci| {
        let mut acc = vec![0.0f32; n];
        row_axpy::<false, false>(&mut acc, a[i * k..(i + 1) * k].iter().copied(), &bt);
        for (cv, av) in ci.iter_mut().zip(acc) {
            *cv += av;
        }
    });
}

/// `c[k,n] += a[m,k]^T @ b[m,n]` — `dB = A^T @ dC` — without
/// materialising the transpose: output row `p` is the unfused,
/// zero-skipping nest over the rows of `b`, its coefficients read down
/// column `p` of `a`.
pub fn matmul_at_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    par_rows(c, n, |p, cp| {
        row_axpy::<false, true>(cp, (0..m).map(|i| a[i * k + p]), b)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3x2
        let mut c = vec![0.0; 4];
        matmul(&a, &b, &mut c, 2, 3, 2);
        assert_eq!(c, naive(&a, &b, 2, 3, 2));
        assert_eq!(c, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_matches_naive_large_parallel() {
        let (m, k, n) = (70, 33, 71); // crosses PAR_THRESHOLD
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.1)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.1)
            .collect();
        let mut c = vec![0.0; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        let r = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(r.iter()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Deterministic operand with a zero at every 7th position, so zero
    /// coefficients land inside 8-groups and in `k % 8` tails alike.
    fn operand(len: usize, mul: usize, modulo: usize) -> Vec<f32> {
        (0..len)
            .map(|i| match i % 7 {
                0 => 0.0,
                _ => ((i * mul % modulo) as f32 - modulo as f32 / 2.0) * 0.1,
            })
            .collect()
    }

    /// [`operand`] without the zeros (`modulo` odd, so no value sits on
    /// the half): every coefficient slab is zero-free, which is what a
    /// kernel's non-skipping fast path sees.
    fn dense_operand(len: usize, mul: usize, modulo: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * mul % modulo) as f32 - modulo as f32 / 2.0) * 0.1)
            .collect()
    }

    type Operand = fn(usize, usize, usize) -> Vec<f32>;
    /// Zero-laden (every skip fires) and zero-free (none does).
    const OPERANDS: [(&str, Operand); 2] = [("zeros", operand), ("dense", dense_operand)];

    /// Run `check` on the default pool and as a one-worker pool would:
    /// parallel calls made from inside a pool worker run inline.
    fn on_both_pools(check: impl Fn() + Sync) {
        check();
        (0..2).into_par_iter().for_each(|_| check());
    }

    /// `matmul_bt_acc` as it was before it became a packing of the row
    /// nest — a scalar dot per output element — kept as its reference.
    fn bt_dot_reference(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
        for (ci, ai) in c.chunks_mut(n).zip(a.chunks(k)) {
            for (j, cv) in ci.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (&av, &bv) in ai.iter().zip(&b[j * k..(j + 1) * k]) {
                    acc += av * bv;
                }
                *cv += acc;
            }
        }
    }

    /// `matmul_at_acc` as it was: per output row, a gather down one
    /// column of `a`.
    fn at_gather_reference(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for (p, cp) in c.chunks_mut(n).enumerate() {
            for i in 0..m {
                let aip = a[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                for (cv, &bv) in cp.iter_mut().zip(&b[i * n..(i + 1) * n]) {
                    *cv += aip * bv;
                }
            }
        }
    }

    const MS: [usize; 7] = [1, 2, 7, 8, 9, 37, 128];
    /// `(k, n)`, neither a multiple of 8; the first keeps every output
    /// below `PAR_THRESHOLD` at small `m`, the others cross it.
    const KNS: [(usize, usize); 3] = [(21, 50), (37, 113), (130, 67)];
    /// The training model's MLP shapes: `n = 344` leaves `n % 16 = 8`
    /// lanes, `n = 128` none; with [`TRAIN_MS`] rows a call is several
    /// whole row groups.
    const TRAIN_KNS: [(usize, usize); 2] = [(128, 344), (344, 128)];
    const TRAIN_MS: [usize; 2] = [32, 64];

    /// `MS × KNS` and `TRAIN_MS × TRAIN_KNS` as `(m, k, n)`.
    fn shapes() -> Vec<(usize, usize, usize)> {
        let grid = |ms: &[usize], kns: &[(usize, usize)]| {
            ms.iter()
                .flat_map(|&m| kns.iter().map(move |&(k, n)| (m, k, n)))
                .collect::<Vec<_>>()
        };
        [grid(&MS, &KNS), grid(&TRAIN_MS, &TRAIN_KNS)].concat()
    }

    #[test]
    fn transposed_entries_bitwise_match_their_reference_loops() {
        // `c` starts non-zero: "row temp, then one add" and "accumulate
        // straight into c" only differ when there is something in `c`.
        on_both_pools(|| {
            for (set, gen) in OPERANDS {
                for (m, k, n) in shapes() {
                    // dA[m,n] += dC[m,k] @ B[n,k]^T
                    let (a, b) = (gen(m * k, 37, 19), gen(n * k, 53, 23));
                    let c0 = gen(m * n, 29, 31);
                    let (mut got, mut want) = (c0.clone(), c0);
                    matmul_bt_acc(&a, &b, &mut got, m, k, n);
                    bt_dot_reference(&a, &b, &mut want, k, n);
                    assert_eq!(bits(&got), bits(&want), "bt {set} m={m} k={k} n={n}");
                    // dB[k,n] += A[m,k]^T @ dC[m,n]
                    let d = gen(m * n, 41, 17);
                    let c0 = gen(k * n, 29, 31);
                    let (mut got, mut want) = (c0.clone(), c0);
                    matmul_at_acc(&a, &d, &mut got, m, k, n);
                    at_gather_reference(&a, &d, &mut want, m, k, n);
                    assert_eq!(bits(&got), bits(&want), "at {set} m={m} k={k} n={n}");
                }
            }
        });
    }

    #[test]
    fn at_skips_zero_coefficients_of_either_sign() {
        // `at`'s skip is observable the way `matmul`'s is
        // (`single_row_bitwise_matches_the_per_row_chain`): a skipped
        // coefficient never meets its row of `b`, so an ∞ there stays
        // out of every sum, and a `-0.0` already in `c` survives a
        // column of zero coefficients (`-0.0 + 0.0 · x` would be `+0.0`).
        for (m, k, n) in [(9, 21, 50), (37, 37, 113), (32, 128, 344), (64, 344, 128)] {
            let mut a = dense_operand(m * k, 37, 19);
            let mut d = dense_operand(m * n, 41, 17);
            let mut c0 = dense_operand(k * n, 29, 31);
            // step `i0` is skipped by every output row, by +0.0 and -0.0
            // alike; its row of `d` is poisoned
            let i0 = m / 2;
            for (p, ap) in a[i0 * k..(i0 + 1) * k].iter_mut().enumerate() {
                *ap = if p % 2 == 0 { 0.0 } else { -0.0 };
            }
            d[i0 * n..(i0 + 1) * n].fill(f32::INFINITY);
            // output row `p0` skips every step
            let p0 = k - 2;
            (0..m).for_each(|i| a[i * k + p0] = 0.0);
            c0[p0 * n..(p0 + 1) * n]
                .iter_mut()
                .step_by(3)
                .for_each(|v| *v = -0.0);
            let (mut got, mut want) = (c0.clone(), c0.clone());
            on_both_pools(|| {
                let mut c = c0.clone();
                matmul_at_acc(&a, &d, &mut c, m, k, n);
                assert!(c.iter().all(|v| v.is_finite()), "m={m} k={k}: zero met");
            });
            matmul_at_acc(&a, &d, &mut got, m, k, n);
            at_gather_reference(&a, &d, &mut want, m, k, n);
            assert_eq!(bits(&got), bits(&want), "m={m} k={k} n={n}");
            assert_eq!(
                bits(&got[p0 * n..(p0 + 1) * n]),
                bits(&c0[p0 * n..(p0 + 1) * n])
            );
        }
    }

    #[test]
    fn every_entry_is_within_k_epsilon_of_an_f64_accumulation() {
        // Forward-error bound of a length-k f32 recurrence (plus the one
        // add into `c` of the accumulating entries): (k + 1) · ε · Σ|terms|,
        // twice the textbook γ_{k+1} with unit roundoff ε / 2.
        let check = |what: &str, got: &[f32], want: &[(f64, f64)], k: usize| {
            for (idx, (&g, &(sum, abs))) in got.iter().zip(want).enumerate() {
                let bound = (k + 1) as f64 * f32::EPSILON as f64 * abs;
                let err = (g as f64 - sum).abs();
                assert!(
                    err <= bound,
                    "{what}[{idx}]: |{g} - {sum}| = {err} > {bound}"
                );
            }
        };
        // (Σ terms, Σ |terms|) in f64 of `c0 + Σ_p x(p) · y(p)` per output
        let oracle = |c0: &[f32], len: usize, term: &dyn Fn(usize, usize) -> (f32, f32)| {
            c0.iter()
                .enumerate()
                .map(|(o, &c)| {
                    (0..len).fold((c as f64, c.abs() as f64), |(s, t), p| {
                        let (x, y) = term(o, p);
                        let xy = x as f64 * y as f64;
                        (s + xy, t + xy.abs())
                    })
                })
                .collect::<Vec<_>>()
        };
        for m in [1, 9, 128] {
            for (k, n) in KNS {
                let (a, b) = (operand(m * k, 37, 19), operand(k * n, 53, 23));
                let mut c = vec![f32::NAN; m * n];
                matmul(&a, &b, &mut c, m, k, n);
                let want = oracle(&vec![0.0; m * n], k, &|o, p| {
                    (a[o / n * k + p], b[p * n + o % n])
                });
                check("matmul", &c, &want, k);

                let bt = operand(n * k, 53, 23);
                let c0 = operand(m * n, 29, 31);
                let mut c = c0.clone();
                matmul_bt_acc(&a, &bt, &mut c, m, k, n);
                let want = oracle(&c0, k, &|o, p| (a[o / n * k + p], bt[o % n * k + p]));
                check("bt", &c, &want, k);

                let d = operand(m * n, 41, 17);
                let c0 = operand(k * n, 29, 31);
                let mut c = c0.clone();
                matmul_at_acc(&a, &d, &mut c, m, k, n);
                let want = oracle(&c0, m, &|o, i| (a[i * k + o / n], d[i * n + o % n]));
                check("at", &c, &want, m);
            }
        }
    }

    #[test]
    fn small_m_path_bitwise_matches_single_row_calls() {
        // Speculative verify relies on a batched m-row matmul producing
        // exactly the bytes of m single-row calls. Include zeros in `a`
        // so the zero-skip fires on both paths.
        // and past the tier: 8 + 1, 8 + 8, 16 · 8 + 1 rows walk in groups;
        // 32 and 64 are whole groups at the training shapes
        let ms = (2..=SMALL_M_MAX).chain([9, 16, 32, 64, 129]);
        for (m, (k, n)) in ms.flat_map(|m| [(37, 113), (128, 344), (344, 128)].map(|kn| (m, kn))) {
            for (set, gen) in OPERANDS {
                let (a, b) = (gen(m * k, 37, 19), dense_operand(k * n, 53, 23));
                let mut batched = vec![0.0; m * n];
                matmul(&a, &b, &mut batched, m, k, n);
                let mut per_row = vec![0.0; m * n];
                for i in 0..m {
                    matmul(
                        &a[i * k..(i + 1) * k],
                        &b,
                        &mut per_row[i * n..(i + 1) * n],
                        1,
                        k,
                        n,
                    );
                }
                assert_eq!(bits(&batched), bits(&per_row), "{set} m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn single_row_bitwise_matches_the_per_row_chain() {
        // One row through `matmul` (the per-row loop a solo decode step
        // takes) and through the fused small-m kernel (what it would take
        // if m = 1 were fused too: ROADMAP item 2) is the same chain: per
        // output element one p-ascending FMA chain that skips zero
        // coefficients. The skip is observable: a skipped coefficient
        // never meets its weight row, so a non-finite weight under a zero
        // stays out of the sum. Shapes put zeros inside an 8-group, in
        // the k % 8 tail, both, and nowhere; k < 8 is all tail.
        type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let chain = |a: &[f32], b: &[f32], n: usize| {
            let mut c = vec![0.0f32; n];
            for (p, &ap) in a.iter().enumerate() {
                if ap == 0.0 {
                    continue;
                }
                for (cv, &bv) in c.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                    *cv = ap.mul_add(bv, *cv);
                }
            }
            c
        };
        for (k, n, zeros) in [
            (37, 113, vec![3, 35]),
            (16, 9, vec![9]),
            (21, 64, vec![20]),
            (5, 7, vec![0, 4]),
            (24, 33, vec![]),
        ] {
            let mut a: Vec<f32> = (0..k).map(|i| ((i * 37 % 19) as f32 - 9.5) * 0.1).collect();
            let mut b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.1)
                .collect();
            for &p in &zeros {
                a[p] = 0.0;
                b[p * n + p % n] = f32::INFINITY;
            }
            let want: Vec<u32> = chain(&a, &b, n).iter().map(|v| v.to_bits()).collect();
            for (name, f) in [("matmul", matmul as Kernel), ("small_m", matmul_small_m)] {
                let mut c = vec![f32::NAN; n];
                f(&a, &b, &mut c, 1, k, n);
                assert!(c.iter().all(|v| v.is_finite()), "{name} k={k}: zero met");
                assert_eq!(
                    c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want,
                    "{name} k={k} n={n} zeros at {zeros:?}"
                );
            }
        }
    }
}
