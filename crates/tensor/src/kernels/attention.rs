//! Causal multi-head attention kernels.
//!
//! Two functionally identical implementations, mirroring the contrast the
//! paper measures on MI250X (Figs. 4 and 5):
//!
//! * [`AttentionImpl::Naive`] materialises the full `[T, T]` probability
//!   matrix per head — O(T²) auxiliary memory, saved for the backward pass;
//! * [`AttentionImpl::Flash`] streams keys/values with an online softmax —
//!   O(T) auxiliary memory per row, saving only the per-row log-sum-exp and
//!   recomputing probabilities tile-free in the backward pass.
//!
//! Inputs are laid out `[BH, T, D]` (batch×heads fused, contiguous rows).

use super::exp::exp_slice;
use super::softmax::{softmax_rows, OnlineSoftmax, RowScratch};
use rayon::prelude::*;

/// Which attention algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttentionImpl {
    /// Quadratic-memory reference implementation.
    Naive,
    /// Linear-memory streaming implementation (flash-attention style).
    Flash,
}

/// Tensors stashed by the forward pass for the backward pass.
#[derive(Clone, Debug)]
pub enum AttnSaved {
    /// Full probabilities `[BH, T, T]` (naive).
    Probs(Vec<f32>),
    /// Per-row log-sum-exp `[BH, T]` (flash).
    Lse(Vec<f32>),
}

impl AttnSaved {
    /// Bytes of auxiliary memory this save set occupies — the quantity the
    /// paper's Fig. 5 tracks (quadratic vs linear in sequence length).
    pub fn aux_bytes(&self) -> usize {
        match self {
            AttnSaved::Probs(p) => p.len() * std::mem::size_of::<f32>(),
            AttnSaved::Lse(l) => l.len() * std::mem::size_of::<f32>(),
        }
    }
}

/// Forward causal attention. Returns `(out, saved)` where `out` is
/// `[BH, T, D]`.
pub fn causal_attention_fwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    bh: usize,
    t: usize,
    d: usize,
    imp: AttentionImpl,
) -> (Vec<f32>, AttnSaved) {
    attention_fwd(q, k, v, bh, t, d, imp, true)
}

/// Forward attention with a selectable mask: `causal = true` masks
/// future positions, `false` is full bidirectional attention (BERT-style).
#[allow(clippy::too_many_arguments)]
pub fn attention_fwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    bh: usize,
    t: usize,
    d: usize,
    imp: AttentionImpl,
    causal: bool,
) -> (Vec<f32>, AttnSaved) {
    debug_assert_eq!(q.len(), bh * t * d);
    debug_assert_eq!(k.len(), bh * t * d);
    debug_assert_eq!(v.len(), bh * t * d);
    let scale = 1.0 / (d as f32).sqrt();
    match imp {
        AttentionImpl::Naive => {
            let mut out = vec![0.0f32; bh * t * d];
            let mut probs = vec![0.0f32; bh * t * t];
            out.par_chunks_mut(t * d)
                .zip(probs.par_chunks_mut(t * t))
                .enumerate()
                .for_each(|(b, (ob, pb))| {
                    let qb = &q[b * t * d..(b + 1) * t * d];
                    let kb = &k[b * t * d..(b + 1) * t * d];
                    let vb = &v[b * t * d..(b + 1) * t * d];
                    // scores with causal mask
                    for i in 0..t {
                        let qi = &qb[i * d..(i + 1) * d];
                        let hi = if causal { i } else { t - 1 };
                        for j in 0..t {
                            pb[i * t + j] = if j <= hi {
                                let kj = &kb[j * d..(j + 1) * d];
                                qi.iter().zip(kj).map(|(a, b)| a * b).sum::<f32>() * scale
                            } else {
                                f32::NEG_INFINITY
                            };
                        }
                    }
                    softmax_rows(pb, t, t);
                    // out = P @ V
                    for i in 0..t {
                        let oi = &mut ob[i * d..(i + 1) * d];
                        let hi = if causal { i } else { t - 1 };
                        for j in 0..=hi {
                            let p = pb[i * t + j];
                            if p == 0.0 {
                                continue;
                            }
                            let vj = &vb[j * d..(j + 1) * d];
                            for (o, &vv) in oi.iter_mut().zip(vj) {
                                *o += p * vv;
                            }
                        }
                    }
                });
            (out, AttnSaved::Probs(probs))
        }
        AttentionImpl::Flash => {
            let mut out = vec![0.0f32; bh * t * d];
            let mut lse = vec![0.0f32; bh * t];
            let init = || {
                (
                    KeyMajor::new(t, d),
                    vec![0.0f32; t.next_multiple_of(KEYS)],
                    RowScratch::default(),
                )
            };
            let heads = out.par_chunks_mut(t * d).zip(lse.par_chunks_mut(t));
            heads
                .enumerate()
                .for_each_init(init, |(kt, scores, row), (b, (ob, lb))| {
                    let qb = &q[b * t * d..(b + 1) * t * d];
                    let vb = &v[b * t * d..(b + 1) * t * d];
                    kt.fill(&k[b * t * d..(b + 1) * t * d]);
                    for (i, (acc, l)) in ob.chunks_mut(d).zip(lb.iter_mut()).enumerate() {
                        let n = if causal { i + 1 } else { t };
                        kt.dots(&qb[i * d..(i + 1) * d], n, scale, scores);
                        let v = |j: usize| &vb[j * d..(j + 1) * d];
                        let os = OnlineSoftmax::fold_row(&scores[..n], v, acc, row);
                        os.finish(acc);
                        *l = os.logsumexp();
                    }
                });
            (out, AttnSaved::Lse(lse))
        }
    }
}

/// Keys scored per vector by [`KeyMajor::dots`].
const KEYS: usize = 16;

/// One head's `[t, d]` keys (or values) laid out key-major,
/// `[d, t_pad]` with `t_pad` a multiple of [`KEYS`]: component `c` of
/// keys `j..j+16` is one contiguous vector.
struct KeyMajor {
    data: Vec<f32>,
    t_pad: usize,
}

impl KeyMajor {
    fn new(t: usize, d: usize) -> Self {
        let t_pad = t.next_multiple_of(KEYS);
        Self {
            data: vec![0.0f32; d * t_pad],
            t_pad,
        }
    }

    /// Lay out `x = [t, d]`, the shape this was made for.
    fn fill(&mut self, x: &[f32]) {
        let d = self.data.len() / self.t_pad;
        for (j, row) in x.chunks_exact(d).enumerate() {
            for (c, &e) in row.iter().enumerate() {
                self.data[c * self.t_pad + j] = e;
            }
        }
    }

    /// `out[j] = q · row j · scale` for `j < n` (and up to `n` rounded up
    /// to [`KEYS`]), 16 rows per step, each dot the tape's: unfused
    /// products summed in order from `-0.0`, as `Iterator::sum` does.
    fn dots(&self, q: &[f32], n: usize, scale: f32, out: &mut [f32]) {
        for (g, out) in (0..n).step_by(KEYS).zip(out.chunks_exact_mut(KEYS)) {
            let mut sum = [-0.0f32; KEYS];
            for (c, &qc) in q.iter().enumerate() {
                let col = &self.data[c * self.t_pad + g..][..KEYS];
                for (x, &e) in sum.iter_mut().zip(col) {
                    *x += qc * e;
                }
            }
            for (o, &x) in out.iter_mut().zip(&sum) {
                *o = x * scale;
            }
        }
    }
}

/// Backward causal attention. Accumulates into `dq`, `dk`, `dv`.
#[allow(clippy::too_many_arguments)]
pub fn causal_attention_bwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    out: &[f32],
    dout: &[f32],
    saved: &AttnSaved,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
    bh: usize,
    t: usize,
    d: usize,
) {
    attention_bwd(q, k, v, out, dout, saved, dq, dk, dv, bh, t, d, true);
}

/// Backward attention with a selectable mask (see [`attention_fwd`]).
#[allow(clippy::too_many_arguments)]
pub fn attention_bwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    out: &[f32],
    dout: &[f32],
    saved: &AttnSaved,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
    bh: usize,
    t: usize,
    d: usize,
    causal: bool,
) {
    debug_assert_eq!(dq.len(), bh * t * d);
    let scale = 1.0 / (d as f32).sqrt();
    // Parallel over the fused batch-head dimension: each chunk of dq/dk/dv
    // belongs to exactly one head, so the accumulation is race-free.
    let heads = dq
        .par_chunks_mut(t * d)
        .zip(dk.par_chunks_mut(t * d))
        .zip(dv.par_chunks_mut(t * d));
    let init = || {
        let row = || vec![0.0f32; t.next_multiple_of(KEYS)];
        (
            KeyMajor::new(t, d),
            KeyMajor::new(t, d),
            vec![0.0f32; t],
            row(),
            row(),
        )
    };
    heads
        .enumerate()
        .for_each_init(init, |(kt, vt, drow, p, dp), (b, ((dqb, dkb), dvb))| {
            let qb = &q[b * t * d..(b + 1) * t * d];
            let kb = &k[b * t * d..(b + 1) * t * d];
            let ob = &out[b * t * d..(b + 1) * t * d];
            let dob = &dout[b * t * d..(b + 1) * t * d];
            // D_i = dO_i · O_i (both algorithms use it)
            for (i, dr) in drow.iter_mut().enumerate() {
                *dr = dob[i * d..(i + 1) * d]
                    .iter()
                    .zip(&ob[i * d..(i + 1) * d])
                    .map(|(a, b)| a * b)
                    .sum();
            }
            if let AttnSaved::Lse(_) = saved {
                kt.fill(kb);
            }
            vt.fill(&v[b * t * d..(b + 1) * t * d]);
            for i in 0..t {
                let qi = &qb[i * d..(i + 1) * d];
                let doi = &dob[i * d..(i + 1) * d];
                let n = if causal { i + 1 } else { t };
                // row i's probabilities, saved or recomputed from its lse
                match saved {
                    AttnSaved::Probs(probs) => {
                        p[..n].copy_from_slice(&probs[(b * t + i) * t..][..n])
                    }
                    AttnSaved::Lse(l) => {
                        kt.dots(qi, n, scale, p);
                        for x in &mut p[..n] {
                            *x -= l[b * t + i];
                        }
                        exp_slice(&mut p[..n]);
                    }
                }
                // dp_ij = dO_i · V_j (a scale of 1 is exact)
                vt.dots(doi, n, 1.0, dp);
                let dqi = &mut dqb[i * d..(i + 1) * d];
                for (j, (&p, &dp)) in p[..n].iter().zip(&dp[..n]).enumerate() {
                    if p == 0.0 {
                        continue;
                    }
                    // ds_ij = p (dp - D_i)
                    let ds = p * (dp - drow[i]) * scale;
                    let kj = &kb[j * d..(j + 1) * d];
                    for (g, &kx) in dqi.iter_mut().zip(kj) {
                        *g += ds * kx;
                    }
                    for (g, &qx) in dkb[j * d..(j + 1) * d].iter_mut().zip(qi) {
                        *g += ds * qx;
                    }
                    for (g, &dox) in dvb[j * d..(j + 1) * d].iter_mut().zip(doi) {
                        *g += p * dox;
                    }
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_buf(n: usize, seed: u64) -> Vec<f32> {
        // cheap deterministic pseudo-random values
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((x >> 33) as f32 / u32::MAX as f32 - 0.5) * 2.0
            })
            .collect()
    }

    /// The flash forward as it was before it scored first: one key at a
    /// time through [`OnlineSoftmax::push`], sequential-sum dots.
    fn flash_fwd_reference(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        bh: usize,
        t: usize,
        d: usize,
        causal: bool,
    ) -> (Vec<f32>, Vec<f32>) {
        let scale = 1.0 / (d as f32).sqrt();
        let mut out = vec![0.0f32; bh * t * d];
        let mut lse = vec![0.0f32; bh * t];
        for b in 0..bh {
            let (qb, kb, vb) = (&q[b * t * d..], &k[b * t * d..], &v[b * t * d..]);
            for i in 0..t {
                let qi = &qb[i * d..(i + 1) * d];
                let mut os = OnlineSoftmax::default();
                let acc = &mut out[(b * t + i) * d..(b * t + i + 1) * d];
                let hi = if causal { i } else { t - 1 };
                for j in 0..=hi {
                    let kj = &kb[j * d..(j + 1) * d];
                    let s = qi.iter().zip(kj).map(|(a, b)| a * b).sum::<f32>() * scale;
                    os.push(s, &vb[j * d..(j + 1) * d], acc);
                }
                os.finish(acc);
                lse[b * t + i] = os.logsumexp();
            }
        }
        (out, lse)
    }

    /// The backward as it was before it scored first: per key pair,
    /// probability recomputed (or read), then `dO·V`, then the updates.
    #[allow(clippy::too_many_arguments)]
    fn bwd_reference(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        out: &[f32],
        dout: &[f32],
        saved: &AttnSaved,
        bh: usize,
        t: usize,
        d: usize,
        causal: bool,
    ) -> [Vec<f32>; 3] {
        let scale = 1.0 / (d as f32).sqrt();
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(a, b)| a * b).sum::<f32>();
        let [mut dq, mut dk, mut dv] = [0; 3].map(|_| vec![0.0f32; bh * t * d]);
        for b in 0..bh {
            let row = |i: usize| (b * t + i) * d..(b * t + i + 1) * d;
            for i in 0..t {
                let drow = dot(&dout[row(i)], &out[row(i)]);
                let hi = if causal { i } else { t - 1 };
                for j in 0..=hi {
                    let p = match saved {
                        AttnSaved::Probs(p) => p[b * t * t + i * t + j],
                        AttnSaved::Lse(l) => {
                            let s = dot(&q[row(i)], &k[row(j)]) * scale;
                            crate::kernels::exp::exp(s - l[b * t + i])
                        }
                    };
                    if p == 0.0 {
                        continue;
                    }
                    let dp = dot(&dout[row(i)], &v[row(j)]);
                    let ds = p * (dp - drow) * scale;
                    for x in 0..d {
                        dq[row(i)][x] += ds * k[row(j)][x];
                        dk[row(j)][x] += ds * q[row(i)][x];
                        dv[row(j)][x] += p * dout[row(i)][x];
                    }
                }
            }
        }
        [dq, dk, dv]
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn flash_fwd_and_bwd_equal_their_references_bitwise() {
        // the training shape, odd shapes, d with and without a
        // multiple of 16, and scores far enough apart that exp's
        // special path and the rescale by 0 run
        for (bh, t, d, spread) in [
            (32, 32, 16, 1.0),
            (3, 7, 5, 1.0),
            (2, 17, 6, 1.0),
            (2, 33, 32, 1.0),
            (1, 1, 4, 1.0),
            (4, 19, 16, 60.0),
        ] {
            let q = rand_buf(bh * t * d, 21);
            let k: Vec<f32> = rand_buf(bh * t * d, 22)
                .iter()
                .enumerate()
                .map(|(x, &e)| if (x / d) % 3 == 1 { e * spread } else { e })
                .collect();
            let v = rand_buf(bh * t * d, 23);
            let dout = rand_buf(bh * t * d, 24);
            for causal in [true, false] {
                let (want, want_lse) = flash_fwd_reference(&q, &k, &v, bh, t, d, causal);
                let (got, saved) =
                    attention_fwd(&q, &k, &v, bh, t, d, AttentionImpl::Flash, causal);
                let AttnSaved::Lse(lse) = &saved else {
                    unreachable!()
                };
                let at = format!("bh {bh} t {t} d {d} spread {spread} causal {causal}");
                assert_eq!(bits(&got), bits(&want), "fwd {at}");
                assert_eq!(bits(lse), bits(&want_lse), "lse {at}");
                let (naive, probs) =
                    attention_fwd(&q, &k, &v, bh, t, d, AttentionImpl::Naive, causal);
                for (o, saved) in [(&got, &saved), (&naive, &probs)] {
                    let want = bwd_reference(&q, &k, &v, o, &dout, saved, bh, t, d, causal);
                    let mut got = [0; 3].map(|_| vec![0.0f32; bh * t * d]);
                    let [dq, dk, dv] = &mut got;
                    attention_bwd(&q, &k, &v, o, &dout, saved, dq, dk, dv, bh, t, d, causal);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(bits(g), bits(w), "bwd {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn flash_matches_naive_forward() {
        let (bh, t, d) = (3, 7, 4);
        let q = rand_buf(bh * t * d, 1);
        let k = rand_buf(bh * t * d, 2);
        let v = rand_buf(bh * t * d, 3);
        let (o1, _) = causal_attention_fwd(&q, &k, &v, bh, t, d, AttentionImpl::Naive);
        let (o2, _) = causal_attention_fwd(&q, &k, &v, bh, t, d, AttentionImpl::Flash);
        for (a, b) in o1.iter().zip(o2.iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn flash_aux_memory_is_linear_naive_quadratic() {
        let (bh, d) = (2, 8);
        let mut naive_prev = 0;
        let mut flash_prev = 0;
        for t in [16usize, 32] {
            let q = rand_buf(bh * t * d, 1);
            let (_, sn) = causal_attention_fwd(&q, &q, &q, bh, t, d, AttentionImpl::Naive);
            let (_, sf) = causal_attention_fwd(&q, &q, &q, bh, t, d, AttentionImpl::Flash);
            if naive_prev > 0 {
                assert_eq!(sn.aux_bytes(), naive_prev * 4); // T doubled -> 4x
                assert_eq!(sf.aux_bytes(), flash_prev * 2); // T doubled -> 2x
            }
            naive_prev = sn.aux_bytes();
            flash_prev = sf.aux_bytes();
        }
    }

    #[test]
    fn causality_first_row_sees_only_itself() {
        let (bh, t, d) = (1, 4, 2);
        let q = rand_buf(bh * t * d, 5);
        let k = rand_buf(bh * t * d, 6);
        let v = rand_buf(bh * t * d, 7);
        let (o, _) = causal_attention_fwd(&q, &k, &v, bh, t, d, AttentionImpl::Naive);
        // row 0 attends only to position 0 -> out[0] == v[0]
        assert!((o[0] - v[0]).abs() < 1e-6);
        assert!((o[1] - v[1]).abs() < 1e-6);
    }

    #[test]
    fn backward_matches_finite_difference_both_impls() {
        let (bh, t, d) = (1, 5, 3);
        let q0 = rand_buf(bh * t * d, 11);
        let k0 = rand_buf(bh * t * d, 12);
        let v0 = rand_buf(bh * t * d, 13);
        let w = rand_buf(bh * t * d, 14); // weights for scalar objective

        for imp in [AttentionImpl::Naive, AttentionImpl::Flash] {
            let f = |q: &[f32], k: &[f32], v: &[f32]| {
                let (o, _) = causal_attention_fwd(q, k, v, bh, t, d, imp);
                o.iter().zip(w.iter()).map(|(a, b)| a * b).sum::<f32>()
            };
            let (o, saved) = causal_attention_fwd(&q0, &k0, &v0, bh, t, d, imp);
            let mut dq = vec![0.0; q0.len()];
            let mut dk = vec![0.0; k0.len()];
            let mut dv = vec![0.0; v0.len()];
            causal_attention_bwd(
                &q0, &k0, &v0, &o, &w, &saved, &mut dq, &mut dk, &mut dv, bh, t, d,
            );
            let h = 1e-2;
            for i in 0..q0.len() {
                let mut qp = q0.clone();
                qp[i] += h;
                let mut qm = q0.clone();
                qm[i] -= h;
                let num = (f(&qp, &k0, &v0) - f(&qm, &k0, &v0)) / (2.0 * h);
                assert!(
                    (num - dq[i]).abs() < 3e-2,
                    "{imp:?} dq[{i}] {num} vs {}",
                    dq[i]
                );
            }
            for i in 0..k0.len() {
                let mut kp = k0.clone();
                kp[i] += h;
                let mut km = k0.clone();
                km[i] -= h;
                let num = (f(&q0, &kp, &v0) - f(&q0, &km, &v0)) / (2.0 * h);
                assert!(
                    (num - dk[i]).abs() < 3e-2,
                    "{imp:?} dk[{i}] {num} vs {}",
                    dk[i]
                );
            }
            for i in 0..v0.len() {
                let mut vp = v0.clone();
                vp[i] += h;
                let mut vm = v0.clone();
                vm[i] -= h;
                let num = (f(&q0, &k0, &vp) - f(&q0, &k0, &vm)) / (2.0 * h);
                assert!(
                    (num - dv[i]).abs() < 3e-2,
                    "{imp:?} dv[{i}] {num} vs {}",
                    dv[i]
                );
            }
        }
    }
}
