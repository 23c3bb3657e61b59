//! The streaming ("online") softmax accumulator every attention folds
//! with, and the cross-entropy loss's stable row softmax.

use super::exp::{exp, exp_slice};
use super::norm::{row_folds, row_sums, ROWS};

/// Streaming softmax state for one output row: the running max `m`, the
/// running normaliser `l`, and an externally owned accumulator. Feeding
/// scores tile by tile yields exactly the same result as materialising the
/// whole row — the identity flash attention is built on.
#[derive(Clone, Copy, Debug)]
pub struct OnlineSoftmax {
    /// Running row maximum.
    pub m: f32,
    /// Running sum of `exp(s - m)`.
    pub l: f32,
}

impl Default for OnlineSoftmax {
    fn default() -> Self {
        Self {
            m: f32::NEG_INFINITY,
            l: 0.0,
        }
    }
}

impl OnlineSoftmax {
    /// Finalise: divide the accumulator by the normaliser.
    pub fn finish(&self, acc: &mut [f32]) {
        let inv = 1.0 / self.l;
        for a in acc.iter_mut() {
            *a *= inv;
        }
    }

    /// The log-normaliser `m + ln(l)`, the statistic flash attention saves
    /// per row so the backward pass can reconstruct probabilities.
    pub fn logsumexp(&self) -> f32 {
        self.m + self.l.ln()
    }
}

/// A point where a row's running sums are multiplied by `scale`: where
/// the running max moved (`exp(m_old - m_new)`, or `0` when the old max
/// was `-inf`), and `1` at key 0 when the max first moves later (only
/// NaN or `-inf` scores come before it).
#[derive(Clone, Copy, Debug)]
struct Rescale {
    at: usize,
    scale: f32,
}

/// Scratch for [`OnlineSoftmax::fold_row`]: the row's weights and its
/// rescale points. One per worker, reused across rows.
#[derive(Debug, Default)]
pub(crate) struct RowScratch {
    w: Vec<f32>,
    rescales: Vec<Rescale>,
}

impl OnlineSoftmax {
    /// The streaming recurrence over a whole row of scores, `v(j)` being
    /// score `j`'s value row: the same float operations on `l` and on
    /// every element of `acc`, in the same order, done in phases. A
    /// prefix-max pass finds the rescale points and the exp arguments,
    /// one [`exp_slice`] call evaluates all of them, and the recurrence
    /// walks the keys with a slab of `acc` in registers. Returns the
    /// final state; `acc` is left unnormalised. The tests' one-score
    /// `push` is the recurrence's reference.
    pub(crate) fn fold_row<'v>(
        scores: &[f32],
        v: impl Fn(usize) -> &'v [f32],
        acc: &mut [f32],
        scratch: &mut RowScratch,
    ) -> OnlineSoftmax {
        let RowScratch { w, rescales } = scratch;
        let n = scores.len();
        w.clear();
        w.resize(n, 0.0);
        rescales.clear();
        // rescales[args..] hold exp arguments until the exp call
        let mut args = 0;
        let mut m = f32::NEG_INFINITY;
        for (j, (&s, wj)) in scores.iter().zip(w.iter_mut()).enumerate() {
            if s > m {
                if m.is_finite() {
                    rescales.push(Rescale {
                        at: j,
                        scale: m - s,
                    });
                } else {
                    // the first move, from -inf: NaN and -inf scores
                    // may come before it
                    if j > 0 {
                        rescales.push(Rescale { at: 0, scale: 1.0 });
                    }
                    rescales.push(Rescale { at: j, scale: 0.0 });
                    args = rescales.len();
                }
                m = s;
            }
            *wj = s - m;
        }
        if rescales.is_empty() {
            rescales.push(Rescale { at: 0, scale: 1.0 });
            args = 1;
        }
        w.extend(rescales[args..].iter().map(|r| r.scale));
        exp_slice(w);
        for (r, &e) in rescales[args..].iter_mut().zip(&w[n..]) {
            r.scale = e;
        }
        let (w, rescales) = (&w[..n], &rescales[..]);
        let mut l = 0.0f32;
        let mut c0 = fold_cols::<true>(0, w, rescales, &v, acc, &mut l);
        while c0 < acc.len() {
            c0 += fold_cols::<false>(c0, w, rescales, &v, acc, &mut l);
        }
        OnlineSoftmax { m, l }
    }
}

/// One slab of [`OnlineSoftmax::fold_row`]'s recurrence starting at
/// column `c0`, as wide as the columns left allow; with `L`, `l` too.
/// Returns the width.
#[inline(always)]
fn fold_cols<'v, const L: bool>(
    c0: usize,
    w: &[f32],
    rescales: &[Rescale],
    v: &impl Fn(usize) -> &'v [f32],
    acc: &mut [f32],
    l: &mut f32,
) -> usize {
    match acc.len() - c0 {
        32.. => fold_slab::<32, L>(c0, w, rescales, v, acc, l),
        16.. => fold_slab::<16, L>(c0, w, rescales, v, acc, l),
        8.. => fold_slab::<8, L>(c0, w, rescales, v, acc, l),
        _ => fold_slab::<1, L>(c0, w, rescales, v, acc, l),
    }
}

#[inline(always)]
fn fold_slab<'v, const W: usize, const L: bool>(
    c0: usize,
    w: &[f32],
    rescales: &[Rescale],
    v: &impl Fn(usize) -> &'v [f32],
    acc: &mut [f32],
    l: &mut f32,
) -> usize {
    let slab = &mut acc[c0..c0 + W];
    let mut a: [f32; W] = (&*slab).try_into().expect("slab width");
    let mut sum = *l;
    for (k, r) in rescales.iter().enumerate() {
        let end = rescales.get(k + 1).map_or(w.len(), |next| next.at);
        if L {
            sum *= r.scale;
        }
        for x in a.iter_mut() {
            *x *= r.scale;
        }
        for (j, &wj) in (r.at..end).zip(&w[r.at..end]) {
            if L {
                sum += wj;
            }
            let vj: &[f32; W] = v(j)[c0..c0 + W].try_into().expect("slab width");
            for (x, &vv) in a.iter_mut().zip(vj) {
                *x = wj.mul_add(vv, *x);
            }
        }
    }
    slab.copy_from_slice(&a);
    if L {
        *l = sum;
    }
    W
}

/// Target value that [`cross_entropy`] skips.
pub const IGNORE_INDEX: u32 = u32::MAX;

/// Mean cross-entropy of `logits` (`[n, vocab]`) against integer
/// `targets`, entries equal to [`IGNORE_INDEX`] skipped. The rows are
/// softmaxed in place into the probabilities the backward reads.
/// Returns the loss and the number of targets it averaged over (at
/// least 1). [`crate::Tape::cross_entropy`] and validation both run it.
pub fn cross_entropy(logits: &mut [f32], targets: &[u32], vocab: usize) -> (f32, usize) {
    let n = targets.len();
    assert_eq!(logits.len(), n * vocab, "targets length mismatch");
    // each block's row maxima and row sums side by side (see
    // `norm::row_folds`)
    for block in logits.chunks_mut(ROWS * vocab) {
        let rows = block.len() / vocab;
        let at = |r: usize, c: usize| block[r * vocab + c];
        let max = row_folds(rows, vocab, f32::NEG_INFINITY, at, f32::max);
        for (row, max) in block.chunks_exact_mut(vocab).zip(max) {
            for v in row.iter_mut() {
                *v -= max;
            }
            exp_slice(row);
        }
        let at = |r: usize, c: usize| block[r * vocab + c];
        let sum = row_sums(rows, vocab, 0.0, at);
        for (row, sum) in block.chunks_exact_mut(vocab).zip(sum) {
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
    let mut loss = 0.0f64;
    let mut n_valid = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        if t == IGNORE_INDEX {
            continue;
        }
        let p = logits[r * vocab + t as usize].max(1e-12);
        loss -= (p as f64).ln();
        n_valid += 1;
    }
    let n_valid = n_valid.max(1);
    ((loss / n_valid as f64) as f32, n_valid)
}

/// Row-wise log-sum-exp (stable).
pub fn logsumexp(row: &[f32]) -> f32 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    max + row.iter().map(|v| exp(v - max)).sum::<f32>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OnlineSoftmax {
        /// Ingest one score `s` whose weighted value row is `v`; `acc` holds the
        /// running weighted sum of values and is rescaled when the max moves:
        /// the recurrence [`OnlineSoftmax::fold_row`] runs a row at a time.
        pub(crate) fn push(&mut self, s: f32, v: &[f32], acc: &mut [f32]) {
            if s > self.m {
                let scale = if self.m.is_finite() {
                    exp(self.m - s)
                } else {
                    0.0
                };
                self.l *= scale;
                for a in acc.iter_mut() {
                    *a *= scale;
                }
                self.m = s;
            }
            let w = exp(s - self.m);
            self.l += w;
            for (a, &vv) in acc.iter_mut().zip(v.iter()) {
                *a = w.mul_add(vv, *a);
            }
        }
    }

    /// `x`'s rows of `vocab` softmaxed in place, as [`cross_entropy`]
    /// leaves them.
    fn softmax(x: &mut [f32], vocab: usize) {
        cross_entropy(x, &vec![IGNORE_INDEX; x.len() / vocab], vocab);
    }

    /// [`cross_entropy`] as it was before it took rows side by side.
    fn cross_entropy_reference(logits: &mut [f32], targets: &[u32], vocab: usize) -> (f32, usize) {
        for row in logits.chunks_exact_mut(vocab) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for v in row.iter_mut() {
                *v -= max;
            }
            exp_slice(row);
            let mut sum = 0.0f32;
            for &v in row.iter() {
                sum += v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        let mut loss = 0.0f64;
        let mut n_valid = 0usize;
        for (r, &t) in targets.iter().enumerate() {
            if t == IGNORE_INDEX {
                continue;
            }
            let p = logits[r * vocab + t as usize].max(1e-12);
            loss -= (p as f64).ln();
            n_valid += 1;
        }
        let n_valid = n_valid.max(1);
        ((loss / n_valid as f64) as f32, n_valid)
    }

    #[test]
    fn cross_entropy_and_its_gradient_equal_the_one_row_loops_bitwise() {
        use crate::kernels::norm::tests::{bits, values};
        use crate::{Tape, Tensor};
        for rows in [1, 7, 8, 9, 130] {
            for vocab in [2, 16, 24] {
                for special in [false, true] {
                    let at = format!("rows {rows} vocab {vocab} special {special}");
                    let logits = values(rows * vocab, rows + vocab, special);
                    let targets: Vec<u32> = (0..rows)
                        .map(|r| match r % 5 {
                            3 => IGNORE_INDEX,
                            _ => (r * 7 % vocab) as u32,
                        })
                        .collect();
                    let (mut got, mut want) = (logits.clone(), logits.clone());
                    let (loss, n) = cross_entropy(&mut got, &targets, vocab);
                    let (want_loss, want_n) = cross_entropy_reference(&mut want, &targets, vocab);
                    assert_eq!(bits(&got), bits(&want), "probs {at}");
                    assert_eq!(
                        (bits(&[loss]), n),
                        (bits(&[want_loss]), want_n),
                        "loss {at}"
                    );

                    // the tape's gradient against the loop it ran before
                    // the target got its own step
                    let mut tape = Tape::new();
                    let l = tape.input(Tensor::from_vec(&[rows, vocab], logits.clone()));
                    let ce = tape.cross_entropy(l, &targets);
                    tape.backward(ce);
                    let seed = 1.0 / n as f32;
                    let mut grad = vec![0.0f32; rows * vocab];
                    for (r, &t) in targets.iter().enumerate() {
                        if t == IGNORE_INDEX {
                            continue;
                        }
                        for c in 0..vocab {
                            let mut dv = want[r * vocab + c];
                            if c == t as usize {
                                dv -= 1.0;
                            }
                            grad[r * vocab + c] += seed * dv;
                        }
                    }
                    let got = tape.grad(l).expect("a gradient");
                    assert_eq!(bits(got.data()), bits(&grad), "grad {at}");
                }
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax(&mut x, 3);
        for r in 0..2 {
            let s: f32 = x[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(x[r * 3] < x[r * 3 + 1] && x[r * 3 + 1] < x[r * 3 + 2]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let mut x = vec![1000.0, 1001.0, 999.0];
        softmax(&mut x, 3);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fold_row_is_push_after_push_bitwise() {
        let inf = f32::INFINITY;
        let rows: [&[f32]; 10] = [
            &[0.3, -1.2, 2.5, 0.0, 1.1, 2.5, -0.0, 7.0, 6.9],
            &[f32::NAN, f32::NEG_INFINITY, 1.0, 3.0, f32::NAN, 2.0],
            &[f32::NEG_INFINITY, f32::NEG_INFINITY],
            &[-0.0, 0.0, -0.0, 0.0],
            &[1.0, inf, 5.0, inf],
            &[inf, 2.0],
            &[-5.0, 90.0, -20.0, 200.0, 199.0, 400.0, -1000.0],
            &[f32::NAN],
            &[],
            &[3.0; 40],
        ];
        let d = 37; // slabs of 32, 1, 1, 1, 1, 1
        for (r, scores) in rows.iter().enumerate() {
            let values: Vec<Vec<f32>> = (0..scores.len())
                .map(|j| (0..d).map(|c| ((j * d + c) as f32 * 0.37).sin()).collect())
                .collect();
            let mut want_acc = vec![0.0f32; d];
            let mut want = OnlineSoftmax::default();
            for (&s, v) in scores.iter().zip(&values) {
                want.push(s, v, &mut want_acc);
            }
            let mut acc = vec![0.0f32; d];
            let got = OnlineSoftmax::fold_row(
                scores,
                |j| &values[j],
                &mut acc,
                &mut RowScratch::default(),
            );
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&acc), bits(&want_acc), "row {r}");
            assert_eq!(
                [got.m.to_bits(), got.l.to_bits()],
                [want.m.to_bits(), want.l.to_bits()],
                "row {r}"
            );
        }
    }

    #[test]
    fn online_softmax_matches_batch_softmax() {
        let scores = [0.3f32, -1.2, 2.5, 0.0, 1.1];
        let values: Vec<Vec<f32>> = (0..5)
            .map(|i| vec![i as f32, (i as f32) * 0.5 - 1.0])
            .collect();
        // batch result
        let mut p = scores.to_vec();
        softmax(&mut p, 5);
        let mut expect = [0.0f32; 2];
        for (pi, v) in p.iter().zip(values.iter()) {
            expect[0] += pi * v[0];
            expect[1] += pi * v[1];
        }
        // online result
        let mut os = OnlineSoftmax::default();
        let mut acc = vec![0.0f32; 2];
        for (s, v) in scores.iter().zip(values.iter()) {
            os.push(*s, v, &mut acc);
        }
        os.finish(&mut acc);
        for (a, e) in acc.iter().zip(expect.iter()) {
            assert!((a - e).abs() < 1e-5, "{a} vs {e}");
        }
        assert!((os.logsumexp() - logsumexp(&scores)).abs() < 1e-5);
    }
}
