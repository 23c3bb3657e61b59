//! Numerically stable row softmax and the streaming ("online") softmax
//! accumulator that powers the flash-style attention kernel.

/// In-place stable softmax over each row of a `[rows, d]` buffer.
pub fn softmax_rows(x: &mut [f32], rows: usize, d: usize) {
    debug_assert_eq!(x.len(), rows * d);
    for r in 0..rows {
        let row = &mut x[r * d..(r + 1) * d];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

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
    /// Ingest one score `s` whose weighted value row is `v`; `acc` holds the
    /// running weighted sum of values and is rescaled when the max moves.
    pub fn push(&mut self, s: f32, v: &[f32], acc: &mut [f32]) {
        if s > self.m {
            let scale = if self.m.is_finite() {
                (self.m - s).exp()
            } else {
                0.0
            };
            self.l *= scale;
            for a in acc.iter_mut() {
                *a *= scale;
            }
            self.m = s;
        }
        let w = (s - self.m).exp();
        self.l += w;
        for (a, &vv) in acc.iter_mut().zip(v.iter()) {
            *a = w.mul_add(vv, *a);
        }
    }

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

/// Row-wise log-sum-exp (stable).
pub fn logsumexp(row: &[f32]) -> f32 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    max + row.iter().map(|v| (v - max).exp()).sum::<f32>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut x, 2, 3);
        for r in 0..2 {
            let s: f32 = x[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(x[r * 3] < x[r * 3 + 1] && x[r * 3 + 1] < x[r * 3 + 2]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let mut x = vec![1000.0, 1001.0, 999.0];
        softmax_rows(&mut x, 1, 3);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn online_softmax_matches_batch_softmax() {
        let scores = [0.3f32, -1.2, 2.5, 0.0, 1.1];
        let values: Vec<Vec<f32>> = (0..5)
            .map(|i| vec![i as f32, (i as f32) * 0.5 - 1.0])
            .collect();
        // batch result
        let mut p = scores.to_vec();
        softmax_rows(&mut p, 1, 5);
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
