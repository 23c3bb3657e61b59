//! Property-based tests for the tensor kernels and tape invariants.

use matgpt_tensor::kernels::attention::{causal_attention_fwd, AttentionImpl};
use matgpt_tensor::kernels::matmul::matmul;
use matgpt_tensor::kernels::softmax::{cross_entropy, logsumexp};
use matgpt_tensor::{init, ParamStore, Tape, Tensor};
use proptest::prelude::*;

fn small_f32() -> impl Strategy<Value = f32> {
    (-4.0f32..4.0).prop_map(|x| (x * 100.0).round() / 100.0)
}

fn tensor_strategy(
    max_rows: usize,
    max_cols: usize,
) -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(small_f32(), r * c).prop_map(move |v| (r, c, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// matmul distributes over addition: (A + A') B == AB + A'B.
    #[test]
    fn matmul_is_linear((m, k, a) in tensor_strategy(6, 6), n in 1usize..6) {
        let a2: Vec<f32> = a.iter().map(|x| x * 0.5 + 0.1).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.1).collect();
        let sum_a: Vec<f32> = a.iter().zip(&a2).map(|(x, y)| x + y).collect();
        let mut ab = vec![0.0; m * n];
        let mut a2b = vec![0.0; m * n];
        let mut sab = vec![0.0; m * n];
        matmul(&a, &b, &mut ab, m, k, n);
        matmul(&a2, &b, &mut a2b, m, k, n);
        matmul(&sum_a, &b, &mut sab, m, k, n);
        for i in 0..m * n {
            prop_assert!((sab[i] - (ab[i] + a2b[i])).abs() < 1e-3);
        }
    }

    /// Identity is a right unit for matmul.
    #[test]
    fn matmul_identity((m, k, a) in tensor_strategy(6, 6)) {
        let mut eye = vec![0.0f32; k * k];
        for i in 0..k { eye[i * k + i] = 1.0; }
        let mut c = vec![0.0; m * k];
        matmul(&a, &eye, &mut c, m, k, k);
        for i in 0..m * k {
            prop_assert!((c[i] - a[i]).abs() < 1e-5);
        }
    }

    /// The rows `cross_entropy` softmaxes are probability distributions
    /// invariant to shifts.
    #[test]
    fn softmax_shift_invariant((r, c, x) in tensor_strategy(5, 8), shift in -10.0f32..10.0) {
        let ignored = vec![matgpt_tensor::IGNORE_INDEX; r];
        let mut p1 = x.clone();
        cross_entropy(&mut p1, &ignored, c);
        let mut p2: Vec<f32> = x.iter().map(|v| v + shift).collect();
        cross_entropy(&mut p2, &ignored, c);
        for row in 0..r {
            let s: f32 = p1[row * c..(row + 1) * c].iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
        for i in 0..r * c {
            prop_assert!((p1[i] - p2[i]).abs() < 1e-4);
        }
    }

    /// logsumexp upper/lower bounds: max <= lse <= max + ln(n).
    #[test]
    fn logsumexp_bounds(xs in proptest::collection::vec(small_f32(), 1..16)) {
        let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = logsumexp(&xs);
        prop_assert!(lse >= max - 1e-5);
        prop_assert!(lse <= max + (xs.len() as f32).ln() + 1e-5);
    }

    /// Naive attention is flash attention plus a stash: equal outputs,
    /// bit for bit, on arbitrary inputs.
    #[test]
    fn flash_equals_naive(
        bh in 1usize..3,
        t in 1usize..8,
        d in 1usize..5,
        seed in 0u64..1000,
    ) {
        let n = bh * t * d;
        let mut rng = init::rng(seed);
        let q = init::randn(&[n], 1.0, &mut rng).into_vec();
        let k = init::randn(&[n], 1.0, &mut rng).into_vec();
        let v = init::randn(&[n], 1.0, &mut rng).into_vec();
        let (o1, _) = causal_attention_fwd(&q, &k, &v, bh, t, d, AttentionImpl::Naive);
        let (o2, _) = causal_attention_fwd(&q, &k, &v, bh, t, d, AttentionImpl::Flash);
        for (a, b) in o1.iter().zip(o2.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
        }
    }

    /// Attention output rows are convex combinations of value rows: the
    /// output is bounded by the min/max of visible values per dimension.
    #[test]
    fn attention_output_within_value_hull(
        t in 1usize..8,
        d in 1usize..4,
        seed in 0u64..1000,
    ) {
        let n = t * d;
        let mut rng = init::rng(seed);
        let q = init::randn(&[n], 1.0, &mut rng).into_vec();
        let k = init::randn(&[n], 1.0, &mut rng).into_vec();
        let v = init::randn(&[n], 1.0, &mut rng).into_vec();
        let (o, _) = causal_attention_fwd(&q, &k, &v, 1, t, d, AttentionImpl::Flash);
        for i in 0..t {
            for x in 0..d {
                let visible: Vec<f32> = (0..=i).map(|j| v[j * d + x]).collect();
                let lo = visible.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = visible.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(o[i * d + x] >= lo - 1e-4 && o[i * d + x] <= hi + 1e-4);
            }
        }
    }

    /// Reverse-mode gradient of sum(x @ w) w.r.t. w equals column sums of x.
    #[test]
    fn matmul_grad_closed_form((m, k, xdata) in tensor_strategy(5, 5), n in 1usize..4) {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(&[k, n]));
        let x = Tensor::from_vec(&[m, k], xdata.clone());
        let mut tape = Tape::new();
        let xv = tape.input(x);
        let wv = tape.param(&store, w);
        let y = tape.matmul(xv, wv);
        let l = tape.sum(y);
        tape.backward(l);
        tape.accumulate_param_grads(&mut store);
        // d sum(XW) / dW[p, j] = sum_i X[i, p]
        for p in 0..k {
            let col_sum: f32 = (0..m).map(|i| xdata[i * k + p]).sum();
            for j in 0..n {
                let g = store.grad(w).data()[p * n + j];
                prop_assert!((g - col_sum).abs() < 1e-3, "{} vs {}", g, col_sum);
            }
        }
    }

    /// Rotary embedding preserves per-position vector norms (it is a
    /// rotation), and position 0 is unchanged.
    #[test]
    fn rotary_preserves_norm(t in 1usize..6, half in 1usize..4, seed in 0u64..100) {
        let d = half * 2;
        let mut rng = init::rng(seed);
        let x = init::randn(&[1, t, d], 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let r = tape.rotary(xv, t, d, 10_000.0);
        let rd = tape.value(r).data();
        for ti in 0..t {
            let xin = &x.data()[ti * d..(ti + 1) * d];
            let xout = &rd[ti * d..(ti + 1) * d];
            let ni: f32 = xin.iter().map(|v| v * v).sum();
            let no: f32 = xout.iter().map(|v| v * v).sum();
            prop_assert!((ni - no).abs() < 1e-3);
            if ti == 0 {
                for (a, b) in xin.iter().zip(xout.iter()) {
                    prop_assert!((a - b).abs() < 1e-6);
                }
            }
        }
    }

    /// Cross-entropy is minimal when logits put all mass on the target.
    #[test]
    fn cross_entropy_ordering(v in 2usize..6, target in 0usize..6) {
        let target = target % v;
        let mut good = vec![0.0f32; v];
        good[target] = 10.0;
        let mut bad = vec![0.0f32; v];
        bad[(target + 1) % v] = 10.0;
        let mut tape = Tape::new();
        let gl = tape.input(Tensor::from_vec(&[1, v], good));
        let bl = tape.input(Tensor::from_vec(&[1, v], bad));
        let lg = tape.cross_entropy(gl, &[target as u32]);
        let lb = tape.cross_entropy(bl, &[target as u32]);
        prop_assert!(tape.value(lg).item() < tape.value(lb).item());
    }
}
