//! End-to-end gradient checks through composed tape graphs.
//!
//! Each test builds a scalar objective from tape ops, takes analytic
//! gradients via `backward`, and compares against central finite
//! differences on the raw parameter buffers.

use matgpt_tensor::{init, ParamStore, Tape, Tensor, Var};

/// Finite-difference check: perturb every scalar of every param, compare
/// with the analytic gradient.
fn grad_check(store: &mut ParamStore, build: &dyn Fn(&mut Tape, &ParamStore) -> Var, tol: f32) {
    // analytic
    store.zero_grads();
    let mut tape = Tape::new();
    let loss = build(&mut tape, store);
    tape.backward(loss);
    tape.accumulate_param_grads(store);
    let analytic: Vec<Vec<f32>> = store
        .ids()
        .map(|id| store.grad(id).data().to_vec())
        .collect();

    let eval = |store: &ParamStore| -> f32 {
        let mut tape = Tape::new();
        let loss = build(&mut tape, store);
        tape.value(loss).item()
    };

    let h = 1e-2f32;
    #[allow(clippy::needless_range_loop)]
    for (pi, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
        for i in 0..store.value(id).numel() {
            let orig = store.value(id).data()[i];
            store.value_mut(id).data_mut()[i] = orig + h;
            let fp = eval(store);
            store.value_mut(id).data_mut()[i] = orig - h;
            let fm = eval(store);
            store.value_mut(id).data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * h);
            let ana = analytic[pi][i];
            assert!(
                (num - ana).abs() < tol,
                "param {pi} [{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }
}

#[test]
fn linear_gelu_chain() {
    let mut rng = init::rng(1);
    let mut store = ParamStore::new();
    let w1 = store.add("w1", init::randn(&[3, 4], 0.5, &mut rng));
    let b1 = store.add("b1", init::randn(&[4], 0.2, &mut rng));
    let w2 = store.add("w2", init::randn(&[4, 2], 0.5, &mut rng));
    let x = init::randn(&[5, 3], 1.0, &mut rng);
    grad_check(
        &mut store,
        &move |tape, store| {
            let xv = tape.input(x.clone());
            let w1v = tape.param(store, w1);
            let b1v = tape.param(store, b1);
            let w2v = tape.param(store, w2);
            let h = tape.linear(xv, w1v, b1v);
            let h = tape.gelu(h);
            let y = tape.matmul(h, w2v);
            tape.mean(y)
        },
        2e-2,
    );
}

#[test]
fn layernorm_residual_block() {
    let mut rng = init::rng(2);
    let mut store = ParamStore::new();
    let g = store.add("g", init::randn(&[4], 0.3, &mut rng));
    let b = store.add("b", init::randn(&[4], 0.3, &mut rng));
    let w = store.add("w", init::randn(&[4, 4], 0.5, &mut rng));
    let x = init::randn(&[3, 4], 1.0, &mut rng);
    grad_check(
        &mut store,
        &move |tape, store| {
            let xv = tape.input(x.clone());
            let gv = tape.param(store, g);
            let bv = tape.param(store, b);
            let wv = tape.param(store, w);
            let n = tape.layernorm(xv, gv, bv, 1e-5);
            let h = tape.matmul(n, wv);
            let h = tape.silu(h);
            let r = tape.add(h, xv);
            tape.sum(r)
        },
        3e-2,
    );
}

#[test]
fn rmsnorm_swiglu_block() {
    let mut rng = init::rng(3);
    let mut store = ParamStore::new();
    let g = store.add("g", init::randn(&[4], 0.3, &mut rng));
    let w1 = store.add("w1", init::randn(&[4, 6], 0.4, &mut rng));
    let w3 = store.add("w3", init::randn(&[4, 6], 0.4, &mut rng));
    let w2 = store.add("w2", init::randn(&[6, 4], 0.4, &mut rng));
    let x = init::randn(&[2, 4], 1.0, &mut rng);
    grad_check(
        &mut store,
        &move |tape, store| {
            let xv = tape.input(x.clone());
            let gv = tape.param(store, g);
            let w1v = tape.param(store, w1);
            let w3v = tape.param(store, w3);
            let w2v = tape.param(store, w2);
            let n = tape.rmsnorm(xv, gv, 1e-6);
            let a = tape.matmul(n, w1v);
            let a = tape.silu(a);
            let bq = tape.matmul(n, w3v);
            let h = tape.mul(a, bq);
            let y = tape.matmul(h, w2v);
            tape.mean(y)
        },
        2e-2,
    );
}

#[test]
fn embedding_cross_entropy() {
    let mut rng = init::rng(4);
    let mut store = ParamStore::new();
    let table = store.add("emb", init::randn(&[7, 4], 0.5, &mut rng));
    let w = store.add("w", init::randn(&[4, 7], 0.5, &mut rng));
    let ids = vec![0u32, 3, 6, 3];
    let targets = vec![3u32, 6, 0, matgpt_tensor::IGNORE_INDEX];
    grad_check(
        &mut store,
        &move |tape, store| {
            let tv = tape.param(store, table);
            let wv = tape.param(store, w);
            let e = tape.embedding(tv, &ids);
            let logits = tape.matmul(e, wv);
            tape.cross_entropy(logits, &targets)
        },
        2e-2,
    );
}

#[test]
fn attention_through_tape_both_impls() {
    for imp in [
        matgpt_tensor::AttentionImpl::Naive,
        matgpt_tensor::AttentionImpl::Flash,
    ] {
        let mut rng = init::rng(5);
        let mut store = ParamStore::new();
        let wq = store.add("wq", init::randn(&[4, 4], 0.5, &mut rng));
        let wk = store.add("wk", init::randn(&[4, 4], 0.5, &mut rng));
        let wv = store.add("wv", init::randn(&[4, 4], 0.5, &mut rng));
        let x = init::randn(&[1, 6, 4], 1.0, &mut rng); // B=1, T=6, h=4
        grad_check(
            &mut store,
            &move |tape, store| {
                tape.attention_impl = Some(imp);
                let xv = tape.input(x.clone());
                let wqv = tape.param(store, wq);
                let wkv = tape.param(store, wk);
                let wvv = tape.param(store, wv);
                let q = tape.matmul(xv, wqv);
                let k = tape.matmul(xv, wkv);
                let v = tape.matmul(xv, wvv);
                // 2 heads of dim 2
                let q = tape.split_heads(q, 1, 6, 2, 2);
                let k = tape.split_heads(k, 1, 6, 2, 2);
                let v = tape.split_heads(v, 1, 6, 2, 2);
                let q = tape.rotary(q, 6, 2, 10_000.0);
                let k = tape.rotary(k, 6, 2, 10_000.0);
                let o = tape.causal_attention(q, k, v, 2, 6, 2);
                let o = tape.merge_heads(o, 1, 6, 2, 2);
                tape.mean(o)
            },
            3e-2,
        );
    }
}

#[test]
fn graph_ops_segment_and_select() {
    let mut rng = init::rng(6);
    let mut store = ParamStore::new();
    let w = store.add("w", init::randn(&[3, 3], 0.5, &mut rng));
    let x = init::randn(&[4, 3], 1.0, &mut rng);
    let idx = vec![0u32, 2, 1, 3, 0];
    let seg = vec![0u32, 0, 1, 1, 1];
    grad_check(
        &mut store,
        &move |tape, store| {
            let xv = tape.input(x.clone());
            let wv = tape.param(store, w);
            let h = tape.matmul(xv, wv);
            let gathered = tape.index_select(h, &idx);
            let pooled = tape.segment_sum(gathered, &seg, 2);
            let act = tape.tanh(pooled);
            tape.sum(act)
        },
        2e-2,
    );
}

#[test]
fn concat_and_group_mean() {
    let mut rng = init::rng(7);
    let mut store = ParamStore::new();
    let w1 = store.add("w1", init::randn(&[3, 2], 0.5, &mut rng));
    let w2 = store.add("w2", init::randn(&[3, 3], 0.5, &mut rng));
    let x = init::randn(&[4, 3], 1.0, &mut rng);
    grad_check(
        &mut store,
        &move |tape, store| {
            let xv = tape.input(x.clone());
            let w1v = tape.param(store, w1);
            let w2v = tape.param(store, w2);
            let a = tape.matmul(xv, w1v); // [4,2]
            let b = tape.matmul(xv, w2v); // [4,3]
            let c = tape.concat(a, b); // [4,5]
            let m = tape.group_mean_rows(c, 2); // [2,5]
            tape.sum(m)
        },
        2e-2,
    );
}

#[test]
fn mse_and_sub_scale() {
    let mut rng = init::rng(8);
    let mut store = ParamStore::new();
    let w = store.add("w", init::randn(&[3, 1], 0.5, &mut rng));
    let x = init::randn(&[5, 3], 1.0, &mut rng);
    let target = init::randn(&[5, 1], 1.0, &mut rng);
    grad_check(
        &mut store,
        &move |tape, store| {
            let xv = tape.input(x.clone());
            let wv = tape.param(store, w);
            let y = tape.matmul(xv, wv);
            let y = tape.scale(y, 1.5);
            tape.mse(y, &target)
        },
        2e-2,
    );
}

#[test]
fn grad_accumulation_across_tapes_adds() {
    let mut rng = init::rng(9);
    let mut store = ParamStore::new();
    let w = store.add("w", init::randn(&[2, 2], 0.5, &mut rng));
    let x = Tensor::from_vec(&[1, 2], vec![1.0, -1.0]);
    let run = |store: &mut ParamStore| {
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let wv = tape.param(store, w);
        let y = tape.matmul(xv, wv);
        let l = tape.sum(y);
        tape.backward(l);
        tape.accumulate_param_grads(store);
    };
    run(&mut store);
    let g1 = store.grad(w).data().to_vec();
    run(&mut store);
    let g2 = store.grad(w).data().to_vec();
    for (a, b) in g1.iter().zip(g2.iter()) {
        assert!((b - 2.0 * a).abs() < 1e-5, "accumulated {b} vs 2*{a}");
    }
}
