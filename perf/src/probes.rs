//! Direct probes of single layers, run only in a traced run: each calls
//! one public function of `tensor`, `model`, `optim`, `corpus`,
//! `tokenizer` or `serve::kvpool` at the shapes the workload uses and
//! reports the median of its repetitions; a rate is work over the median
//! of the seconds. Bytes and FLOPs are computed from the sizes, not
//! measured.

use crate::host::{stream_pass_secs, MIB};
use crate::stats::median;
use crate::workload::{Kv, ServeModel, Workload, KV_BLOCK, TRAIN_BATCH, TRAIN_SEQ, TRAIN_VOCAB};
use matgpt_corpus::TokenDataset;
use matgpt_model::{
    speculative_step, ArchKind, DraftState, GptConfig, GptModel, QuantizedParamStore,
};
use matgpt_optim::{Adam, AdamConfig, Optimizer};
use matgpt_serve::{BlockPool, KvBlockConfig};
use matgpt_tensor::kernels::attention::{causal_attention_bwd, causal_attention_fwd};
use matgpt_tensor::kernels::infer::{cached_attention, paged_attention};
use matgpt_tensor::kernels::matmul::{matmul, matmul_at_acc, matmul_bt_acc};
use matgpt_tensor::kernels::quant::matmul_q8a8;
use matgpt_tensor::{init, AttentionImpl, PackedQ8Matrix, ParamStore, QuantizedMatrix, Tape};
use matgpt_tokenizer::Tokenizer;
use std::hint::black_box;
use std::time::Instant;

pub type Probe = (&'static str, f64);

/// Seconds of one call of `f`: the median of `reps` calls, like every
/// other timing here.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// GB/s (1e9 bytes) of moving `bytes` in the median of `secs`: the
/// quantile is taken on the seconds and converted afterwards, so a rate
/// reads the same point of the distribution as the timings do.
fn rate_gbs(bytes: usize, secs: &[f64]) -> f64 {
    bytes as f64 / median(secs) / 1e9
}

/// Model `T` as `core` builds it for `SizeRole::Large`.
pub fn train_model_config(arch: ArchKind) -> GptConfig {
    let base = GptConfig::small(arch, TRAIN_VOCAB);
    GptConfig {
        max_seq: (TRAIN_SEQ * 4).max(base.max_seq),
        ..base
    }
}

/// `model`: prefill, one decode step and (speculative workloads) the
/// draft build and one macro-step, on the serving model before the
/// engine takes it.
pub fn serving_model(
    w: &Workload,
    model: &GptModel,
    store: &ParamStore,
    smoke: bool,
) -> Vec<Probe> {
    let cfg = &model.cfg;
    let prompt = &w.wave_prompts(0, 0, cfg.vocab_size)[0].tokens;
    // several short passes rather than one long one: a probe that fits
    // inside one slow moment of the host reads 2-4x too long
    let (passes, steps) = if w.model == ServeModel::D && !smoke {
        (3, 2)
    } else {
        (8, 64)
    };
    let (mut prefill, mut decode) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        let mut cache = model.new_cache();
        let t0 = Instant::now();
        let logits = model.forward_cached(store, prompt, &mut cache);
        prefill.push(t0.elapsed().as_secs_f64());
        let mut token =
            matgpt_model::generate::argmax(&logits[logits.len() - cfg.vocab_size..]) as u32;
        for _ in 0..steps.min(cfg.max_seq - prompt.len()) {
            let t0 = Instant::now();
            let row = model.decode_step(store, token, &mut cache);
            decode.push(t0.elapsed().as_secs_f64());
            token = matgpt_model::generate::argmax(&row) as u32;
        }
    }
    let (prefill_s, decode_s) = (median(&prefill), median(&decode));
    let context = prompt.len() + w.new_tokens;
    let kv_dim = cfg.kv_head_count() * cfg.head_dim();
    let mut out = vec![
        ("model.prefill_ms", prefill_s * 1e3),
        ("model.decode_step_ms", decode_s * 1e3),
        (
            "tensor.bytes_per_decode_token",
            (4 * store.num_scalars() + 4 * 2 * cfg.layers * kv_dim * context) as f64,
        ),
    ];
    if let Some(k) = w.speculative {
        let t0 = Instant::now();
        let draft = QuantizedParamStore::for_draft(model, store);
        out.push(("model.quantize_ms", t0.elapsed().as_secs_f64() * 1e3));
        let v = cfg.vocab_size;
        let mut cache = model.new_cache();
        let logits = model.forward_cached(store, prompt, &mut cache);
        let mut row = logits[(cache.len() - 1) * v..].to_vec();
        let mut draft_state = DraftState::new(model, prompt);
        let (mut emitted, mut steps) = (0usize, Vec::new());
        while emitted < w.new_tokens {
            let t0 = Instant::now();
            let step = speculative_step(
                model,
                store,
                &draft,
                k,
                &mut cache,
                &mut draft_state,
                &mut row,
                w.new_tokens - emitted,
            );
            steps.push(t0.elapsed().as_secs_f64());
            emitted += step.tokens.len();
        }
        out.push(("model.spec_step_ms", median(&steps) * 1e3));
        out.push((
            "model.spec_tokens_per_step",
            emitted as f64 / steps.len() as f64,
        ));
    }
    out
}

/// Sweep `matmul` with `m` activation rows over `weights` read as
/// consecutive `[h, h]` matrices, and return weight GB/s: what a decode
/// step (m = 1) or a verify pass (m = k + 1) does to the weight set.
fn weight_sweep_gbs(weights: &[f32], h: usize, m: usize, sweeps: usize) -> f64 {
    let a = vec![0.5f32; m * h];
    let mut c = vec![0.0f32; m * h];
    let secs = median_secs(sweeps, || {
        for b in weights.chunks_exact(h * h) {
            matmul(&a, b, &mut c, m, h, h);
        }
        black_box(&c);
    });
    let bytes = (weights.len() / (h * h)) * h * h * 4;
    bytes as f64 / secs / 1e9
}

/// `bench.stream_*` and the serving-shape `tensor` probes. The weight
/// stand-in has the serving model's size, so the `D` probes stream from
/// DRAM and the `S` probes from L2, like the model itself.
pub fn streams_and_serving_kernels(w: &Workload, smoke: bool) -> Vec<Probe> {
    let s_cfg = ServeModel::S.config(smoke);
    let d_cfg = ServeModel::D.config(smoke);
    let scalars = |c: &GptConfig| matgpt_model::count::total_params(c);
    let s_buf = vec![0.25f32; scalars(&s_cfg)];
    let d_buf = vec![0.25f32; scalars(&d_cfg)];
    let rate = |buf: &[f32], reps: usize| {
        let secs: Vec<f64> = (0..reps).map(|_| stream_pass_secs(buf)).collect();
        rate_gbs(std::mem::size_of_val(buf), &secs)
    };
    let mut out = vec![
        ("bench.stream_gbs_s", rate(&s_buf, 200)),
        ("bench.stream_gbs_d", rate(&d_buf, 5)),
    ];

    let (cfg, buf, sweeps) = match w.model {
        ServeModel::S => (&s_cfg, &s_buf, 100),
        ServeModel::D => (&d_cfg, &d_buf, 3),
    };
    let h = cfg.hidden;
    out.push(("tensor.matmul_m1_gbs", weight_sweep_gbs(buf, h, 1, sweeps)));
    if let Some(k) = w.speculative {
        out.push((
            "tensor.matmul_small_m_gbs",
            weight_sweep_gbs(buf, h, k + 1, sweeps),
        ));
        // the int8 draft at m = 1; a slice of the weights, since packing
        // costs as much as the sweep
        let packed: Vec<PackedQ8Matrix> = buf
            .chunks_exact(h * h)
            .take(16)
            .map(|m| PackedQ8Matrix::pack(&QuantizedMatrix::quantize(m, h, h)))
            .collect();
        let a = vec![0.5f32; h];
        let mut c = vec![0.0f32; h];
        let secs = median_secs(10, || {
            for q in &packed {
                matmul_q8a8(&a, q, &mut c, 1, h, h);
            }
            black_box(&c);
        });
        out.push((
            "tensor.matmul_q8a8_gops",
            (2 * h * h * packed.len()) as f64 / secs / 1e9,
        ));
    }

    // attention over the KV of one request at its final length
    let (heads, kvh, d) = (cfg.heads, cfg.kv_head_count(), cfg.head_dim());
    let t_total = w.wave_prompts(0, 0, cfg.vocab_size)[0].tokens.len() + w.new_tokens;
    let q = vec![0.1f32; heads * d];
    let kv = vec![0.1f32; t_total.div_ceil(KV_BLOCK) * KV_BLOCK * kvh * d];
    let mut o = vec![0.0f32; heads * d];
    match w.kv {
        Kv::Contiguous => {
            let rows = &kv[..t_total * kvh * d];
            let secs = median_secs(200, || {
                cached_attention(&q, rows, rows, &mut o, 1, t_total, heads, kvh, d);
                black_box(&o);
            });
            out.push(("tensor.cached_attn_us", secs * 1e6));
        }
        Kv::Paged { .. } => {
            let blocks: Vec<&[f32]> = kv.chunks_exact(KV_BLOCK * kvh * d).collect();
            let secs = median_secs(200, || {
                paged_attention(
                    &q, &blocks, &blocks, KV_BLOCK, 0, &mut o, 1, t_total, heads, kvh, d,
                );
                black_box(&o);
            });
            out.push(("tensor.paged_attn_us", secs * 1e6));
        }
    }
    out
}

/// `serve::kvpool`: what admitting one prompt costs the block pool, with
/// and without a cached prefix to fork.
pub fn kv_pool(w: &Workload, smoke: bool) -> Vec<Probe> {
    let Kv::Paged { blocks } = w.kv else {
        return Vec::new();
    };
    let cfg = w.model.config(smoke);
    let prompt_rows = w.wave_prompts(0, 0, cfg.vocab_size)[0].tokens.len();
    let pool = BlockPool::new(
        KvBlockConfig {
            block_size: KV_BLOCK,
            num_blocks: blocks,
        },
        cfg.layers,
        cfg.kv_head_count() * cfg.head_dim(),
    );
    let reserve_s = median_secs(200, || {
        let mut kv = pool.new_seq(cfg.max_seq);
        kv.reserve_rows(prompt_rows)
            .expect("an empty pool holds one prompt");
        black_box(kv.blocks_held());
    });
    let mut base = pool.new_seq(cfg.max_seq);
    base.reserve_rows(prompt_rows)
        .expect("an empty pool holds one prompt");
    let fork_s = median_secs(200, || {
        black_box(base.fork().blocks_held());
    });
    vec![
        ("serve.kvpool_reserve_us", reserve_s * 1e6),
        ("serve.kvpool_fork_us", fork_s * 1e6),
    ]
}

/// The training-shape `tensor` kernels, and `model` / `optim` on a
/// stand-alone copy of model `T`: loss forward, backward, one AdamW step.
pub fn training(w: &Workload, dataset: &mut TokenDataset) -> Vec<Probe> {
    let cfg = train_model_config(w.arch);
    let (rows, h, mlp) = (TRAIN_BATCH * TRAIN_SEQ, cfg.hidden, cfg.mlp_hidden());
    let gflops = |secs: f64| (2 * rows * h * mlp) as f64 / secs / 1e9;
    let x = vec![0.01f32; rows * h];
    let wt = vec![0.01f32; h * mlp];
    let dy = vec![0.01f32; rows * mlp];
    let mut y = vec![0.0f32; rows * mlp];
    let mut dx = vec![0.0f32; rows * h];
    let mut dw = vec![0.0f32; h * mlp];
    let mut out = vec![
        (
            "tensor.matmul_train_gflops",
            gflops(median_secs(30, || {
                matmul(&x, &wt, &mut y, rows, h, mlp);
                black_box(&y);
            })),
        ),
        (
            // dX[rows, h] += dY[rows, mlp] @ W[h, mlp]^T
            "tensor.matmul_bt_acc_gflops",
            gflops(median_secs(30, || {
                matmul_bt_acc(&dy, &wt, &mut dx, rows, mlp, h);
                black_box(&dx);
            })),
        ),
        (
            // dW[h, mlp] += X[rows, h]^T @ dY[rows, mlp]
            "tensor.matmul_at_acc_gflops",
            gflops(median_secs(30, || {
                matmul_at_acc(&x, &dy, &mut dw, rows, h, mlp);
                black_box(&dw);
            })),
        ),
    ];

    let (bh, t, d) = (TRAIN_BATCH * cfg.heads, TRAIN_SEQ, cfg.head_dim());
    let qkv = vec![0.1f32; bh * t * d];
    let (o, saved) = causal_attention_fwd(&qkv, &qkv, &qkv, bh, t, d, AttentionImpl::Flash);
    let fwd_s = median_secs(30, || {
        black_box(causal_attention_fwd(
            &qkv,
            &qkv,
            &qkv,
            bh,
            t,
            d,
            AttentionImpl::Flash,
        ));
    });
    let (mut dq, mut dk, mut dv) = (qkv.clone(), qkv.clone(), qkv.clone());
    let bwd_s = median_secs(30, || {
        causal_attention_bwd(
            &qkv, &qkv, &qkv, &o, &qkv, &saved, &mut dq, &mut dk, &mut dv, bh, t, d,
        );
        black_box(&dq);
    });
    out.push(("tensor.attn_fwd_ms", fwd_s * 1e3));
    out.push(("tensor.attn_bwd_ms", bwd_s * 1e3));
    out.push((
        "tensor.flops_per_train_step",
        matgpt_model::count::train_flops_per_step(&cfg, TRAIN_BATCH, TRAIN_SEQ),
    ));

    let mut store = ParamStore::new();
    let model = GptModel::new(cfg, &mut store, &mut init::rng(0));
    let mut opt = Adam::new(AdamConfig::paper_adam());
    let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let batch = dataset.sample_batch(TRAIN_BATCH, TRAIN_SEQ);
        store.zero_grads();
        let mut tape = Tape::new();
        let t0 = Instant::now();
        let loss = model.loss(
            &mut tape,
            &store,
            &batch.inputs,
            &batch.targets,
            batch.batch,
            batch.seq,
        );
        fwd.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        bwd.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        store.clip_grad_norm(1.0);
        opt.step(&mut store, 1e-4);
        step.push(t0.elapsed().as_secs_f64());
    }
    out.push(("model.loss_fwd_ms", median(&fwd) * 1e3));
    out.push(("model.loss_bwd_ms", median(&bwd) * 1e3));
    out.push(("optim.step_ms", median(&step) * 1e3));
    out.push(("optim.state_mib", opt.state_bytes() as f64 / MIB));
    out
}

/// `tokenizer` encode rate over the corpus and `corpus` batch sampling.
pub fn data(docs: &[String], tokenizer: &dyn Tokenizer, dataset: &mut TokenDataset) -> Vec<Probe> {
    let mut tokens = 0usize;
    let encode_s = median_secs(5, || {
        tokens = docs.iter().map(|d| tokenizer.encode(d).len()).sum();
    });
    let batch_s = median_secs(200, || {
        black_box(dataset.sample_batch(TRAIN_BATCH, TRAIN_SEQ));
    });
    vec![
        ("tokenizer.encode_mtok_s", tokens as f64 / encode_s / 1e6),
        ("corpus.batch_us", batch_s * 1e6),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rate_sits_where_the_timings_sit() {
        // one slow pass and one fast one around the median pass: the
        // rate is that of the median pass, not of the fastest or slowest
        assert_eq!(rate_gbs(2_000_000_000, &[4.0, 1.0, 2.0]), 1.0);
    }
}
