//! Extension: int8 quantized decode — what the serving engine's
//! `WeightPrecision::Int8` knob costs in accuracy and saves in bytes.
//!
//! Single-token decode is a GEMV that touches every matmul weight once
//! per token, so it is bound by weight-memory traffic, not FLOPs.
//! Per-channel int8 cuts that traffic ~4×; this experiment reports the
//! compression and what it costs at a ≥512-hidden shape: max logits
//! drift and perplexity drift over the same token stream. What it buys
//! in time is `tensor.matmul_q8a8_gops` and `model.spec_step_ms` in
//! `perf/`; the ≤ 5e-2 drift bar is held by `tests/quantization.rs`.

use super::{decode_model, Ctx};
use crate::{compare, print_table, verdict};
use matgpt_model::generate::argmax;
use matgpt_model::{ForwardParams, GptModel, QuantizedParamStore};
use matgpt_tensor::kernels::softmax::logsumexp;

/// Decode `steps` tokens on top of a fresh prefill — greedily, or along
/// `follow` so both precisions see identical inputs and drift is
/// compared apples-to-apples. Returns the token stream and every
/// step's logits row.
fn decode_rows<P: ForwardParams>(
    model: &GptModel,
    params: &P,
    prompt: &[u32],
    steps: usize,
    follow: Option<&[u32]>,
) -> (Vec<u32>, Vec<Vec<f32>>) {
    let v = model.cfg.vocab_size;
    let mut cache = model.new_cache();
    let logits = model.forward_cached(params, prompt, &mut cache);
    let mut row = logits[(cache.len() - 1) * v..].to_vec();
    let mut tokens = Vec::with_capacity(steps);
    let mut rows = Vec::with_capacity(steps);
    for i in 0..steps {
        let next = match follow {
            Some(path) => path[i],
            None => argmax(&row) as u32,
        };
        row = model.decode_step(params, next, &mut cache);
        tokens.push(next);
        rows.push(row.clone());
    }
    (tokens, rows)
}

/// Mean next-token negative log-likelihood of `seq` under `params`.
fn mean_nll<P: ForwardParams>(model: &GptModel, params: &P, seq: &[u32]) -> f64 {
    let v = model.cfg.vocab_size;
    let mut cache = model.new_cache();
    let logits = model.forward_cached(params, seq, &mut cache);
    let mut total = 0.0f64;
    for pos in 1..seq.len() {
        let row = &logits[(pos - 1) * v..pos * v];
        total += logsumexp(row) as f64 - row[seq[pos] as usize] as f64;
    }
    total / (seq.len() - 1) as f64
}

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let (model, store) = decode_model();
    let cfg = &model.cfg;
    let qstore = QuantizedParamStore::quantize(&model, &store);
    let f32_bytes = store.weight_bytes();
    let int8_bytes = qstore.weight_bytes();

    let prompt: Vec<u32> = (0..32u32).map(|i| (i * 131 + 7) % 1024).collect();
    let steps = if ctx.smoke { 24 } else { 320 };

    // f32 first (greedy, free-running), then int8 pinned to the same
    // token stream so every logits row is compared on identical inputs
    let (f32_tokens, f32_rows) = decode_rows(&model, &store, &prompt, steps, None);
    let (_, int8_rows) = decode_rows(&model, &qstore, &prompt, steps, Some(&f32_tokens));
    let mut max_drift = 0.0f32;
    for (a, b) in f32_rows.iter().zip(&int8_rows) {
        for (x, y) in a.iter().zip(b) {
            max_drift = max_drift.max((x - y).abs());
        }
    }

    let ppl_seq: Vec<u32> = (0..if ctx.smoke { 48 } else { 96 } as u32)
        .map(|i| (i * 577 + 13) % 1024)
        .collect();
    let ppl_f32 = mean_nll(&model, &store, &ppl_seq).exp();
    let ppl_int8 = mean_nll(&model, &qstore, &ppl_seq).exp();
    let ppl_drift = (ppl_int8 / ppl_f32 - 1.0).abs();
    let compression = f32_bytes as f64 / int8_bytes as f64;

    print_table(
        &format!(
            "Int8 quantized decode (LLaMA h={} L={} V={}, {}-token prompt, {steps} decode steps)",
            cfg.hidden,
            cfg.layers,
            cfg.vocab_size,
            prompt.len(),
        ),
        &["precision", "weight MiB", "perplexity"],
        &[
            vec![
                "f32".to_string(),
                format!("{:.1}", f32_bytes as f64 / (1 << 20) as f64),
                format!("{ppl_f32:.3}"),
            ],
            vec![
                "int8".to_string(),
                format!("{:.1}", int8_bytes as f64 / (1 << 20) as f64),
                format!("{ppl_int8:.3}"),
            ],
        ],
    );
    println!(
        "\n{} matrices quantized; compression {compression:.2}x; \
         max logits drift {max_drift:.2e}; perplexity drift {:.3}%",
        qstore.quantized_matrices(),
        ppl_drift * 100.0
    );

    println!("\n-- reference vs measured --");
    compare(
        "max logits drift, int8 vs f32",
        "<= 5e-2",
        &format!("{max_drift:.2e}"),
        verdict(max_drift <= 5e-2),
    );
    compare(
        "matmul weight compression",
        "~4x less the f32 norms/embeddings",
        &format!("{compression:.2}x"),
        "INFO",
    );
    Ok(())
}
