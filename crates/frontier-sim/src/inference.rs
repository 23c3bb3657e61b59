//! Autoregressive-inference performance model — an extension beyond the
//! paper's training study, motivated by its LLaMA-2 aside ("includes
//! tweaks to improve inference performance").
//!
//! Inference has two regimes:
//!
//! * **prefill** — one big batched forward over the prompt: compute-bound,
//!   priced like a training forward;
//! * **decode** — one token at a time: every step must stream the weights
//!   *and* the KV cache through HBM, so it is bandwidth-bound. Grouped-
//!   query attention shrinks the KV-cache term, which is exactly why
//!   LLaMA-2 adopted it.

use crate::kernels::{FlashVersion, KernelModel};
use crate::machine::MachineConfig;
use matgpt_model::count::{layer_flops, total_params};
use matgpt_model::GptConfig;

/// HBM bandwidth of one GCD in GB/s (MI250X: 1.6 TB/s per GCD pair ≈
/// 1638 GB/s for the full card; per GCD ~819... we model the effective
/// streaming rate an inference kernel achieves).
pub const GCD_HBM_GBPS: f64 = 1200.0;

/// An inference workload.
#[derive(Clone, Debug)]
pub struct InferenceSetup {
    /// Model.
    pub cfg: GptConfig,
    /// Machine.
    pub machine: MachineConfig,
    /// Kernel model (for the compute-bound prefill).
    pub kernel: KernelModel,
    /// Flash setting for prefill attention.
    pub flash: FlashVersion,
    /// Concurrent sequences being decoded.
    pub batch: usize,
    /// Prompt length.
    pub prompt_len: usize,
    /// Tokens to generate.
    pub gen_len: usize,
}

impl InferenceSetup {
    /// Sensible defaults for a chat-style request.
    pub fn new(cfg: GptConfig) -> Self {
        Self {
            cfg,
            machine: MachineConfig::frontier(),
            kernel: KernelModel::default(),
            flash: FlashVersion::V2,
            batch: 1,
            prompt_len: 512,
            gen_len: 256,
        }
    }

    /// Predicted decode throughput in tokens/s across the batch — the
    /// analytic counterpart of the serving engine's measured
    /// `tokens_per_sec` metric.
    pub fn decode_tokens_per_sec(&self) -> f64 {
        simulate_inference(self).tokens_per_s
    }
}

/// Inference cost breakdown.
#[derive(Clone, Debug)]
pub struct InferenceReport {
    /// Prefill wall time (s).
    pub prefill_s: f64,
    /// Mean per-token decode latency (s).
    pub decode_per_token_s: f64,
    /// End-to-end time (s).
    pub total_s: f64,
    /// Decode throughput in tokens/s across the batch.
    pub tokens_per_s: f64,
    /// KV-cache bytes at the end of generation (whole batch).
    pub kv_cache_bytes: f64,
    /// Fraction of decode time spent streaming the KV cache.
    pub kv_fraction: f64,
}

/// Price an inference request on one GCD.
pub fn simulate_inference(setup: &InferenceSetup) -> InferenceReport {
    let cfg = &setup.cfg;
    let km = &setup.kernel;

    // ---- prefill: compute-bound forward over the prompt
    let layer = layer_flops(cfg, setup.batch, setup.prompt_len);
    let peak = 191.5e12 * km.gemm_efficiency(cfg);
    let attn_eff = km.attention_rel_eff(cfg, setup.flash);
    let prefill_layer = (layer.qkv + layer.linproj + layer.mlp) / peak
        + (layer.score + layer.aov) / (peak * attn_eff);
    let head =
        2.0 * (setup.batch * setup.prompt_len) as f64 * cfg.hidden as f64 * cfg.vocab_size as f64
            / peak;
    let prefill_s = prefill_layer * cfg.layers as f64 + head;

    // ---- decode: bandwidth-bound; each token streams weights + KV cache
    let weight_bytes = 2.0 * total_params(cfg) as f64; // bf16 weights
    let kv_per_token = cfg.kv_cache_bytes_per_token() as f64;
    let mean_ctx = setup.prompt_len as f64 + setup.gen_len as f64 / 2.0;
    let kv_bytes_mean = kv_per_token * mean_ctx * setup.batch as f64;
    let bw = GCD_HBM_GBPS * 1e9;
    let decode_per_token_s = (weight_bytes + kv_bytes_mean) / bw;
    let decode_s = decode_per_token_s * setup.gen_len as f64;

    let kv_cache_bytes =
        kv_per_token * (setup.prompt_len + setup.gen_len) as f64 * setup.batch as f64;
    InferenceReport {
        prefill_s,
        decode_per_token_s,
        total_s: prefill_s + decode_s,
        tokens_per_s: setup.batch as f64 / decode_per_token_s,
        kv_cache_bytes,
        kv_fraction: kv_bytes_mean / (weight_bytes + kv_bytes_mean),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_model::ArchKind;

    fn base() -> InferenceSetup {
        InferenceSetup::new(GptConfig::paper_6_7b(ArchKind::Llama, 52_000))
    }

    #[test]
    fn decode_is_bandwidth_bound_and_sane() {
        let r = simulate_inference(&base());
        // 13.7 GB of weights at ~1.2 TB/s -> ~11 ms/token floor
        assert!(
            (0.005..0.1).contains(&r.decode_per_token_s),
            "{}",
            r.decode_per_token_s
        );
        assert!(r.prefill_s > 0.0 && r.total_s > r.prefill_s);
    }

    #[test]
    fn gqa_cuts_kv_cache_and_speeds_long_context_decode() {
        let mut mha = base();
        mha.prompt_len = 16_384;
        mha.batch = 16;
        let mut gqa = mha.clone();
        gqa.cfg.kv_heads = Some(4); // 8x fewer kv heads
        let rm = simulate_inference(&mha);
        let rg = simulate_inference(&gqa);
        assert!(rg.kv_cache_bytes < rm.kv_cache_bytes / 7.0);
        assert!(
            rg.decode_per_token_s < rm.decode_per_token_s,
            "GQA {} vs MHA {}",
            rg.decode_per_token_s,
            rm.decode_per_token_s
        );
        assert!(rg.kv_fraction < rm.kv_fraction);
    }

    #[test]
    fn batching_raises_throughput_but_not_latency_free() {
        let mut one = base();
        one.batch = 1;
        let mut many = base();
        many.batch = 16;
        let r1 = simulate_inference(&one);
        let r16 = simulate_inference(&many);
        // weights amortise across the batch: throughput up
        assert!(r16.tokens_per_s > 4.0 * r1.tokens_per_s);
        // but per-token latency grows with the bigger KV traffic
        assert!(r16.decode_per_token_s >= r1.decode_per_token_s);
    }

    #[test]
    fn longer_context_slows_decode() {
        let mut short = base();
        short.prompt_len = 128;
        let mut long = base();
        long.prompt_len = 16_384;
        let rs = simulate_inference(&short);
        let rl = simulate_inference(&long);
        assert!(rl.decode_per_token_s > rs.decode_per_token_s);
        assert!(rl.kv_fraction > rs.kv_fraction);
    }

    #[test]
    fn decode_tokens_per_sec_is_monotone_in_batch() {
        // Continuous batching exists because weights amortise: predicted
        // throughput must be non-decreasing as the batch grows.
        let mut prev = 0.0;
        for batch in [1usize, 2, 4, 8, 16, 32] {
            let mut s = base();
            s.batch = batch;
            let tps = s.decode_tokens_per_sec();
            assert!(
                tps >= prev,
                "batch {batch}: {tps} tokens/s fell below {prev}"
            );
            prev = tps;
        }
    }

    #[test]
    fn prefill_scales_with_prompt_length() {
        let mut a = base();
        a.prompt_len = 256;
        let mut b = base();
        b.prompt_len = 1024;
        let ra = simulate_inference(&a);
        let rb = simulate_inference(&b);
        assert!(rb.prefill_s > 3.0 * ra.prefill_s);
    }
}
