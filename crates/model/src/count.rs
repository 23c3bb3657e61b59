//! Parameter and FLOP accounting (paper Fig. 2, Table II, Fig. 10 inputs).
//!
//! All counts are exact functions of the configuration, so the Frontier
//! simulator and the table harnesses share one source of truth.

use crate::config::{ArchKind, GptConfig};

/// Per-layer parameter breakdown.
#[derive(Clone, Copy, Debug)]
pub struct LayerParams {
    /// Query/key/value projections (+ biases for NeoX).
    pub qkv: usize,
    /// Attention output projection.
    pub attn_proj: usize,
    /// MLP weights.
    pub mlp: usize,
    /// Normalisation gains/biases.
    pub norms: usize,
}

impl LayerParams {
    /// Total per-layer parameters.
    pub fn total(&self) -> usize {
        self.qkv + self.attn_proj + self.mlp + self.norms
    }
}

/// Parameter breakdown for one transformer layer.
pub fn layer_params(cfg: &GptConfig) -> LayerParams {
    let h = cfg.hidden;
    let m = cfg.mlp_hidden();
    let bias = cfg.has_biases();
    let kv_dim = cfg.kv_head_count() * cfg.head_dim();
    let qkv = h * h + 2 * h * kv_dim + if bias { h + 2 * kv_dim } else { 0 };
    let attn_proj = h * h + if bias { h } else { 0 };
    let mlp = match cfg.arch {
        ArchKind::NeoX => 2 * h * m + if bias { m + h } else { 0 },
        ArchKind::Llama => 3 * h * m,
    };
    let norms = match cfg.arch {
        ArchKind::NeoX => 2 * 2 * h, // two LayerNorms (gamma + beta)
        ArchKind::Llama => 2 * h,    // two RMSNorms (gamma only)
    };
    LayerParams {
        qkv,
        attn_proj,
        mlp,
        norms,
    }
}

/// Total model parameters (untied input/output embeddings, as the paper's
/// `2·V·h` embedding budget implies).
pub fn total_params(cfg: &GptConfig) -> usize {
    let h = cfg.hidden;
    let embed = 2 * cfg.vocab_size * h;
    let final_norm = match cfg.arch {
        ArchKind::NeoX => 2 * h,
        ArchKind::Llama => h,
    };
    embed + cfg.layers * layer_params(cfg).total() + final_norm
}

/// Per-layer forward FLOPs for a `[batch, seq]` input, split by GEMM the
/// way the paper's Fig. 10 (right) does.
#[derive(Clone, Copy, Debug)]
pub struct LayerFlops {
    /// Query-key-value projection GEMMs.
    pub qkv: f64,
    /// Attention score `QKᵀ` (the paper's "score" / "flash" block).
    pub score: f64,
    /// Attention-over-values `PV` (the paper's "AOV").
    pub aov: f64,
    /// Output projection ("Linproj").
    pub linproj: f64,
    /// MLP GEMMs.
    pub mlp: f64,
    /// Non-GEMM work (norms, softmax, dropout, residuals) — small.
    pub other: f64,
}

impl LayerFlops {
    /// All GEMM FLOPs.
    pub fn gemm(&self) -> f64 {
        self.qkv + self.score + self.aov + self.linproj + self.mlp
    }

    /// Total FLOPs including non-GEMM work.
    pub fn total(&self) -> f64 {
        self.gemm() + self.other
    }

    /// Fraction of the layer spent in GEMMs (Fig. 10 left's headline).
    pub fn gemm_fraction(&self) -> f64 {
        self.gemm() / self.total()
    }
}

/// Forward-pass FLOPs of one layer on a `[batch, seq]` input.
pub fn layer_flops(cfg: &GptConfig, batch: usize, seq: usize) -> LayerFlops {
    let h = cfg.hidden as f64;
    let m = cfg.mlp_hidden() as f64;
    let b = batch as f64;
    let t = seq as f64;
    let tokens = b * t;
    LayerFlops {
        qkv: 6.0 * tokens * h * h,
        score: 2.0 * b * t * t * h,
        aov: 2.0 * b * t * t * h,
        linproj: 2.0 * tokens * h * h,
        mlp: match cfg.arch {
            ArchKind::NeoX => 4.0 * tokens * h * m,
            ArchKind::Llama => 6.0 * tokens * h * m,
        },
        // norms (~8h), softmax (~5·t per head ≈ 5·t·heads), rotary, dropout,
        // residuals — a few ops per element
        other: 20.0 * tokens * h + 5.0 * b * t * t * cfg.heads as f64,
    }
}

/// Training FLOPs per token using the standard `6·N` approximation
/// (forward 2N + backward 4N), with `N` the non-embedding parameter count.
pub fn train_flops_per_token(cfg: &GptConfig) -> f64 {
    let n = (total_params(cfg) - 2 * cfg.vocab_size * cfg.hidden) as f64;
    6.0 * n
}

/// Exact-ish training FLOPs per step for a `[batch, seq]` batch: 3× the
/// forward cost (1 forward + 2 backward), including attention quadratic
/// terms and the LM head.
pub fn train_flops_per_step(cfg: &GptConfig, batch: usize, seq: usize) -> f64 {
    let per_layer = layer_flops(cfg, batch, seq).total();
    let head = 2.0 * (batch * seq) as f64 * cfg.hidden as f64 * cfg.vocab_size as f64;
    let fwd = per_layer * cfg.layers as f64 + head;
    3.0 * fwd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_two_parameter_counts() {
        // 1.7B rows
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let c = GptConfig::paper_1_7b(arch, 52_000);
            let p = total_params(&c) as f64;
            assert!((1.5e9..2.0e9).contains(&p), "{arch}: {p:.3e} not ≈ 1.7B");
        }
        // 6.7B rows
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let c = GptConfig::paper_6_7b(arch, 52_000);
            let p = total_params(&c) as f64;
            assert!((6.2e9..7.2e9).contains(&p), "{arch}: {p:.3e} not ≈ 6.7B");
        }
    }

    #[test]
    fn neox_and_llama_layers_match_within_tolerance() {
        let neox = layer_params(&GptConfig::paper_1_7b(ArchKind::NeoX, 52_000)).total();
        let llama = layer_params(&GptConfig::paper_1_7b(ArchKind::Llama, 52_000)).total();
        let ratio = llama as f64 / neox as f64;
        assert!((ratio - 1.0).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn attention_layers_identical_across_archs() {
        // "The multi-head attention layers are exactly identical" — modulo
        // NeoX biases.
        let neox = layer_params(&GptConfig::paper_1_7b(ArchKind::NeoX, 52_000));
        let llama = layer_params(&GptConfig::paper_1_7b(ArchKind::Llama, 52_000));
        let h = 2304;
        assert_eq!(neox.qkv - 3 * h, llama.qkv);
        assert_eq!(neox.attn_proj - h, llama.attn_proj);
    }

    #[test]
    fn gemm_fraction_grows_with_model_size() {
        // Fig. 10 left: GEMM share is 65.9% for medium and 91.2% for large
        // models — our analytic model must reproduce the monotonicity.
        let medium = GptConfig {
            hidden: 1024,
            heads: 16,
            ..GptConfig::paper_1_7b(ArchKind::NeoX, 52_000)
        };
        let large = GptConfig::paper_6_7b(ArchKind::NeoX, 52_000);
        let fm = layer_flops(&medium, 16, 2048).gemm_fraction();
        let fl = layer_flops(&large, 16, 2048).gemm_fraction();
        assert!(fl > fm, "large {fl} should exceed medium {fm}");
        assert!(fl > 0.9, "large model GEMM share {fl}");
    }

    #[test]
    fn qkv_plus_mlp_dominate_gemms() {
        // Fig. 10 right: QKV + MLP account for most GEMM time.
        let c = GptConfig::paper_1_7b(ArchKind::NeoX, 52_000);
        let f = layer_flops(&c, 16, 2048);
        assert!((f.qkv + f.mlp) / f.gemm() > 0.6);
    }

    #[test]
    fn score_and_aov_scale_quadratically_with_seq() {
        let c = GptConfig::paper_1_7b(ArchKind::NeoX, 52_000);
        let f1 = layer_flops(&c, 1, 1024);
        let f2 = layer_flops(&c, 1, 2048);
        assert!((f2.score / f1.score - 4.0).abs() < 0.01);
        assert!((f2.qkv / f1.qkv - 2.0).abs() < 0.01);
    }

    #[test]
    fn six_n_approximation_close_to_exact_at_short_seq() {
        let c = GptConfig::paper_1_7b(ArchKind::NeoX, 52_000);
        let approx = train_flops_per_token(&c) * 2048.0 * 16.0;
        let exact = train_flops_per_step(&c, 16, 2048);
        let ratio = exact / approx;
        assert!((0.8..1.5).contains(&ratio), "ratio {ratio}");
    }
}
