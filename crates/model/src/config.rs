//! Model configurations, including the paper's Table II architectures.

/// The two GPT variants the paper compares (Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArchKind {
    /// GPT-NeoX: LayerNorm pre-norm, GELU MLP (4h expansion), biases.
    NeoX,
    /// LLaMA: RMSNorm pre-norm, SwiGLU MLP (8h/3 expansion), no biases.
    Llama,
}

impl std::fmt::Display for ArchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchKind::NeoX => write!(f, "NeoX"),
            ArchKind::Llama => write!(f, "LLaMA"),
        }
    }
}

/// Decoder-only GPT configuration.
#[derive(Clone, Debug)]
pub struct GptConfig {
    /// Architecture variant.
    pub arch: ArchKind,
    /// Vocabulary size (tokens).
    pub vocab_size: usize,
    /// Hidden size `N_h`.
    pub hidden: usize,
    /// Number of transformer layers `N_l`.
    pub layers: usize,
    /// Number of attention heads `N_a`.
    pub heads: usize,
    /// Key/value heads for grouped-query attention (`None` = multi-head,
    /// `Some(k)` with `k < heads` = GQA, `Some(1)` = multi-query). The
    /// LLaMA-2 inference tweak the paper mentions in passing.
    pub kv_heads: Option<usize>,
    /// Maximum context length.
    pub max_seq: usize,
    /// Rotary embedding base.
    pub rope_base: f32,
    /// Norm epsilon.
    pub norm_eps: f32,
}

impl GptConfig {
    /// Attention head dimension `N_h / N_a`.
    pub fn head_dim(&self) -> usize {
        assert_eq!(self.hidden % self.heads, 0, "Eq. (1): N_h % N_a == 0");
        self.hidden / self.heads
    }

    /// MLP inner width: `4h` for NeoX, `round8(8h/3)` for LLaMA — chosen so
    /// both variants have (approximately) the same per-layer parameter and
    /// FLOP counts, as Fig. 2 of the paper notes.
    pub fn mlp_hidden(&self) -> usize {
        match self.arch {
            ArchKind::NeoX => 4 * self.hidden,
            ArchKind::Llama => {
                let m = (8 * self.hidden).div_ceil(3);
                m.div_ceil(8) * 8
            }
        }
    }

    /// Whether linear layers carry biases (NeoX yes, LLaMA no).
    pub fn has_biases(&self) -> bool {
        matches!(self.arch, ArchKind::NeoX)
    }

    /// Effective key/value head count.
    pub fn kv_head_count(&self) -> usize {
        match self.kv_heads {
            Some(k) => {
                assert!(
                    k >= 1 && self.heads.is_multiple_of(k),
                    "heads must divide into kv groups"
                );
                k
            }
            None => self.heads,
        }
    }

    /// Per-token KV-cache bytes at inference (2 tensors, bf16) — the
    /// quantity GQA shrinks.
    pub fn kv_cache_bytes_per_token(&self) -> usize {
        2 * self.layers * self.kv_head_count() * self.head_dim() * 2
    }

    /// Table II, 1.7 B row: hidden 2304, 24 layers, 24 heads, head-dim 96.
    pub fn paper_1_7b(arch: ArchKind, vocab_size: usize) -> Self {
        Self {
            arch,
            vocab_size,
            hidden: 2304,
            layers: 24,
            heads: 24,
            kv_heads: None,
            max_seq: 2048,
            rope_base: 10_000.0,
            norm_eps: 1e-5,
        }
    }

    /// Table II, 6.7 B row: hidden 4096, 32 layers, 32 heads, head-dim 128.
    pub fn paper_6_7b(arch: ArchKind, vocab_size: usize) -> Self {
        Self {
            arch,
            vocab_size,
            hidden: 4096,
            layers: 32,
            heads: 32,
            kv_heads: None,
            max_seq: 2048,
            rope_base: 10_000.0,
            norm_eps: 1e-5,
        }
    }

    /// A tiny trainable-on-CPU config used for the real (scaled-down)
    /// pre-training experiments.
    pub fn tiny(arch: ArchKind, vocab_size: usize) -> Self {
        Self {
            arch,
            vocab_size,
            hidden: 64,
            layers: 2,
            heads: 4,
            kv_heads: None,
            max_seq: 64,
            rope_base: 10_000.0,
            norm_eps: 1e-5,
        }
    }

    /// A small config — the "larger model" of the scaled-down loss study
    /// (plays the 6.7B role against [`GptConfig::tiny`]'s 1.7B).
    pub fn small(arch: ArchKind, vocab_size: usize) -> Self {
        Self {
            arch,
            vocab_size,
            hidden: 128,
            layers: 4,
            heads: 8,
            kv_heads: None,
            max_seq: 64,
            rope_base: 10_000.0,
            norm_eps: 1e-5,
        }
    }
}

/// BERT-style encoder configuration (the MatSciBERT surrogate).
#[derive(Clone, Debug)]
pub struct BertConfig {
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Number of layers.
    pub layers: usize,
    /// Number of heads.
    pub heads: usize,
    /// Maximum sequence length (learned positions).
    pub max_seq: usize,
    /// Norm epsilon.
    pub norm_eps: f32,
    /// Masking probability for the MLM objective.
    pub mask_prob: f32,
}

impl BertConfig {
    /// Tiny encoder trainable on CPU.
    pub fn tiny(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden: 64,
            layers: 2,
            heads: 4,
            max_seq: 64,
            norm_eps: 1e-5,
            mask_prob: 0.15,
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_table_two() {
        let c = GptConfig::paper_1_7b(ArchKind::NeoX, 52_000);
        assert_eq!(c.hidden, 2304);
        assert_eq!(c.layers, 24);
        assert_eq!(c.heads, 24);
        assert_eq!(c.head_dim(), 96);
        let c = GptConfig::paper_6_7b(ArchKind::Llama, 52_000);
        assert_eq!(c.hidden, 4096);
        assert_eq!(c.layers, 32);
        assert_eq!(c.heads, 32);
        assert_eq!(c.head_dim(), 128);
    }

    #[test]
    fn llama_mlp_width_matches_neox_params() {
        // per-layer MLP params: NeoX 2*h*4h = 8h^2, LLaMA 3*h*m ≈ 8h^2
        for h in [64usize, 2304, 4096] {
            let neox = GptConfig {
                hidden: h,
                ..GptConfig::tiny(ArchKind::NeoX, 100)
            };
            let llama = GptConfig {
                hidden: h,
                ..GptConfig::tiny(ArchKind::Llama, 100)
            };
            let neox_mlp = 2 * h * neox.mlp_hidden();
            let llama_mlp = 3 * h * llama.mlp_hidden();
            let ratio = llama_mlp as f64 / neox_mlp as f64;
            assert!((ratio - 1.0).abs() < 0.05, "h={h} ratio={ratio}");
        }
    }

    #[test]
    fn llama_mlp_is_multiple_of_eight() {
        let c = GptConfig::paper_1_7b(ArchKind::Llama, 52_000);
        assert_eq!(c.mlp_hidden() % 8, 0);
    }

    #[test]
    fn biases_follow_architecture() {
        assert!(GptConfig::tiny(ArchKind::NeoX, 10).has_biases());
        assert!(!GptConfig::tiny(ArchKind::Llama, 10).has_biases());
    }

    #[test]
    #[should_panic]
    fn head_dim_requires_divisibility() {
        let c = GptConfig {
            heads: 7,
            ..GptConfig::tiny(ArchKind::NeoX, 10)
        };
        let _ = c.head_dim();
    }
}
