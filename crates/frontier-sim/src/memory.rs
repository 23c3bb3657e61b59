//! GPU memory footprint model (paper Fig. 5 and the parallelism memory
//! arithmetic).
//!
//! The paper's rule of thumb — "the memory footprint for training a
//! GPT-style model is roughly 12 times the parameters" — corresponds to
//! bf16 weights (2 B) + bf16 gradients (2 B) + fp32 Adam/LAMB moments
//! (8 B). Activations add a linear term in sequence length, plus, without
//! flash attention, a quadratic score/probability term for the layers in
//! flight.

use crate::kernels::FlashVersion;
use matgpt_model::count::total_params;
use matgpt_model::GptConfig;

/// Bytes per parameter for weights+grads+optimizer states (the 12× rule).
pub const STATE_BYTES_PER_PARAM: f64 = 12.0;
/// Of which optimizer states (fp32 moments) — the part ZeRO-1 shards.
pub const OPTIMIZER_BYTES_PER_PARAM: f64 = 8.0;
/// Saved activations per layer per token, in units of hidden values.
pub const ACT_HIDDEN_MULTIPLIER: f64 = 8.0;
/// Attention score/probability buffers in flight without flash (layers).
pub const LIVE_SCORE_LAYERS: f64 = 3.0;

/// How the model/optimizer state is partitioned.
#[derive(Clone, Copy, Debug)]
pub struct Partitioning {
    /// Data-parallel group size (shards optimizer states under ZeRO-1).
    pub dp: usize,
    /// Whether ZeRO stage 1 is active.
    pub zero1: bool,
    /// Tensor-parallel degree (shards weights and activations).
    pub tp: usize,
    /// Pipeline-parallel degree (shards layers).
    pub pp: usize,
}

impl Partitioning {
    /// Plain data parallelism.
    pub fn data_parallel(dp: usize) -> Self {
        Self {
            dp,
            zero1: false,
            tp: 1,
            pp: 1,
        }
    }
}

/// Peak training memory in GiB for one GCD.
pub fn peak_memory_gib(
    cfg: &GptConfig,
    micro_batch: usize,
    seq: usize,
    flash: FlashVersion,
    part: &Partitioning,
) -> f64 {
    let params = total_params(cfg) as f64 / part.tp as f64 / part.pp as f64;
    let mut state = params * (STATE_BYTES_PER_PARAM - OPTIMIZER_BYTES_PER_PARAM);
    state += if part.zero1 {
        params * OPTIMIZER_BYTES_PER_PARAM / part.dp as f64
    } else {
        params * OPTIMIZER_BYTES_PER_PARAM
    };

    let layers_here = (cfg.layers as f64 / part.pp as f64).ceil();
    let tokens = (micro_batch * seq) as f64;
    let hidden = cfg.hidden as f64 / part.tp as f64;
    let act_linear = layers_here * ACT_HIDDEN_MULTIPLIER * tokens * hidden * 2.0;

    let head_dim = cfg.hidden / cfg.heads;
    let flash_on = !matches!(flash, FlashVersion::None) && flash.eligible(head_dim);
    let act_quad = if flash_on {
        // flash keeps only per-row statistics
        LIVE_SCORE_LAYERS * (micro_batch * cfg.heads) as f64 * seq as f64 * 4.0
    } else {
        LIVE_SCORE_LAYERS
            * (micro_batch * cfg.heads / part.tp.min(cfg.heads)) as f64
            * (seq as f64)
            * (seq as f64)
            * 2.0
    };

    (state + act_linear + act_quad) / (1024.0 * 1024.0 * 1024.0)
}

/// Whether the configuration fits in a GCD's HBM.
pub fn fits(
    cfg: &GptConfig,
    micro_batch: usize,
    seq: usize,
    flash: FlashVersion,
    part: &Partitioning,
    gcd_memory_gib: f64,
) -> bool {
    peak_memory_gib(cfg, micro_batch, seq, flash, part) <= gcd_memory_gib
}

/// Largest power-of-two sequence length that fits (the paper's Fig. 5
/// "maximum supported sequence length" sweep).
pub fn max_seq_len(
    cfg: &GptConfig,
    micro_batch: usize,
    flash: FlashVersion,
    part: &Partitioning,
    gcd_memory_gib: f64,
) -> usize {
    let mut best = 0;
    let mut seq = 1024usize;
    while seq <= 1 << 20 {
        let c = GptConfig {
            max_seq: seq,
            ..cfg.clone()
        };
        if fits(&c, micro_batch, seq, flash, part, gcd_memory_gib) {
            best = seq;
        }
        seq *= 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_model::ArchKind;

    fn cfg_1_7b() -> GptConfig {
        GptConfig::paper_1_7b(ArchKind::NeoX, 52_000)
    }

    fn cfg_6_7b() -> GptConfig {
        GptConfig::paper_6_7b(ArchKind::NeoX, 52_000)
    }

    fn single() -> Partitioning {
        Partitioning::data_parallel(1)
    }

    #[test]
    fn one_seven_b_fits_on_one_gcd_six_seven_does_not() {
        // Paper: "for the training of a 1.7B model, a single GCD ... is able
        // to accommodate the entire model. However, for a 6.7B model, some
        // level of model parallelism is required."
        assert!(fits(
            &cfg_1_7b(),
            1,
            2048,
            FlashVersion::None,
            &single(),
            64.0
        ));
        assert!(!fits(
            &cfg_6_7b(),
            1,
            2048,
            FlashVersion::None,
            &single(),
            64.0
        ));
    }

    #[test]
    fn fig5_oom_thresholds() {
        // Paper Fig. 5: without flash, 1.7B training OOMs beyond seq 8192;
        // with flash the maximum grows ~4× to 32768.
        let no_flash = max_seq_len(&cfg_1_7b(), 1, FlashVersion::None, &single(), 64.0);
        let flash = max_seq_len(&cfg_1_7b(), 1, FlashVersion::V2, &single(), 64.0);
        assert_eq!(no_flash, 8192, "no-flash max seq");
        assert_eq!(flash, 32_768, "flash max seq");
    }

    #[test]
    fn flash_memory_is_linear_in_seq() {
        let c = cfg_1_7b();
        let base = peak_memory_gib(&c, 1, 2048, FlashVersion::V2, &single());
        let m2 = peak_memory_gib(&c, 1, 4096, FlashVersion::V2, &single());
        let m4 = peak_memory_gib(&c, 1, 8192, FlashVersion::V2, &single());
        let d1 = m2 - base;
        let d2 = (m4 - base) / 3.0;
        assert!((d1 / d2 - 1.0).abs() < 0.05, "linear growth {d1} vs {d2}");
    }

    #[test]
    fn naive_memory_grows_quadratically_at_long_seq() {
        let c = cfg_1_7b();
        let m8 = peak_memory_gib(&c, 1, 8192, FlashVersion::None, &single());
        let m16 = peak_memory_gib(&c, 1, 16_384, FlashVersion::None, &single());
        // doubling seq should much more than double the activation part
        let act8 = m8 - peak_memory_gib(&c, 1, 1, FlashVersion::None, &single());
        let act16 = m16 - peak_memory_gib(&c, 1, 1, FlashVersion::None, &single());
        assert!(act16 / act8 > 2.5, "{act16} / {act8}");
    }

    #[test]
    fn zero1_shards_optimizer_states() {
        let c = cfg_6_7b();
        let solo = Partitioning {
            dp: 1,
            zero1: true,
            tp: 1,
            pp: 1,
        };
        let sharded = Partitioning {
            dp: 8,
            zero1: true,
            tp: 1,
            pp: 1,
        };
        let m1 = peak_memory_gib(&c, 1, 2048, FlashVersion::V2, &solo);
        let m8 = peak_memory_gib(&c, 1, 2048, FlashVersion::V2, &sharded);
        assert!(m8 < m1);
        // ZeRO-1 over 8 ranks makes the 6.7B model fit
        assert!(m8 < 64.0, "6.7B under ZeRO-1×8: {m8} GiB");
    }

    #[test]
    fn tp_and_pp_shard_weights() {
        let c = cfg_6_7b();
        let tp2 = Partitioning {
            dp: 1,
            zero1: false,
            tp: 2,
            pp: 1,
        };
        let pp2 = Partitioning {
            dp: 1,
            zero1: false,
            tp: 1,
            pp: 2,
        };
        let full = peak_memory_gib(&c, 1, 2048, FlashVersion::V2, &single());
        let t = peak_memory_gib(&c, 1, 2048, FlashVersion::V2, &tp2);
        let p = peak_memory_gib(&c, 1, 2048, FlashVersion::V2, &pp2);
        assert!(t < full * 0.6);
        assert!(p < full * 0.6);
    }

    #[test]
    fn twelve_x_rule_reproduced() {
        let c = cfg_1_7b();
        let params = total_params(&c) as f64;
        let state_only = peak_memory_gib(&c, 1, 1, FlashVersion::V2, &single());
        let expected = params * 12.0 / (1024f64.powi(3));
        assert!(
            (state_only / expected - 1.0).abs() < 0.05,
            "{state_only} vs {expected}"
        );
    }
}
