//! Autoregressive sampling from a trained GPT.
//!
//! [`generate`] decodes on the KV-cached inference path (O(T) work per
//! token); `generate_uncached` keeps the original re-run-the-window
//! implementation as the unit tests' reference. The sampling
//! primitives ([`argmax`], [`sample_softmax`], [`sample_top_k`],
//! [`sample_logits`]) are public so serving code can drive per-request
//! sampling state over raw logits rows.

use crate::gpt::GptModel;
use matgpt_tensor::kernels::exp::exp;
use matgpt_tensor::ParamStore;
use rand::Rng;

/// Sampling controls.
#[derive(Clone, Copy, Debug)]
pub struct SampleOptions {
    /// Softmax temperature; 0 means greedy argmax.
    pub temperature: f32,
    /// Restrict sampling to the k most likely tokens (0 = full vocab).
    pub top_k: usize,
    /// Maximum new tokens to generate.
    pub max_new_tokens: usize,
    /// Stop when this token is produced (e.g. EOS).
    pub stop_token: Option<u32>,
}

impl Default for SampleOptions {
    fn default() -> Self {
        Self {
            temperature: 0.8,
            top_k: 0,
            max_new_tokens: 32,
            stop_token: None,
        }
    }
}

/// Generate a continuation of `prompt` on the KV-cached decode path:
/// one prefill over the prompt, then one cached forward per new token.
pub fn generate<R: Rng>(
    model: &GptModel,
    store: &ParamStore,
    prompt: &[u32],
    opts: &SampleOptions,
    rng: &mut R,
) -> Vec<u32> {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    let mut tokens = prompt.to_vec();
    let v = model.cfg.vocab_size;
    let mut cache = model.new_cache();
    // Prefill the prompt window. Prompts longer than max_seq keep only
    // the trailing window, like the uncached path does.
    let ctx_start = tokens.len().saturating_sub(model.cfg.max_seq);
    let logits = model.forward_cached(store, &tokens[ctx_start..], &mut cache);
    let mut row = logits[(cache.len() - 1) * v..].to_vec();
    for _ in 0..opts.max_new_tokens {
        let next = sample_logits(&row, opts.temperature, opts.top_k, rng) as u32;
        tokens.push(next);
        if Some(next) == opts.stop_token {
            break;
        }
        row = model.decode_step(store, next, &mut cache);
    }
    tokens
}

/// The original cache-free reference: re-runs a full forward over the
/// trailing window for every generated token. The reference the cached
/// path is tested against.
#[cfg(test)]
fn generate_uncached<R: Rng>(
    model: &GptModel,
    store: &ParamStore,
    prompt: &[u32],
    opts: &SampleOptions,
    rng: &mut R,
) -> Vec<u32> {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    let mut tokens = prompt.to_vec();
    let v = model.cfg.vocab_size;
    for _ in 0..opts.max_new_tokens {
        let ctx_start = tokens.len().saturating_sub(model.cfg.max_seq);
        let ctx = &tokens[ctx_start..];
        let mut tape = matgpt_tensor::Tape::new();
        let logits = model.logits(&mut tape, store, ctx, 1, ctx.len());
        let lv = tape.value(logits);
        let row = &lv.data()[(ctx.len() - 1) * v..ctx.len() * v];
        let next = sample_logits(row, opts.temperature, opts.top_k, rng) as u32;
        tokens.push(next);
        if Some(next) == opts.stop_token {
            break;
        }
    }
    tokens
}

/// Pick the next token from a logits row under the given temperature and
/// top-k settings (`temperature <= 0` is greedy).
pub fn sample_logits<R: Rng>(row: &[f32], temperature: f32, top_k: usize, rng: &mut R) -> usize {
    if temperature <= 0.0 {
        argmax(row)
    } else if top_k > 0 {
        sample_top_k(row, temperature, top_k, rng)
    } else {
        sample_softmax(row, temperature, rng)
    }
}

/// Index of the largest logit.
pub fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Sample from the tempered softmax of a logits row.
pub fn sample_softmax<R: Rng>(row: &[f32], temperature: f32, rng: &mut R) -> usize {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let weights: Vec<f32> = row.iter().map(|&x| exp((x - max) / temperature)).collect();
    let total: f32 = weights.iter().sum();
    let mut r = rng.gen::<f32>() * total;
    for (i, w) in weights.iter().enumerate() {
        r -= w;
        if r <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Sample from the `k` highest logits only.
pub fn sample_top_k<R: Rng>(row: &[f32], temperature: f32, k: usize, rng: &mut R) -> usize {
    let mut order: Vec<usize> = (0..row.len()).collect();
    order.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap());
    order.truncate(k.max(1));
    let sub: Vec<f32> = order.iter().map(|&i| row[i]).collect();
    order[sample_softmax(&sub, temperature, rng)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArchKind, GptConfig};
    use matgpt_tensor::init;

    fn build(arch: ArchKind, seed: u64) -> (GptModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(seed);
        let cfg = GptConfig {
            vocab_size: 30,
            hidden: 16,
            layers: 1,
            heads: 2,
            max_seq: 16,
            ..GptConfig::tiny(arch, 30)
        };
        let model = GptModel::new(cfg, &mut store, &mut rng);
        (model, store)
    }

    #[test]
    fn generate_produces_requested_tokens_and_respects_stop() {
        let (model, store) = build(ArchKind::NeoX, 0);
        let mut rng = init::rng(0);
        let out = generate(
            &model,
            &store,
            &[1, 2, 3],
            &SampleOptions {
                temperature: 1.0,
                top_k: 0,
                max_new_tokens: 5,
                stop_token: None,
            },
            &mut rng,
        );
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|&t| (t as usize) < 30));
    }

    #[test]
    fn greedy_is_deterministic() {
        let (model, store) = build(ArchKind::Llama, 1);
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 4,
            stop_token: None,
        };
        let a = generate(&model, &store, &[5, 6], &opts, &mut init::rng(7));
        let b = generate(&model, &store, &[5, 6], &opts, &mut init::rng(8));
        assert_eq!(a, b);
    }

    #[test]
    fn cached_and_uncached_agree_under_greedy_decoding() {
        // With temperature 0 no RNG is consumed, so the only difference
        // between the two paths is KV caching — outputs must be equal
        // while the sequence fits in max_seq.
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let (model, store) = build(arch, 2);
            let opts = SampleOptions {
                temperature: 0.0,
                top_k: 0,
                max_new_tokens: 8,
                stop_token: None,
            };
            let cached = generate(&model, &store, &[3, 1, 4], &opts, &mut init::rng(0));
            let uncached = generate_uncached(&model, &store, &[3, 1, 4], &opts, &mut init::rng(0));
            assert_eq!(cached, uncached, "{arch}");
        }
    }

    #[test]
    fn top_k_restricts_support() {
        let mut rng = init::rng(5);
        // logits strongly prefer indices 1 and 3; top_k = 2 must never
        // emit anything else
        let row = [0.0f32, 8.0, 0.5, 7.0, -1.0];
        for _ in 0..50 {
            let i = sample_top_k(&row, 1.0, 2, &mut rng);
            assert!(i == 1 || i == 3, "sampled {i}");
        }
        // top_k = 1 is greedy
        assert_eq!(sample_top_k(&row, 1.0, 1, &mut rng), 1);
    }

    #[test]
    fn argmax_and_sampling_basics() {
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        let mut rng = init::rng(2);
        // overwhelming logit wins under low temperature
        let idx = sample_softmax(&[0.0, 50.0, 0.0], 0.5, &mut rng);
        assert_eq!(idx, 1);
    }
}
