//! Tokenizer-independent language-model quality metrics.
//!
//! The paper's Observation 3: "the losses for LLMs pretrained with
//! different tokenizers and/or vocabularies are not comparable". The
//! standard resolution is to renormalise by the *text*, not the tokens:
//! **bits per byte** (total negative log₂-likelihood of a document divided
//! by its UTF-8 length) is invariant to the tokenization and makes the
//! HF-vs-SPM and 32K-vs-52K runs directly comparable.

use matgpt_model::GptModel;
use matgpt_tensor::ParamStore;
use matgpt_tokenizer::Tokenizer;

/// Aggregated text-level metrics for one model on a document set.
#[derive(Clone, Copy, Debug)]
pub struct TextMetrics {
    /// Bits per UTF-8 byte (tokenizer-independent).
    pub bits_per_byte: f64,
    /// Mean negative log-likelihood per token (the "loss" axis of Fig. 13).
    pub nll_per_token: f64,
    /// Token-level perplexity.
    pub perplexity: f64,
    /// Tokens scored.
    pub tokens: usize,
    /// Bytes covered.
    pub bytes: usize,
}

/// Score `documents` under the model. Documents longer than the context
/// window are scored in independent windows (a slight over-estimate of the
/// true NLL, applied identically to every model being compared).
pub fn text_metrics(
    model: &GptModel,
    store: &ParamStore,
    tokenizer: &dyn Tokenizer,
    documents: &[String],
) -> TextMetrics {
    let window = model.cfg.max_seq;
    let mut total_nll = 0.0f64; // natural log
    let mut tokens = 0usize;
    let mut bytes = 0usize;
    for doc in documents {
        let ids = tokenizer.encode(doc);
        if ids.len() < 2 {
            continue;
        }
        bytes += doc.len();
        for chunk in ids.chunks(window) {
            if chunk.len() < 2 {
                continue;
            }
            // score positions 1.. given the prefix
            let nll = -model.score_span(store, chunk, 1);
            total_nll += nll;
            tokens += chunk.len() - 1;
        }
    }
    let tokens_f = tokens.max(1) as f64;
    let nll_per_token = total_nll / tokens_f;
    TextMetrics {
        bits_per_byte: total_nll / std::f64::consts::LN_2 / bytes.max(1) as f64,
        nll_per_token,
        perplexity: nll_per_token.exp(),
        tokens,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_model::{ArchKind, GptConfig};
    use matgpt_tensor::init;
    use matgpt_tokenizer::BpeTokenizer;

    fn model_and_tok(vocab: usize) -> (GptModel, ParamStore, BpeTokenizer) {
        let docs = vec![
            "the band gap of the oxide is wide".to_string(),
            "the material is a semiconductor".to_string(),
        ];
        let tok = BpeTokenizer::train(&docs, vocab);
        let mut store = ParamStore::new();
        let mut rng = init::rng(0);
        let cfg = GptConfig {
            vocab_size: tok.vocab_size(),
            hidden: 16,
            layers: 1,
            heads: 2,
            max_seq: 24,
            ..GptConfig::tiny(ArchKind::Llama, tok.vocab_size())
        };
        (GptModel::new(cfg, &mut store, &mut rng), store, tok)
    }

    #[test]
    fn metrics_are_finite_and_consistent() {
        let (model, store, tok) = model_and_tok(300);
        let docs = vec!["the band gap is wide".to_string()];
        let m = text_metrics(&model, &store, &tok, &docs);
        assert!(m.bits_per_byte > 0.0 && m.bits_per_byte.is_finite());
        assert!((m.perplexity - m.nll_per_token.exp()).abs() < 1e-9);
        assert!(m.tokens > 0 && m.bytes == docs[0].len());
    }

    #[test]
    fn untrained_model_bpb_tracks_vocab_entropy() {
        // an untrained model is near-uniform: nll/token ≈ ln(V)
        let (model, store, tok) = model_and_tok(300);
        let docs = vec!["the band gap of the oxide is wide".to_string()];
        let m = text_metrics(&model, &store, &tok, &docs);
        let uniform = (tok.vocab_size() as f64).ln();
        assert!(
            (m.nll_per_token - uniform).abs() < 0.6,
            "{} vs ln V {}",
            m.nll_per_token,
            uniform
        );
    }

    #[test]
    fn degenerate_documents_are_skipped() {
        let (model, store, tok) = model_and_tok(300);
        let m = text_metrics(&model, &store, &tok, &["".to_string()]);
        assert_eq!(m.tokens, 0);
        assert_eq!(m.bytes, 0);
    }
}
