#![warn(missing_docs)]

//! # matgpt-model
//!
//! Transformer architectures for the MatGPT reproduction:
//!
//! * [`gpt::GptModel`] — decoder-only GPT supporting both of the paper's
//!   variants ([`config::ArchKind::NeoX`] and [`config::ArchKind::Llama`],
//!   Fig. 2): identical rotary-embedding causal attention, differing in
//!   normalisation (LayerNorm vs RMSNorm) and MLP (GELU-4h vs SwiGLU-8h/3);
//! * [`bert::BertModel`] — a bidirectional masked-LM encoder, the
//!   MatSciBERT surrogate for the embedding studies;
//! * [`config`] — Table II configurations (1.7B / 6.7B) plus CPU-trainable
//!   tiny/small variants;
//! * [`count`] — exact parameter and FLOP accounting shared with the
//!   Frontier simulator (Fig. 2, Fig. 10, Table II);
//! * [`mod@generate`] — autoregressive sampling;
//! * [`infer`] — the tape-free KV-cached inference path that
//!   `matgpt-serve` builds its continuous-batching engine on;
//! * [`quant`] — post-training per-channel int8 weight quantization
//!   ([`quant::QuantizedParamStore`]) and the [`quant::ForwardParams`]
//!   abstraction that lets the cached decode path run on either
//!   precision ([`quant::WeightPrecision`]);
//! * [`speculative`] — int8 self-draft speculative decoding: the
//!   quantized weights draft `k` tokens, one batched f32 forward
//!   verifies them, accept/rollback keeps the output bit-identical to
//!   plain greedy decode (see `DECODING.md`).

pub mod bert;
pub mod config;
pub mod count;
pub mod generate;
pub mod gpt;
pub mod infer;
pub mod quant;
pub mod speculative;
pub mod tp;

pub use bert::{mask_tokens, BertModel};
pub use config::{ArchKind, BertConfig, GptConfig};
pub use generate::{generate, sample_logits, SampleOptions};
pub use gpt::GptModel;
pub use infer::{KvCache, KvStorage};
pub use quant::{ForwardParams, QuantizedParamStore, WeightPrecision};
pub use speculative::{
    generate_speculative, speculative_step, DraftState, Proposal, SpecOutcome, SpecStats,
};
