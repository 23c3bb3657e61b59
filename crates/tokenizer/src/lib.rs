#![warn(missing_docs)]

//! # matgpt-tokenizer
//!
//! From-scratch trainable subword tokenizers, covering both families the
//! paper compares (Table II, Figs. 13–14):
//!
//! * [`bpe::BpeTokenizer`] — byte-level byte-pair encoding, the
//!   "HuggingFace (HF)" style used by GPT-NeoX;
//! * [`unigram::UnigramTokenizer`] — a unigram language model trained with
//!   EM and decoded with Viterbi, the "SentencePiece (SPM)" style used by
//!   the original LLaMA.
//!
//! Both are trained on raw text, support arbitrary target vocabulary sizes
//! (the paper contrasts 32K and 52K), and share the special-token layout in
//! [`special`].

pub mod bpe;
pub mod special;
pub mod unigram;

pub use bpe::BpeTokenizer;
pub use unigram::UnigramTokenizer;

/// Which tokenizer family an instance belongs to (the paper's "HF" vs
/// "SPM" axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenizerKind {
    /// Byte-level BPE ("HuggingFace").
    Hf,
    /// Unigram LM ("SentencePiece").
    Spm,
}

impl std::fmt::Display for TokenizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenizerKind::Hf => write!(f, "HF"),
            TokenizerKind::Spm => write!(f, "SPM"),
        }
    }
}

/// Common tokenizer interface used by the corpus pipeline and the
/// evaluation harness.
pub trait Tokenizer: Send + Sync {
    /// Encode text to token ids (no BOS/EOS added).
    fn encode(&self, text: &str) -> Vec<u32>;

    /// Decode token ids back to text (lossy on invalid UTF-8).
    fn decode(&self, ids: &[u32]) -> String;

    /// Total vocabulary size including special tokens.
    fn vocab_size(&self) -> usize;

    /// Tokenizer family.
    fn kind(&self) -> TokenizerKind;

    /// Encode and frame with BOS/EOS.
    fn encode_with_specials(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::with_capacity(text.len() / 3 + 2);
        out.push(special::BOS);
        out.extend(self.encode(text));
        out.push(special::EOS);
        out
    }

    /// Fertility: tokens produced per whitespace word — the standard metric
    /// for comparing tokenizers on a domain corpus.
    fn fertility(&self, texts: &[String]) -> f64 {
        let mut tokens = 0usize;
        let mut words = 0usize;
        for t in texts {
            tokens += self.encode(t).len();
            words += t.split_whitespace().count();
        }
        if words == 0 {
            0.0
        } else {
            tokens as f64 / words as f64
        }
    }
}
