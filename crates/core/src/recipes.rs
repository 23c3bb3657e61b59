//! The paper's training recipes (Table III) and their scaled-down
//! counterparts used for the real CPU training runs.

use matgpt_model::ArchKind;
use matgpt_tensor::Precision;
use matgpt_tokenizer::TokenizerKind;

/// Optimizer choice (Table III rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptChoice {
    /// Adam with the paper's (0.9, 0.95) betas.
    Adam,
    /// LAMB with the paper's (0.9, 0.999) betas.
    Lamb,
}

impl std::fmt::Display for OptChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptChoice::Adam => write!(f, "Adam"),
            OptChoice::Lamb => write!(f, "LAMB"),
        }
    }
}

/// One row of the paper's Table III.
#[derive(Clone, Debug)]
pub struct PaperRecipe {
    /// Model size label.
    pub model: &'static str,
    /// Optimizer.
    pub optimizer: OptChoice,
    /// β₁.
    pub beta1: f32,
    /// β₂.
    pub beta2: f32,
    /// Peak learning rate.
    pub lr: f32,
    /// Batch size in tokens.
    pub batch_tokens: f64,
}

/// Table III verbatim.
pub const TABLE_III: &[PaperRecipe] = &[
    PaperRecipe {
        model: "1.7B",
        optimizer: OptChoice::Adam,
        beta1: 0.9,
        beta2: 0.95,
        lr: 2e-4,
        batch_tokens: 1e6,
    },
    PaperRecipe {
        model: "1.7B",
        optimizer: OptChoice::Lamb,
        beta1: 0.9,
        beta2: 0.999,
        lr: 1e-2,
        batch_tokens: 4e6,
    },
    PaperRecipe {
        model: "6.7B",
        optimizer: OptChoice::Lamb,
        beta1: 0.9,
        beta2: 0.999,
        lr: 6e-3,
        batch_tokens: 4e6,
    },
];

/// The two model-size roles of the loss study (Fig. 13), scaled down for
/// CPU training: `Base` plays the 1.7B part, `Large` the 6.7B part.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeRole {
    /// The smaller model (1.7B in the paper, `GptConfig::tiny` here).
    Base,
    /// The larger model (6.7B in the paper, `GptConfig::small` here).
    Large,
}

impl SizeRole {
    /// Paper-scale label used in figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            SizeRole::Base => "1.7B",
            SizeRole::Large => "6.7B",
        }
    }
}

/// A full pre-training experiment configuration — one curve of Fig. 13.
#[derive(Clone, Debug)]
pub struct PretrainConfig {
    /// Architecture (NeoX or LLaMA).
    pub arch: ArchKind,
    /// Tokenizer family (HF = BPE, SPM = unigram).
    pub tokenizer: TokenizerKind,
    /// Vocabulary budget (the paper's 32K/52K axis, scaled down).
    pub vocab: usize,
    /// Optimizer.
    pub optimizer: OptChoice,
    /// Sequences per batch (the 1M-vs-4M-token axis, scaled down).
    pub batch_seqs: usize,
    /// Sequence length.
    pub seq: usize,
    /// Optimizer steps.
    pub steps: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Model size role.
    pub size: SizeRole,
    /// Seed for init and batch sampling.
    pub seed: u64,
    /// Emulated weight-storage precision (the paper's fp16-vs-bf16 axis).
    pub precision: Precision,
}

impl PretrainConfig {
    /// The scaled-down analogue of a Table III row.
    pub fn scaled(
        arch: ArchKind,
        tokenizer: TokenizerKind,
        vocab: usize,
        optimizer: OptChoice,
        size: SizeRole,
    ) -> Self {
        let (batch_seqs, lr) = match optimizer {
            OptChoice::Adam => (4, 3e-3),
            OptChoice::Lamb => (16, 2e-2), // 4× larger batch, LAMB-scale LR
        };
        Self {
            arch,
            tokenizer,
            vocab,
            optimizer,
            batch_seqs,
            seq: 32,
            steps: 120,
            lr,
            size,
            seed: 17,
            precision: Precision::F32,
        }
    }

    /// Legend label in the paper's format:
    /// `size-tokenizer-vocab-optimizer-batch`.
    pub fn label(&self) -> String {
        let batch = match self.optimizer {
            OptChoice::Adam => "1M",
            OptChoice::Lamb => "4M",
        };
        let vocab = if self.vocab >= 1000 {
            format!("{}K", self.vocab / 1000)
        } else {
            format!("{}", self.vocab)
        };
        format!(
            "{}-{}-{}-{}-{}-{}",
            self.size.label(),
            self.arch,
            self.tokenizer,
            vocab,
            self.optimizer,
            batch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_three_matches_paper() {
        assert_eq!(TABLE_III.len(), 3);
        let adam = &TABLE_III[0];
        assert_eq!(adam.optimizer, OptChoice::Adam);
        assert_eq!(adam.beta2, 0.95);
        assert_eq!(adam.batch_tokens, 1e6);
        let lamb17 = &TABLE_III[1];
        assert_eq!(lamb17.lr, 1e-2);
        assert_eq!(lamb17.batch_tokens, 4e6);
        let lamb67 = &TABLE_III[2];
        assert_eq!(lamb67.model, "6.7B");
        assert_eq!(lamb67.lr, 6e-3);
    }

    #[test]
    fn scaled_recipe_keeps_batch_ratio() {
        let a = PretrainConfig::scaled(
            ArchKind::Llama,
            TokenizerKind::Hf,
            512,
            OptChoice::Adam,
            SizeRole::Base,
        );
        let l = PretrainConfig::scaled(
            ArchKind::Llama,
            TokenizerKind::Hf,
            512,
            OptChoice::Lamb,
            SizeRole::Base,
        );
        // the paper's 1M-vs-4M axis: LAMB batch is 4× Adam batch
        assert_eq!(l.batch_seqs, 4 * a.batch_seqs);
        assert!(l.lr > a.lr);
    }
}
