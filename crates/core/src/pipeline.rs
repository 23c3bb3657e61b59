//! End-to-end orchestration: corpus → tokenizers → controlled pre-training
//! suite → BERT surrogate — everything the figure/table harnesses consume.

use crate::pretrain::{pretrain_with_tokenizer, train_tokenizer, Pretrained};
use crate::recipes::{OptChoice, PretrainConfig, SizeRole};
use matgpt_corpus::{build_corpus, Corpus, CorpusConfig};
use matgpt_model::{BertConfig, BertModel};
use matgpt_optim::{Adam, AdamConfig, Optimizer};
use matgpt_tensor::{init, ParamStore, Tape};
use matgpt_tokenizer::{Tokenizer, TokenizerKind};

/// How big to run the whole reproduction.
#[derive(Clone, Debug)]
pub struct SuiteScale {
    /// Materials in the universe.
    pub n_materials: usize,
    /// Corpus document budget.
    pub total_docs: usize,
    /// The "52K" vocabulary, scaled.
    pub vocab_large: usize,
    /// The "32K" vocabulary, scaled.
    pub vocab_small: usize,
    /// Pre-training steps per model.
    pub steps: usize,
    /// Sequence length.
    pub seq: usize,
    /// BERT MLM steps.
    pub bert_steps: usize,
    /// Master seed.
    pub seed: u64,
}

impl SuiteScale {
    /// Fast scale for tests (~seconds per model).
    pub fn smoke() -> Self {
        Self {
            n_materials: 60,
            total_docs: 200,
            vocab_large: 512,
            vocab_small: 384,
            steps: 25,
            seq: 32,
            bert_steps: 25,
            seed: 99,
        }
    }

    /// Default reproduction scale (~minutes for the full suite).
    pub fn standard() -> Self {
        Self {
            n_materials: 400,
            total_docs: 1500,
            vocab_large: 1024,
            vocab_small: 640,
            steps: 220,
            seq: 48,
            bert_steps: 200,
            seed: 42,
        }
    }
}

/// The seven controlled pre-training experiments of the loss study
/// (Fig. 13), in a fixed order.
pub fn experiment_matrix(scale: &SuiteScale) -> Vec<PretrainConfig> {
    use matgpt_model::ArchKind::{Llama, NeoX};
    use TokenizerKind::{Hf, Spm};
    let base = |arch, tok, vocab, opt, size| {
        let mut cfg = PretrainConfig::scaled(arch, tok, vocab, opt, size);
        cfg.steps = scale.steps;
        cfg.seq = scale.seq;
        cfg.seed = scale.seed;
        cfg
    };
    vec![
        base(
            Llama,
            Hf,
            scale.vocab_large,
            OptChoice::Adam,
            SizeRole::Base,
        ),
        base(
            Llama,
            Hf,
            scale.vocab_large,
            OptChoice::Lamb,
            SizeRole::Base,
        ),
        base(
            Llama,
            Spm,
            scale.vocab_large,
            OptChoice::Lamb,
            SizeRole::Base,
        ),
        base(
            Llama,
            Hf,
            scale.vocab_small,
            OptChoice::Lamb,
            SizeRole::Base,
        ),
        base(NeoX, Hf, scale.vocab_large, OptChoice::Lamb, SizeRole::Base),
        base(
            Llama,
            Hf,
            scale.vocab_large,
            OptChoice::Lamb,
            SizeRole::Large,
        ),
        base(
            NeoX,
            Hf,
            scale.vocab_large,
            OptChoice::Lamb,
            SizeRole::Large,
        ),
    ]
}

/// A trained BERT surrogate bundle.
pub struct TrainedBert {
    /// The encoder.
    pub model: BertModel,
    /// Weights.
    pub store: ParamStore,
    /// Final MLM loss.
    pub final_loss: f32,
}

/// Pre-train the MatSciBERT surrogate with masked-LM on the corpus.
pub fn pretrain_bert(
    documents: &[String],
    tokenizer: &dyn Tokenizer,
    steps: usize,
    seq: usize,
    seed: u64,
) -> TrainedBert {
    let cfg = BertConfig {
        max_seq: seq,
        ..BertConfig::tiny(tokenizer.vocab_size())
    };
    let mask_prob = cfg.mask_prob;
    let mut rng = init::rng(seed);
    let mut store = ParamStore::new();
    let model = BertModel::new(cfg, &mut store, &mut rng);
    let mut dataset = matgpt_corpus::TokenDataset::new(documents, tokenizer, 0.05, seed ^ 0xbe27);
    let mut opt = Adam::new(AdamConfig::paper_adam());
    let mut final_loss = f32::NAN;
    for step in 0..steps {
        let batch = dataset.sample_batch(4, seq);
        let (inputs, targets) = matgpt_model::mask_tokens(&batch.inputs, mask_prob, &mut rng);
        store.zero_grads();
        let mut tape = Tape::new();
        let loss = model.mlm_loss(&mut tape, &store, &inputs, &targets, batch.batch, batch.seq);
        final_loss = tape.value(loss).item();
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        store.clip_grad_norm(1.0);
        opt.step(&mut store, 3e-3);
        let _ = step;
    }
    TrainedBert {
        model,
        store,
        final_loss,
    }
}

/// Everything the downstream experiments need.
pub struct MatGptSuite {
    /// The corpus (with its material universe).
    pub corpus: Corpus,
    /// The controlled pre-training runs, in [`experiment_matrix`] order.
    pub models: Vec<Pretrained>,
    /// The MatSciBERT surrogate (trained with the large HF tokenizer).
    pub bert: TrainedBert,
    /// Tokenizer shared by the BERT model (HF, large vocab).
    pub bert_tokenizer: Box<dyn Tokenizer>,
}

/// Build the corpus and train the full suite.
pub fn train_suite(scale: &SuiteScale) -> MatGptSuite {
    let corpus = build_corpus(&CorpusConfig {
        n_materials: scale.n_materials,
        total_docs: scale.total_docs,
        offtopic_fraction: 0.3,
        seed: scale.seed,
    });
    // shared tokenizers per (kind, vocab) so controlled comparisons hold
    let hf_large = train_tokenizer(TokenizerKind::Hf, scale.vocab_large, &corpus.documents);
    let hf_small = train_tokenizer(TokenizerKind::Hf, scale.vocab_small, &corpus.documents);
    let spm_large = train_tokenizer(TokenizerKind::Spm, scale.vocab_large, &corpus.documents);

    let mut models = Vec::new();
    for cfg in experiment_matrix(scale) {
        let tok: Box<dyn Tokenizer> = match (cfg.tokenizer, cfg.vocab == scale.vocab_large) {
            (TokenizerKind::Hf, true) => {
                dyn_clone_hf(&corpus.documents, scale.vocab_large, &*hf_large)
            }
            (TokenizerKind::Hf, false) => {
                dyn_clone_hf(&corpus.documents, scale.vocab_small, &*hf_small)
            }
            (TokenizerKind::Spm, _) => {
                dyn_clone_spm(&corpus.documents, scale.vocab_large, &*spm_large)
            }
        };
        models.push(pretrain_with_tokenizer(&corpus.documents, &cfg, tok));
    }

    let bert = pretrain_bert(
        &corpus.documents,
        &*hf_large,
        scale.bert_steps,
        scale.seq,
        scale.seed ^ 0xbbbb,
    );
    MatGptSuite {
        corpus,
        models,
        bert,
        bert_tokenizer: hf_large,
    }
}

// Tokenizer trait objects aren't Clone; retraining is deterministic and
// cheap at these scales, so "cloning" is re-training with the same inputs.
fn dyn_clone_hf(docs: &[String], vocab: usize, _proto: &dyn Tokenizer) -> Box<dyn Tokenizer> {
    train_tokenizer(TokenizerKind::Hf, vocab, docs)
}

fn dyn_clone_spm(docs: &[String], vocab: usize, _proto: &dyn Tokenizer) -> Box<dyn Tokenizer> {
    train_tokenizer(TokenizerKind::Spm, vocab, docs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_matrix_covers_all_axes() {
        let m = experiment_matrix(&SuiteScale::smoke());
        assert_eq!(m.len(), 7);
        // axes present: optimizer, tokenizer, vocab, arch, size
        assert!(m.iter().any(|c| c.optimizer == OptChoice::Adam));
        assert!(m.iter().any(|c| c.tokenizer == TokenizerKind::Spm));
        assert!(m.iter().any(|c| c.vocab != m[0].vocab));
        assert!(m.iter().any(|c| c.arch == matgpt_model::ArchKind::NeoX));
        assert!(m.iter().any(|c| c.size == SizeRole::Large));
        // labels are unique
        let labels: std::collections::HashSet<String> = m.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 7);
    }

    #[test]
    fn bert_mlm_pretraining_improves() {
        let corpus = build_corpus(&matgpt_corpus::CorpusConfig {
            n_materials: 40,
            total_docs: 120,
            offtopic_fraction: 0.2,
            seed: 3,
        });
        let tok = train_tokenizer(TokenizerKind::Hf, 400, &corpus.documents);
        let short = pretrain_bert(&corpus.documents, &*tok, 5, 32, 1);
        let long = pretrain_bert(&corpus.documents, &*tok, 60, 32, 1);
        assert!(
            long.final_loss < short.final_loss,
            "{} -> {}",
            short.final_loss,
            long.final_loss
        );
    }
}
