//! Corpus assembly and token batching.
//!
//! [`build_corpus`] runs the paper's data pipeline end-to-end at synthetic
//! scale: per-source document generation (Table I proportions), classifier
//! screening of the unfiltered sources, and aggregation. [`TokenDataset`]
//! then tokenizes the documents into one contiguous EOS-separated stream
//! and serves `[B, T]` next-token-prediction batches.

use crate::materials::{Material, MaterialGenerator};
use crate::screening::ScreeningClassifier;
use crate::sources::{synthetic_budget, SOURCES};
use crate::templates::{material_abstract, offtopic_abstract};
use matgpt_tokenizer::{special, Tokenizer};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration for synthetic corpus construction.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Number of distinct materials in the universe.
    pub n_materials: usize,
    /// Total document budget across all sources.
    pub total_docs: usize,
    /// Fraction of *unfiltered* source docs that are off-topic (and should
    /// be screened away).
    pub offtopic_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            n_materials: 400,
            total_docs: 2_000,
            offtopic_fraction: 0.3,
            seed: 42,
        }
    }
}

/// Per-source generation/screening statistics (the synthetic Table I).
#[derive(Clone, Debug)]
pub struct SourceStats {
    /// Source name.
    pub name: &'static str,
    /// Documents generated for the source.
    pub generated: usize,
    /// Documents kept after screening.
    pub kept: usize,
    /// Tokens contributed (filled by [`TokenDataset`] when built with a
    /// tokenizer; 0 until then).
    pub tokens: usize,
}

/// A built synthetic corpus.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// The material universe the text talks about.
    pub materials: Vec<Material>,
    /// Kept documents (all materials-science).
    pub documents: Vec<String>,
    /// Per-source stats.
    pub stats: Vec<SourceStats>,
    /// Screening accuracy on a held-out labelled set.
    pub screening_accuracy: f64,
}

/// Build the corpus per `cfg`: generate materials, emit documents per
/// source (with off-topic contamination on unfiltered sources), train the
/// screening classifier on a small labelled set, screen, and aggregate.
pub fn build_corpus(cfg: &CorpusConfig) -> Corpus {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let materials = MaterialGenerator::new(cfg.seed ^ 0x6d61_7467).generate(cfg.n_materials);

    // labelled set for the screening classifier (paper: "a small
    // domain-labeled dataset")
    let mut labeled = Vec::new();
    for m in materials.iter().take(50) {
        labeled.push((material_abstract(m, &mut rng), true));
        labeled.push((offtopic_abstract(&mut rng), false));
    }
    let mut holdout: Vec<(String, bool)> = Vec::with_capacity(60);
    for m in materials.iter().skip(50).take(30) {
        holdout.push((material_abstract(m, &mut rng), true));
    }
    for _ in 0..30 {
        holdout.push((offtopic_abstract(&mut rng), false));
    }
    let clf = ScreeningClassifier::train(&labeled, 2048, 20, 0.5);
    let screening_accuracy = clf.accuracy(&holdout);

    let mut documents = Vec::with_capacity(cfg.total_docs);
    let mut stats = Vec::new();
    for source in SOURCES {
        let budget = synthetic_budget(source, cfg.total_docs);
        let mut raw = Vec::with_capacity(budget);
        for _ in 0..budget {
            let offtopic =
                !source.prefiltered && rng.gen_bool(cfg.offtopic_fraction.clamp(0.0, 1.0));
            if offtopic {
                raw.push(offtopic_abstract(&mut rng));
            } else {
                let m = &materials[rng.gen_range(0..materials.len())];
                raw.push(material_abstract(m, &mut rng));
            }
        }
        let kept = if source.prefiltered {
            raw
        } else {
            clf.screen(raw).0
        };
        stats.push(SourceStats {
            name: source.name,
            generated: budget,
            kept: kept.len(),
            tokens: 0,
        });
        documents.extend(kept);
    }

    Corpus {
        materials,
        documents,
        stats,
        screening_accuracy,
    }
}

/// One training batch: `inputs[b][t]` predicts `targets[b][t]`.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Token ids, row-major `[batch, seq]`.
    pub inputs: Vec<u32>,
    /// Next-token targets, same layout.
    pub targets: Vec<u32>,
    /// Batch size.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
}

/// A tokenized corpus serving next-token batches.
pub struct TokenDataset {
    train: Vec<u32>,
    val: Vec<u32>,
    rng: ChaCha8Rng,
}

impl TokenDataset {
    /// Tokenize `documents` (EOS-joined) and split `val_fraction` off the
    /// tail for validation.
    pub fn new<T: Tokenizer + ?Sized>(
        documents: &[String],
        tokenizer: &T,
        val_fraction: f64,
        seed: u64,
    ) -> Self {
        let mut stream = Vec::new();
        for d in documents {
            stream.extend(tokenizer.encode(d));
            stream.push(special::EOS);
        }
        let n_val = ((stream.len() as f64) * val_fraction) as usize;
        let split = stream.len().saturating_sub(n_val);
        let val = stream.split_off(split);
        Self {
            train: stream,
            val,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The sampling-RNG stream cursor. Rebuilding the dataset with the
    /// same documents/tokenizer/seed and seeking to this position via
    /// [`TokenDataset::seek`] reproduces the exact batch sequence an
    /// interrupted run would have seen — the data-loader half of
    /// checkpoint-restart.
    pub fn cursor(&self) -> u128 {
        self.rng.get_word_pos()
    }

    /// Seek the sampling RNG to a cursor from [`TokenDataset::cursor`].
    pub fn seek(&mut self, cursor: u128) {
        self.rng.set_word_pos(cursor);
    }

    /// Training tokens available.
    pub fn train_tokens(&self) -> usize {
        self.train.len()
    }

    /// Validation tokens available.
    pub fn val_tokens(&self) -> usize {
        self.val.len()
    }

    /// Sample a random training batch of shape `[batch, seq]`.
    pub fn sample_batch(&mut self, batch: usize, seq: usize) -> Batch {
        assert!(
            self.train.len() > seq + 1,
            "dataset too small: {} tokens for seq {}",
            self.train.len(),
            seq
        );
        let mut inputs = Vec::with_capacity(batch * seq);
        let mut targets = Vec::with_capacity(batch * seq);
        for _ in 0..batch {
            let start = self.rng.gen_range(0..self.train.len() - seq - 1);
            inputs.extend_from_slice(&self.train[start..start + seq]);
            targets.extend_from_slice(&self.train[start + 1..start + seq + 1]);
        }
        Batch {
            inputs,
            targets,
            batch,
            seq,
        }
    }

    /// Deterministic validation batches covering the validation split.
    pub fn val_batches(&self, batch: usize, seq: usize) -> Vec<Batch> {
        let mut out = Vec::new();
        let window = seq + 1;
        let mut starts: Vec<usize> = (0..self.val.len().saturating_sub(window))
            .step_by(seq)
            .collect();
        while !starts.len().is_multiple_of(batch) {
            starts.pop();
        }
        for chunk in starts.chunks(batch) {
            if chunk.len() < batch {
                break;
            }
            let mut inputs = Vec::with_capacity(batch * seq);
            let mut targets = Vec::with_capacity(batch * seq);
            for &s in chunk {
                inputs.extend_from_slice(&self.val[s..s + seq]);
                targets.extend_from_slice(&self.val[s + 1..s + seq + 1]);
            }
            out.push(Batch {
                inputs,
                targets,
                batch,
                seq,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_tokenizer::BpeTokenizer;

    fn small_corpus() -> Corpus {
        build_corpus(&CorpusConfig {
            n_materials: 60,
            total_docs: 200,
            offtopic_fraction: 0.3,
            seed: 11,
        })
    }

    #[test]
    fn corpus_build_screens_offtopic() {
        let c = small_corpus();
        assert!(c.screening_accuracy > 0.9, "acc {}", c.screening_accuracy);
        // Unfiltered sources should have dropped roughly the off-topic share
        for s in &c.stats {
            if s.name != "SCOPUS" {
                assert!(
                    s.kept < s.generated,
                    "{}: {} of {}",
                    s.name,
                    s.kept,
                    s.generated
                );
            } else {
                assert_eq!(s.kept, s.generated);
            }
        }
        // documents should all talk about materials
        let with_gap = c
            .documents
            .iter()
            .filter(|d| d.contains("band gap"))
            .count();
        assert!(
            with_gap * 10 >= c.documents.len() * 9,
            "{with_gap}/{}",
            c.documents.len()
        );
    }

    #[test]
    fn dataset_batches_have_shifted_targets() {
        let c = small_corpus();
        let tok = BpeTokenizer::train(&c.documents, 512);
        let mut ds = TokenDataset::new(&c.documents, &tok, 0.1, 3);
        assert!(ds.train_tokens() > 1000);
        assert!(ds.val_tokens() > 50);
        let b = ds.sample_batch(4, 32);
        assert_eq!(b.inputs.len(), 4 * 32);
        assert_eq!(b.targets.len(), 4 * 32);
        // target[t] should equal input[t+1] within each row
        for row in 0..4 {
            for t in 0..31 {
                assert_eq!(b.targets[row * 32 + t], b.inputs[row * 32 + t + 1]);
            }
        }
    }

    #[test]
    fn val_batches_are_deterministic_and_within_split() {
        let c = small_corpus();
        let tok = BpeTokenizer::train(&c.documents, 512);
        let ds = TokenDataset::new(&c.documents, &tok, 0.2, 3);
        let a = ds.val_batches(2, 16);
        let b = ds.val_batches(2, 16);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].inputs, b[0].inputs);
    }

    #[test]
    fn cursor_seek_replays_the_batch_stream() {
        let c = small_corpus();
        let tok = BpeTokenizer::train(&c.documents, 512);
        let mut warm = TokenDataset::new(&c.documents, &tok, 0.1, 7);
        for _ in 0..5 {
            warm.sample_batch(3, 16);
        }
        let cursor = warm.cursor();
        let mut fresh = TokenDataset::new(&c.documents, &tok, 0.1, 7);
        fresh.seek(cursor);
        for _ in 0..4 {
            let a = warm.sample_batch(3, 16);
            let b = fresh.sample_batch(3, 16);
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.targets, b.targets);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let c = small_corpus();
        let tok = BpeTokenizer::train(&c.documents, 512);
        let mut d1 = TokenDataset::new(&c.documents, &tok, 0.1, 9);
        let mut d2 = TokenDataset::new(&c.documents, &tok, 0.1, 9);
        assert_eq!(d1.sample_batch(2, 8).inputs, d2.sample_batch(2, 8).inputs);
    }
}
