//! Domain screening of aggregated sources.
//!
//! The paper fine-tunes SciBERT on a small domain-labelled dataset and uses
//! the resulting classifier to filter materials-science documents out of
//! CORE/MAG/Aminer. Our substitute is a from-scratch logistic-regression
//! classifier over hashed bag-of-words features, trained on a small
//! labelled set exactly as the paper describes — same pipeline role, much
//! lighter model.

/// Hashed bag-of-words logistic regression.
#[derive(Clone, Debug)]
pub struct ScreeningClassifier {
    weights: Vec<f32>,
    bias: f32,
    dims: usize,
}

fn hash_word(word: &str, dims: usize) -> usize {
    // FNV-1a, stable across runs/platforms
    let mut h: u64 = 0xcbf29ce484222325;
    for b in word.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % dims as u64) as usize
}

impl ScreeningClassifier {
    /// Feature vector of a document (L2-normalised hashed counts).
    fn featurize(&self, text: &str) -> Vec<(usize, f32)> {
        featurize(text, self.dims)
    }

    /// Train on `(text, is_materials)` pairs with plain SGD.
    pub fn train(labeled: &[(String, bool)], dims: usize, epochs: usize, lr: f32) -> Self {
        let mut clf = Self {
            weights: vec![0.0; dims],
            bias: 0.0,
            dims,
        };
        let feats: Vec<(Vec<(usize, f32)>, f32)> = labeled
            .iter()
            .map(|(t, y)| (featurize(t, dims), if *y { 1.0 } else { 0.0 }))
            .collect();
        for _ in 0..epochs {
            for (f, y) in &feats {
                let p = clf.raw_score(f);
                let err = sigmoid(p) - y;
                clf.bias -= lr * err;
                for &(i, v) in f {
                    clf.weights[i] -= lr * err * v;
                }
            }
        }
        clf
    }

    fn raw_score(&self, feats: &[(usize, f32)]) -> f32 {
        self.bias + feats.iter().map(|&(i, v)| self.weights[i] * v).sum::<f32>()
    }

    /// Probability that `text` is materials science.
    pub fn probability(&self, text: &str) -> f32 {
        sigmoid(self.raw_score(&self.featurize(text)))
    }

    /// Binary decision at threshold 0.5.
    pub fn is_materials(&self, text: &str) -> bool {
        self.probability(text) >= 0.5
    }

    /// Partition a mixed document stream, returning (kept, dropped).
    pub fn screen(&self, docs: Vec<String>) -> (Vec<String>, Vec<String>) {
        let mut keep = Vec::new();
        let mut drop = Vec::new();
        for d in docs {
            if self.is_materials(&d) {
                keep.push(d);
            } else {
                drop.push(d);
            }
        }
        (keep, drop)
    }

    /// Accuracy on a labelled set.
    pub fn accuracy(&self, labeled: &[(String, bool)]) -> f64 {
        if labeled.is_empty() {
            return 0.0;
        }
        let correct = labeled
            .iter()
            .filter(|(t, y)| self.is_materials(t) == *y)
            .count();
        correct as f64 / labeled.len() as f64
    }
}

fn featurize(text: &str, dims: usize) -> Vec<(usize, f32)> {
    let mut counts: std::collections::HashMap<usize, f32> = std::collections::HashMap::new();
    for w in text.split_whitespace() {
        let w = w.to_ascii_lowercase();
        *counts.entry(hash_word(&w, dims)).or_insert(0.0) += 1.0;
    }
    let norm: f32 = counts.values().map(|v| v * v).sum::<f32>().sqrt();
    let inv = if norm > 0.0 { 1.0 / norm } else { 0.0 };
    let mut v: Vec<(usize, f32)> = counts.into_iter().map(|(i, c)| (i, c * inv)).collect();
    v.sort_unstable_by_key(|&(i, _)| i);
    v
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::MaterialGenerator;
    use crate::templates::{material_abstract, offtopic_abstract};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn labeled_set(n: usize, seed: u64) -> Vec<(String, bool)> {
        let mats = MaterialGenerator::new(seed).generate(n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed + 1);
        let mut out = Vec::new();
        for m in &mats {
            out.push((material_abstract(m, &mut rng), true));
            out.push((offtopic_abstract(&mut rng), false));
        }
        out
    }

    #[test]
    fn classifier_learns_the_domain() {
        let train = labeled_set(60, 10);
        let test = labeled_set(40, 99);
        let clf = ScreeningClassifier::train(&train, 1024, 20, 0.5);
        let acc = clf.accuracy(&test);
        assert!(acc > 0.95, "screening accuracy {acc}");
    }

    #[test]
    fn screen_partitions_stream() {
        let train = labeled_set(60, 20);
        let clf = ScreeningClassifier::train(&train, 1024, 20, 0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mats = MaterialGenerator::new(30).generate(10);
        let mut docs: Vec<String> = mats
            .iter()
            .map(|m| material_abstract(m, &mut rng))
            .collect();
        let n_pos = docs.len();
        docs.extend((0..10).map(|_| offtopic_abstract(&mut rng)));
        let (keep, drop) = clf.screen(docs);
        assert!(keep.len() >= n_pos - 2, "kept {}", keep.len());
        assert!(drop.len() >= 8, "dropped {}", drop.len());
    }

    #[test]
    fn hashing_is_stable() {
        assert_eq!(hash_word("band", 512), hash_word("band", 512));
        assert_ne!(hash_word("band", 512), hash_word("gap", 512));
    }

    #[test]
    fn untrained_classifier_is_uncertain() {
        let clf = ScreeningClassifier {
            weights: vec![0.0; 64],
            bias: 0.0,
            dims: 64,
        };
        assert!((clf.probability("anything at all") - 0.5).abs() < 1e-6);
    }
}
