//! Unigram language-model tokenizer ("SentencePiece-style").
//!
//! Training: seed a candidate vocabulary from frequent substrings, run EM
//! (forward–backward expectation over each word's segmentation lattice,
//! then re-normalise piece scores), and prune the lowest-utility pieces
//! until the target vocabulary size is reached — the same structure as the
//! SentencePiece unigram trainer. Encoding is Viterbi best segmentation.
//!
//! Whitespace is handled with the SentencePiece `▁` convention: every
//! space is replaced by the meta-symbol, which is glued to the following
//! word, so decoding is exact for space-separated text.

use crate::special::{self, NUM_SPECIAL};
use crate::{Tokenizer, TokenizerKind};
use std::collections::HashMap;

/// The SentencePiece whitespace meta-symbol.
pub const META: char = '\u{2581}'; // ▁

const MAX_PIECE_CHARS: usize = 12;
const EM_ITERATIONS: usize = 3;
const PRUNE_FRACTION: f64 = 0.2;

/// A trained unigram tokenizer.
#[derive(Clone, Debug)]
pub struct UnigramTokenizer {
    /// Subword pieces; index + NUM_SPECIAL is the token id.
    pieces: Vec<String>,
    /// Log-probability score per piece.
    scores: Vec<f64>,
    lookup: HashMap<String, usize>,
}

impl UnigramTokenizer {
    /// Train on a corpus of documents to (at most) `vocab_size` tokens
    /// including the reserved specials.
    pub fn train(texts: &[String], vocab_size: usize) -> Self {
        assert!(vocab_size > NUM_SPECIAL as usize + 16, "vocab too small");
        let target_pieces = vocab_size - NUM_SPECIAL as usize;

        // word frequencies with the ▁ convention
        let mut word_counts: HashMap<String, usize> = HashMap::new();
        for text in texts {
            for word in pretokenize(text) {
                *word_counts.entry(word).or_insert(0) += 1;
            }
        }
        let mut words: Vec<(Vec<char>, usize)> = word_counts
            .into_iter()
            .map(|(w, c)| (w.chars().collect(), c))
            .collect();
        words.sort();

        // --- seed: all single chars (mandatory) + frequent substrings
        let mut char_set: Vec<char> = Vec::new();
        let mut sub_counts: HashMap<String, usize> = HashMap::new();
        for (w, c) in &words {
            for &ch in w {
                if !char_set.contains(&ch) {
                    char_set.push(ch);
                }
            }
            for start in 0..w.len() {
                let mut s = String::new();
                for (end, &ch) in w.iter().enumerate().skip(start).take(MAX_PIECE_CHARS) {
                    s.push(ch);
                    if end > start {
                        *sub_counts.entry(s.clone()).or_insert(0) += c;
                    }
                }
            }
        }
        char_set.sort_unstable();
        let mut candidates: Vec<(String, f64)> =
            char_set.iter().map(|&c| (c.to_string(), 1.0)).collect();
        let mut subs: Vec<(String, usize)> =
            sub_counts.into_iter().filter(|(_, c)| *c >= 2).collect();
        subs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        // generous seed: 4x the final budget
        subs.truncate(target_pieces.saturating_mul(4));
        candidates.extend(subs.into_iter().map(|(s, c)| (s, c as f64)));

        let mut pieces: Vec<String> = candidates.iter().map(|(s, _)| s.clone()).collect();
        let total: f64 = candidates.iter().map(|(_, c)| c).sum();
        let mut scores: Vec<f64> = candidates.iter().map(|(_, c)| (c / total).ln()).collect();

        // --- EM + prune loop
        loop {
            for _ in 0..EM_ITERATIONS {
                let lookup = build_lookup(&pieces);
                let mut expected = vec![0.0f64; pieces.len()];
                for (w, c) in &words {
                    accumulate_expected(w, *c as f64, &pieces, &scores, &lookup, &mut expected);
                }
                let total: f64 = expected.iter().sum();
                if total <= 0.0 {
                    break;
                }
                for (s, e) in scores.iter_mut().zip(expected.iter()) {
                    // floor keeps mandatory single chars alive
                    *s = ((e + 1e-6) / total).ln();
                }
            }
            if pieces.len() <= target_pieces {
                break;
            }
            // prune: drop the worst non-single-char pieces
            let n_drop = (((pieces.len() - target_pieces) as f64)
                .max(pieces.len() as f64 * PRUNE_FRACTION) as usize)
                .min(pieces.len() - target_pieces.min(pieces.len()));
            let mut order: Vec<usize> = (0..pieces.len())
                .filter(|&i| pieces[i].chars().count() > 1)
                .collect();
            order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());
            let drop: std::collections::HashSet<usize> = order.into_iter().take(n_drop).collect();
            if drop.is_empty() {
                break;
            }
            let mut np = Vec::with_capacity(pieces.len() - drop.len());
            let mut ns = Vec::with_capacity(pieces.len() - drop.len());
            for i in 0..pieces.len() {
                if !drop.contains(&i) {
                    np.push(std::mem::take(&mut pieces[i]));
                    ns.push(scores[i]);
                }
            }
            pieces = np;
            scores = ns;
        }

        let lookup = build_lookup(&pieces);
        Self {
            pieces,
            scores,
            lookup,
        }
    }

    /// The score (log-probability) of a piece by id, if it exists.
    pub fn score(&self, id: u32) -> Option<f64> {
        id.checked_sub(NUM_SPECIAL)
            .and_then(|i| self.scores.get(i as usize))
            .copied()
    }

    /// Viterbi-encode one pre-token (chars, with ▁ already applied).
    fn encode_word(&self, w: &[char], out: &mut Vec<u32>) {
        let n = w.len();
        if n == 0 {
            return;
        }
        const NEG: f64 = -1e18;
        let unk_penalty = -100.0;
        // best[i]: best score of segmentation of prefix w[..i]
        let mut best = vec![NEG; n + 1];
        let mut back: Vec<(usize, u32)> = vec![(0, special::UNK); n + 1];
        best[0] = 0.0;
        let mut buf = String::new();
        for i in 0..n {
            if best[i] <= NEG {
                continue;
            }
            buf.clear();
            for j in i..n.min(i + MAX_PIECE_CHARS) {
                buf.push(w[j]);
                if let Some(&pid) = self.lookup.get(buf.as_str()) {
                    let s = best[i] + self.scores[pid];
                    if s > best[j + 1] {
                        best[j + 1] = s;
                        back[j + 1] = (i, NUM_SPECIAL + pid as u32);
                    }
                }
            }
            // UNK edge over a single char guarantees progress
            let s = best[i] + unk_penalty;
            if s > best[i + 1] {
                best[i + 1] = s;
                back[i + 1] = (i, special::UNK);
            }
        }
        // reconstruct
        let mut ids_rev = Vec::new();
        let mut pos = n;
        while pos > 0 {
            let (prev, id) = back[pos];
            ids_rev.push(id);
            pos = prev;
        }
        out.extend(ids_rev.into_iter().rev());
    }
}

fn build_lookup(pieces: &[String]) -> HashMap<String, usize> {
    pieces
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i))
        .collect()
}

/// Replace spaces with the ▁ meta-symbol glued to the following word.
fn pretokenize(text: &str) -> Vec<String> {
    text.split_whitespace()
        .map(|w| format!("{META}{w}"))
        .collect()
}

/// Forward–backward over the segmentation lattice of `w`, adding expected
/// piece counts (weighted by word count `c`) into `expected`.
fn accumulate_expected(
    w: &[char],
    c: f64,
    pieces: &[String],
    scores: &[f64],
    lookup: &HashMap<String, usize>,
    expected: &mut [f64],
) {
    let n = w.len();
    if n == 0 {
        return;
    }
    const NEG: f64 = -1e18;
    // alpha[i] = log sum of all segmentations of prefix ..i
    let mut alpha = vec![NEG; n + 1];
    alpha[0] = 0.0;
    let mut edges: Vec<(usize, usize, usize)> = Vec::new(); // (from, to, pid)
    let mut buf = String::new();
    for i in 0..n {
        if alpha[i] <= NEG {
            continue;
        }
        buf.clear();
        for j in i..n.min(i + MAX_PIECE_CHARS) {
            buf.push(w[j]);
            if let Some(&pid) = lookup.get(buf.as_str()) {
                edges.push((i, j + 1, pid));
                alpha[j + 1] = logaddexp(alpha[j + 1], alpha[i] + scores[pid]);
            }
        }
    }
    if alpha[n] <= NEG {
        return; // unsegmentable with current vocab (shouldn't happen)
    }
    let mut beta = vec![NEG; n + 1];
    beta[n] = 0.0;
    for &(from, to, pid) in edges.iter().rev() {
        beta[from] = logaddexp(beta[from], beta[to] + scores[pid]);
    }
    let z = alpha[n];
    for &(from, to, pid) in &edges {
        let posterior = (alpha[from] + scores[pid] + beta[to] - z).exp();
        expected[pid] += c * posterior;
    }
    let _ = pieces;
}

fn logaddexp(a: f64, b: f64) -> f64 {
    if a < b {
        b + (a - b).exp().ln_1p()
    } else if b < a {
        a + (b - a).exp().ln_1p()
    } else {
        a + std::f64::consts::LN_2
    }
}

impl Tokenizer for UnigramTokenizer {
    fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::with_capacity(text.len() / 3 + 1);
        for word in pretokenize(text) {
            let chars: Vec<char> = word.chars().collect();
            self.encode_word(&chars, &mut out);
        }
        out
    }

    fn decode(&self, ids: &[u32]) -> String {
        let mut s = String::new();
        for &id in ids {
            if id < NUM_SPECIAL {
                continue;
            }
            if let Some(p) = self.pieces.get((id - NUM_SPECIAL) as usize) {
                s.push_str(p);
            }
        }
        let s = s.replace(META, " ");
        s.strip_prefix(' ').map(str::to_owned).unwrap_or(s)
    }

    fn vocab_size(&self) -> usize {
        NUM_SPECIAL as usize + self.pieces.len()
    }

    fn kind(&self) -> TokenizerKind {
        TokenizerKind::Spm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        vec![
            "the band gap of the material is wide".to_string(),
            "the material band gap is narrow the gap".to_string(),
            "band gap band gap band gap energy".to_string(),
            "wide band gap semiconductors conduct".to_string(),
        ]
    }

    #[test]
    fn train_respects_vocab_budget() {
        let tok = UnigramTokenizer::train(&corpus(), 96);
        assert!(tok.vocab_size() <= 96, "vocab {}", tok.vocab_size());
        assert!(tok.vocab_size() > NUM_SPECIAL as usize);
    }

    #[test]
    fn roundtrip_on_training_domain() {
        let tok = UnigramTokenizer::train(&corpus(), 128);
        let text = "the band gap is wide";
        assert_eq!(tok.decode(&tok.encode(text)), text);
    }

    #[test]
    fn frequent_bigrams_become_single_pieces() {
        let tok = UnigramTokenizer::train(&corpus(), 128);
        // "band gap" appears constantly; "▁band" or longer should be one piece
        let ids = tok.encode("band gap");
        assert!(
            ids.len() <= 4,
            "expected multi-char pieces, got {} tokens",
            ids.len()
        );
    }

    #[test]
    fn unknown_chars_fall_back_to_unk_but_dont_crash() {
        let tok = UnigramTokenizer::train(&corpus(), 96);
        let ids = tok.encode("\u{4E2D}\u{6587}");
        assert!(!ids.is_empty());
        assert!(ids.contains(&special::UNK));
    }

    #[test]
    fn viterbi_prefers_higher_probability_segmentation() {
        let tok = UnigramTokenizer::train(&corpus(), 160);
        // the greedy longest match and viterbi coincide for in-domain text;
        // at minimum the segmentation must re-compose the word
        let ids = tok.encode("bandgap");
        let decoded = tok.decode(&ids);
        assert_eq!(decoded, "bandgap");
    }

    #[test]
    fn deterministic_training() {
        let a = UnigramTokenizer::train(&corpus(), 128);
        let b = UnigramTokenizer::train(&corpus(), 128);
        assert_eq!(a.pieces, b.pieces);
    }

    #[test]
    fn logaddexp_is_commutative_and_correct() {
        let v = logaddexp(1.0f64.ln(), 3.0f64.ln());
        assert!((v - 4.0f64.ln()).abs() < 1e-12);
        assert_eq!(logaddexp(-1.0, -2.0), logaddexp(-2.0, -1.0));
    }

    #[test]
    fn spm_tokenization_differs_from_char_split() {
        let tok = UnigramTokenizer::train(&corpus(), 160);
        let text = "the material";
        assert!(tok.encode(text).len() < text.len());
    }
}
