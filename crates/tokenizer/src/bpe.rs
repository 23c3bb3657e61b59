//! Byte-level byte-pair encoding ("HuggingFace-style").
//!
//! Training follows the classic algorithm: pre-tokenise into
//! whitespace-delimited words (a leading space is kept attached to the
//! word, GPT-2 style), count words, then repeatedly merge the most frequent
//! adjacent token pair until the vocabulary budget is exhausted. Encoding
//! replays the merges in rank order.

use crate::special::{self, NUM_SPECIAL};
use crate::{Tokenizer, TokenizerKind};
use std::collections::HashMap;

/// A trained byte-level BPE tokenizer.
#[derive(Clone, Debug)]
pub struct BpeTokenizer {
    /// Merge rules in training order: (left id, right id) -> new id.
    merges: Vec<(u32, u32)>,
    /// Lookup from pair to merge rank / produced id.
    merge_map: HashMap<(u32, u32), (usize, u32)>,
    /// Byte sequence for every token id (specials map to empty).
    token_bytes: Vec<Vec<u8>>,
}

impl BpeTokenizer {
    /// Train on a corpus of documents to a target vocabulary size
    /// (including the 4 special ids and the 256 byte tokens; `vocab_size`
    /// must be at least `260`).
    pub fn train(texts: &[String], vocab_size: usize) -> Self {
        assert!(
            vocab_size >= (NUM_SPECIAL as usize) + 256,
            "vocab must cover specials + bytes"
        );
        // word -> count, words carry their leading space
        let mut word_counts: HashMap<Vec<u32>, usize> = HashMap::new();
        for text in texts {
            for word in split_words(text) {
                let ids: Vec<u32> = word.bytes().map(byte_id).collect();
                *word_counts.entry(ids).or_insert(0) += 1;
            }
        }
        let mut words: Vec<(Vec<u32>, usize)> = word_counts.into_iter().collect();
        // Deterministic ordering regardless of hash map iteration.
        words.sort();

        let mut token_bytes: Vec<Vec<u8>> = Vec::with_capacity(vocab_size);
        for id in 0..NUM_SPECIAL {
            token_bytes.push(special::name(id).unwrap().as_bytes().to_vec());
        }
        for b in 0u16..256 {
            token_bytes.push(vec![b as u8]);
        }

        let mut merges = Vec::new();
        let n_merges = vocab_size - token_bytes.len();
        for _ in 0..n_merges {
            // count all adjacent pairs
            let mut pair_counts: HashMap<(u32, u32), usize> = HashMap::new();
            for (w, c) in &words {
                for pair in w.windows(2) {
                    *pair_counts.entry((pair[0], pair[1])).or_insert(0) += c;
                }
            }
            // deterministic argmax: highest count, ties by smallest pair
            let best = pair_counts
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some(((l, r), count)) = best else { break };
            if count < 2 {
                break;
            }
            let new_id = token_bytes.len() as u32;
            let mut bytes = token_bytes[l as usize].clone();
            bytes.extend_from_slice(&token_bytes[r as usize]);
            token_bytes.push(bytes);
            merges.push((l, r));
            // apply the merge to every word
            for (w, _) in words.iter_mut() {
                apply_merge(w, l, r, new_id);
            }
        }

        let merge_map = merges
            .iter()
            .enumerate()
            .map(|(rank, &(l, r))| {
                let id = NUM_SPECIAL + 256 + rank as u32;
                ((l, r), (rank, id))
            })
            .collect();
        Self {
            merges,
            merge_map,
            token_bytes,
        }
    }

    /// Number of learned merges.
    pub fn num_merges(&self) -> usize {
        self.merges.len()
    }

    fn encode_word(&self, word: &str) -> Vec<u32> {
        let mut ids: Vec<u32> = word.bytes().map(byte_id).collect();
        loop {
            // find the lowest-rank applicable merge
            let mut best: Option<(usize, usize, u32)> = None; // (rank, pos, new_id)
            for i in 0..ids.len().saturating_sub(1) {
                if let Some(&(rank, new_id)) = self.merge_map.get(&(ids[i], ids[i + 1])) {
                    if best.is_none_or(|(br, _, _)| rank < br) {
                        best = Some((rank, i, new_id));
                    }
                }
            }
            match best {
                Some((_, pos, new_id)) => {
                    ids[pos] = new_id;
                    ids.remove(pos + 1);
                }
                None => break,
            }
        }
        ids
    }
}

impl Tokenizer for BpeTokenizer {
    fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::with_capacity(text.len() / 3 + 1);
        for word in split_words(text) {
            out.extend(self.encode_word(word));
        }
        out
    }

    fn decode(&self, ids: &[u32]) -> String {
        let mut bytes = Vec::with_capacity(ids.len() * 3);
        for &id in ids {
            if id < NUM_SPECIAL {
                continue;
            }
            if let Some(b) = self.token_bytes.get(id as usize) {
                bytes.extend_from_slice(b);
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn vocab_size(&self) -> usize {
        self.token_bytes.len()
    }

    fn kind(&self) -> TokenizerKind {
        TokenizerKind::Hf
    }
}

fn byte_id(b: u8) -> u32 {
    NUM_SPECIAL + b as u32
}

/// Split into words, each carrying its leading whitespace run (GPT-2 style
/// `Ġword`). Splitting is lossless: concatenating the pieces reproduces the
/// input exactly, so decode(encode(x)) == x for any input.
fn split_words(text: &str) -> impl Iterator<Item = &str> {
    let bytes = text.as_bytes();
    let is_space = |b: u8| b == b' ' || b == b'\n' || b == b'\t' || b == b'\r';
    let mut starts = vec![0usize];
    for i in 1..bytes.len() {
        // a new word begins where a whitespace run starts
        if is_space(bytes[i]) && !is_space(bytes[i - 1]) {
            starts.push(i);
        }
    }
    starts.push(text.len());
    (0..starts.len().saturating_sub(1))
        .map(move |w| &text[starts[w]..starts[w + 1]])
        .filter(|s| !s.is_empty())
}

fn apply_merge(word: &mut Vec<u32>, l: u32, r: u32, new_id: u32) {
    let mut i = 0;
    while i + 1 < word.len() {
        if word[i] == l && word[i + 1] == r {
            word[i] = new_id;
            word.remove(i + 1);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        vec![
            "the band gap of the material is wide".to_string(),
            "the material band gap is narrow the gap".to_string(),
            "band gap band gap band gap".to_string(),
        ]
    }

    #[test]
    fn train_produces_requested_vocab() {
        let tok = BpeTokenizer::train(&corpus(), 280);
        assert!(tok.vocab_size() <= 280);
        assert!(tok.num_merges() > 0, "should learn some merges");
    }

    #[test]
    fn roundtrip_on_training_domain() {
        let tok = BpeTokenizer::train(&corpus(), 300);
        let text = "the band gap is wide";
        let ids = tok.encode(text);
        assert_eq!(tok.decode(&ids), text);
    }

    #[test]
    fn roundtrip_on_unseen_text_via_byte_fallback() {
        let tok = BpeTokenizer::train(&corpus(), 280);
        let text = "Zr0.5Ti0.5O2 exhibits εxx anisotropy";
        let ids = tok.encode(text);
        assert_eq!(tok.decode(&ids), text);
    }

    #[test]
    fn merges_reduce_token_count() {
        let tok = BpeTokenizer::train(&corpus(), 320);
        let text = "band gap band gap";
        let n_tokens = tok.encode(text).len();
        assert!(
            n_tokens < text.len(),
            "BPE should compress below byte count: {n_tokens}"
        );
    }

    #[test]
    fn bigger_vocab_compresses_at_least_as_well() {
        let c = corpus();
        let small = BpeTokenizer::train(&c, 270);
        let large = BpeTokenizer::train(&c, 330);
        let text = "the band gap of the material";
        assert!(large.encode(text).len() <= small.encode(text).len());
    }

    #[test]
    fn encode_with_specials_frames() {
        let tok = BpeTokenizer::train(&corpus(), 280);
        let ids = tok.encode_with_specials("band gap");
        assert_eq!(ids.first(), Some(&special::BOS));
        assert_eq!(ids.last(), Some(&special::EOS));
    }

    #[test]
    fn deterministic_training() {
        let a = BpeTokenizer::train(&corpus(), 300);
        let b = BpeTokenizer::train(&corpus(), 300);
        assert_eq!(a.merges, b.merges);
    }

    #[test]
    fn empty_text_encodes_empty() {
        let tok = BpeTokenizer::train(&corpus(), 270);
        assert!(tok.encode("").is_empty());
        assert_eq!(tok.decode(&[]), "");
    }
}
