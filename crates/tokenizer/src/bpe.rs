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
use std::hash::{BuildHasherDefault, Hasher};

/// A trained byte-level BPE tokenizer.
#[derive(Clone, Debug)]
pub struct BpeTokenizer {
    /// Merge rules in training order: (left id, right id) -> new id.
    merges: Vec<(u32, u32)>,
    /// Lookup from pair to merge rank / produced id.
    merge_map: PairMap<(usize, u32)>,
    /// Byte sequence for every token id (specials map to empty).
    token_bytes: Vec<Vec<u8>>,
}

impl BpeTokenizer {
    /// Train on a corpus of documents to a target vocabulary size
    /// (including the 4 special ids and the 256 byte tokens; `vocab_size`
    /// must be at least `260`).
    ///
    /// The pair counts are built once; each merge then recounts only the
    /// words that hold the merged pair, found through a pair → word
    /// index, so a merge costs what those words cost rather than a pass
    /// over the whole vocabulary of words.
    pub fn train(texts: &[String], vocab_size: usize) -> Self {
        let (mut words, mut token_bytes) = training_start(texts, vocab_size);
        let mut pairs = PairIndex::new(&words);
        let mut merges = Vec::new();
        let n_merges = vocab_size - token_bytes.len();
        for _ in 0..n_merges {
            let Some(((l, r), count)) = pairs.most_frequent() else {
                break;
            };
            if count < 2 {
                break;
            }
            let new_id = token_bytes.len() as u32;
            let mut bytes = token_bytes[l as usize].clone();
            bytes.extend_from_slice(&token_bytes[r as usize]);
            token_bytes.push(bytes);
            merges.push((l, r));
            pairs.merge(&mut words, (l, r), new_id);
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

    /// The merge rules in training order, each a `(left id, right id)`
    /// pair; the `i`-th produces id `260 + i`.
    pub fn merges(&self) -> &[(u32, u32)] {
        &self.merges
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

/// Distinct words with their counts, in a fixed order (words carry
/// their leading space, ids are byte ids), and the token bytes of the
/// specials and the 256 byte tokens: where training starts.
fn training_start(texts: &[String], vocab_size: usize) -> (Vec<Word>, Vec<Vec<u8>>) {
    assert!(
        vocab_size >= (NUM_SPECIAL as usize) + 256,
        "vocab must cover specials + bytes"
    );
    let mut word_counts: HashMap<Vec<u32>, usize> = HashMap::new();
    for text in texts {
        for word in split_words(text) {
            let ids: Vec<u32> = word.bytes().map(byte_id).collect();
            *word_counts.entry(ids).or_insert(0) += 1;
        }
    }
    let mut words: Vec<Word> = word_counts.into_iter().collect();
    // Deterministic ordering regardless of hash map iteration.
    words.sort();

    let mut token_bytes: Vec<Vec<u8>> = Vec::with_capacity(vocab_size);
    for id in 0..NUM_SPECIAL {
        token_bytes.push(special::name(id).unwrap().as_bytes().to_vec());
    }
    for b in 0u16..256 {
        token_bytes.push(vec![b as u8]);
    }
    (words, token_bytes)
}

/// A distinct word's token ids and its count in the corpus.
type Word = (Vec<u32>, usize);
/// Two adjacent token ids.
type Pair = (u32, u32);

/// The merge table's map. Encoding looks a word's pairs up O(len²)
/// times, and with SipHash that was three quarters of a dataset build.
/// Its keys are the trained merges, fixed before any text is encoded,
/// so no input can add colliding keys; the training maps, which text
/// does fill, keep SipHash.
type PairMap<V> = HashMap<Pair, V, BuildHasherDefault<PairHasher>>;

/// The hasher behind [`PairMap`]: per id, rotate the state, xor the id
/// in and multiply by an odd constant (rustc's `FxHasher` step).
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Every adjacent pair's count over the distinct words (each occurrence
/// weighted by its word's count), and for each pair the indices of the
/// words that hold it. A word's index is listed once per pair, when the
/// pair first appears in it; a merge can only remove pairs from a word
/// or add ones holding the new id, so the lists stay complete, and an
/// entry whose word has since lost the pair is skipped.
struct PairIndex {
    counts: HashMap<Pair, usize>,
    holders: HashMap<Pair, Vec<usize>>,
}

impl PairIndex {
    fn new(words: &[Word]) -> Self {
        let mut index = Self {
            counts: HashMap::new(),
            holders: HashMap::new(),
        };
        for (i, (word, count)) in words.iter().enumerate() {
            index.add(i, word, *count, |_| true);
        }
        index
    }

    /// The pair to merge next: the highest count, ties to the smallest
    /// pair.
    fn most_frequent(&self) -> Option<(Pair, usize)> {
        self.counts
            .iter()
            .map(|(&pair, &count)| (pair, count))
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
    }

    /// Count word `i`'s pairs, listing it under those `new` picks.
    fn add(&mut self, i: usize, word: &[u32], count: usize, new: impl Fn(Pair) -> bool) {
        for p in word.windows(2) {
            let pair = (p[0], p[1]);
            *self.counts.entry(pair).or_insert(0) += count;
            if new(pair) {
                let list = self.holders.entry(pair).or_default();
                if list.last() != Some(&i) {
                    list.push(i);
                }
            }
        }
    }

    /// Uncount a word's pairs; a pair whose count reaches zero leaves
    /// the counts (its holder list stays, for the re-add that may follow).
    fn remove(&mut self, word: &[u32], count: usize) {
        for p in word.windows(2) {
            let pair = (p[0], p[1]);
            let c = self.counts.get_mut(&pair).expect("a counted pair");
            *c -= count;
            if *c == 0 {
                self.counts.remove(&pair);
            }
        }
    }

    /// Merge `pair` into `new_id` in every word that holds it, and
    /// recount those words.
    fn merge(&mut self, words: &mut [Word], pair: Pair, new_id: u32) {
        for i in self.holders.remove(&pair).unwrap_or_default() {
            let (word, count) = &mut words[i];
            if !word.windows(2).any(|p| (p[0], p[1]) == pair) {
                continue;
            }
            self.remove(word, *count);
            apply_merge(word, pair.0, pair.1, new_id);
            self.add(i, word, *count, |p| p.0 == new_id || p.1 == new_id);
        }
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

    /// The trainer's merge list as the loop before the pair index had it:
    /// every merge recounts every pair of every word.
    fn merges_by_full_recount(texts: &[String], vocab_size: usize) -> Vec<Pair> {
        let (mut words, token_bytes) = training_start(texts, vocab_size);
        let mut merges = Vec::new();
        for new_id in token_bytes.len()..vocab_size {
            let mut pair_counts: HashMap<Pair, usize> = HashMap::new();
            for (w, c) in &words {
                for pair in w.windows(2) {
                    *pair_counts.entry((pair[0], pair[1])).or_insert(0) += c;
                }
            }
            let best = pair_counts
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some(((l, r), count)) = best else { break };
            if count < 2 {
                break;
            }
            merges.push((l, r));
            for (w, _) in words.iter_mut() {
                apply_merge(w, l, r, new_id as u32);
            }
        }
        merges
    }

    /// Texts over a three-letter alphabet with runs and repeats, so most
    /// pair counts tie and the tie-break decides.
    fn tie_heavy_texts(seed: u64) -> Vec<String> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        (0..12)
            .map(|_| {
                (0..40)
                    .map(|_| {
                        let len = 1 + next(6) as usize;
                        let letter = |i: usize| b"abca"[(i + next(2) as usize) % 4] as char;
                        (0..len).map(letter).collect::<String>()
                    })
                    .collect::<Vec<_>>()
                    .join(if next(3) == 0 { "  " } else { " " })
            })
            .collect()
    }

    #[test]
    fn incremental_counts_merge_as_the_full_recount_does() {
        let mut cases: Vec<(Vec<String>, usize)> = vec![
            (corpus(), 280),
            (corpus(), 330),
            (vec!["aaaa aaaa aaaaaa".into(), "abababab ba".into()], 300),
            (vec![String::new()], 270),
        ];
        for seed in 1..=8 {
            cases.push((tie_heavy_texts(seed), 260 + 40 * (seed as usize % 4)));
        }
        for (texts, vocab) in &cases {
            let tok = BpeTokenizer::train(texts, *vocab);
            assert_eq!(
                tok.merges(),
                merges_by_full_recount(texts, *vocab),
                "{texts:?}"
            );
        }
    }

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
