//! Tape-free KV-cached inference for [`GptModel`].
//!
//! The training path records every op on an autograd tape and re-runs
//! the whole window for each generated token — O(T²) work per token.
//! This module evaluates the same network directly on flat buffers with
//! a per-layer [`KvCache`], so decoding one token costs one pass over
//! the weights plus one O(T) streaming-attention scan.
//!
//! [`GptModel::forward_batch`] is the one forward body: prefill, decode,
//! speculative verify and a whole scheduler iteration's ragged batch of
//! them are the same call, over any [`ForwardParams`] × [`KvStorage`];
//! [`GptModel::forward_cached`] and [`GptModel::decode_step`] are its
//! one-segment spellings (DECODING.md tabulates who dispatches on what).
//!
//! Semantics relative to the tape path:
//!
//! * positions are **absolute**: token `n` is rotated at angle `n`
//!   regardless of window truncation. While the sequence fits in
//!   `max_seq` this is bit-for-bit the training convention (positions
//!   `0..T`), and [`GptModel::forward_cached`] matches
//!   [`GptModel::logits`] to float tolerance — see the parity tests.
//! * when the sequence outgrows `max_seq`, the cache drops its oldest
//!   rows (sliding window). The tape path instead re-encodes the window
//!   from position 0, so outputs diverge past `max_seq` — the cached
//!   path is the standard serving behaviour (Mistral-style windowed
//!   attention), the tape path is a training-time convenience.

use crate::config::ArchKind;
use crate::gpt::{GptModel, Slot::*};
use crate::quant::ForwardParams;
use matgpt_tensor::kernels::activation as act;
use matgpt_tensor::kernels::infer::{cached_attention, rotary_rows};
use matgpt_tensor::kernels::norm;
use matgpt_tensor::ParamId;

/// Storage backend for the per-request KV state the cached decode path
/// attends through.
///
/// [`GptModel::forward_batch`] drives one segment's forward of `n`
/// new tokens as: [`KvStorage::begin`] (claim the next `n` absolute
/// positions), then per layer [`KvStorage::write`] (store the rotated
/// K/V rows) and [`KvStorage::attend`] (causal attention of the new
/// queries over everything cached in that layer, *including* the rows
/// just written), then [`KvStorage::commit`] (advance counters and
/// apply window truncation).
///
/// Two backends implement this: the contiguous per-request [`KvCache`]
/// (one flat buffer per layer) and the block-paged
/// `matgpt_serve::kvpool::PagedKv` (fixed-size blocks from a shared
/// slab, refcounted copy-on-write prefix sharing). The contract both
/// uphold: for bitwise-equal inputs, [`KvStorage::attend`] visits the
/// same rows in the same order with the same float operations, so the
/// logits out of `forward_cached` are **bit-identical** across
/// backends (property-tested in `tests/paged_kv.rs`).
pub trait KvStorage {
    /// Number of transformer layers this storage is shaped for.
    fn layers(&self) -> usize;
    /// Positions currently visible to attention (committed, ≤ window).
    fn len(&self) -> usize;
    /// True when nothing has been cached yet.
    fn is_empty(&self) -> bool {
        self.positions_seen() == 0
    }
    /// Total tokens ever fed through this storage (monotone, unaffected
    /// by window truncation).
    fn positions_seen(&self) -> usize;
    /// Heap bytes held for cached keys and values.
    fn kv_bytes(&self) -> usize;
    /// Claim the next `n` absolute positions for an in-flight forward;
    /// returns the absolute position of the first new token. Paged
    /// backends require capacity for `n` rows to have been reserved.
    fn begin(&mut self, n: usize) -> usize;
    /// Store the rotated K/V rows (`[n, kv_heads*head_dim]` each) for
    /// `layer` of the in-flight forward.
    fn write(&mut self, layer: usize, k: &[f32], v: &[f32]);
    /// Causal attention of `q` (`[n_new, heads*d]`, rotated) over every
    /// row cached in `layer` — committed rows plus the in-flight rows
    /// already written — into `out` (`[n_new, heads*d]`).
    #[allow(clippy::too_many_arguments)]
    fn attend(
        &self,
        layer: usize,
        q: &[f32],
        out: &mut [f32],
        n_new: usize,
        heads: usize,
        kv_heads: usize,
        d: usize,
    );
    /// Finish the in-flight forward: commit the written rows and apply
    /// window truncation.
    fn commit(&mut self);
    /// Drop the last `n` committed rows and rewind the position counter,
    /// as if the tokens that produced them were never forwarded.
    ///
    /// Speculative decoding commits `k + 1` verify rows optimistically
    /// and rolls the rejected tail back through this. The state after
    /// `rollback(n)` must be bitwise indistinguishable from never having
    /// forwarded those `n` tokens, which is only possible while the
    /// cache still holds every row it has ever seen — implementations
    /// panic if rows were already lost to window truncation (the
    /// speculative driver falls back to plain decode before the window
    /// fills, so it never rolls back across a truncation). No forward
    /// may be in flight.
    fn rollback(&mut self, n: usize);
}

/// One layer's cached keys and values, token-major `[T, Hkv*D]` so an
/// append is a plain extend and a truncation a front drain.
#[derive(Clone, Debug, Default)]
struct LayerKv {
    k: Vec<f32>,
    v: Vec<f32>,
}

/// Per-layer key/value cache for one sequence.
///
/// Grows by [`GptModel::forward_cached`]; holds at most `max_seq`
/// positions per layer, discarding the oldest beyond that (windowed
/// truncation). Tracks the absolute position of the next token so
/// rotary angles stay consistent across truncation.
#[derive(Clone, Debug)]
pub struct KvCache {
    layers: Vec<LayerKv>,
    /// Row width of each layer buffer: `kv_heads * head_dim`.
    kv_dim: usize,
    /// Window capacity in tokens.
    max_seq: usize,
    /// Absolute position the next appended token will occupy.
    next_pos: usize,
}

impl KvCache {
    /// An empty cache shaped for `model`.
    pub fn new(model: &GptModel) -> Self {
        let cfg = &model.cfg;
        Self {
            layers: vec![LayerKv::default(); cfg.layers],
            kv_dim: cfg.kv_head_count() * cfg.head_dim(),
            max_seq: cfg.max_seq,
            next_pos: 0,
        }
    }

    /// Number of positions currently cached (≤ `max_seq`).
    pub fn len(&self) -> usize {
        self.layers.first().map_or(0, |l| l.k.len() / self.kv_dim)
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.next_pos == 0
    }

    /// Drop rows from the front of every layer until at most `max_seq`
    /// positions remain.
    fn truncate_to_window(&mut self) {
        let len = self.len();
        if len > self.max_seq {
            let drop_rows = (len - self.max_seq) * self.kv_dim;
            for layer in &mut self.layers {
                layer.k.drain(..drop_rows);
                layer.v.drain(..drop_rows);
            }
        }
    }
}

impl KvStorage for KvCache {
    fn layers(&self) -> usize {
        self.layers.len()
    }

    fn len(&self) -> usize {
        KvCache::len(self)
    }

    fn positions_seen(&self) -> usize {
        self.next_pos
    }

    fn kv_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| (l.k.len() + l.v.len()) * std::mem::size_of::<f32>())
            .sum()
    }

    fn begin(&mut self, n: usize) -> usize {
        let start = self.next_pos;
        self.next_pos += n;
        start
    }

    fn write(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        let l = &mut self.layers[layer];
        l.k.extend_from_slice(k);
        l.v.extend_from_slice(v);
    }

    fn attend(
        &self,
        layer: usize,
        q: &[f32],
        out: &mut [f32],
        n_new: usize,
        heads: usize,
        kv_heads: usize,
        d: usize,
    ) {
        let l = &self.layers[layer];
        let t_total = l.k.len() / self.kv_dim;
        cached_attention(q, &l.k, &l.v, out, n_new, t_total, heads, kv_heads, d);
    }

    fn commit(&mut self) {
        self.truncate_to_window();
    }

    fn rollback(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let len = self.len();
        assert_eq!(
            self.next_pos, len,
            "rollback across window truncation is unsupported"
        );
        assert!(n <= len, "rollback of {n} rows but only {len} cached");
        let keep = (len - n) * self.kv_dim;
        for layer in &mut self.layers {
            layer.k.truncate(keep);
            layer.v.truncate(keep);
        }
        self.next_pos -= n;
    }
}

impl GptModel {
    /// An empty KV cache shaped for this model.
    pub fn new_cache(&self) -> KvCache {
        KvCache::new(self)
    }

    /// The one tape-free forward: feed every segment's new tokens through
    /// the model in **one** pass over the weights, each on top of its
    /// own cache, returning the logits `[R, vocab]` for all `R` new
    /// positions in segment order and advancing every cache.
    ///
    /// A segment is one sequence's `(new tokens, cache)`: a multi-token
    /// segment is a prefill (or a speculative verify), a one-token
    /// segment a decode step, and a batch of them is one scheduler
    /// iteration. All rows are stacked into one `[R, hidden]`
    /// activation, so every norm, linear, MLP and the LM head run once
    /// over all of them (f32 weights stream once, the int8 store's
    /// codes ⌈R/8⌉ times — never once per segment); only the KV calls — `begin` / `write` / `attend` /
    /// `commit` — and the absolute positions the rotation takes fan out
    /// per segment. Every kernel on the way is row-independent, so a
    /// segment's rows and cache are **bit-identical** to forwarding it
    /// alone (property-tested below).
    ///
    /// `P` supplies dense reads and the matmul kernel (the f32
    /// [`matgpt_tensor::ParamStore`] or the int8
    /// [`crate::quant::QuantizedParamStore`]), `S` the KV layout the
    /// pass attends through (contiguous [`KvCache`] or a block-paged
    /// view, bit-identical logits across the two); either may be `dyn`.
    ///
    /// Every segment is checked before the first `begin`, so a bad one
    /// panics with no cache touched — never with a neighbour's between
    /// `begin` and `commit`.
    pub fn forward_batch<P: ForwardParams + ?Sized, S: KvStorage + ?Sized>(
        &self,
        store: &P,
        segs: &mut [(&[u32], &mut S)],
    ) -> Vec<f32> {
        let cfg = &self.cfg;
        for (tokens, cache) in segs.iter() {
            assert!(!tokens.is_empty(), "forward needs at least one token");
            assert!(
                tokens.len() <= cfg.max_seq,
                "chunk of {} tokens exceeds max_seq {}; split the prefill",
                tokens.len(),
                cfg.max_seq
            );
            if let Some(&tok) = tokens.iter().find(|&&t| t as usize >= cfg.vocab_size) {
                panic!("token id {tok} out of vocab");
            }
            assert_eq!(cache.layers(), cfg.layers, "cache shaped for another model");
        }
        let h = cfg.hidden;
        let heads = cfg.heads;
        let kv_heads = cfg.kv_head_count();
        let d = cfg.head_dim();
        let kv_dim = kv_heads * d;

        // each segment claims its own absolute positions; rows stack in
        // segment order
        let mut positions = Vec::new();
        for (tokens, cache) in segs.iter_mut() {
            let start = cache.begin(tokens.len());
            positions.extend(start..start + tokens.len());
        }
        let n = positions.len();

        // token embeddings -> x [n, h]
        let emb = store.dense(self.tok_emb);
        let mut x = vec![0.0f32; n * h];
        let stacked = segs.iter().flat_map(|(tokens, _)| tokens.iter());
        for (row, &tok) in x.chunks_mut(h).zip(stacked) {
            let tok = tok as usize;
            row.copy_from_slice(&emb[tok * h..(tok + 1) * h]);
        }

        let mut scratch = vec![0.0f32; n * h];
        for (li, layer) in self.layers.iter().enumerate() {
            // --- attention block
            self.norm_rows(store, &x, &mut scratch, n, layer.id(Ln1G), layer.get(Ln1B));
            let mut q = store.linear(&scratch, layer.id(Wq), layer.get(Bq), n, h, h);
            let mut k = store.linear(&scratch, layer.id(Wk), layer.get(Bk), n, h, kv_dim);
            let v = store.linear(&scratch, layer.id(Wv), layer.get(Bv), n, h, kv_dim);
            rotary_rows(&mut q, &positions, heads, d, cfg.rope_base);
            rotary_rows(&mut k, &positions, kv_heads, d, cfg.rope_base);
            let mut att = vec![0.0f32; n * heads * d];
            let mut row = 0;
            for (tokens, cache) in segs.iter_mut() {
                let (n_seg, end) = (tokens.len(), row + tokens.len());
                cache.write(
                    li,
                    &k[row * kv_dim..end * kv_dim],
                    &v[row * kv_dim..end * kv_dim],
                );
                let (q, att) = (&q[row * h..end * h], &mut att[row * h..end * h]);
                cache.attend(li, q, att, n_seg, heads, kv_heads, d);
                row = end;
            }
            let proj = store.linear(&att, layer.id(Wo), layer.get(Bo), n, h, h);
            for (o, &p) in x.iter_mut().zip(&proj) {
                *o += p;
            }
            // --- mlp block
            self.norm_rows(store, &x, &mut scratch, n, layer.id(Ln2G), layer.get(Ln2B));
            let m = cfg.mlp_hidden();
            let mlp = match cfg.arch {
                ArchKind::NeoX => {
                    let mut a = store.linear(&scratch, layer.id(W1), layer.get(B1), n, h, m);
                    for v in a.iter_mut() {
                        *v = act::gelu(*v);
                    }
                    store.linear(&a, layer.id(W2), layer.get(B2), n, m, h)
                }
                ArchKind::Llama => {
                    let mut gate = store.linear(&scratch, layer.id(W1), None, n, h, m);
                    let up = store.linear(&scratch, layer.id(W3), None, n, h, m);
                    for (g, &u) in gate.iter_mut().zip(&up) {
                        *g = act::silu(*g) * u;
                    }
                    store.linear(&gate, layer.id(W2), None, n, m, h)
                }
            };
            for (o, &p) in x.iter_mut().zip(&mlp) {
                *o += p;
            }
        }
        for (_, cache) in segs.iter_mut() {
            cache.commit();
        }

        self.norm_rows(store, &x, &mut scratch, n, self.lnf_g, self.lnf_b);
        let mut logits = vec![0.0f32; n * cfg.vocab_size];
        store.matmul(&scratch, self.lm_head, &mut logits, n, h, cfg.vocab_size);
        logits
    }

    /// [`GptModel::forward_batch`] over one segment: `tokens` on top of
    /// `cache`, returning the logits `[tokens.len(), vocab]` — a prefill
    /// (or a speculative verify) when there are several tokens, a decode
    /// step when there is one.
    pub fn forward_cached<P: ForwardParams + ?Sized, S: KvStorage + ?Sized>(
        &self,
        store: &P,
        tokens: &[u32],
        cache: &mut S,
    ) -> Vec<f32> {
        self.forward_batch(store, &mut [(tokens, cache)])
    }

    /// Decode one token on top of `cache`, returning its `[vocab]`
    /// logits row.
    pub fn decode_step<P: ForwardParams + ?Sized, S: KvStorage + ?Sized>(
        &self,
        store: &P,
        token: u32,
        cache: &mut S,
    ) -> Vec<f32> {
        self.forward_cached(store, &[token], cache)
    }

    /// Architecture-appropriate normalisation of `[n, hidden]` rows into
    /// `out`.
    fn norm_rows<P: ForwardParams + ?Sized>(
        &self,
        store: &P,
        x: &[f32],
        out: &mut [f32],
        n: usize,
        g: ParamId,
        b: Option<ParamId>,
    ) {
        let h = self.cfg.hidden;
        match self.cfg.arch {
            ArchKind::NeoX => {
                let beta = store.dense(b.expect("NeoX LayerNorm beta"));
                norm::layernorm_fwd(x, store.dense(g), beta, out, n, h, self.cfg.norm_eps);
            }
            ArchKind::Llama => {
                norm::rmsnorm_fwd(x, store.dense(g), out, n, h, self.cfg.norm_eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GptConfig;
    use matgpt_tensor::{init, ParamStore, Tape};
    use proptest::prelude::*;

    fn build(arch: ArchKind, kv_heads: Option<usize>, seed: u64) -> (GptModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(seed);
        let cfg = GptConfig {
            vocab_size: 40,
            hidden: 32,
            layers: 2,
            heads: 4,
            kv_heads,
            max_seq: 24,
            ..GptConfig::tiny(arch, 40)
        };
        let model = GptModel::new(cfg, &mut store, &mut rng);
        (model, store)
    }

    fn full_logits(model: &GptModel, store: &ParamStore, tokens: &[u32]) -> Vec<f32> {
        let mut tape = Tape::new();
        let l = model.logits(&mut tape, store, tokens, 1, tokens.len());
        tape.value(l).data().to_vec()
    }

    #[test]
    fn prefill_matches_tape_forward() {
        for (arch, kv) in [
            (ArchKind::NeoX, None),
            (ArchKind::Llama, None),
            (ArchKind::Llama, Some(2)),
        ] {
            let (model, store) = build(arch, kv, 3);
            let tokens: Vec<u32> = (0..10).map(|i| (i * 7) % 40).collect();
            let mut cache = model.new_cache();
            let cached = model.forward_cached(&store, &tokens, &mut cache);
            let full = full_logits(&model, &store, &tokens);
            assert_eq!(cached.len(), full.len());
            for (a, b) in cached.iter().zip(&full) {
                assert!((a - b).abs() < 1e-4, "{arch:?}/{kv:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn incremental_decode_matches_full_forward() {
        let (model, store) = build(ArchKind::Llama, Some(2), 5);
        let tokens: Vec<u32> = (0..12).map(|i| (i * 11 + 3) % 40).collect();
        let mut cache = model.new_cache();
        // prefill the first 6, then one token at a time
        let mut last = model.forward_cached(&store, &tokens[..6], &mut cache);
        for &t in &tokens[6..] {
            last = model.decode_step(&store, t, &mut cache);
        }
        let full = full_logits(&model, &store, &tokens);
        let v = model.cfg.vocab_size;
        let full_last = &full[(tokens.len() - 1) * v..];
        for (a, b) in last.iter().zip(full_last) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert_eq!(cache.len(), tokens.len());
        assert_eq!(cache.positions_seen(), tokens.len());
    }

    #[test]
    fn window_truncation_bounds_cache_and_keeps_decoding() {
        let (model, store) = build(ArchKind::NeoX, None, 9);
        let max = model.cfg.max_seq;
        let mut cache = model.new_cache();
        for i in 0..(max + 10) as u32 {
            let logits = model.decode_step(&store, i % 40, &mut cache);
            assert!(logits.iter().all(|x| x.is_finite()));
        }
        assert_eq!(cache.len(), max);
        assert_eq!(cache.positions_seen(), max + 10);
        let bytes = cache.kv_bytes();
        let kv_dim = model.cfg.kv_head_count() * model.cfg.head_dim();
        assert_eq!(bytes, 2 * model.cfg.layers * max * kv_dim * 4);
    }

    #[test]
    fn rollback_then_redecode_is_bitwise_identical() {
        let (model, store) = build(ArchKind::Llama, Some(2), 7);
        let tokens: Vec<u32> = (0..8).map(|i| (i * 13 + 1) % 40).collect();

        // straight path: prefill, then decode three tokens one at a time
        let mut plain = model.new_cache();
        model.forward_cached(&store, &tokens, &mut plain);
        let mut plain_rows = Vec::new();
        for t in [5u32, 17, 29] {
            plain_rows.push(model.decode_step(&store, t, &mut plain));
        }

        // speculative-shaped path: batch all three, roll back two, redo
        let mut spec = model.new_cache();
        model.forward_cached(&store, &tokens, &mut spec);
        let batched = model.forward_cached(&store, &[5, 17, 29], &mut spec);
        let v = model.cfg.vocab_size;
        for (i, row) in plain_rows.iter().enumerate() {
            let brow = &batched[i * v..(i + 1) * v];
            assert_eq!(
                row.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                brow.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "verify row {i} differs from single-step decode"
            );
        }
        spec.rollback(2);
        assert_eq!(spec.len(), tokens.len() + 1);
        assert_eq!(spec.positions_seen(), tokens.len() + 1);
        let redone = model.decode_step(&store, 17, &mut spec);
        assert_eq!(
            redone.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            plain_rows[1]
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    #[should_panic(expected = "window truncation")]
    fn rollback_past_truncation_panics() {
        let (model, store) = build(ArchKind::NeoX, None, 2);
        let mut cache = model.new_cache();
        for i in 0..(model.cfg.max_seq + 2) as u32 {
            model.decode_step(&store, i % 40, &mut cache);
        }
        cache.rollback(1);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Segment shapes the serving engine produces: a solo decode, a
    /// plain batch, a batch with verify rows, and a batch of more rows
    /// than one tile holds (R = 12 is a row tile of 8 and one of 4).
    fn ragged_shapes() -> impl Strategy<Value = Vec<usize>> {
        prop_oneof![
            Just(vec![1]),
            Just(vec![1, 1, 1, 1]),
            Just(vec![1, 3, 2]),
            Just(vec![1; 12]),
            proptest::collection::vec(1usize..6, 1..7),
        ]
    }

    /// `forward_batch` over `lens`-shaped segments — each on top of a
    /// cache of its own length, segment `edge` on a full window so its
    /// commit truncates — against forwarding each segment alone.
    fn batch_equals_solo<P: ForwardParams>(
        model: &GptModel,
        store: &P,
        lens: &[usize],
        edge: usize,
        seed: u64,
    ) {
        let (max, vocab) = (model.cfg.max_seq, model.cfg.vocab_size as u64);
        let toks = |n: usize, salt: u64| -> Vec<u32> {
            (0..n as u64)
                .map(|i| ((i * 7 + salt * 13 + seed) % vocab) as u32)
                .collect()
        };
        let mut solo = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let ctx = if i == edge % lens.len() {
                max
            } else {
                (seed as usize * (i + 3) + i) % (max - len)
            };
            let mut cache = model.new_cache();
            if ctx > 0 {
                model.forward_cached(store, &toks(ctx, i as u64), &mut cache);
            }
            solo.push((toks(len, 100 + i as u64), cache));
        }
        let mut stacked = solo.clone();

        let mut solo_rows = Vec::new();
        for (tokens, cache) in solo.iter_mut() {
            solo_rows.extend(model.forward_cached(store, tokens, cache));
        }
        let mut segs: Vec<(&[u32], &mut KvCache)> =
            stacked.iter_mut().map(|(t, c)| (&t[..], c)).collect();
        let rows = model.forward_batch(store, &mut segs);

        assert_eq!(bits(&rows), bits(&solo_rows), "logits rows, lens {lens:?}");
        for (i, ((_, a), (_, b))) in stacked.iter().zip(&solo).enumerate() {
            assert_eq!(a.next_pos, b.next_pos, "segment {i} position");
            assert_eq!(a.len(), b.len(), "segment {i} window");
            for (la, lb) in a.layers.iter().zip(&b.layers) {
                assert_eq!(bits(&la.k), bits(&lb.k), "segment {i} keys");
                assert_eq!(bits(&la.v), bits(&lb.v), "segment {i} values");
            }
        }
        assert_eq!(stacked[edge % lens.len()].1.len(), max, "edge truncated");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The property batched decode rests on: a ragged batch's rows
        /// and caches are bit-for-bit the per-segment forwards', on
        /// every architecture, for f32 and int8 weights.
        #[test]
        fn ragged_batch_is_bitwise_the_per_segment_forwards(
            arch in 0usize..3,
            lens in ragged_shapes(),
            edge in 0usize..12,
            seed in 0u64..1000,
        ) {
            let (arch, kv) = [
                (ArchKind::NeoX, None),
                (ArchKind::Llama, None),
                (ArchKind::Llama, Some(2)),
            ][arch];
            let (model, store) = build(arch, kv, seed);
            batch_equals_solo(&model, &store, &lens, edge, seed);
            let int8 = crate::quant::QuantizedParamStore::quantize(&model, &store);
            batch_equals_solo(&model, &int8, &lens, edge, seed);
        }
    }

    #[test]
    fn bad_segment_panics_before_any_cache_is_touched() {
        let (model, store) = build(ArchKind::Llama, Some(2), 4);
        let mut good = model.new_cache();
        model.forward_cached(&store, &[1, 2, 3], &mut good);
        let untouched = good.clone();
        let long = vec![0u32; model.cfg.max_seq + 1];
        for bad in [&[9_999u32][..], &[], &long] {
            let mut other = model.new_cache();
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                model.forward_batch(&store, &mut [(&[5u32][..], &mut good), (bad, &mut other)])
            }));
            assert!(died.is_err(), "segment {bad:?} must be refused");
            // the neighbour was never begun: same position, same rows,
            // and it decodes on exactly as a cache the batch never saw
            assert_eq!(good.positions_seen(), untouched.positions_seen());
            assert_eq!(good.kv_bytes(), untouched.kv_bytes());
            assert!(other.is_empty());
        }
        let after = model.decode_step(&store, 5, &mut good);
        let reference = model.decode_step(&store, 5, &mut untouched.clone());
        assert_eq!(bits(&after), bits(&reference));
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq")]
    fn oversized_prefill_chunk_panics() {
        let (model, store) = build(ArchKind::Llama, None, 1);
        let tokens = vec![0u32; model.cfg.max_seq + 1];
        let mut cache = model.new_cache();
        let _ = model.forward_cached(&store, &tokens, &mut cache);
    }
}
