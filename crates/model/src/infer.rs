//! Tape-free KV-cached inference for [`GptModel`].
//!
//! The training path records every op on an autograd tape and re-runs
//! the whole window for each generated token — O(T²) work per token.
//! This module evaluates the same network directly on flat buffers,
//! keeping each sequence's keys and values in a [`PagedKv`] (see
//! [`crate::kv`]), so decoding one token costs one pass over the weights
//! plus one O(T) streaming-attention scan.
//!
//! [`GptModel::forward_batch`] is the one forward body: prefill, decode,
//! speculative verify and a whole scheduler iteration's ragged batch of
//! them are the same call, over any [`ForwardParams`], each segment on
//! its own [`PagedKv`] — a [`GptModel::new_cache`] on a private pool, or
//! a sequence of the serving engine's shared pool;
//! [`GptModel::forward_cached`] and [`GptModel::decode_step`] are its
//! one-segment spellings (DECODING.md tabulates who dispatches on what).
//!
//! Semantics relative to the tape path:
//!
//! * positions are **absolute**: token `n` is rotated at angle `n`
//!   regardless of window truncation. While the sequence fits in
//!   `max_seq` this is bit-for-bit the training convention (positions
//!   `0..T`), and every logit [`GptModel::forward_batch`] returns equals
//!   [`GptModel::logits`]' bit for bit at any block size, so
//!   forward-only evaluation (validation, `score_span`) runs here.
//! * when the sequence outgrows `max_seq`, the cache drops its oldest
//!   rows (sliding window). The tape path instead re-encodes the window
//!   from position 0, so outputs diverge past `max_seq` — the cached
//!   path is the standard serving behaviour (Mistral-style windowed
//!   attention), the tape path is a training-time convenience.

use crate::config::ArchKind;
use crate::gpt::{GptModel, Slot::*};
use crate::kv::PagedKv;
use crate::quant::ForwardParams;
use matgpt_tensor::kernels::activation as act;
use matgpt_tensor::kernels::infer::RotaryTable;
use matgpt_tensor::kernels::norm;
use matgpt_tensor::ParamId;

/// Why [`GptModel::check_segment`] refuses a segment's tokens; its
/// `Display` is the message [`GptModel::forward_batch`] panics with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentError {
    /// No token to forward.
    Empty,
    /// More tokens than the window holds in one forward.
    TooLong {
        /// Tokens in the segment.
        len: usize,
        /// The model's window.
        max_seq: usize,
    },
    /// A token id at or past the vocabulary size.
    OutOfVocab(u32),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Empty => write!(f, "forward needs at least one token"),
            SegmentError::TooLong { len, max_seq } => write!(
                f,
                "chunk of {len} tokens exceeds max_seq {max_seq}; split the prefill"
            ),
            SegmentError::OutOfVocab(tok) => write!(f, "token id {tok} out of vocab"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl GptModel {
    /// Whether `tokens` can be one segment of [`GptModel::forward_batch`]:
    /// non-empty, at most `max_seq` long, every id inside the vocabulary.
    /// The forward refuses exactly what this refuses, so a caller that
    /// checks first never sends it a segment it would panic on.
    pub fn check_segment(&self, tokens: &[u32]) -> Result<(), SegmentError> {
        let cfg = &self.cfg;
        if tokens.is_empty() {
            return Err(SegmentError::Empty);
        }
        if tokens.len() > cfg.max_seq {
            return Err(SegmentError::TooLong {
                len: tokens.len(),
                max_seq: cfg.max_seq,
            });
        }
        match tokens.iter().find(|&&t| t as usize >= cfg.vocab_size) {
            Some(&tok) => Err(SegmentError::OutOfVocab(tok)),
            None => Ok(()),
        }
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
    /// over all of them (f32 weights and the int8 store's codes alike
    /// stream once — never once per segment); only the KV calls —
    /// `begin` / `write` / `attend` / `commit` — and the absolute
    /// positions the rotation takes fan out per segment. Every kernel on the way is row-independent, so a
    /// segment's rows and cache are **bit-identical** to forwarding it
    /// alone (property-tested below).
    ///
    /// `P` supplies dense reads and the matmul kernel (the f32
    /// [`matgpt_tensor::ParamStore`] or the int8
    /// [`crate::quant::QuantizedParamStore`]); it may be `dyn`. Each
    /// segment's `begin` takes the rows it needs from its own pool,
    /// unless its caller reserved them ([`PagedKv::reserve_rows`]).
    ///
    /// Every segment is checked ([`GptModel::check_segment`], and its
    /// cache's shape) before the first `begin`, so a bad one panics with
    /// no cache touched — never with a neighbour's between `begin` and
    /// `commit`.
    pub fn forward_batch<P: ForwardParams + ?Sized>(
        &self,
        store: &P,
        segs: &mut [(&[u32], &mut PagedKv)],
    ) -> Vec<f32> {
        let cfg = &self.cfg;
        for (tokens, cache) in segs.iter() {
            if let Err(e) = self.check_segment(tokens) {
                panic!("{e}");
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
        // every layer rotates at the same positions: one table
        let rope = RotaryTable::new(&positions, d, cfg.rope_base);

        // token embeddings -> x [n, h]
        let emb = store.dense(self.tok_emb);
        let mut x = vec![0.0f32; n * h];
        let stacked = segs.iter().flat_map(|(tokens, _)| tokens.iter());
        for (row, &tok) in x.chunks_mut(h).zip(stacked) {
            let tok = tok as usize;
            row.copy_from_slice(&emb[tok * h..(tok + 1) * h]);
        }

        let mut scratch = vec![0.0f32; n * h];
        // the norms' per-row statistics, which no backward reads
        let mut stats = vec![0.0f32; 2 * n];
        for (li, layer) in self.layers.iter().enumerate() {
            // --- attention block
            let (g, b) = (layer.id(Ln1G), layer.get(Ln1B));
            self.norm_rows(store, &x, &mut scratch, &mut stats, g, b);
            let mut q = store.linear(&scratch, layer.id(Wq), layer.get(Bq), n, h, h);
            let mut k = store.linear(&scratch, layer.id(Wk), layer.get(Bk), n, h, kv_dim);
            let v = store.linear(&scratch, layer.id(Wv), layer.get(Bv), n, h, kv_dim);
            rope.rotate_rows(&mut q, heads);
            rope.rotate_rows(&mut k, kv_heads);
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
            let (g, b) = (layer.id(Ln2G), layer.get(Ln2B));
            self.norm_rows(store, &x, &mut scratch, &mut stats, g, b);
            let m = cfg.mlp_hidden();
            let mlp = match cfg.arch {
                ArchKind::NeoX => {
                    let mut a = store.linear(&scratch, layer.id(W1), layer.get(B1), n, h, m);
                    act::gelu_in_place(&mut a);
                    store.linear(&a, layer.id(W2), layer.get(B2), n, m, h)
                }
                ArchKind::Llama => {
                    let mut gate = store.linear(&scratch, layer.id(W1), None, n, h, m);
                    let up = store.linear(&scratch, layer.id(W3), None, n, h, m);
                    act::silu_in_place(&mut gate);
                    for (g, &u) in gate.iter_mut().zip(&up) {
                        *g *= u;
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

        self.norm_rows(store, &x, &mut scratch, &mut stats, self.lnf_g, self.lnf_b);
        let mut logits = vec![0.0f32; n * cfg.vocab_size];
        store.matmul(&scratch, self.lm_head, &mut logits, n, h, cfg.vocab_size);
        logits
    }

    /// [`GptModel::forward_batch`] over one segment: `tokens` on top of
    /// `cache`, returning the logits `[tokens.len(), vocab]` — a prefill
    /// (or a speculative verify) when there are several tokens, a decode
    /// step when there is one.
    pub fn forward_cached<P: ForwardParams + ?Sized>(
        &self,
        store: &P,
        tokens: &[u32],
        cache: &mut PagedKv,
    ) -> Vec<f32> {
        self.forward_batch(store, &mut [(tokens, cache)])
    }

    /// Decode one token on top of `cache`, returning its `[vocab]`
    /// logits row.
    pub fn decode_step<P: ForwardParams + ?Sized>(
        &self,
        store: &P,
        token: u32,
        cache: &mut PagedKv,
    ) -> Vec<f32> {
        self.forward_cached(store, &[token], cache)
    }

    /// Architecture-appropriate normalisation of `[n, hidden]` rows into
    /// `out`; `stats` (`2 · n` floats) takes the per-row statistics.
    fn norm_rows<P: ForwardParams + ?Sized>(
        &self,
        store: &P,
        x: &[f32],
        out: &mut [f32],
        stats: &mut [f32],
        g: ParamId,
        b: Option<ParamId>,
    ) {
        let (h, eps) = (self.cfg.hidden, self.cfg.norm_eps);
        let n = x.len() / h;
        match self.cfg.arch {
            ArchKind::NeoX => {
                let beta = store.dense(b.expect("NeoX LayerNorm beta"));
                norm::layernorm_fwd(x, store.dense(g), beta, out, stats, n, h, eps);
            }
            ArchKind::Llama => {
                norm::rmsnorm_fwd(x, store.dense(g), out, &mut stats[..n], n, h, eps)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GptConfig;
    use matgpt_tensor::{init, ParamStore};
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

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Every visible key and value row of every layer, as bits.
    fn contents(model: &GptModel, kv: &PagedKv) -> Vec<u32> {
        let mut all = Vec::new();
        for layer in 0..model.cfg.layers {
            for pos in 0..kv.len() {
                for v in [false, true] {
                    all.extend(bits(&crate::kv::tests::cached_row(kv, layer, pos, v)));
                }
            }
        }
        all
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
        let segments = || {
            let mut segs = Vec::new();
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
                segs.push((toks(len, 100 + i as u64), cache));
            }
            segs
        };
        let (mut solo, mut stacked) = (segments(), segments());

        let mut solo_rows = Vec::new();
        for (tokens, cache) in solo.iter_mut() {
            solo_rows.extend(model.forward_cached(store, tokens, cache));
        }
        let mut segs: Vec<(&[u32], &mut PagedKv)> =
            stacked.iter_mut().map(|(t, c)| (&t[..], c)).collect();
        let rows = model.forward_batch(store, &mut segs);

        assert_eq!(bits(&rows), bits(&solo_rows), "logits rows, lens {lens:?}");
        for (i, ((_, a), (_, b))) in stacked.iter().zip(&solo).enumerate() {
            assert_eq!(
                a.positions_seen(),
                b.positions_seen(),
                "segment {i} position"
            );
            assert_eq!(a.len(), b.len(), "segment {i} window");
            assert_eq!(a.blocks_held(), b.blocks_held(), "segment {i} blocks");
            assert_eq!(contents(model, a), contents(model, b), "segment {i} rows");
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
        let fresh = || {
            let mut cache = model.new_cache();
            model.forward_cached(&store, &[1, 2, 3], &mut cache);
            cache
        };
        let (mut good, mut untouched) = (fresh(), fresh());
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
        let reference = model.decode_step(&store, 5, &mut untouched);
        assert_eq!(bits(&after), bits(&reference));
    }

    #[test]
    fn check_segment_refuses_what_the_forward_panics_on() {
        let (model, store) = build(ArchKind::NeoX, None, 6);
        let max = model.cfg.max_seq;
        let long = vec![0u32; max + 1];
        let cases: [(&[u32], SegmentError); 3] = [
            (&[], SegmentError::Empty),
            (
                &long,
                SegmentError::TooLong {
                    len: max + 1,
                    max_seq: max,
                },
            ),
            (&[3, 40, 41], SegmentError::OutOfVocab(40)),
        ];
        for (tokens, want) in cases {
            assert_eq!(model.check_segment(tokens), Err(want));
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                model.forward_cached(&store, tokens, &mut model.new_cache())
            }));
            let payload = died.expect_err("the forward refuses it too");
            let msg = payload.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(*msg, want.to_string());
        }
        assert_eq!(model.check_segment(&vec![39; max]), Ok(()));
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
