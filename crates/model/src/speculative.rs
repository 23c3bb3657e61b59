//! Speculative decoding with an int8 self-draft.
//!
//! The quantized weights from [`crate::quant`] are a 4×-smaller copy of
//! the *same* model, and single-token decode is bound by weight-memory
//! traffic — so the int8 copy makes a natural draft model: it proposes
//! `k` cheap tokens, and the f32 model verifies all of them in **one**
//! batched [`GptModel::forward_cached`] call (the weight-stationary
//! small-batch matmul path makes that verify cost about one weight
//! stream, not `k + 1`) — or, in the serving engine, in the one
//! [`GptModel::forward_batch`] an iteration shares across every active
//! request: a macro-step is a [`DraftState::propose`] half and a
//! [`DraftState::settle`] half around whichever forward verifies, and
//! [`speculative_step`] is the two around a forward of its own. Drafts
//! built with
//! [`QuantizedParamStore::for_draft`] additionally run their linears as
//! W8A8 integer dots (activations int8-quantized per row, exact i32
//! accumulation), which drops the draft's per-step compute to one
//! integer-dot instruction per 64 weights and leaves it memory-bound
//! like the f32 path it shadows.
//!
//! # The accept/rollback invariant
//!
//! Everything emitted comes from **f32 argmax rows**, never from the
//! draft. Entering a macro-step the target cache holds the emitted
//! stream `x_0..x_{n-1}` and `last_row` is the f32 logits row predicting
//! `x_n`; the step
//!
//! 1. emits `t_1 = argmax(last_row)` — exactly what plain greedy decode
//!    would emit — and has the draft propose `d_1..d_k` after it;
//! 2. verifies the batch `[t_1, d_1, .., d_k]` in one f32 forward,
//!    committing `k + 1` cache rows optimistically; row `i` of that
//!    batch is bit-identical to the row a plain one-token decode would
//!    produce at the same position (per-row-independent kernels,
//!    property-tested);
//! 3. accepts draft tokens while `argmax(row_{i-1}) == d_i`, emits the
//!    accepted prefix, keeps the row after the last emitted token as the
//!    new `last_row`, and **rolls back** the rejected cache rows through
//!    [`KvStorage::rollback`].
//!
//! The first rejected position's correct token is `argmax` of the new
//! `last_row`, so it is emitted as the *next* step's `t_1` for free. The
//! output stream is therefore **bit-identical to plain f32 greedy
//! decode** for any draft whatsoever — an adversarially wrong draft only
//! costs speed (acceptance rate → 0, one token per verify), never
//! correctness.
//!
//! # Acceptance-rate math
//!
//! With per-step acceptance `a ∈ [0, k]`, a macro-step emits `a + 1`
//! tokens for one full-weight pass plus `k` quarter-weight draft passes.
//! In the memory-bound limit the speedup over plain decode is
//! `E[a + 1] / (1 + k/4)`; the measured acceptance is `repro ext_spec`'s,
//! the measured time `perf/`'s `model.spec_step_ms`.

use crate::config::GptConfig;
use crate::generate::{argmax, SampleOptions};
use crate::gpt::GptModel;
use crate::infer::KvStorage;
use crate::quant::{ForwardParams, QuantizedParamStore};
use matgpt_tensor::ParamStore;
use std::time::{Duration, Instant};

/// The draft model's private decode state: its own (contiguous) KV
/// cache plus the tokens the target has committed but the draft has not
/// yet seen.
///
/// The lag buffer is what makes the draft *restartable*: a freshly
/// created `DraftState` over the current token window is always valid
/// (the first macro-step simply runs a catch-up prefill), so a
/// preempted request can resume with a new draft state without
/// affecting output — only acceptance warms back up.
#[derive(Clone, Debug)]
pub struct DraftState {
    cache: crate::infer::KvCache,
    /// Tokens committed to the target cache that the draft has not been
    /// fed yet; drained by the next catch-up forward.
    lag: Vec<u32>,
}

impl DraftState {
    /// A draft state lagging behind a target cache that currently holds
    /// `context` (the prompt window a request was prefilled with).
    pub fn new(model: &GptModel, context: &[u32]) -> Self {
        let start = context.len().saturating_sub(model.cfg.max_seq);
        Self {
            cache: model.new_cache(),
            lag: context[start..].to_vec(),
        }
    }

    /// Feed every lagged token through the draft weights, returning the
    /// draft logits row after the last one. Chunked so an arbitrarily
    /// long lag (a request that fell back to plain decode for a while)
    /// still fits `forward_cached`'s per-call window limit.
    fn catch_up(&mut self, model: &GptModel, draft: &QuantizedParamStore) -> Vec<f32> {
        let max = model.cfg.max_seq;
        let v = model.cfg.vocab_size;
        let lag = std::mem::take(&mut self.lag);
        let start = lag.len().saturating_sub(max);
        let mut row = Vec::new();
        for chunk in lag[start..].chunks(max) {
            let logits = model.forward_cached(draft, chunk, &mut self.cache);
            row = logits[(chunk.len() - 1) * v..].to_vec();
        }
        row
    }
}

/// What one speculative macro-step did. `tokens` is never empty: even a
/// fully rejected draft still emits the step's `t_1`, and when the
/// window or token budget makes drafting pointless the step degrades to
/// a plain one-token decode (`drafted == 0`).
#[derive(Clone, Debug)]
pub struct SpecOutcome {
    /// Tokens emitted this step, in order (between 1 and `k + 1`).
    pub tokens: Vec<u32>,
    /// Draft tokens proposed (`k_eff`, 0 on the plain fallback).
    pub drafted: usize,
    /// Draft tokens the verify pass accepted (`tokens.len() - 1`).
    pub accepted: usize,
    /// Target KV rows rolled back (`drafted - accepted`).
    pub rolled_back: usize,
    /// Time spent in the draft catch-up + proposal forwards.
    pub draft_time: Duration,
    /// Time spent in the batched f32 verify forward.
    pub verify_time: Duration,
    /// Time spent truncating speculative rows out of both caches.
    pub rollback_time: Duration,
}

/// Running totals over [`SpecOutcome`]s, mirroring the
/// `serve_spec_*_total` metric families.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpecStats {
    /// Draft tokens proposed.
    pub drafted: u64,
    /// Draft tokens accepted by verification.
    pub accepted: u64,
    /// Target KV rows rolled back (`drafted - accepted`, always).
    pub rolled_back: u64,
    /// Macro-steps executed (including plain fallbacks).
    pub verify_calls: u64,
}

impl SpecStats {
    /// Fold one macro-step into the totals.
    pub fn record(&mut self, out: &SpecOutcome) {
        self.drafted += out.drafted as u64;
        self.accepted += out.accepted as u64;
        self.rolled_back += out.rolled_back as u64;
        self.verify_calls += 1;
    }

    /// Fraction of drafted tokens that verification accepted (0 when
    /// nothing was drafted).
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted == 0 {
            0.0
        } else {
            self.accepted as f64 / self.drafted as f64
        }
    }
}

/// How many tokens the next macro-step may draft, given the window and
/// the remaining token budget. Zero means the step must take the plain
/// one-token path: either the request is one token from its budget
/// (drafting past it is pure waste) or the cache is within `k + 1` rows
/// of `max_seq` — rollback across window truncation is unsupported, so
/// speculation stops just short of the window and plain decode (which
/// truncates identically to non-speculative serving) takes over.
fn draft_budget<S: KvStorage + ?Sized>(
    cfg: &GptConfig,
    cache: &S,
    k: usize,
    remaining: usize,
) -> usize {
    if cache.len() != cache.positions_seen() {
        return 0; // already truncated: never roll back past this point
    }
    let window_room = cfg.max_seq.saturating_sub(cache.positions_seen() + 1);
    k.min(remaining.saturating_sub(1)).min(window_room)
}

/// What the propose half of a macro-step hands to its settle half: the
/// tokens one f32 forward must verify, and what proposing them cost.
#[derive(Clone, Debug, Default)]
pub struct Proposal {
    /// `[t_1, d_1, .., d_k]` — the step's own token, then the draft's
    /// proposals (none on the plain fallback). The verify forward feeds
    /// exactly these and returns one logits row per token.
    pub tokens: Vec<u32>,
    /// Time spent in the draft catch-up + proposal forwards.
    pub draft_time: Duration,
}

impl DraftState {
    /// The propose half of a macro-step: take `t_1 = argmax(last_row)`,
    /// catch the draft up on everything it has not seen and have it
    /// propose up to `k` tokens after `t_1`. Touches only the draft's
    /// own state — `cache` (the target's) is read for the window and
    /// budget check — so the caller is free to verify the proposal in a
    /// forward it shares with other sequences
    /// ([`GptModel::forward_batch`]) before handing the rows to
    /// [`DraftState::settle`].
    ///
    /// When the window or the token budget makes drafting pointless the
    /// proposal is `[t_1]` alone: a plain one-token decode, identical to
    /// non-speculative serving (including its window truncation), with
    /// the draft just accruing lag in case a later step drafts again.
    pub fn propose<S: KvStorage + ?Sized>(
        &mut self,
        model: &GptModel,
        draft: &QuantizedParamStore,
        k: usize,
        cache: &S,
        last_row: &[f32],
        remaining: usize,
    ) -> Proposal {
        assert!(remaining >= 1, "caller must still want at least one token");
        let draft_t0 = Instant::now();
        let t1 = argmax(last_row) as u32;
        let k_eff = draft_budget(&model.cfg, cache, k, remaining);
        let mut tokens = Vec::with_capacity(k_eff + 1);
        tokens.push(t1);
        self.lag.push(t1);
        if k_eff > 0 {
            // catch up on lagged tokens (t_1 included), then propose
            let mut drow = self.catch_up(model, draft);
            for i in 0..k_eff {
                let d = argmax(&drow) as u32;
                tokens.push(d);
                if i + 1 < k_eff {
                    drow = model.decode_step(draft, d, &mut self.cache);
                }
            }
        }
        Proposal {
            tokens,
            draft_time: draft_t0.elapsed(),
        }
    }

    /// The settle half: `rows` are the `[proposal.tokens.len(), vocab]`
    /// logits of the verify forward that fed `proposal.tokens` through
    /// `cache` (taking `verify_time`). Accepts draft tokens while the
    /// f32 argmax agrees, rolls the rejected rows back out of both
    /// caches and replaces `last_row` with the row predicting the token
    /// after the last one emitted.
    pub fn settle<S: KvStorage + ?Sized>(
        &mut self,
        proposal: Proposal,
        rows: &[f32],
        verify_time: Duration,
        cache: &mut S,
        last_row: &mut Vec<f32>,
    ) -> SpecOutcome {
        let Proposal {
            mut tokens,
            draft_time,
        } = proposal;
        let k_eff = tokens.len() - 1;
        let v = rows.len() / tokens.len();
        let mut accepted = 0;
        while accepted < k_eff && argmax(&rows[accepted * v..][..v]) as u32 == tokens[accepted + 1]
        {
            accepted += 1;
        }
        last_row.clear();
        last_row.extend_from_slice(&rows[accepted * v..][..v]);

        // --- rollback: drop the rejected rows from both caches
        let rollback_t0 = Instant::now();
        let rolled_back = k_eff - accepted;
        cache.rollback(rolled_back);
        if accepted < k_eff {
            // the draft holds k_eff - 1 proposal rows beyond t_1; keep the
            // accepted prefix
            self.cache.rollback((k_eff - 1) - accepted);
        } else if k_eff > 0 {
            // fully accepted: the last proposal was emitted but never fed
            // through the draft — it becomes the next step's lag
            self.lag.push(tokens[k_eff]);
        }
        let rollback_time = rollback_t0.elapsed();

        tokens.truncate(accepted + 1);
        SpecOutcome {
            tokens,
            drafted: k_eff,
            accepted,
            rolled_back,
            draft_time,
            verify_time,
            rollback_time,
        }
    }
}

/// One speculative macro-step: draft up to `k` tokens with the int8
/// weights ([`DraftState::propose`]), verify them in one batched forward
/// of `store` (the f32 model wherever this is called: the stream equals
/// plain greedy decode against whatever weights verify), emit the
/// accepted prefix and roll back the rest ([`DraftState::settle`]). The
/// serving scheduler calls the two halves itself, around a verify
/// forward shared by every request of the iteration.
///
/// `last_row` is the f32 logits row predicting the next token (as
/// produced by the prefill or the previous step) and is replaced with
/// the row predicting the token after the last one emitted. `remaining`
/// is the number of tokens the caller still wants (≥ 1); the step never
/// emits more. The emitted stream is bit-identical to plain greedy
/// decode regardless of the draft's quality — see the module docs for
/// the invariant.
#[allow(clippy::too_many_arguments)]
pub fn speculative_step<P: ForwardParams + ?Sized, S: KvStorage + ?Sized>(
    model: &GptModel,
    store: &P,
    draft: &QuantizedParamStore,
    k: usize,
    cache: &mut S,
    draft_state: &mut DraftState,
    last_row: &mut Vec<f32>,
    remaining: usize,
) -> SpecOutcome {
    let proposal = draft_state.propose(model, draft, k, cache, last_row, remaining);
    let verify_t0 = Instant::now();
    let rows = model.forward_cached(store, &proposal.tokens, cache);
    draft_state.settle(proposal, &rows, verify_t0.elapsed(), cache, last_row)
}

/// [`crate::generate::generate`] on the speculative path: greedy-only
/// (`opts.temperature <= 0`), bit-identical output, one prefill then
/// macro-steps of draft → batched verify → rollback.
///
/// The draft weights are usually
/// [`QuantizedParamStore::for_draft`]-built from the same store (the
/// W8A8 integer-dot path the serving engine uses), but *any* same-shape
/// draft is correct — only acceptance rate varies.
///
/// ```
/// use matgpt_model::{generate, generate_speculative};
/// use matgpt_model::{ArchKind, GptConfig, GptModel, QuantizedParamStore, SampleOptions};
/// use matgpt_tensor::{init, ParamStore};
///
/// let mut store = ParamStore::new();
/// let mut rng = init::rng(0);
/// let model = GptModel::new(GptConfig::tiny(ArchKind::Llama, 30), &mut store, &mut rng);
/// let draft = QuantizedParamStore::for_draft(&model, &store);
/// let opts = SampleOptions { temperature: 0.0, max_new_tokens: 8, ..Default::default() };
///
/// let (tokens, stats) = generate_speculative(&model, &store, &draft, &[1, 2, 3], &opts, 4);
/// // bit-identical to plain f32 greedy decode
/// assert_eq!(tokens, generate(&model, &store, &[1, 2, 3], &opts, &mut init::rng(0)));
/// assert_eq!(stats.rolled_back, stats.drafted - stats.accepted);
/// ```
pub fn generate_speculative(
    model: &GptModel,
    store: &ParamStore,
    draft: &QuantizedParamStore,
    prompt: &[u32],
    opts: &SampleOptions,
    k: usize,
) -> (Vec<u32>, SpecStats) {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    assert!(
        opts.temperature <= 0.0,
        "speculative decoding is greedy-only (temperature <= 0)"
    );
    let mut tokens = prompt.to_vec();
    let v = model.cfg.vocab_size;
    let mut cache = model.new_cache();
    let ctx_start = tokens.len().saturating_sub(model.cfg.max_seq);
    let logits = model.forward_cached(store, &tokens[ctx_start..], &mut cache);
    let mut row = logits[(cache.len() - 1) * v..].to_vec();
    let mut draft_state = DraftState::new(model, &tokens[ctx_start..]);
    let mut stats = SpecStats::default();
    let mut emitted = 0;
    'decode: while emitted < opts.max_new_tokens {
        let out = speculative_step(
            model,
            store,
            draft,
            k,
            &mut cache,
            &mut draft_state,
            &mut row,
            opts.max_new_tokens - emitted,
        );
        stats.record(&out);
        for &t in &out.tokens {
            tokens.push(t);
            emitted += 1;
            if Some(t) == opts.stop_token {
                break 'decode;
            }
        }
    }
    (tokens, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchKind;
    use crate::generate::generate;
    use matgpt_tensor::init;

    fn build(arch: ArchKind, seed: u64) -> (GptModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(seed);
        let cfg = GptConfig {
            vocab_size: 40,
            hidden: 32,
            layers: 2,
            heads: 4,
            max_seq: 24,
            ..GptConfig::tiny(arch, 40)
        };
        let model = GptModel::new(cfg, &mut store, &mut rng);
        (model, store)
    }

    fn greedy(max_new_tokens: usize) -> SampleOptions {
        SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens,
            stop_token: None,
        }
    }

    #[test]
    fn speculative_stream_matches_plain_greedy_both_arches() {
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let (model, store) = build(arch, 11);
            let draft = QuantizedParamStore::quantize(&model, &store);
            for k in [1usize, 2, 4] {
                let opts = greedy(12);
                let plain = generate(&model, &store, &[3, 1, 4], &opts, &mut init::rng(0));
                let (spec, stats) =
                    generate_speculative(&model, &store, &draft, &[3, 1, 4], &opts, k);
                assert_eq!(spec, plain, "{arch} k={k}");
                assert_eq!(stats.rolled_back, stats.drafted - stats.accepted);
                assert!(stats.verify_calls >= 1);
            }
        }
    }

    #[test]
    fn adversarial_draft_still_bit_identical() {
        // A draft quantized from a *different* model proposes near-random
        // tokens: acceptance collapses, rollback fires constantly, and
        // the output must still equal plain greedy decode exactly.
        let (model, store) = build(ArchKind::Llama, 21);
        let (other_model, other_store) = build(ArchKind::Llama, 99);
        let hostile = QuantizedParamStore::quantize(&other_model, &other_store);
        let opts = greedy(14);
        let plain = generate(&model, &store, &[7, 2], &opts, &mut init::rng(0));
        let (spec, stats) = generate_speculative(&model, &store, &hostile, &[7, 2], &opts, 4);
        assert_eq!(spec, plain);
        assert!(
            stats.rolled_back > 0,
            "a hostile draft should get rejected at least once"
        );
        assert_eq!(stats.rolled_back, stats.drafted - stats.accepted);
    }

    #[test]
    fn decode_past_window_falls_back_and_stays_identical() {
        // max_seq 24, prompt 4 + 30 new tokens: the run crosses the
        // window, so late steps must take the plain-fallback path (and
        // truncate exactly like plain decode does).
        let (model, store) = build(ArchKind::NeoX, 31);
        let draft = QuantizedParamStore::quantize(&model, &store);
        let opts = greedy(30);
        let plain = generate(&model, &store, &[1, 2, 3, 4], &opts, &mut init::rng(0));
        let (spec, stats) = generate_speculative(&model, &store, &draft, &[1, 2, 3, 4], &opts, 4);
        assert_eq!(spec, plain);
        // the window guard must have forced at least one plain step
        assert!(stats.verify_calls as usize > stats.drafted as usize / 4);
    }

    #[test]
    fn stop_token_truncates_mid_macro_step() {
        let (model, store) = build(ArchKind::Llama, 5);
        let draft = QuantizedParamStore::quantize(&model, &store);
        let mut opts = greedy(16);
        let plain = generate(&model, &store, &[9, 8], &opts, &mut init::rng(0));
        // pick the token plain decode emits third as the stop token, so
        // the stop lands inside a k=4 macro-step
        opts.stop_token = Some(plain[4]);
        let plain_stopped = generate(&model, &store, &[9, 8], &opts, &mut init::rng(0));
        let (spec, _) = generate_speculative(&model, &store, &draft, &[9, 8], &opts, 4);
        assert_eq!(spec, plain_stopped);
    }

    #[test]
    fn self_draft_accepts_most_tokens() {
        // int8-vs-f32 logit drift rarely flips an argmax, so the
        // self-draft's acceptance should be high — this is the property
        // the speedup rides on.
        let (model, store) = build(ArchKind::Llama, 13);
        let draft = QuantizedParamStore::quantize(&model, &store);
        let (_, stats) = generate_speculative(&model, &store, &draft, &[2, 4, 6], &greedy(16), 2);
        assert!(
            stats.acceptance_rate() > 0.5,
            "self-draft acceptance {} unexpectedly low",
            stats.acceptance_rate()
        );
    }
}
