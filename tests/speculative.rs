//! Tier-1 integration tests for int8 self-draft speculative decoding:
//! the speculative greedy stream must be **bit-identical** to plain f32
//! greedy decode on both paper architectures, over both KV backends
//! (contiguous and block-paged), at every draft length `k`, even when
//! an adversarial draft proposes mostly-wrong tokens — and the serving
//! engine must preserve stream equality and the spec-metric invariants
//! end to end, including under paged-pool pressure and preemption.

use matgpt::model::generate::argmax;
use matgpt::model::{
    generate, generate_speculative, speculative_step, ArchKind, DraftState, GptConfig, GptModel,
    KvStorage, QuantizedParamStore, SampleOptions, SpecStats,
};
use matgpt::serve::{
    BlockPool, DecodeMode, Engine, EngineConfig, FinishReason, KvBackend, KvBlockConfig,
};
use matgpt::tensor::{init, ParamStore};
use proptest::prelude::*;

fn build(cfg: GptConfig, seed: u64) -> (GptModel, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = init::rng(seed);
    let model = GptModel::new(cfg, &mut store, &mut rng);
    (model, store)
}

fn arb_cfg() -> impl Strategy<Value = GptConfig> {
    (
        prop_oneof![Just(ArchKind::NeoX), Just(ArchKind::Llama)],
        1usize..=2,  // layers
        1usize..=2,  // kv groups: heads = 2 * groups, kv_heads = groups
        12usize..40, // vocab
    )
        .prop_map(|(arch, layers, groups, vocab)| GptConfig {
            arch,
            vocab_size: vocab,
            hidden: 2 * groups * 8,
            layers,
            heads: 2 * groups,
            kv_heads: if groups > 1 { Some(groups) } else { None },
            max_seq: 16,
            rope_base: 10_000.0,
            norm_eps: 1e-5,
            dropout: 0.0,
        })
}

fn prompt_tokens(len: usize, seed: u64, vocab: usize) -> Vec<u32> {
    (0..len)
        .map(|i| ((i as u64 * 7 + seed) % vocab as u64) as u32)
        .collect()
}

fn greedy(max_new_tokens: usize) -> SampleOptions {
    SampleOptions {
        temperature: 0.0,
        top_k: 0,
        max_new_tokens,
        stop_token: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The speculative stream equals plain f32 greedy decode **bitwise**
    /// for both architectures, every draft length, prompts and budgets
    /// that cross the attention window (forcing the plain fallback),
    /// and drafts of arbitrary quality: `hostile` swaps in a draft
    /// quantized from a *different* model, collapsing acceptance so
    /// rollback fires on nearly every macro-step.
    #[test]
    fn spec_stream_is_bitwise_greedy_for_any_draft(
        cfg in arb_cfg(),
        seed in 0u64..40,
        prompt_len in 1usize..8,
        steps in 1usize..14,
        k in 1usize..=4,
        hostile in prop_oneof![Just(false), Just(true)],
    ) {
        let (model, store) = build(cfg.clone(), seed);
        let draft = if hostile {
            let (m2, s2) = build(cfg.clone(), seed.wrapping_add(1000));
            QuantizedParamStore::quantize(&m2, &s2)
        } else {
            QuantizedParamStore::quantize(&model, &store)
        };
        let prompt = prompt_tokens(prompt_len, seed, cfg.vocab_size);
        let opts = greedy(steps);
        let plain = generate(&model, &store, &prompt, &opts, &mut init::rng(0));
        let (spec, stats) = generate_speculative(&model, &store, &draft, &prompt, &opts, k);
        prop_assert_eq!(spec, plain, "stream diverged (hostile={})", hostile);
        prop_assert_eq!(stats.rolled_back, stats.drafted - stats.accepted);
        prop_assert!(stats.verify_calls >= 1);
    }

    /// Driving [`speculative_step`] over a **block-paged** target cache
    /// reproduces plain greedy decode bitwise: speculative rollback
    /// truncates through block boundaries (releasing whole speculative
    /// tail blocks, overwriting stale partial-tail slots) without
    /// disturbing committed rows, at every block size.
    #[test]
    fn spec_over_paged_kv_is_bitwise_greedy(
        cfg in arb_cfg(),
        seed in 0u64..40,
        prompt_len in 2usize..8,
        steps in 1usize..12,
        k in 1usize..=4,
        block_size in 1usize..6,
    ) {
        let (model, store) = build(cfg.clone(), seed);
        let draft = QuantizedParamStore::quantize(&model, &store);
        let prompt = prompt_tokens(prompt_len, seed, cfg.vocab_size);
        let opts = greedy(steps);
        let plain = generate(&model, &store, &prompt, &opts, &mut init::rng(0));

        let pool = BlockPool::for_model(
            KvBlockConfig { block_size, num_blocks: 128 },
            &model,
        );
        let mut cache = pool.new_seq(cfg.max_seq);
        cache.reserve_rows(prompt.len()).expect("reserve prefill");
        let v = cfg.vocab_size;
        let logits = model.forward_cached(&store, &prompt, &mut cache);
        let mut row = logits[(cache.len() - 1) * v..].to_vec();
        let mut draft_state = DraftState::new(&model, &prompt);
        let mut stats = SpecStats::default();
        let mut tokens = prompt.clone();
        let mut emitted = 0usize;
        while emitted < steps {
            cache.reserve_rows(k + 1).expect("reserve spec rows");
            let out = speculative_step(
                &model, &store, &draft, k,
                &mut cache, &mut draft_state, &mut row,
                steps - emitted,
            );
            stats.record(&out);
            for &t in &out.tokens {
                tokens.push(t);
                emitted += 1;
            }
        }
        prop_assert_eq!(tokens, plain, "paged speculative stream diverged");
        prop_assert_eq!(stats.rolled_back, stats.drafted - stats.accepted);
        drop(cache);
        prop_assert_eq!(pool.free_blocks(), 128, "blocks leaked after rollback");
    }
}

fn tiny_engine(decode: DecodeMode, kv_backend: KvBackend) -> Engine {
    let cfg = GptConfig {
        vocab_size: 30,
        hidden: 16,
        layers: 1,
        heads: 2,
        max_seq: 32,
        ..GptConfig::tiny(ArchKind::Llama, 30)
    };
    let mut store = ParamStore::new();
    let mut rng = init::rng(0);
    let model = GptModel::new(cfg, &mut store, &mut rng);
    Engine::new(
        model,
        store,
        EngineConfig {
            decode,
            kv_backend,
            ..EngineConfig::default()
        },
    )
}

/// The speculative engine emits the same greedy token streams a plain
/// engine does, on both KV backends, and its spec counters respect
/// `rolled_back == drafted - accepted`.
#[test]
fn spec_engine_matches_plain_on_both_kv_backends() {
    let opts = greedy(10);
    let prompts: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![9, 8, 7, 6], vec![5], vec![2, 4, 6, 8]];
    for kv_backend in [
        KvBackend::Contiguous,
        KvBackend::Paged(KvBlockConfig {
            block_size: 4,
            num_blocks: 96,
        }),
    ] {
        let mut outs: Vec<Vec<Vec<u32>>> = Vec::new();
        for decode in [DecodeMode::Plain, DecodeMode::Speculative { k: 4 }] {
            let engine = tiny_engine(decode, kv_backend);
            let handles: Vec<_> = prompts
                .iter()
                .map(|p| engine.submit(p, opts).expect("admitted"))
                .collect();
            outs.push(
                handles
                    .into_iter()
                    .map(|h| h.wait().expect("response").tokens)
                    .collect(),
            );
            if decode != DecodeMode::Plain {
                let m = engine.metrics();
                assert!(m.spec_drafted > 0, "{kv_backend:?}: engine never drafted");
                assert_eq!(m.spec_rolled_back, m.spec_drafted - m.spec_accepted);
                assert!(m.spec_acceptance_rate > 0.0);
            }
            engine.shutdown();
        }
        assert_eq!(outs[0], outs[1], "{kv_backend:?}: spec stream diverged");
    }
}

/// A mixed batch — greedy requests (spec-eligible) interleaved with
/// sampled requests (plain path) — reproduces the streams a plain
/// engine gives the same submission order, so speculation composes with
/// continuous batching without perturbing ineligible neighbours.
#[test]
fn mixed_greedy_and_sampled_batch_is_unperturbed() {
    let sampled = SampleOptions {
        temperature: 0.7,
        top_k: 4,
        max_new_tokens: 8,
        stop_token: None,
    };
    let mut outs: Vec<Vec<Vec<u32>>> = Vec::new();
    for decode in [DecodeMode::Plain, DecodeMode::Speculative { k: 3 }] {
        let engine = tiny_engine(decode, KvBackend::Contiguous);
        // submission order fixes each request's id and therefore its
        // sampling seed: same order => comparable streams
        let handles = vec![
            engine.submit(&[1, 2, 3], greedy(8)).expect("admitted"),
            engine.submit(&[4, 5], sampled).expect("admitted"),
            engine.submit(&[6, 7, 8], greedy(8)).expect("admitted"),
            engine.submit(&[9, 10], sampled).expect("admitted"),
        ];
        outs.push(
            handles
                .into_iter()
                .map(|h| h.wait().expect("response").tokens)
                .collect(),
        );
        engine.shutdown();
    }
    assert_eq!(outs[0], outs[1], "mixed batch diverged under spec mode");
}

/// Speculation under paged-pool pressure: preempted speculative
/// requests restart with a fresh draft state and must still finish with
/// their full, correct greedy streams (compared against an unpressured
/// plain engine), with the spec-counter invariant intact.
#[test]
fn spec_survives_paged_preemption_with_correct_streams() {
    let opts = greedy(12);
    let prompts: Vec<Vec<u32>> = (0..8).map(|i| vec![1 + i as u32, 2, 3, 4, 5, 6]).collect();
    let reference = tiny_engine(DecodeMode::Plain, KvBackend::Contiguous);
    let expected: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| {
            reference
                .submit(p, opts)
                .expect("admitted")
                .wait()
                .expect("response")
                .tokens
        })
        .collect();
    reference.shutdown();

    // pool far too small for 8 concurrent worst cases: admission stalls
    // and decode-time preemption must kick in
    let engine = tiny_engine(
        DecodeMode::Speculative { k: 4 },
        KvBackend::Paged(KvBlockConfig {
            block_size: 4,
            num_blocks: 14,
        }),
    );
    let handles: Vec<_> = prompts
        .iter()
        .map(|p| engine.submit(p, opts).expect("admitted"))
        .collect();
    for (h, want) in handles.into_iter().zip(&expected) {
        let r = h.wait().expect("response");
        assert_eq!(r.finish, FinishReason::Length);
        assert_eq!(&r.tokens, want, "stream diverged under preemption");
    }
    let m = engine.metrics();
    assert_eq!(m.completed, 8);
    assert_eq!(m.failed, 0);
    assert_eq!(m.spec_rolled_back, m.spec_drafted - m.spec_accepted);
    engine.shutdown();
}

/// Sanity anchor for the bench: the self-draft (quantized from the
/// *same* weights) accepts well over half its proposals on a
/// non-adversarial model, so `ext_spec`'s gated speedup has headroom.
#[test]
fn self_draft_acceptance_is_high() {
    let cfg = GptConfig {
        vocab_size: 64,
        hidden: 32,
        layers: 2,
        heads: 4,
        max_seq: 96,
        ..GptConfig::tiny(ArchKind::Llama, 64)
    };
    let (model, store) = build(cfg, 3);
    let draft = QuantizedParamStore::quantize(&model, &store);
    let prompt: Vec<u32> = (0..12u32).map(|i| (i * 5 + 1) % 64).collect();
    let (_, stats) = generate_speculative(&model, &store, &draft, &prompt, &greedy(48), 4);
    assert!(
        stats.acceptance_rate() > 0.5,
        "self-draft acceptance {:.2} unexpectedly low",
        stats.acceptance_rate()
    );
}

/// `argmax` ties and zero logits are not a liability: the verify pass
/// re-derives each accepted token from the same logits row plain decode
/// sees, so even a deliberately degenerate (all-equal-logit) row picks
/// the same winner through either path. Guards the tie-breaking rule
/// the bit-identity proof leans on.
#[test]
fn verify_tie_breaking_matches_plain_argmax() {
    let row = vec![0.25f32; 17];
    let a = argmax(&row);
    assert_eq!(a, 16, "argmax must keep the last maximal index on ties");
}
