//! Tier-1 integration tests for the paged KV-cache subsystem: bitwise
//! logit equivalence between the contiguous and block-paged backends
//! (both architectures, across block boundaries and the attention
//! window), copy-on-write fork isolation, typed pool exhaustion, block
//! refcount hygiene across retire/cancel/failure, and
//! eviction-recompute fidelity under pool pressure.

use matgpt::model::generate::argmax;
use matgpt::model::{ArchKind, GptConfig, GptModel, SampleOptions};
use matgpt::serve::{
    BlockPool, Engine, EngineConfig, EngineError, FinishReason, GenRequest, KvBackend,
    KvBlockConfig,
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
        })
}

fn prompt_tokens(len: usize, seed: u64, vocab: usize) -> Vec<u32> {
    (0..len)
        .map(|i| ((i as u64 * 7 + seed) % vocab as u64) as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The block-paged backend reproduces the contiguous backend's
    /// logits **bitwise** — prefill and every decode step — for both
    /// architectures, under grouped-query attention, at block sizes
    /// that put prefill boundaries mid-block, and across the attention
    /// window (prompt+steps can exceed `max_seq`, exercising the
    /// partially dropped front block).
    #[test]
    fn paged_logits_are_bitwise_identical_to_contiguous(
        cfg in arb_cfg(),
        seed in 0u64..50,
        prompt_len in 2usize..10,
        steps in 0usize..10,
        block_size in 1usize..6,
    ) {
        let (model, store) = build(cfg.clone(), seed);
        let prompt = prompt_tokens(prompt_len, seed, cfg.vocab_size);
        let mut contig = model.new_cache();
        let pool = BlockPool::for_model(
            KvBlockConfig { block_size, num_blocks: 64 },
            &model,
        );
        let mut paged = pool.new_seq(cfg.max_seq);
        paged.reserve_rows(prompt.len()).expect("reserve prefill");
        let lc = model.forward_cached(&store, &prompt, &mut contig);
        let lp = model.forward_cached(&store, &prompt, &mut paged);
        prop_assert_eq!(&lc, &lp, "prefill logits diverge");
        let v = cfg.vocab_size;
        let mut next = argmax(&lc[(prompt_len - 1) * v..]) as u32;
        for s in 0..steps {
            paged.reserve_rows(1).expect("reserve decode row");
            let dc = model.decode_step(&store, next, &mut contig);
            let dp = model.decode_step(&store, next, &mut paged);
            prop_assert_eq!(&dc, &dp, "decode step {} diverges", s);
            next = argmax(&dc) as u32;
        }
    }

    /// Fork-then-diverge never aliases: after a copy-on-write fork,
    /// parent and child each decode a different token stream, and both
    /// match fresh independent contiguous caches fed the same streams —
    /// bitwise. Afterwards every block returns to the pool.
    #[test]
    fn cow_fork_then_diverge_matches_independent_caches(
        cfg in arb_cfg(),
        seed in 0u64..50,
        prompt_len in 2usize..8,
        steps in 1usize..6,
        block_size in 1usize..5,
    ) {
        let (model, store) = build(cfg.clone(), seed);
        let prompt = prompt_tokens(prompt_len, seed, cfg.vocab_size);
        let pool = BlockPool::for_model(
            KvBlockConfig { block_size, num_blocks: 128 },
            &model,
        );
        let mut parent = pool.new_seq(cfg.max_seq);
        parent.reserve_rows(prompt.len()).expect("reserve prefill");
        model.forward_cached(&store, &prompt, &mut parent);
        let mut child = parent.fork();
        // independent reference caches for each divergent stream
        let mut ref_a = model.new_cache();
        model.forward_cached(&store, &prompt, &mut ref_a);
        let mut ref_b = model.new_cache();
        model.forward_cached(&store, &prompt, &mut ref_b);
        let vocab = cfg.vocab_size as u32;
        for i in 0..steps {
            let (ta, tb) = ((3 * i as u32 + 1) % vocab, (5 * i as u32 + 2) % vocab);
            parent.reserve_rows(1).expect("reserve parent row");
            child.reserve_rows(1).expect("reserve child row");
            let pa = model.decode_step(&store, ta, &mut parent);
            let pb = model.decode_step(&store, tb, &mut child);
            let ca = model.decode_step(&store, ta, &mut ref_a);
            let cb = model.decode_step(&store, tb, &mut ref_b);
            prop_assert_eq!(&pa, &ca, "parent aliased at step {}", i);
            prop_assert_eq!(&pb, &cb, "child aliased at step {}", i);
        }
        drop(parent);
        drop(child);
        prop_assert_eq!(pool.free_blocks(), 128, "blocks leaked after drop");
    }
}

fn tiny_engine(kv_backend: KvBackend) -> Engine {
    let cfg = GptConfig {
        vocab_size: 30,
        hidden: 16,
        layers: 1,
        heads: 2,
        max_seq: 32,
        ..GptConfig::tiny(ArchKind::Llama, 30)
    };
    let (model, store) = build(cfg, 0);
    Engine::new(
        model,
        store,
        EngineConfig {
            kv_backend,
            ..EngineConfig::default()
        },
    )
}

/// A request whose worst case exceeds the whole pool is rejected with
/// the typed error at submit time — never a panic, never a livelock.
#[test]
fn oversized_request_gets_typed_kv_exhausted() {
    let engine = tiny_engine(KvBackend::Paged(KvBlockConfig {
        block_size: 4,
        num_blocks: 4,
    }));
    let mut req = GenRequest::new(vec![1, 2, 3]);
    req.opts.max_new_tokens = 500;
    let err = engine
        .submit_request(req)
        .map(|_| ())
        .expect_err("rejected");
    match err {
        EngineError::KvExhausted {
            needed_blocks,
            pool_blocks,
        } => {
            assert_eq!(pool_blocks, 4);
            assert!(needed_blocks > pool_blocks);
            assert!(err.to_string().contains("KV blocks"), "{err}");
        }
        other => panic!("expected KvExhausted, got {other:?}"),
    }
    engine.shutdown();
}

/// Blocks flow back to the pool on every exit path — normal retire,
/// client cancel, and a panicking forward — proven behaviourally: after
/// mixed traffic, a request needing nearly the whole pool still runs.
#[test]
fn blocks_return_after_retire_cancel_and_failure() {
    let engine = tiny_engine(KvBackend::Paged(KvBlockConfig {
        block_size: 4,
        num_blocks: 16,
    }));
    let greedy = SampleOptions {
        temperature: 0.0,
        top_k: 0,
        max_new_tokens: 4,
        stop_token: None,
    };
    // normal retires
    for i in 0..3u32 {
        let r = engine
            .submit(&[1 + i, 2, 3, 4], greedy)
            .expect("admitted")
            .wait()
            .unwrap();
        assert_eq!(r.finish, FinishReason::Length);
    }
    // cancelled mid-flight
    let mut cancel_req = GenRequest::new(vec![5, 6, 7]);
    cancel_req.opts.max_new_tokens = 10_000;
    cancel_req.opts.temperature = 0.0;
    let h = engine.submit_request(cancel_req).expect("admitted");
    h.cancel();
    assert_eq!(h.wait().unwrap().finish, FinishReason::Cancelled);
    // panicking prefill (out-of-vocab token)
    let bad = engine.submit(&[29_999], greedy).expect("admitted");
    assert_eq!(bad.wait().unwrap().finish, FinishReason::Failed);
    // a near-pool-sized request completes: the blocks all came back
    // (its worst case is 10 of 16 blocks, and the prefix cache yields
    // whatever it still pins under pressure)
    let mut big = GenRequest::new((0..20).map(|t| t % 29).collect());
    big.opts.max_new_tokens = 20;
    big.opts.temperature = 0.0;
    let r = engine
        .submit_request(big)
        .expect("admitted")
        .wait()
        .unwrap();
    assert_eq!(r.finish, FinishReason::Length);
    assert_eq!(r.generated, 20);
    let m = engine.metrics();
    assert_eq!(m.failed, 1);
    assert_eq!(m.backlog, 0);
    engine.shutdown();
}

/// Preemption is lossless: the same sampled workload (temperature > 0,
/// so the rng stream matters too) produces identical token streams on
/// a pool small enough to force eviction-and-recompute and on a pool
/// large enough to never evict.
#[test]
fn eviction_recompute_reproduces_preeviction_decode() {
    let run = |num_blocks: usize| -> (Vec<Vec<u32>>, u64, u64) {
        let engine = tiny_engine(KvBackend::Paged(KvBlockConfig {
            block_size: 4,
            num_blocks,
        }));
        let opts = SampleOptions {
            temperature: 0.8,
            top_k: 5,
            max_new_tokens: 12,
            stop_token: None,
        };
        let handles: Vec<_> = (0..8)
            .map(|i| {
                engine
                    .submit(&[1 + i as u32, 2, 3, 4, 5, 6], opts)
                    .expect("admitted")
            })
            .collect();
        let outs = handles
            .into_iter()
            .map(|h| {
                let r = h.wait().expect("response");
                assert_eq!(r.finish, FinishReason::Length);
                r.tokens
            })
            .collect();
        engine.shutdown();
        let m = engine.metrics();
        (outs, m.kv_blocks_evicted, m.preemptions)
    };
    let (tight_outs, tight_evicted, tight_preempted) = run(10);
    let (ample_outs, ample_evicted, ample_preempted) = run(256);
    assert!(
        tight_evicted > 0,
        "a 10-block pool under 8 requests must evict"
    );
    assert!(
        tight_preempted > 0,
        "pool exhaustion mid-decode must park active requests"
    );
    assert_eq!(ample_evicted, 0, "an ample pool must not evict");
    assert_eq!(ample_preempted, 0, "an ample pool must not preempt");
    assert_eq!(
        tight_outs, ample_outs,
        "recompute after eviction changed a token stream"
    );
}
