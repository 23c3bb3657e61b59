//! Tier-1 integration tests for the serving subsystem: KV-cache parity
//! with the training-tape forward, scheduler fairness/liveness under
//! admission pressure, and the engine end-to-end against single-request
//! generation.

use matgpt::model::{generate, ArchKind, GptConfig, GptModel, SampleOptions};
use matgpt::serve::{Engine, EngineConfig, EngineError, FinishReason, GenRequest};
use matgpt::tensor::{init, ParamStore, Tape};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The KV-cached incremental path (prefill chunk + one-token decode
    /// steps) reproduces the training-tape full forward to 1e-4, for
    /// both architectures and under grouped-query attention.
    #[test]
    fn cached_incremental_logits_match_full_forward(
        cfg in arb_cfg(),
        seed in 0u64..50,
        t in 3usize..12,
        split in 1usize..8,
    ) {
        let (model, store) = build(cfg.clone(), seed);
        let v = cfg.vocab_size;
        let tokens: Vec<u32> = (0..t as u32).map(|i| (i * 13 + seed as u32) % v as u32).collect();

        // reference: one full tape forward
        let mut tape = Tape::new();
        let logits = model.logits(&mut tape, &store, &tokens, 1, t);
        let full = tape.value(logits).data().to_vec();

        // cached: prefill the first `split` tokens, then decode the rest
        let split = split.min(t - 1);
        let mut cache = model.new_cache();
        let mut rows = model.forward_cached(&store, &tokens[..split], &mut cache);
        for &tok in &tokens[split..] {
            rows.extend_from_slice(&model.forward_cached(&store, &[tok], &mut cache));
        }

        prop_assert_eq!(rows.len(), full.len());
        for (i, (a, b)) in rows.iter().zip(&full).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-4,
                "row {} col {}: cached {} vs full {}", i / v, i % v, a, b
            );
        }
    }
}

fn tiny_cfg() -> GptConfig {
    GptConfig {
        vocab_size: 40,
        hidden: 16,
        layers: 1,
        heads: 2,
        max_seq: 64,
        ..GptConfig::tiny(ArchKind::Llama, 40)
    }
}

/// More requests than the admission budget can hold at once: everything
/// still completes (liveness). The order they are admitted in is held
/// without a clock by `scheduler::tests::admission_pressure_admits_fifo_pairs`:
/// each `ttft` here is measured from its own submission on this thread,
/// so a descheduled submitter could invert the waves' order.
#[test]
fn scheduler_is_fair_and_live_under_admission_pressure() {
    let (model, store) = build(tiny_cfg(), 3);
    // cost per request = 8 prompt + 16 new = 24 tokens; budget 64 and
    // max_batch 2 both cap the batch at two concurrent requests.
    let engine = Engine::new(
        model,
        store,
        EngineConfig {
            max_batch: 2,
            token_budget: 64,
            ..EngineConfig::default()
        },
    );
    let n = 8;
    let opts = SampleOptions {
        temperature: 0.0,
        top_k: 0,
        max_new_tokens: 16,
        stop_token: None,
    };
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let prompt: Vec<u32> = (0..8u32).map(|t| (t + i) % 40).collect();
            engine.submit(&prompt, opts).expect("admitted")
        })
        .collect();
    for h in handles {
        let r = h.wait().expect("scheduler answers every request");
        assert_eq!(r.finish, FinishReason::Length);
        assert_eq!(r.generated, 16);
    }
    let m = engine.metrics();
    assert_eq!(m.completed, n as u64);
    assert_eq!(m.queue_depth, 0);
    engine.shutdown();
}

/// Eight concurrent mixed-length greedy requests through the engine
/// produce exactly what single-request `generate` produces (separate KV
/// caches mean batch composition cannot leak between requests), and the
/// metrics snapshot is fully populated.
#[test]
fn engine_matches_single_request_generation_under_concurrency() {
    let cfg = tiny_cfg();
    let (model, store) = build(cfg.clone(), 7);
    let opts = SampleOptions {
        temperature: 0.0,
        top_k: 0,
        max_new_tokens: 12,
        stop_token: Some(1),
    };
    let prompts: Vec<Vec<u32>> = (0..8u32)
        .map(|i| (0..4 + 3 * i).map(|t| (t * 5 + i) % 40).collect())
        .collect();
    let expected: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| generate(&model, &store, p, &opts, &mut init::rng(0)))
        .collect();

    let engine = Engine::new(model, store, EngineConfig::default());
    let handles: Vec<_> = prompts
        .iter()
        .map(|p| engine.submit(p, opts).expect("admitted"))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.wait().expect("response");
        assert_eq!(
            r.tokens, expected[i],
            "request {i} diverged from solo generate"
        );
        assert_eq!(r.generated, r.tokens.len() - prompts[i].len());
        assert!(r.ttft <= r.total);
        assert!(matches!(
            r.finish,
            FinishReason::Length | FinishReason::Stop
        ));
    }
    let m = engine.metrics();
    assert_eq!(m.completed, 8);
    assert!(m.generated_tokens > 0);
    assert!(m.tokens_per_sec > 0.0, "busy time must be recorded");
    assert_eq!(m.ttft_ms.count, 8);
    assert!(m.token_latency_ms.count > 0);
    assert!(m.to_json().contains("\"completed\":8"));
    engine.shutdown();
}

/// A request whose deadline expires while queued or mid-decode is
/// retired with `DeadlineExceeded` instead of blocking the batch.
#[test]
fn deadlines_and_cancellation_do_not_stall_the_queue() {
    let (model, store) = build(tiny_cfg(), 11);
    let engine = Engine::new(
        model,
        store,
        EngineConfig {
            max_batch: 1,
            token_budget: 4096,
            ..EngineConfig::default()
        },
    );
    let opts = SampleOptions {
        temperature: 0.0,
        top_k: 0,
        max_new_tokens: 8,
        stop_token: None,
    };
    // a doomed request with a zero deadline, then a normal one behind it
    let mut doomed = GenRequest::new(vec![2, 3, 4]);
    doomed.opts = SampleOptions {
        max_new_tokens: 100_000,
        ..opts
    };
    doomed.deadline = Some(std::time::Duration::ZERO);
    let h_doomed = engine.submit_request(doomed).expect("admitted");
    let h_ok = engine.submit(&[5, 6], opts).expect("admitted");
    assert_eq!(
        h_doomed.wait().expect("doomed answered").finish,
        FinishReason::DeadlineExceeded
    );
    let ok = h_ok.wait().expect("queued request survives");
    assert_eq!(ok.finish, FinishReason::Length);
    assert_eq!(ok.generated, 8);
    engine.shutdown();
}

/// The panic-free contract end to end: a request whose forward panics
/// (out-of-vocab token) retires alone with `Failed`, bounded-queue
/// backpressure rejects with `QueueFull` instead of queueing without
/// limit, empty prompts are typed errors, and after a graceful shutdown
/// submission reports `ShutDown` — no path panics the caller.
#[test]
fn engine_is_panic_free_under_faults_overload_and_shutdown() {
    let (model, store) = build(tiny_cfg(), 13);
    let engine = Engine::new(
        model,
        store,
        EngineConfig {
            max_queue: 3,
            ..EngineConfig::default()
        },
    );
    let opts = SampleOptions {
        temperature: 0.0,
        top_k: 0,
        max_new_tokens: 6,
        stop_token: None,
    };

    assert_eq!(
        engine.submit(&[], opts).err(),
        Some(EngineError::EmptyPrompt)
    );

    // token 9999 is far out of vocab (40): prefill panics, isolation
    // turns it into a Failed response while the healthy request and the
    // engine itself keep going
    let bad = engine.submit(&[9999], opts).expect("admitted");
    let good = engine.submit(&[1, 2, 3], opts).expect("admitted");
    assert_eq!(bad.wait().expect("answered").finish, FinishReason::Failed);
    let ok = good.wait().expect("answered");
    assert_eq!(ok.finish, FinishReason::Length);
    assert_eq!(ok.generated, 6);
    assert_eq!(engine.metrics().failed, 1);

    // overload a 3-deep queue: at least one burst submission bounces
    let mut handles = Vec::new();
    let mut saw_queue_full = false;
    for i in 0..64u32 {
        match engine.submit(&[1 + i % 8], opts) {
            Ok(h) => handles.push(h),
            Err(EngineError::QueueFull { capacity }) => {
                assert_eq!(capacity, 3);
                saw_queue_full = true;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(saw_queue_full, "64-burst must trip a 3-deep queue");
    for h in handles {
        assert_eq!(h.wait().expect("drained").finish, FinishReason::Length);
    }
    assert_eq!(engine.metrics().backlog, 0, "all slots released");

    engine.shutdown();
    assert_eq!(engine.submit(&[1], opts).err(), Some(EngineError::ShutDown));
}
