//! Tier-1 integration tests for the int8 quantized decode path: the
//! quantized forward must track the f32 forward within the published
//! drift bound on both paper architectures, through both the prefill
//! and the incremental KV-cached decode regimes, and the serving
//! engine must produce identical greedy output at either precision.

use matgpt::model::{
    generate, ArchKind, ForwardParams, GptConfig, GptModel, QuantizedParamStore, SampleOptions,
    WeightPrecision,
};
use matgpt::serve::{DecodeMode, Engine, EngineConfig, KvBackend, KvBlockConfig};
use matgpt::tensor::{init, ParamStore};

/// The drift bound ext_quant publishes for a 4-layer 512-hidden model;
/// the tiny test shapes stay well inside it.
const DRIFT: f32 = 5e-2;

fn build(arch: ArchKind) -> (GptModel, ParamStore) {
    let cfg = GptConfig {
        hidden: 64,
        layers: 2,
        heads: 4,
        max_seq: 48,
        ..GptConfig::tiny(arch, 96)
    };
    let mut store = ParamStore::new();
    let mut rng = init::rng(7);
    let model = GptModel::new(cfg, &mut store, &mut rng);
    (model, store)
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()))
}

#[test]
fn quantized_prefill_logits_track_f32_on_both_archs() {
    for arch in [ArchKind::NeoX, ArchKind::Llama] {
        let (model, store) = build(arch);
        let qstore = QuantizedParamStore::quantize(&model, &store);
        let tokens: Vec<u32> = (0..24u32).map(|i| (i * 11 + 3) % 96).collect();

        let mut c1 = model.new_cache();
        let f32_logits = model.forward_cached(&store, &tokens, &mut c1);
        let mut c2 = model.new_cache();
        let int8_logits = model.forward_cached(&qstore, &tokens, &mut c2);

        assert_eq!(f32_logits.len(), int8_logits.len());
        let drift = max_abs_diff(&f32_logits, &int8_logits);
        assert!(
            drift <= DRIFT,
            "{arch:?}: prefill logits drift {drift} exceeds {DRIFT}"
        );
    }
}

#[test]
fn quantized_decode_step_tracks_f32_through_kv_cache() {
    for arch in [ArchKind::NeoX, ArchKind::Llama] {
        let (model, store) = build(arch);
        let qstore = QuantizedParamStore::quantize(&model, &store);
        let prompt: Vec<u32> = (0..8u32).map(|i| (i * 17 + 5) % 96).collect();

        let mut c_f32 = model.new_cache();
        let mut c_int8 = model.new_cache();
        model.forward_cached(&store, &prompt, &mut c_f32);
        model.forward_cached(&qstore, &prompt, &mut c_int8);

        // walk both caches down the same token stream step by step
        for step in 0..16u32 {
            let tok = (step * 29 + 1) % 96;
            let r_f32 = model.decode_step(&store, tok, &mut c_f32);
            let r_int8 = model.decode_step(&qstore, tok, &mut c_int8);
            let drift = max_abs_diff(&r_f32, &r_int8);
            assert!(
                drift <= DRIFT,
                "{arch:?} step {step}: decode logits drift {drift} exceeds {DRIFT}"
            );
        }
    }
}

#[test]
fn model_weights_wrapper_reports_precision_and_footprint() {
    // the footprint the engine reports comes through `ForwardParams`,
    // whichever store sits behind its weight handle
    let (model, store) = build(ArchKind::Llama);
    let int8 = QuantizedParamStore::quantize(&model, &store);
    assert!(
        int8.weight_bytes() * 2 < store.weight_bytes(),
        "int8 footprint {} should be well under half the f32 footprint {}",
        int8.weight_bytes(),
        store.weight_bytes()
    );
}

/// The 2 × 2 × 2 the scheduler dispatches once each: weight precision ×
/// KV backend × decode mode. F32 rows stream exactly what
/// `model::generate` does; Int8 rows agree with each other across both
/// backends and both modes, and `Speculative` under `Int8` degrades to
/// plain decode (speculation needs the f32 verifier) — nothing drafted.
#[test]
fn every_precision_backend_and_decode_mode_serves_the_same_streams() {
    let opts = SampleOptions {
        temperature: 0.0,
        top_k: 0,
        max_new_tokens: 10,
        stop_token: None,
    };
    let prompts: [&[u32]; 3] = [&[3, 1, 4, 1, 5], &[9, 2, 6], &[5, 3, 5, 8, 9, 7, 9]];
    let paged = KvBackend::Paged(KvBlockConfig {
        block_size: 4,
        num_blocks: 64,
    });
    let (model, store) = build(ArchKind::Llama);
    let reference: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| generate(&model, &store, p, &opts, &mut init::rng(0)))
        .collect();
    let mut int8_streams: Option<Vec<Vec<u32>>> = None;
    for precision in [WeightPrecision::F32, WeightPrecision::Int8] {
        for kv_backend in [KvBackend::Contiguous, paged] {
            for decode in [DecodeMode::Plain, DecodeMode::Speculative { k: 2 }] {
                let row = format!("{precision} / {kv_backend:?} / {decode:?}");
                let (model, store) = build(ArchKind::Llama);
                let cfg = EngineConfig {
                    precision,
                    kv_backend,
                    decode,
                    ..EngineConfig::default()
                };
                let engine = Engine::new(model, store, cfg);
                let handles: Vec<_> = prompts
                    .iter()
                    .map(|p| engine.submit(p, opts).expect("admitted"))
                    .collect();
                let streams: Vec<Vec<u32>> = handles
                    .into_iter()
                    .map(|h| h.wait().expect("response").tokens)
                    .collect();
                let m = engine.metrics();
                engine.shutdown();
                assert_eq!(m.failed, 0, "{row}");
                let drafts = decode != DecodeMode::Plain && precision == WeightPrecision::F32;
                assert_eq!(m.spec_drafted > 0, drafts, "{row}: {}", m.to_json());
                match precision {
                    WeightPrecision::F32 => assert_eq!(streams, reference, "{row}"),
                    WeightPrecision::Int8 => {
                        let first = int8_streams.get_or_insert_with(|| streams.clone());
                        assert_eq!(&streams, first, "{row}");
                    }
                }
            }
        }
    }
}

#[test]
fn engine_greedy_output_is_identical_at_both_precisions() {
    let decode = |precision: WeightPrecision| {
        let (model, store) = build(ArchKind::NeoX);
        let engine = Engine::new(
            model,
            store,
            EngineConfig {
                precision,
                ..EngineConfig::default()
            },
        );
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 12,
            stop_token: None,
        };
        let handle = engine.submit(&[3, 1, 4, 1, 5], opts).expect("admitted");
        let response = handle.wait().expect("response");
        engine.shutdown();
        response.tokens
    };
    // greedy argmax is stable under <= DRIFT logits perturbation for
    // this seed, so the two precisions must pick the same tokens
    assert_eq!(
        decode(WeightPrecision::F32),
        decode(WeightPrecision::Int8),
        "greedy decode diverged between f32 and int8"
    );
}
