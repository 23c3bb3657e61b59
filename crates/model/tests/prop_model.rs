//! Property-based tests for the transformer models: causality, parameter
//! accounting, and scoring invariants across random configurations.

use matgpt_model::count::total_params;
use matgpt_model::{ArchKind, GptConfig, GptModel};
use matgpt_tensor::{init, ParamStore, Tape};
use proptest::prelude::*;

fn arb_tiny_cfg() -> impl Strategy<Value = GptConfig> {
    (
        prop_oneof![Just(ArchKind::NeoX), Just(ArchKind::Llama)],
        1usize..=3,  // layers
        1usize..=4,  // heads
        1usize..=4,  // head_dim/4
        16usize..64, // vocab
    )
        .prop_map(|(arch, layers, heads, hd4, vocab)| GptConfig {
            arch,
            vocab_size: vocab,
            hidden: heads * hd4 * 4,
            layers,
            heads,
            kv_heads: None,
            max_seq: 16,
            rope_base: 10_000.0,
            norm_eps: 1e-5,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The registered parameter count always equals the analytic count.
    #[test]
    fn params_match_counting(cfg in arb_tiny_cfg(), seed in 0u64..100) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(seed);
        let _model = GptModel::new(cfg.clone(), &mut store, &mut rng);
        prop_assert_eq!(store.num_scalars(), total_params(&cfg));
    }

    /// Causality: logits at position t do not depend on tokens after t.
    #[test]
    fn logits_are_causal(cfg in arb_tiny_cfg(), seed in 0u64..100) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(seed);
        let model = GptModel::new(cfg.clone(), &mut store, &mut rng);
        let v = cfg.vocab_size as u32;
        let t = 6usize;
        let a: Vec<u32> = (0..t as u32).map(|i| i % v).collect();
        let mut b = a.clone();
        *b.last_mut().unwrap() = (a[t - 1] + 1) % v;
        let mut tape_a = Tape::new();
        let la = model.logits(&mut tape_a, &store, &a, 1, t);
        let mut tape_b = Tape::new();
        let lb = model.logits(&mut tape_b, &store, &b, 1, t);
        let va = tape_a.value(la).data();
        let vb = tape_b.value(lb).data();
        // rows 0..t-1 identical to the bit: every GEMM is row-independent
        // and row i's scan reads only keys ≤ i; the final row differs
        // (almost surely)
        let bits = |x: &[f32]| x.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let prefix = (t - 1) * cfg.vocab_size;
        prop_assert_eq!(bits(&va[..prefix]), bits(&vb[..prefix]), "a position leaked future info");
    }

    /// Scores are valid log-probabilities: per-token score ≤ 0 and the
    /// total over the vocabulary normalises (spot-checked via one prefix).
    #[test]
    fn scores_are_log_probs(cfg in arb_tiny_cfg(), seed in 0u64..100) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(seed);
        let model = GptModel::new(cfg.clone(), &mut store, &mut rng);
        let v = cfg.vocab_size as u32;
        let tokens: Vec<u32> = (0..5u32).map(|i| i % v).collect();
        let s = model.score_span(&store, &tokens, 1);
        prop_assert!(s <= 0.0);
        // sum over all next-token choices of exp(score) for a length-2
        // continuation window equals 1
        let prefix = [0u32, 1 % v];
        let mut total = 0.0f64;
        for c in 0..cfg.vocab_size as u32 {
            let seq = [prefix[0], prefix[1], c];
            total += model.score_span(&store, &seq, 2).exp();
        }
        prop_assert!((total - 1.0).abs() < 1e-3, "sum {}", total);
    }

    /// Embeddings are deterministic and depend on the input.
    #[test]
    fn embeddings_deterministic(cfg in arb_tiny_cfg(), seed in 0u64..100) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(seed);
        let model = GptModel::new(cfg.clone(), &mut store, &mut rng);
        let v = cfg.vocab_size as u32;
        let a = model.embed(&store, &[1 % v, 2 % v, 3 % v]);
        let b = model.embed(&store, &[1 % v, 2 % v, 3 % v]);
        prop_assert_eq!(a, b);
    }
}
