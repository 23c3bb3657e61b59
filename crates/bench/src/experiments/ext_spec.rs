//! Extension: int8 self-draft speculative decoding — how many of the
//! W8A8 draft's proposals the f32 model accepts.
//!
//! Plain greedy decode is one weight-bound f32 GEMV per token. The
//! speculative path drafts `k` tokens with a W8A8 integer-dot copy of
//! the same weights and verifies all of them in ONE batched f32
//! forward, so an accepted draft token costs roughly a 1/(k+1) share of
//! a full f32 step plus an int8 step, and the output stays
//! **bit-identical** to plain greedy decode. This experiment reports
//! the two numbers that decide whether the trade pays: the acceptance
//! rate and the tokens emitted per verify call. What it pays in time is
//! `tpot_ms` on `dram_spec` in `perf/`, explained by
//! `model.spec_step_ms` and `model.spec_tokens_per_step`; stream
//! identity and the ≥ 0.5 acceptance bar are held by
//! `tests/speculative.rs`.

use super::{decode_model, Ctx};
use crate::{compare, print_table, verdict};
use matgpt_model::{generate, generate_speculative, QuantizedParamStore, SampleOptions};
use matgpt_tensor::init;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let (model, store) = decode_model();
    let cfg = &model.cfg;
    let draft = QuantizedParamStore::for_draft(&model, &store);

    let k = 4usize;
    let prompt: Vec<u32> = (0..32u32)
        .map(|i| (i * 131 + 7) % cfg.vocab_size as u32)
        .collect();
    let opts = SampleOptions {
        temperature: 0.0,
        top_k: 0,
        max_new_tokens: if ctx.smoke { 12 } else { 48 },
        stop_token: None,
    };
    let plain = generate(&model, &store, &prompt, &opts, &mut init::rng(0));
    let (spec, stats) = generate_speculative(&model, &store, &draft, &prompt, &opts, k);
    let acceptance = stats.acceptance_rate();
    let tokens_per_verify = opts.max_new_tokens as f64 / stats.verify_calls as f64;

    print_table(
        &format!(
            "Speculative decoding, int8 self-draft k={k} (LLaMA h={} L={} V={}, \
             {}-token prompt, {} new tokens)",
            cfg.hidden,
            cfg.layers,
            cfg.vocab_size,
            prompt.len(),
            opts.max_new_tokens
        ),
        &[
            "drafted",
            "accepted",
            "rolled back",
            "verify calls",
            "tokens per verify",
        ],
        &[vec![
            stats.drafted.to_string(),
            stats.accepted.to_string(),
            stats.rolled_back.to_string(),
            stats.verify_calls.to_string(),
            format!("{tokens_per_verify:.2} (ceiling {})", k + 1),
        ]],
    );

    println!("\n-- reference vs measured --");
    compare(
        "speculative stream vs plain greedy decode",
        "identical, token for token",
        if spec == plain { "identical" } else { "differ" },
        verdict(spec == plain),
    );
    compare(
        "int8 self-draft acceptance rate",
        ">= 0.5",
        &format!("{acceptance:.2}"),
        verdict(acceptance >= 0.5),
    );
    Ok(())
}
