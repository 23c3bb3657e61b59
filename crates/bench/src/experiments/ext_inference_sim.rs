//! Extension: autoregressive-inference cost on the simulated MI250X —
//! prefill vs decode regimes, KV-cache pressure, and the GQA payoff
//! (the LLaMA-2 "inference performance tweak" the paper cites).

use super::Ctx;
use crate::{compare, print_table};
use matgpt_frontier_sim::{simulate_inference, InferenceSetup};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let base_cfg = GptConfig::paper_6_7b(ArchKind::Llama, 52_000);

    // prompt-length sweep (MHA)
    let mut rows = Vec::new();
    for prompt in [512usize, 2048, 8192, 32_768] {
        let mut s = InferenceSetup::new(base_cfg.clone());
        s.prompt_len = prompt;
        s.batch = 8;
        let r = simulate_inference(&s);
        rows.push(vec![
            prompt.to_string(),
            format!("{:.2}", r.prefill_s),
            format!("{:.1}", r.decode_per_token_s * 1e3),
            format!("{:.0}", r.tokens_per_s),
            format!("{:.1}", r.kv_cache_bytes / 1e9),
            format!("{:.0}%", r.kv_fraction * 100.0),
        ]);
    }
    print_table(
        "Inference (6.7B, batch 8, MHA): prompt-length sweep",
        &[
            "prompt",
            "prefill (s)",
            "ms/token",
            "tokens/s",
            "KV cache GB",
            "KV share of decode",
        ],
        &rows,
    );

    // MHA vs GQA vs MQA at long context
    let mut rows = Vec::new();
    let mut per_tok = Vec::new();
    for (name, kv) in [
        ("MHA (32 kv)", None),
        ("GQA (8 kv)", Some(8)),
        ("MQA (1 kv)", Some(1)),
    ] {
        let mut s = InferenceSetup::new(GptConfig {
            kv_heads: kv,
            ..base_cfg.clone()
        });
        s.prompt_len = 16_384;
        s.batch = 16;
        let r = simulate_inference(&s);
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", r.kv_cache_bytes / 1e9),
            format!("{:.1}", r.decode_per_token_s * 1e3),
            format!("{:.0}", r.tokens_per_s),
        ]);
        per_tok.push(r.decode_per_token_s);
    }
    print_table(
        "MHA vs grouped-query vs multi-query at 16K context, batch 16",
        &["attention", "KV cache GB", "ms/token", "tokens/s"],
        &rows,
    );

    println!("\n-- reference vs measured --");
    compare(
        "GQA improves long-context decode",
        "LLaMA-2 motivation",
        &format!(
            "{:.1} -> {:.1} ms/token",
            per_tok[0] * 1e3,
            per_tok[1] * 1e3
        ),
        if per_tok[1] < per_tok[0] {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    Ok(())
}
