//! Regenerates Table II: model architectures and tokenization variants,
//! with parameter counts recomputed from first principles.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_model::count::{layer_params, total_params};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let mut rows = Vec::new();
    for (arch, size, vocab, tok) in [
        (ArchKind::Llama, "1.7B", 32_000usize, "SPM"),
        (ArchKind::Llama, "1.7B", 52_000, "HF"),
        (ArchKind::Llama, "6.7B", 52_000, "HF"),
        (ArchKind::NeoX, "1.7B", 52_000, "HF"),
        (ArchKind::NeoX, "6.7B", 52_000, "HF"),
    ] {
        let cfg = match size {
            "1.7B" => GptConfig::paper_1_7b(arch, vocab),
            _ => GptConfig::paper_6_7b(arch, vocab),
        };
        let p = total_params(&cfg);
        rows.push(vec![
            format!("{arch}"),
            size.to_string(),
            format!("{:.2}B", p as f64 / 1e9),
            cfg.hidden.to_string(),
            cfg.layers.to_string(),
            cfg.heads.to_string(),
            cfg.head_dim().to_string(),
            tok.to_string(),
            format!("{}K", vocab / 1000),
        ]);
    }
    print_table(
        "Table II: MatGPT architectures (parameters recomputed)",
        &[
            "Arch",
            "size",
            "#params",
            "hidden",
            "#layers",
            "#heads",
            "head-dim",
            "tokenizer",
            "vocab",
        ],
        &rows,
    );

    let lp_neox = layer_params(&GptConfig::paper_1_7b(ArchKind::NeoX, 52_000));
    let lp_llama = layer_params(&GptConfig::paper_1_7b(ArchKind::Llama, 52_000));
    print_table(
        "Per-layer parameter breakdown (1.7B)",
        &["component", "NeoX", "LLaMA"],
        &[
            vec![
                "qkv".to_string(),
                lp_neox.qkv.to_string(),
                lp_llama.qkv.to_string(),
            ],
            vec![
                "attn proj".to_string(),
                lp_neox.attn_proj.to_string(),
                lp_llama.attn_proj.to_string(),
            ],
            vec![
                "mlp".to_string(),
                lp_neox.mlp.to_string(),
                lp_llama.mlp.to_string(),
            ],
            vec![
                "norms".to_string(),
                lp_neox.norms.to_string(),
                lp_llama.norms.to_string(),
            ],
            vec![
                "total".to_string(),
                lp_neox.total().to_string(),
                lp_llama.total().to_string(),
            ],
        ],
    );

    println!("\n-- paper vs measured --");
    let p17 = total_params(&GptConfig::paper_1_7b(ArchKind::Llama, 52_000)) as f64 / 1e9;
    let p67 = total_params(&GptConfig::paper_6_7b(ArchKind::Llama, 52_000)) as f64 / 1e9;
    compare(
        "1.7B config parameter count",
        "1.7B",
        &format!("{p17:.2}B"),
        if (1.5..2.0).contains(&p17) {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    compare(
        "6.7B config parameter count",
        "6.7B",
        &format!("{p67:.2}B"),
        if (6.2..7.2).contains(&p67) {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    let ratio = lp_llama.total() as f64 / lp_neox.total() as f64;
    compare(
        "per-layer params NeoX ≈ LLaMA",
        "≈ equal",
        &format!("ratio {ratio:.3}"),
        if (ratio - 1.0).abs() < 0.02 {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    Ok(())
}
