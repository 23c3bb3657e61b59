//! Regenerates Fig. 2: per-layer parameter and FLOP accounting for the
//! 1.7B model at sequence length 2048 and batch size 16.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_model::count::{layer_flops, layer_params};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let batch = 16;
    let seq = 2048;
    for arch in [ArchKind::NeoX, ArchKind::Llama] {
        let cfg = GptConfig::paper_1_7b(arch, 52_000);
        let p = layer_params(&cfg);
        let f = layer_flops(&cfg, batch, seq);
        print_table(
            &format!("Fig. 2 — one {arch} transformer layer (1.7B, seq {seq}, batch {batch})"),
            &["block", "parameters", "forward GFLOP"],
            &[
                vec![
                    "QKV projection".to_string(),
                    p.qkv.to_string(),
                    format!("{:.1}", f.qkv / 1e9),
                ],
                vec![
                    "attention score (QK^T)".to_string(),
                    "0".to_string(),
                    format!("{:.1}", f.score / 1e9),
                ],
                vec![
                    "attention over values".to_string(),
                    "0".to_string(),
                    format!("{:.1}", f.aov / 1e9),
                ],
                vec![
                    "output projection".to_string(),
                    p.attn_proj.to_string(),
                    format!("{:.1}", f.linproj / 1e9),
                ],
                vec![
                    format!(
                        "MLP ({})",
                        match arch {
                            ArchKind::NeoX => "2 x GELU @ 4h",
                            ArchKind::Llama => "3 x SwiGLU @ 8h/3",
                        }
                    ),
                    p.mlp.to_string(),
                    format!("{:.1}", f.mlp / 1e9),
                ],
                vec![
                    "norms (+dropout etc.)".to_string(),
                    p.norms.to_string(),
                    format!("{:.1}", f.other / 1e9),
                ],
                vec![
                    "layer total".to_string(),
                    p.total().to_string(),
                    format!("{:.1}", f.total() / 1e9),
                ],
            ],
        );
    }

    println!("\n-- paper vs measured --");
    let fn_ = layer_flops(&GptConfig::paper_1_7b(ArchKind::NeoX, 52_000), batch, seq).total();
    let fl = layer_flops(&GptConfig::paper_1_7b(ArchKind::Llama, 52_000), batch, seq).total();
    compare(
        "per-layer FLOPs NeoX ≈ LLaMA",
        "≈ equal",
        &format!("ratio {:.3}", fl / fn_),
        if (fl / fn_ - 1.0).abs() < 0.02 {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    let pn = layer_params(&GptConfig::paper_1_7b(ArchKind::NeoX, 52_000));
    let pl = layer_params(&GptConfig::paper_1_7b(ArchKind::Llama, 52_000));
    compare(
        "attention layers identical (modulo NeoX biases)",
        "identical",
        &format!("qkv {} vs {}", pn.qkv, pl.qkv),
        if pn.qkv - 3 * 2304 == pl.qkv {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    Ok(())
}
