//! Regenerates Fig. 10: (left) the proportion of per-layer latency by
//! transformer component for a medium and a large model; (right) the
//! individual GEMM proportions.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_model::count::layer_flops;
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let medium = GptConfig {
        hidden: 1024,
        heads: 16,
        layers: 24,
        ..GptConfig::paper_1_7b(ArchKind::NeoX, 52_000)
    };
    let large = GptConfig::paper_6_7b(ArchKind::NeoX, 52_000);

    let mut gemm_fracs = Vec::new();
    for (label, cfg) in [("medium (h=1024)", &medium), ("large (h=4096)", &large)] {
        let f = layer_flops(cfg, 16, 2048);
        let total = f.total();
        let rows = vec![
            vec!["QKV".to_string(), format!("{:.1}%", f.qkv / total * 100.0)],
            vec![
                "attention (flash)".to_string(),
                format!("{:.1}%", (f.score + f.aov) / total * 100.0),
            ],
            vec![
                "Linproj".to_string(),
                format!("{:.1}%", f.linproj / total * 100.0),
            ],
            vec!["MLP".to_string(), format!("{:.1}%", f.mlp / total * 100.0)],
            vec![
                "LN + DR + other".to_string(),
                format!("{:.1}%", f.other / total * 100.0),
            ],
            vec![
                "GEMM total".to_string(),
                format!("{:.1}%", f.gemm_fraction() * 100.0),
            ],
        ];
        print_table(
            &format!("Fig. 10 (left): per-layer latency shares — {label}"),
            &["component", "share"],
            &rows,
        );
        gemm_fracs.push((label, f.gemm_fraction()));

        let g = f.gemm();
        print_table(
            &format!("Fig. 10 (right): GEMM-only shares — {label}"),
            &["GEMM", "share of GEMM time"],
            &[
                vec!["QKV".to_string(), format!("{:.1}%", f.qkv / g * 100.0)],
                vec![
                    "score (QK^T)".to_string(),
                    format!("{:.1}%", f.score / g * 100.0),
                ],
                vec!["AOV (PV)".to_string(), format!("{:.1}%", f.aov / g * 100.0)],
                vec![
                    "Linproj".to_string(),
                    format!("{:.1}%", f.linproj / g * 100.0),
                ],
                vec!["MLP".to_string(), format!("{:.1}%", f.mlp / g * 100.0)],
            ],
        );
    }

    println!("\n-- paper vs measured --");
    compare(
        "GEMM share, medium model",
        "65.9%",
        &format!("{:.1}%", gemm_fracs[0].1 * 100.0),
        if gemm_fracs[0].1 < gemm_fracs[1].1 {
            "MATCH (ordering)"
        } else {
            "MISMATCH"
        },
    );
    compare(
        "GEMM share, large model",
        "91.2%",
        &format!("{:.1}%", gemm_fracs[1].1 * 100.0),
        if gemm_fracs[1].1 > 0.9 {
            "MATCH"
        } else {
            "CHECK"
        },
    );
    let f = layer_flops(&large, 16, 2048);
    let qkv_mlp = (f.qkv + f.mlp) / f.gemm();
    compare(
        "QKV + MLP dominate GEMM time",
        "most of the runtime",
        &format!("{:.0}%", qkv_mlp * 100.0),
        if qkv_mlp > 0.6 { "MATCH" } else { "MISMATCH" },
    );
    Ok(())
}
