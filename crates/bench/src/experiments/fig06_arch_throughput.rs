//! Regenerates Fig. 6: NeoX vs LLaMA training throughput for the eight
//! flash-eligible grid architectures.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_frontier_sim::{one_b_grid, Constraints, FlashVersion, KernelModel};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let km = KernelModel::default();
    let cells = one_b_grid(52_000, 2048, &km, &Constraints::default());
    let mut eligible: Vec<_> = cells.into_iter().filter(|c| c.head_mod8).collect();
    eligible.sort_by(|a, b| b.tflops_base.partial_cmp(&a.tflops_base).unwrap());
    eligible.truncate(8);

    let mut neox_wins = 0usize;
    let rows: Vec<Vec<String>> = eligible
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mk = |arch: ArchKind| GptConfig {
                hidden: c.hidden,
                layers: c.layers,
                heads: c.heads,
                ..GptConfig::paper_1_7b(arch, 52_000)
            };
            let tn = km.achieved_tflops(&mk(ArchKind::NeoX), 16, 2048, FlashVersion::V2);
            let tl = km.achieved_tflops(&mk(ArchKind::Llama), 16, 2048, FlashVersion::V2);
            if tn > tl {
                neox_wins += 1;
            }
            vec![
                format!("{}", (b'A' + i as u8) as char),
                format!("{}x{}", c.layers, c.hidden),
                format!("{tn:.1}"),
                format!("{tl:.1}"),
                if tn > tl {
                    "NeoX".into()
                } else {
                    "LLaMA".into()
                },
            ]
        })
        .collect();
    print_table(
        "Fig. 6: training throughput (TFLOPS/GCD, flash v2) — NeoX vs LLaMA",
        &["case", "arch (LxH)", "NeoX", "LLaMA", "winner"],
        &rows,
    );

    println!("\n-- paper vs measured --");
    compare(
        "NeoX edge (cases won of 8)",
        "7 of 8 (slight)",
        &format!("{neox_wins} of 8"),
        if neox_wins >= 6 {
            "MATCH (shape)"
        } else {
            "MISMATCH"
        },
    );
    println!(
        "mechanism (paper): \"the difference likely comes from the parameterization of MLP\n\
         layers (2 linear layers with GELU versus 3 linear layers with SILU)\" — the kernel\n\
         model prices SwiGLU's three narrower GEMMs at a small overhead."
    );
    Ok(())
}
