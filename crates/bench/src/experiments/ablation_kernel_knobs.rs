//! Ablation: which calibration knob of the kernel model carries which
//! claim (DESIGN.md §5.2, "calibrated-not-fitted").
//!
//! Each knob is disabled in turn and the three headline Fig. 4 facts are
//! re-evaluated: the 24×2304 winner, the mod-8 advantage, and the flash
//! v1/v2 boosts. The point of the exercise: the *shape* claims survive any
//! single knob; only the knob that encodes a claim's physical mechanism
//! kills that claim.

use super::Ctx;
use crate::print_table;
use matgpt_frontier_sim::{one_b_grid, Constraints, KernelModel};

struct Facts {
    winner: (usize, usize),
    mod8_gap_pct: f64,
    v1_boost_pct: f64,
    v2_boost_pct: f64,
}

fn facts(km: &KernelModel) -> Facts {
    let cells = one_b_grid(52_000, 2048, km, &Constraints::default());
    let best = cells
        .iter()
        .max_by(|a, b| a.tflops_base.partial_cmp(&b.tflops_base).unwrap())
        .unwrap();
    let mean = |it: Vec<f64>| it.iter().sum::<f64>() / it.len().max(1) as f64;
    let mod8 = mean(
        cells
            .iter()
            .filter(|c| c.head_mod8)
            .map(|c| c.tflops_base)
            .collect(),
    );
    let other = mean(
        cells
            .iter()
            .filter(|c| !c.head_mod8)
            .map(|c| c.tflops_base)
            .collect(),
    );
    let v1 = mean(
        cells
            .iter()
            .filter(|c| c.head_mod8 && c.head_dim <= 128)
            .map(|c| c.tflops_v1 / c.tflops_base - 1.0)
            .collect(),
    );
    let v2 = mean(
        cells
            .iter()
            .filter(|c| c.head_mod8)
            .map(|c| c.tflops_v2 / c.tflops_base - 1.0)
            .collect(),
    );
    Facts {
        winner: (best.layers, best.hidden),
        mod8_gap_pct: (mod8 / other - 1.0) * 100.0,
        v1_boost_pct: v1 * 100.0,
        v2_boost_pct: v2 * 100.0,
    }
}

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let base = KernelModel::default();
    let variants: Vec<(&str, KernelModel)> = vec![
        ("full model", base.clone()),
        (
            "no mod-8 bonus/penalty",
            KernelModel {
                head_mod8_bonus: 1.0,
                head_misaligned_penalty: 1.0,
                ..base.clone()
            },
        ),
        (
            "no alignment bonus",
            KernelModel {
                hidden_aligned_bonus: 1.0,
                ..base.clone()
            },
        ),
        (
            "no size slope",
            KernelModel {
                size_slope: 0.0,
                ..base.clone()
            },
        ),
        (
            "flash = naive efficiency",
            KernelModel {
                attn_flash1_rel_eff: base.attn_naive_rel_eff,
                attn_flash2_rel_eff: base.attn_naive_rel_eff,
                ..base.clone()
            },
        ),
        (
            "free softmax/elementwise",
            KernelModel {
                other_rel_eff: 1.0,
                ..base.clone()
            },
        ),
    ];

    let rows: Vec<Vec<String>> = variants
        .iter()
        .map(|(name, km)| {
            let f = facts(km);
            vec![
                name.to_string(),
                format!("{}x{}", f.winner.0, f.winner.1),
                format!("{:+.1}%", f.mod8_gap_pct),
                format!("{:+.1}%", f.v1_boost_pct),
                format!("{:+.1}%", f.v2_boost_pct),
            ]
        })
        .collect();
    print_table(
        "Ablation: kernel-model knob -> Fig. 4 facts",
        &[
            "variant",
            "grid winner",
            "mod-8 advantage",
            "v1 boost",
            "v2 boost",
        ],
        &rows,
    );

    println!(
        "\nreading: the mod-8 knob carries the mod-8 advantage (Observation 1); the\n\
         attention-efficiency knobs carry the flash boosts; the remaining knobs only\n\
         perturb absolute numbers — the winner and orderings are emergent from shapes."
    );
    Ok(())
}
