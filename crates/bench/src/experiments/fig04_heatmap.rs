//! Regenerates Fig. 4: the architecture-throughput heatmap for ~1B models
//! (left) and the flash-attention v1/v2 boost for eligible architectures
//! (right).

use super::Ctx;
use crate::{compare, heat_char, print_table};
use matgpt_frontier_sim::{one_b_grid, Constraints, KernelModel};
use std::collections::BTreeSet;

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let km = KernelModel::default();
    let cells = one_b_grid(52_000, 2048, &km, &Constraints::default());

    // left panel: heatmap
    let lo = cells
        .iter()
        .map(|c| c.tflops_base)
        .fold(f64::INFINITY, f64::min);
    let hi = cells
        .iter()
        .map(|c| c.tflops_base)
        .fold(f64::NEG_INFINITY, f64::max);
    let layers: BTreeSet<usize> = cells.iter().map(|c| c.layers).collect();
    println!("== Fig. 4 (left): training throughput heatmap, TFLOPS/GCD, no flash ==");
    println!("   rows = layers, cells = hidden:value, shade ramp .:-=+*#@ over [{lo:.0},{hi:.0}]");
    for &l in &layers {
        let mut row: Vec<_> = cells.iter().filter(|c| c.layers == l).collect();
        row.sort_by_key(|c| c.hidden);
        print!("L={l:<2} ");
        for c in row {
            let mark = if c.head_mod8 { '!' } else { ' ' };
            print!(
                "[{}{} {}:{:.0}] ",
                heat_char(c.tflops_base, lo, hi),
                mark,
                c.hidden,
                c.tflops_base
            );
        }
        println!();
    }
    println!("    '!' marks head-dim %% 8 == 0 (the paper's A–H candidates)");

    // right panel: flash boost for eligible cells
    let mut eligible: Vec<_> = cells.iter().filter(|c| c.head_mod8).collect();
    eligible.sort_by(|a, b| b.tflops_base.partial_cmp(&a.tflops_base).unwrap());
    let rows: Vec<Vec<String>> = eligible
        .iter()
        .take(8)
        .enumerate()
        .map(|(i, c)| {
            vec![
                format!("{}", (b'A' + i as u8) as char),
                format!("{}x{} (head {})", c.layers, c.hidden, c.head_dim),
                format!("{:.1}", c.tflops_base),
                format!(
                    "{:.1} (+{:.0}%)",
                    c.tflops_v1,
                    100.0 * (c.tflops_v1 / c.tflops_base - 1.0)
                ),
                format!(
                    "{:.1} (+{:.0}%)",
                    c.tflops_v2,
                    100.0 * (c.tflops_v2 / c.tflops_base - 1.0)
                ),
            ]
        })
        .collect();
    print_table(
        "Fig. 4 (right): flash-attention boost for the A–H architectures",
        &["id", "architecture", "base", "flash v1", "flash v2"],
        &rows,
    );

    // headline comparisons
    println!("\n-- paper vs measured --");
    compare(
        "throughput range across grid (TFLOPS)",
        "58 – 76",
        &format!("{lo:.0} – {hi:.0}"),
        if (50.0..70.0).contains(&lo) && (70.0..85.0).contains(&hi) {
            "MATCH"
        } else {
            "CHECK"
        },
    );
    let best = cells
        .iter()
        .max_by(|a, b| a.tflops_base.partial_cmp(&b.tflops_base).unwrap())
        .unwrap();
    compare(
        "best architecture",
        "24 layers, hidden 2304",
        &format!("{} layers, hidden {}", best.layers, best.hidden),
        if (best.layers, best.hidden) == (24, 2304) {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    let v1_eligible: Vec<_> = cells
        .iter()
        .filter(|c| c.head_mod8 && c.head_dim <= 128)
        .collect();
    let b1: f64 = v1_eligible
        .iter()
        .map(|c| c.tflops_v1 / c.tflops_base - 1.0)
        .sum::<f64>()
        / v1_eligible.len() as f64;
    let v2_eligible: Vec<_> = cells.iter().filter(|c| c.head_mod8).collect();
    let b2: f64 = v2_eligible
        .iter()
        .map(|c| c.tflops_v2 / c.tflops_base - 1.0)
        .sum::<f64>()
        / v2_eligible.len() as f64;
    compare(
        "mean flash v1 boost",
        "~14%",
        &format!("{:.0}%", b1 * 100.0),
        if (0.08..0.22).contains(&b1) {
            "MATCH"
        } else {
            "CHECK"
        },
    );
    compare(
        "mean flash v2 boost",
        "~19%",
        &format!("{:.0}%", b2 * 100.0),
        if (0.12..0.28).contains(&b2) {
            "MATCH"
        } else {
            "CHECK"
        },
    );
    compare(
        "best overall with flash (TFLOPS/GCD)",
        "82 (v1) / 84 (v2)",
        &format!("{:.0} / {:.0}", best.tflops_v1, best.tflops_v2),
        "shape",
    );
    Ok(())
}
