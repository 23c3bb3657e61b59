//! Regenerates Table III: training hyper-parameters, plus the scaled-down
//! recipes the CPU reproduction actually trains with.

use super::Ctx;
use crate::print_table;
use matgpt_core::{experiment_matrix, SuiteScale, TABLE_III};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let rows: Vec<Vec<String>> = TABLE_III
        .iter()
        .map(|r| {
            vec![
                r.model.to_string(),
                r.optimizer.to_string(),
                r.beta1.to_string(),
                r.beta2.to_string(),
                r.lr.to_string(),
                format!("{}M", r.batch_tokens / 1e6),
            ]
        })
        .collect();
    print_table(
        "Table III (paper): training hyper-parameters for MatGPT",
        &["Model", "Optimizer", "beta1", "beta2", "LR", "BS"],
        &rows,
    );

    let scale = SuiteScale::standard();
    let rows: Vec<Vec<String>> = experiment_matrix(&scale)
        .iter()
        .map(|c| {
            vec![
                c.label(),
                c.optimizer.to_string(),
                c.lr.to_string(),
                format!("{} x {}", c.batch_seqs, c.seq),
                c.steps.to_string(),
            ]
        })
        .collect();
    print_table(
        "Scaled-down reproduction recipes (see DESIGN.md for the mapping)",
        &[
            "experiment",
            "optimizer",
            "LR",
            "batch(seqs x len)",
            "steps",
        ],
        &rows,
    );
    println!(
        "\nThe LAMB rows keep the paper's 4x batch ratio over Adam and the\n\
         layer-wise trust-ratio mechanism; absolute sizes are scaled to CPU."
    );
    Ok(())
}
