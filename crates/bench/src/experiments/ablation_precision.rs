//! Reproduces the paper's precision aside: "the loss curves for MatGPT
//! 1.7B, trained with float16 and bfloat16, are almost identical" — here
//! with *real* training under emulated 16-bit weight storage (bf16's
//! coarse-grid rounding vs fp16's fine grid with saturation/flush).

use super::Ctx;
use crate::{compare, print_table};
use matgpt_core::{pretrain, OptChoice, PretrainConfig, SizeRole};
use matgpt_corpus::{build_corpus, CorpusConfig};
use matgpt_model::ArchKind;
use matgpt_tensor::Precision;
use matgpt_tokenizer::TokenizerKind;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let corpus = build_corpus(&CorpusConfig {
        n_materials: 150,
        total_docs: 500,
        offtopic_fraction: 0.25,
        seed: 21,
    });

    let mut curves = Vec::new();
    for (name, precision) in [
        ("fp32", Precision::F32),
        ("bf16", Precision::Bf16),
        ("fp16", Precision::F16),
    ] {
        let mut cfg = PretrainConfig::scaled(
            ArchKind::Llama,
            TokenizerKind::Hf,
            512,
            OptChoice::Adam,
            SizeRole::Base,
        );
        cfg.steps = if ctx.smoke { 30 } else { 120 };
        cfg.precision = precision;
        let trained = pretrain(&corpus.documents, &cfg);
        curves.push((name, trained.curves));
    }

    let rows: Vec<Vec<String>> = curves
        .iter()
        .map(|(name, c)| {
            vec![
                name.to_string(),
                format!("{:.4}", c.train.first().unwrap().1),
                format!("{:.4}", c.final_train()),
                format!("{:.4}", c.final_val()),
            ]
        })
        .collect();
    print_table(
        "Precision ablation: identical recipe, emulated weight storage",
        &["precision", "initial loss", "final train", "final val"],
        &rows,
    );

    println!("\n-- paper vs measured --");
    let f32_val = curves[0].1.final_val();
    let bf16_val = curves[1].1.final_val();
    let f16_val = curves[2].1.final_val();
    let spread = ((bf16_val - f16_val) as f64).abs() / f32_val as f64;
    compare(
        "fp16 and bf16 loss curves almost identical",
        "almost identical",
        &format!(
            "val {:.4} vs {:.4} ({:.2}% apart)",
            f16_val,
            bf16_val,
            spread * 100.0
        ),
        if spread < 0.02 { "MATCH" } else { "CHECK" },
    );
    compare(
        "16-bit storage tracks fp32 closely",
        "(implied)",
        &format!("fp32 {f32_val:.4} vs bf16 {bf16_val:.4}"),
        if ((f32_val - bf16_val) / f32_val).abs() < 0.05 {
            "MATCH"
        } else {
            "CHECK"
        },
    );
    println!(
        "\nnote: the paper also notes bf16 \"provides better numerical stability\" — here\n\
         fp16's saturation/flush hazards are emulated but the tiny model's values stay\n\
         well inside fp16 range, so the curves coincide, as the paper found at 1.7B."
    );
    Ok(())
}
