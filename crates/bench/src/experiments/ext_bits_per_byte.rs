//! Extension resolving the paper's Observation 3: raw losses across
//! tokenizers/vocabularies "are not comparable" — but **bits per byte**
//! is. We train the tokenizer-axis models of Fig. 13 and score them all
//! on the *same held-out text*, making the comparison the paper could not
//! make directly.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_core::{pretrain, OptChoice, PretrainConfig, SizeRole};
use matgpt_corpus::{build_corpus, CorpusConfig};
use matgpt_eval::text_metrics;
use matgpt_model::ArchKind;
use matgpt_tokenizer::TokenizerKind;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let corpus = build_corpus(&CorpusConfig {
        n_materials: 200,
        total_docs: 700,
        offtopic_fraction: 0.25,
        seed: 55,
    });
    let (train_docs, held_out) = corpus.documents.split_at(corpus.documents.len() - 40);
    let train_docs = train_docs.to_vec();
    let held_out = held_out.to_vec();

    let mut rows = Vec::new();
    let mut bpbs = Vec::new();
    for (tok, vocab) in [
        (TokenizerKind::Hf, 768usize),
        (TokenizerKind::Hf, 448),
        (TokenizerKind::Spm, 448),
    ] {
        let mut cfg =
            PretrainConfig::scaled(ArchKind::Llama, tok, vocab, OptChoice::Adam, SizeRole::Base);
        cfg.steps = if ctx.smoke { 40 } else { 150 };
        let trained = pretrain(&train_docs, &cfg);
        let m = text_metrics(
            &trained.model,
            &trained.store,
            trained.tokenizer.as_ref(),
            &held_out,
        );
        rows.push(vec![
            cfg.label(),
            format!("{:.3}", trained.curves.final_val()),
            format!("{:.3}", m.nll_per_token),
            format!("{:.3}", m.bits_per_byte),
            m.tokens.to_string(),
        ]);
        bpbs.push((cfg.label(), m.bits_per_byte));
    }
    print_table(
        "Extension: same held-out text, three tokenizations (Observation 3 resolved)",
        &[
            "experiment",
            "val loss (own tokens)",
            "held-out NLL/token",
            "bits/byte",
            "tokens",
        ],
        &rows,
    );

    println!("\n-- paper vs measured --");
    let spread_loss = {
        let a: f64 = rows[0][2].parse().unwrap();
        let b: f64 = rows[2][2].parse().unwrap();
        (a - b).abs() / a
    };
    compare(
        "token-level losses disagree across tokenizers",
        "not comparable (Obs. 3)",
        &format!("{:.0}% apart on the same text", spread_loss * 100.0),
        if spread_loss > 0.02 { "MATCH" } else { "CHECK" },
    );
    // bits/byte doesn't shrink the numbers — it makes the ranking
    // *meaningful*: the larger HF vocabulary should win on the byte scale,
    // consistent with the paper's zero-shot vocabulary finding
    let hf_large = bpbs[0].1;
    let best = bpbs
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    compare(
        "bits/byte ranking: larger vocabulary wins",
        "52K > 32K on science text (Fig. 14)",
        &format!("best = {} ({:.3} b/B)", best.0, best.1),
        if (best.1 - hf_large).abs() < 1e-12 {
            "MATCH"
        } else {
            "CHECK"
        },
    );
    Ok(())
}
