//! Regenerates Table I: data sources for MatGPT, paper numbers plus the
//! synthetic pipeline's realised document/token counts.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_corpus::sources::{totals, SOURCES};
use matgpt_corpus::{build_corpus, CorpusConfig, TokenDataset};
use matgpt_tokenizer::BpeTokenizer;

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    // paper's registry
    let rows: Vec<Vec<String>> = SOURCES
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                format!("{}M", s.abstracts_m),
                if s.full_text_m > 0.0 {
                    format!("{}M", s.full_text_m)
                } else {
                    "-".to_string()
                },
                format!("{}B", s.tokens_b),
            ]
        })
        .collect();
    let (a, f, t) = totals();
    let mut all = rows;
    all.push(vec![
        "All".into(),
        format!("{a}M"),
        format!("{f}M"),
        format!("{t}B"),
    ]);
    print_table(
        "Table I (paper): Data Sources for MatGPT",
        &["Source", "#abstract", "#full-text", "#tokens"],
        &all,
    );

    // synthetic pipeline at reproduction scale
    let corpus = build_corpus(&CorpusConfig::default());
    let tok = BpeTokenizer::train(&corpus.documents, 1024);
    let ds = TokenDataset::new(&corpus.documents, &tok, 0.0, 0);
    let rows: Vec<Vec<String>> = corpus
        .stats
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.generated.to_string(),
                s.kept.to_string(),
                format!("{:.0}%", 100.0 * s.kept as f64 / s.generated.max(1) as f64),
            ]
        })
        .collect();
    print_table(
        "Synthetic reproduction: per-source generation and screening",
        &["Source", "generated", "kept", "kept %"],
        &rows,
    );
    println!(
        "\nscreening accuracy (held-out): {:.3}",
        corpus.screening_accuracy
    );
    println!("total kept documents: {}", corpus.documents.len());
    println!("total tokens after BPE: {}", ds.train_tokens());

    println!("\n-- paper vs measured --");
    compare(
        "SCOPUS arrives pre-filtered",
        "yes",
        "yes",
        if corpus
            .stats
            .iter()
            .any(|s| s.name == "SCOPUS" && s.kept == s.generated)
        {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    let unfiltered_drop = corpus
        .stats
        .iter()
        .filter(|s| s.name != "SCOPUS")
        .all(|s| s.kept < s.generated);
    compare(
        "unfiltered sources lose documents to screening",
        "yes",
        "yes",
        if unfiltered_drop { "MATCH" } else { "MISMATCH" },
    );
    Ok(())
}
