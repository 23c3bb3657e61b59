//! Regenerates Fig. 1: evolution of LLM architecture releases since 2018.

use super::Ctx;
use crate::print_table;
use matgpt_core::releases::{counts_by_year, Branch};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let counts = counts_by_year();
    let rows: Vec<Vec<String>> = counts
        .iter()
        .map(|(year, c)| {
            vec![
                year.to_string(),
                c[0].to_string(),
                c[1].to_string(),
                c[2].to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig. 1: major LLM releases per year by architecture branch",
        &[
            "year",
            Branch::EncoderOnly.label(),
            Branch::EncoderDecoder.label(),
            Branch::DecoderOnly.label(),
        ],
        &rows,
    );
    println!("\nbar view (each # = one release, d = decoder-only, e = encoder-only, x = enc-dec):");
    for (year, c) in &counts {
        println!(
            "{year}  {}{}{}",
            "e".repeat(c[0]),
            "x".repeat(c[1]),
            "d".repeat(c[2])
        );
    }
    let y21 = counts.iter().find(|(y, _)| *y == 2021).unwrap().1;
    println!(
        "\npaper: \"Starting from 2021, the GPT architecture dominates\" — measured 2021: \
         decoder-only {} vs encoder-only {} [{}]",
        y21[2],
        y21[0],
        if y21[2] > y21[0] { "MATCH" } else { "MISMATCH" }
    );
    Ok(())
}
