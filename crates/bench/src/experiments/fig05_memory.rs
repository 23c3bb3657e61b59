//! Regenerates Fig. 5: peak memory (as % of a 64 GiB GCD) for MatGPT 1.7B
//! training with and without flash attention, sequence lengths 2K–32K.
//! Also runs the *real* CPU kernels to show the same quadratic-vs-linear
//! auxiliary-memory law, independent of the analytic model.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_frontier_sim::{max_seq_len, peak_memory_gib, FlashVersion, Partitioning};
use matgpt_model::{ArchKind, GptConfig};
use matgpt_tensor::kernels::attention::{attention_fwd, AttentionImpl};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let cfg = GptConfig::paper_1_7b(ArchKind::NeoX, 52_000);
    let part = Partitioning::data_parallel(1);
    let hbm = 64.0;

    let mut rows = Vec::new();
    let mut seq = 2048usize;
    while seq <= 32_768 {
        let scfg = GptConfig {
            max_seq: seq,
            ..cfg.clone()
        };
        let none = peak_memory_gib(&scfg, 1, seq, FlashVersion::None, &part);
        let flash = peak_memory_gib(&scfg, 1, seq, FlashVersion::V2, &part);
        let fmt = |gib: f64| {
            if gib > hbm {
                format!("OOM ({:.0}%)", gib / hbm * 100.0)
            } else {
                format!("{:.0}%", gib / hbm * 100.0)
            }
        };
        rows.push(vec![seq.to_string(), fmt(none), fmt(flash)]);
        seq *= 2;
    }
    print_table(
        "Fig. 5: peak memory (% of 64 GiB) for MatGPT 1.7B training",
        &["seq len", "no flash", "flash"],
        &rows,
    );

    let max_none = max_seq_len(&cfg, 1, FlashVersion::None, &part, hbm);
    let max_flash = max_seq_len(&cfg, 1, FlashVersion::V2, &part, hbm);
    println!("\n-- paper vs measured (analytic model) --");
    compare(
        "max sequence without flash",
        "8192 (OOM beyond)",
        &max_none.to_string(),
        if max_none == 8192 {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    compare(
        "max sequence with flash",
        "32768 (~4x)",
        &max_flash.to_string(),
        if max_flash == 32_768 {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );

    // ground truth from the real CPU kernels: auxiliary bytes saved by the
    // forward pass for the backward pass
    println!("\n== real CPU kernel check: attention auxiliary memory ==");
    let (bh, d) = (2usize, 16usize);
    let mut rows = Vec::new();
    for t in [64usize, 128, 256, 512] {
        let q: Vec<f32> = (0..bh * t * d).map(|i| (i as f32 * 0.01).sin()).collect();
        let (_, naive) = attention_fwd(&q, &q, &q, bh, t, d, AttentionImpl::Naive, true);
        let (_, flash) = attention_fwd(&q, &q, &q, bh, t, d, AttentionImpl::Flash, true);
        rows.push(vec![
            t.to_string(),
            naive.aux_bytes().to_string(),
            flash.aux_bytes().to_string(),
        ]);
    }
    print_table(
        "auxiliary bytes saved for backward (BH=2, D=16)",
        &["seq len", "naive (O(T^2))", "flash (O(T))"],
        &rows,
    );
    println!("doubling T quadruples the naive column and doubles the flash column —\nthe same law the Fig. 5 curves follow.");
    Ok(())
}
