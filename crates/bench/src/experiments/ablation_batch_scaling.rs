//! Extension study the paper sketches but does not run: "in practice, the
//! per-device batch size can be increased to improve the scaling
//! performance" (Sec. IV-B, ZeRO discussion).
//!
//! We sweep the per-GCD micro-batch for 6.7B ZeRO-1 at 256 GCDs — made
//! possible by ZeRO's sharded optimizer states freeing HBM — and watch
//! communication amortise away.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_frontier_sim::{simulate_step, Strategy, TrainSetup};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let cfg = GptConfig::paper_6_7b(ArchKind::Llama, 52_000);
    let mut rows = Vec::new();
    let mut first = None;
    let mut best = 0.0f64;
    for mb in [1usize, 2, 4, 8, 16] {
        let mut setup = TrainSetup::new(cfg.clone(), 256, Strategy::Zero1);
        setup.micro_batch = mb;
        let r = simulate_step(&setup);
        if first.is_none() {
            first = Some(r.tflops_per_gcd);
        }
        if r.fits_memory {
            best = best.max(r.tflops_per_gcd);
        }
        let (_, comm, _) = r.breakdown();
        rows.push(vec![
            mb.to_string(),
            format!("{:.1}", r.memory_gib),
            if r.fits_memory {
                "yes".into()
            } else {
                "OOM".into()
            },
            format!("{:.1}", r.tflops_per_gcd),
            format!("{:.0}%", comm * 100.0),
        ]);
    }
    print_table(
        "Extension: per-device batch sweep — 6.7B, ZeRO-1, 256 GCDs",
        &[
            "micro-batch",
            "mem GiB/GCD",
            "fits",
            "TFLOPS/GCD",
            "exposed comm",
        ],
        &rows,
    );

    println!("\n-- paper vs measured --");
    let gain = best / first.unwrap();
    compare(
        "larger per-device batch recovers ZeRO efficiency",
        "suggested, not measured",
        &format!(
            "{:.1} -> {:.1} TFLOPS/GCD ({:+.0}%)",
            first.unwrap(),
            best,
            (gain - 1.0) * 100.0
        ),
        if gain > 1.05 {
            "CONFIRMS the paper's suggestion"
        } else {
            "CHECK"
        },
    );

    // and the memory headroom ZeRO creates is exactly why this is possible
    let mut dp_like = TrainSetup::new(cfg, 256, Strategy::TensorParallel(2));
    dp_like.micro_batch = 16;
    let tp = simulate_step(&dp_like);
    println!(
        "\nfor contrast, TP=2 at micro-batch 16 uses {:.1} GiB/GCD (fits: {}) — ZeRO's\n\
         sharded optimizer states are what open the batch-size headroom.",
        tp.memory_gib, tp.fits_memory
    );
    Ok(())
}
