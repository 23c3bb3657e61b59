//! Regenerates Fig. 7: single-node (8 GCD) training throughput for MatGPT
//! 1.7B and 6.7B under the candidate parallelism strategies.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_frontier_sim::{simulate_step, Strategy, TrainSetup};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let mut rows = Vec::new();
    let run = |cfg: GptConfig, strat: Strategy| {
        let setup = TrainSetup::new(cfg, 8, strat);
        simulate_step(&setup)
    };

    let r17 = run(
        GptConfig::paper_1_7b(ArchKind::Llama, 52_000),
        Strategy::DataParallel,
    );
    rows.push(vec![
        "1.7B".to_string(),
        "DP".to_string(),
        format!("{:.1}", r17.tflops_per_gcd),
        format!("{:.1}", r17.memory_gib),
        "yes".to_string(),
    ]);
    let mut results = vec![("DP-1.7B", r17.tflops_per_gcd)];
    for strat in [
        Strategy::Zero1,
        Strategy::TensorParallel(2),
        Strategy::PipelineParallel(2),
    ] {
        let r = run(GptConfig::paper_6_7b(ArchKind::Llama, 52_000), strat);
        rows.push(vec![
            "6.7B".to_string(),
            strat.label(),
            format!("{:.1}", r.tflops_per_gcd),
            format!("{:.1}", r.memory_gib),
            if r.fits_memory {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
        results.push((Box::leak(strat.label().into_boxed_str()), r.tflops_per_gcd));
    }
    print_table(
        "Fig. 7: single Frontier node (8 GCDs), flash v2",
        &["model", "parallelism", "TFLOPS/GCD", "mem GiB/GCD", "fits"],
        &rows,
    );

    let get = |name: &str| results.iter().find(|(n, _)| *n == name).unwrap().1;
    println!("\n-- paper vs measured --");
    compare(
        "6.7B best single-node strategy",
        "ZeRO-1 (81 TFLOPS/GPU)",
        &format!("ZeRO-1 ({:.0})", get("ZeRO=1")),
        if get("ZeRO=1") > get("TP=2") && get("ZeRO=1") > get("PP=2") {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    compare(
        "PP=2 performs much worse even on one node",
        "yes",
        &format!("PP {:.0} vs TP {:.0}", get("PP=2"), get("TP=2")),
        if get("PP=2") < get("TP=2") {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    Ok(())
}
