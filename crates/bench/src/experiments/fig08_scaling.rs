//! Regenerates Fig. 8: (top) throughput scaling from 8 to 256 GCDs for
//! 1.7B-DP, 6.7B-ZeRO1 and 6.7B-TP2; (bottom) the rocprof-style
//! compute/communication/IO breakdown at 256 GCDs.

use super::Ctx;
use crate::{compare, print_series, print_table};
use matgpt_frontier_sim::{simulate_step, Strategy, TrainSetup};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let gcd_counts = [8usize, 16, 32, 64, 128, 256];
    let configs: Vec<(&str, GptConfig, Strategy)> = vec![
        (
            "1.7B DP",
            GptConfig::paper_1_7b(ArchKind::Llama, 52_000),
            Strategy::DataParallel,
        ),
        (
            "6.7B ZeRO=1",
            GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
            Strategy::Zero1,
        ),
        (
            "6.7B TP=2",
            GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
            Strategy::TensorParallel(2),
        ),
    ];

    let mut table = Vec::new();
    let mut at256 = Vec::new();
    let mut at8 = Vec::new();
    let mut at64 = Vec::new();
    for (label, cfg, strat) in &configs {
        let mut series = Vec::new();
        for &n in &gcd_counts {
            let setup = TrainSetup::new(cfg.clone(), n, *strat);
            let r = simulate_step(&setup);
            series.push((n, r.aggregate_pflops));
            if n == 256 {
                at256.push((*label, r.clone()));
            }
            if n == 8 {
                at8.push((*label, r.tflops_per_gcd));
            }
            if n == 64 {
                at64.push((*label, r.tflops_per_gcd));
            }
            table.push(vec![
                label.to_string(),
                n.to_string(),
                format!("{:.1}", r.tflops_per_gcd),
                format!("{:.2}", r.aggregate_pflops),
            ]);
        }
        print_series(&format!("aggregate PFLOPS — {label}"), &series);
    }
    print_table(
        "Fig. 8 (top): scaling of training throughput",
        &["config", "GCDs", "TFLOPS/GCD", "aggregate PFLOPS"],
        &table,
    );

    let rows: Vec<Vec<String>> = at256
        .iter()
        .map(|(label, r)| {
            let (c, m, i) = r.profile_breakdown();
            vec![
                label.to_string(),
                format!("{:.0}%", c * 100.0),
                format!("{:.0}%", m * 100.0),
                format!("{:.0}%", i * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig. 8 (bottom): rocprof kernel-time breakdown at 256 GCDs",
        &[
            "config",
            "compute",
            "communication (RCCL)",
            "IO (data movement)",
        ],
        &rows,
    );

    println!("\n-- paper vs measured --");
    let dp256 = at256
        .iter()
        .find(|(l, _)| *l == "1.7B DP")
        .unwrap()
        .1
        .clone();
    let dp8 = at8.iter().find(|(l, _)| *l == "1.7B DP").unwrap().1;
    let eff = dp256.tflops_per_gcd / dp8;
    compare(
        "1.7B DP aggregate at 256 GCDs",
        ">18 PFLOPS",
        &format!("{:.1} PFLOPS", dp256.aggregate_pflops),
        if dp256.aggregate_pflops > 15.0 {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    compare(
        "1.7B DP scaling efficiency",
        "88%",
        &format!("{:.0}%", eff * 100.0),
        if eff > 0.75 { "MATCH" } else { "CHECK" },
    );
    let z64 = at64.iter().find(|(l, _)| *l == "6.7B ZeRO=1").unwrap().1;
    let z256 = at256
        .iter()
        .find(|(l, _)| *l == "6.7B ZeRO=1")
        .unwrap()
        .1
        .tflops_per_gcd;
    let t256 = at256
        .iter()
        .find(|(l, _)| *l == "6.7B TP=2")
        .unwrap()
        .1
        .tflops_per_gcd;
    compare(
        "ZeRO-1 drops beyond 64 GPUs",
        "yes",
        &format!("{z64:.0} -> {z256:.0}"),
        if z256 < z64 * 0.95 {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    compare(
        "TP=2 beats ZeRO-1 at 256 GPUs",
        "yes (71% scaling eff.)",
        &format!("TP {t256:.0} vs ZeRO {z256:.0}"),
        if t256 > z256 { "MATCH" } else { "MISMATCH" },
    );
    let (_, comm, io) = at256
        .iter()
        .find(|(l, _)| *l == "6.7B ZeRO=1")
        .unwrap()
        .1
        .profile_breakdown();
    compare(
        "6.7B ZeRO comm share of kernel time",
        "~40%",
        &format!("{:.0}%", comm * 100.0),
        if (0.2..0.6).contains(&comm) {
            "MATCH"
        } else {
            "CHECK"
        },
    );
    compare(
        "IO share (ZeRO has the most data movement)",
        "~5%",
        &format!("{:.0}%", io * 100.0),
        if (0.01..0.12).contains(&io) {
            "MATCH"
        } else {
            "CHECK"
        },
    );
    Ok(())
}
