//! Regenerates Fig. 11: the RCCL message histogram and aggregated message
//! size per step per GPU for the three distributed-training settings.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_frontier_sim::{simulate_step, Strategy, TrainSetup};
use matgpt_model::count::total_params;
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let run = |cfg: GptConfig, strat: Strategy| {
        let mut setup = TrainSetup::new(cfg, 256, strat);
        setup.micro_batch = 8; // the paper's production per-device batch
        simulate_step(&setup)
    };
    let cfg17 = GptConfig::paper_1_7b(ArchKind::Llama, 52_000);
    let cfg67 = GptConfig::paper_6_7b(ArchKind::Llama, 52_000);
    let cases = [
        (
            "1.7B DP",
            run(cfg17.clone(), Strategy::DataParallel),
            2.0 * total_params(&cfg17) as f64,
        ),
        (
            "6.7B ZeRO=1",
            run(cfg67.clone(), Strategy::Zero1),
            2.0 * total_params(&cfg67) as f64,
        ),
        (
            "6.7B TP=2",
            run(cfg67.clone(), Strategy::TensorParallel(2)),
            2.0 * total_params(&cfg67) as f64,
        ),
    ];

    for (label, r, _) in &cases {
        let rows: Vec<Vec<String>> = r
            .msgs
            .iter()
            .map(|m| {
                vec![
                    m.collective.name().to_string(),
                    format!("{:.1} MB", m.bytes_per_call / 1e6),
                    m.calls.to_string(),
                    m.group.to_string(),
                    format!("{:.2} GB", m.wire_total() / 1e9),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 11 — RCCL calls per step per GPU: {label}"),
            &["collective", "bytes/call", "calls", "group", "wire total"],
            &rows,
        );
    }

    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|(label, r, model_bytes)| {
            vec![
                label.to_string(),
                r.total_calls().to_string(),
                format!("{:.1} GB", r.total_wire_bytes() / 1e9),
                format!("{:.1}x", r.total_wire_bytes() / model_bytes),
            ]
        })
        .collect();
    print_table(
        "aggregated message volume per step per GPU",
        &["config", "RCCL calls", "total wire bytes", "x model size"],
        &rows,
    );

    println!("\n-- paper vs measured --");
    let dp_calls = cases[0].1.total_calls();
    let zero_calls = cases[1].1.total_calls();
    let tp_calls = cases[2].1.total_calls();
    compare(
        "ZeRO/TP calls vs DP",
        ">10x more",
        &format!("{zero_calls}/{tp_calls} vs {dp_calls}"),
        if zero_calls > 10 * dp_calls && tp_calls > 10 * dp_calls {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    let ratio = |i: usize| cases[i].1.total_wire_bytes() / cases[i].2;
    compare(
        "DP total volume",
        "~2x model size",
        &format!("{:.1}x", ratio(0)),
        if (1.5..2.5).contains(&ratio(0)) {
            "MATCH"
        } else {
            "CHECK"
        },
    );
    compare(
        "ZeRO total volume",
        "~2x model size",
        &format!("{:.1}x", ratio(1)),
        if (1.5..2.5).contains(&ratio(1)) {
            "MATCH"
        } else {
            "CHECK"
        },
    );
    compare(
        "TP total volume exceeds ZeRO (extra activation traffic)",
        "~3x model size",
        &format!("{:.1}x", ratio(2)),
        if ratio(2) > ratio(1) {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    Ok(())
}
