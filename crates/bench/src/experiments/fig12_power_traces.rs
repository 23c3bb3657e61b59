//! Regenerates Fig. 12: power, memory and GPU-utilisation traces for
//! training MatGPT 1.7B and 6.7B with 256 GCDs.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_frontier_sim::{device_trace, simulate_step, PowerModel, Strategy, TrainSetup};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let pm = PowerModel::default();
    let mut means = Vec::new();
    for (label, cfg, strat, mb) in [
        (
            "1.7B",
            GptConfig::paper_1_7b(ArchKind::Llama, 52_000),
            Strategy::DataParallel,
            8usize,
        ),
        (
            "6.7B",
            GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
            Strategy::Zero1,
            2,
        ),
    ] {
        let mut setup = TrainSetup::new(cfg, 256, strat);
        setup.micro_batch = mb;
        let report = simulate_step(&setup);
        let trace = device_trace(&setup, &report, &pm, 3, report.step_s / 60.0);
        let mean_p: f64 = trace.iter().map(|s| s.power_w).sum::<f64>() / trace.len() as f64;
        let min_p = trace
            .iter()
            .map(|s| s.power_w)
            .fold(f64::INFINITY, f64::min);
        let max_p = trace.iter().map(|s| s.power_w).fold(0.0f64, f64::max);
        let mem = trace[0].memory_pct;
        let util: f64 = trace.iter().map(|s| s.utilization_pct).sum::<f64>() / trace.len() as f64;
        means.push((label, mean_p, max_p - min_p));
        print_table(
            &format!("Fig. 12 — rocm-smi trace summary: {label} (3 steps, 256 GCDs)"),
            &["metric", "value"],
            &[
                vec!["mean power (W/MI250X)".to_string(), format!("{mean_p:.0}")],
                vec![
                    "power oscillation (max-min W)".to_string(),
                    format!("{:.0}", max_p - min_p),
                ],
                vec!["memory used (% HBM)".to_string(), format!("{mem:.0}")],
                vec![
                    "mean reported GPU util (%)".to_string(),
                    format!("{util:.0}"),
                ],
            ],
        );
        // ASCII strip of the power trace (subsampled)
        println!("power: ");
        for s in trace.iter().step_by(6) {
            let bars = ((s.power_w / pm.compute_w) * 40.0) as usize;
            println!("  t={:6.2}s |{}", s.t_s, "#".repeat(bars));
        }
    }

    println!("\n-- paper vs measured --");
    compare(
        "mean power 1.7B > 6.7B",
        "476 W vs 434 W",
        &format!("{:.0} W vs {:.0} W", means[0].1, means[1].1),
        if means[0].1 > means[1].1 {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    compare(
        "6.7B power oscillates more (longer comm phases)",
        "larger oscillation",
        &format!("{:.0} W vs {:.0} W swing", means[1].2, means[0].2),
        if means[1].2 >= means[0].2 {
            "MATCH"
        } else {
            "CHECK"
        },
    );
    println!(
        "paper: \"the near 100% GPU utilization for both cases is not a good indicator ...\n\
         Power actually correlates more closely with computational performance.\" — the\n\
         simulated utilisation pins at ~99% while power tracks the compute/comm phases."
    );
    Ok(())
}
