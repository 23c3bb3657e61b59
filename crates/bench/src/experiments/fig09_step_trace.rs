//! Regenerates Fig. 9: the runtime and GPU power trace of one training
//! step of MatGPT 6.7B with ZeRO-1 on 256 GCDs, including the per-layer
//! forward zoom.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_frontier_sim::trace::layer_zoom;
use matgpt_frontier_sim::{
    device_trace, simulate_step, step_timeline, PhaseKind, PowerModel, Strategy, TrainSetup,
};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let setup = TrainSetup::new(
        GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
        256,
        Strategy::Zero1,
    );
    let report = simulate_step(&setup);
    let timeline = step_timeline(&setup, &report);

    println!("== Fig. 9: one training step (6.7B, ZeRO-1, 256 GCDs) ==");
    println!(
        "step time {:.3}s — fwd/bwd compute {:.3}s, exposed comm {:.3}s, io {:.3}s",
        report.step_s, report.compute_s, report.comm_exposed_s, report.io_s
    );

    // condensed timeline: phase spans
    let mut spans: Vec<(PhaseKind, f64, f64)> = Vec::new();
    for e in &timeline {
        match spans.last_mut() {
            Some((k, _, end)) if *k == e.kind => *end = e.end_s,
            _ => spans.push((e.kind, e.start_s, e.end_s)),
        }
    }
    let rows: Vec<Vec<String>> = spans
        .iter()
        .map(|(k, s, e)| {
            vec![
                format!("{k:?}"),
                format!("{s:.3}"),
                format!("{e:.3}"),
                format!("{:.3}", e - s),
            ]
        })
        .collect();
    print_table(
        "phase spans within the step",
        &["phase", "start (s)", "end (s)", "dur (s)"],
        &rows,
    );

    // zoom: one forward layer (the paper's boxed snapshot)
    let layer0 = timeline
        .iter()
        .find(|e| e.kind == PhaseKind::Forward)
        .unwrap();
    println!(
        "\nzoom — forward of one of 32 layers ({:.4}s), kernel spans:",
        layer0.duration()
    );
    let zoom = layer_zoom(&setup);
    let total_zoom = zoom.last().map(|k| k.end_s).unwrap_or(1.0);
    for k in &zoom {
        let frac = (k.end_s - k.start_s) / total_zoom;
        println!(
            "  {:<20} {:7.2}us  |{}",
            k.name,
            (k.end_s - k.start_s) * 1e6,
            "#".repeat((frac * 50.0) as usize)
        );
    }

    // power trace across 2 steps
    let pm = PowerModel::default();
    let trace = device_trace(&setup, &report, &pm, 2, report.step_s / 40.0);
    println!("\npower trace (W per MI250X), 2 steps, ASCII:");
    let max = pm.compute_w;
    for chunk in trace.chunks(2) {
        let s = &chunk[0];
        let bars = ((s.power_w / max) * 50.0) as usize;
        println!("t={:6.2}s {:4.0}W |{}", s.t_s, s.power_w, "#".repeat(bars));
    }

    println!("\n-- paper vs measured --");
    let fwd: f64 = timeline
        .iter()
        .filter(|e| e.kind == PhaseKind::Forward)
        .map(|e| e.duration())
        .sum();
    let bwd: f64 = timeline
        .iter()
        .filter(|e| e.kind == PhaseKind::Backward)
        .map(|e| e.duration())
        .sum();
    compare(
        "backward ≈ 2x forward",
        "2x",
        &format!("{:.2}x", bwd / fwd),
        if (1.8..2.2).contains(&(bwd / fwd)) {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    let has_comm_tail = spans.iter().any(|(k, _, _)| *k == PhaseKind::Communication);
    compare(
        "allreduce takes significant time in the backward tail",
        "yes",
        if has_comm_tail { "yes" } else { "no" },
        if has_comm_tail { "MATCH" } else { "MISMATCH" },
    );
    let lo = trace
        .iter()
        .map(|s| s.power_w)
        .fold(f64::INFINITY, f64::min);
    compare(
        "power drops during communication",
        "yes (oscillation)",
        &format!("{lo:.0}W vs {max:.0}W"),
        if lo < max { "MATCH" } else { "MISMATCH" },
    );
    Ok(())
}
