//! Ablation behind Observation 2's second sentence: "It is beneficial to
//! map the partition of model parallelism to the platform network topology
//! to maximize the network bandwidth utilization." We place the TP=2 pair
//! on the three possible link classes and measure the cost of each.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_frontier_sim::{simulate_step, Strategy, TpMapping, TrainSetup};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut tflops = Vec::new();
    for (name, mapping, link) in [
        ("same MI250X", TpMapping::IntraMi250x, "200 GB/s"),
        ("same node", TpMapping::IntraNode, "100 GB/s"),
        (
            "across nodes",
            TpMapping::InterNode,
            "100 GB/s + contention",
        ),
    ] {
        let mut s = TrainSetup::new(
            GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
            256,
            Strategy::TensorParallel(2),
        );
        s.tp_mapping = mapping;
        let r = simulate_step(&s);
        rows.push(vec![
            name.to_string(),
            link.to_string(),
            format!("{:.1}", r.tflops_per_gcd),
            format!("{:.3}", r.step_s),
        ]);
        tflops.push(r.tflops_per_gcd);
    }
    print_table(
        "Ablation: TP=2 group placement vs throughput (6.7B, 256 GCDs)",
        &["TP pair placement", "link", "TFLOPS/GCD", "step (s)"],
        &rows,
    );
    println!("\n-- paper vs measured --");
    compare(
        "map model parallelism to topology",
        "intra-MI250X mapping best (Obs. 2)",
        &format!("{:.0} > {:.0} >= {:.0}", tflops[0], tflops[1], tflops[2]),
        if tflops[0] > tflops[1] && tflops[1] >= tflops[2] {
            "MATCH"
        } else {
            "MISMATCH"
        },
    );
    Ok(())
}
