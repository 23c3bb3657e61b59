//! Extension: executed tensor + pipeline parallelism — the measured
//! counterpart of the simulator's TP/PP pricing (Figs. 7, 11).
//!
//! Where `fig07_parallelism` *prices* Megatron TP and 1F1B PP with the
//! α-β machine model, this experiment *runs* them on `core::parallel`'s
//! topology executor and reports two things:
//!
//! * **Fig. 11 histogram** — the executed run's per-collective
//!   message-size histogram (logical buffer bytes per call, shares
//!   weighted by wire traffic) must agree with the simulator's
//!   `Strategy::TensorParallel(2)` message breakdown at ≥ 0.9 overlap
//!   once the simulator is pointed at the same dtype (f32 rings, so
//!   `dtype_bytes = 4.0`) and micro-batch. Same sync-point census —
//!   4 allreduces per layer of `rows·seq·hidden` scalars.
//! * **PP bubble** — the 1F1B schedule's idle fraction follows the
//!   `(p−1)/(p−1+chunks)` closed form; every chunk count trains to the
//!   same validation loss with its p2p bytes on the closed form.
//!
//! What TP=2 and PP=2 cost in wall time is `core.tp2_call_ms` and
//! `core.pp2_call_ms` in `perf/`; bitwise equality with the sequential
//! reference is held by `tests/parallelism.rs`.

use super::{base_recipe, small_corpus, Ctx};
use crate::{compare, print_table, verdict};
use matgpt_core::parallel::{train_topology, Topology};
use matgpt_core::PretrainConfig;
use matgpt_frontier_sim::collectives::Collective;
use matgpt_frontier_sim::{simulate_step, Strategy, TrainSetup};
use matgpt_model::ArchKind;
use std::collections::HashMap;

/// What [`run`] prints, for `tests/executed_claims.rs`.
pub struct TpNumbers {
    /// Overlap of the executed and simulated TP=2 message histograms.
    pub fig11_tp_agreement: f64,
    /// Every rank's wire bytes hit the ring / p2p closed forms, on the
    /// TP=2 run and on every PP=2 run.
    pub wire_exact: bool,
}

/// Overlap of two message-size histograms, both as shares of wire
/// traffic keyed by (collective, logical buffer bytes):
/// `Σ_bins min(share_a, share_b)` ∈ [0, 1].
fn histogram_agreement(exec: &[(Collective, u64, f64)], sim: &[(Collective, f64, f64)]) -> f64 {
    let mut a: HashMap<(Collective, u64), f64> = HashMap::new();
    for &(k, b, s) in exec {
        *a.entry((k, b)).or_insert(0.0) += s;
    }
    let mut b: HashMap<(Collective, u64), f64> = HashMap::new();
    for &(k, bytes, s) in sim {
        *b.entry((k, bytes.round() as u64)).or_insert(0.0) += s;
    }
    a.iter()
        .map(|(key, &sa)| sa.min(b.get(key).copied().unwrap_or(0.0)))
        .sum()
}

/// Train TP=2 and PP=2 grids and compare them with the simulator.
pub fn run(ctx: &Ctx) -> Result<TpNumbers, String> {
    let documents = small_corpus(23);
    let cfg = PretrainConfig {
        steps: if ctx.smoke { 2 } else { 4 },
        batch_seqs: 8,
        seq: 32,
        ..base_recipe(ArchKind::Llama)
    };
    let train = |topo| train_topology(&documents, &cfg, topo).map_err(|e| format!("{topo:?}: {e}"));

    // ---- executed TP=2 vs the simulator's Fig. 11 message breakdown
    let exec = train(Topology::new(1, 2, 1))?;
    let mut wire_exact = exec.report.wire_exact();
    let mut setup = TrainSetup::new(exec.model.cfg.clone(), 2, Strategy::TensorParallel(2));
    setup.micro_batch = cfg.batch_seqs;
    setup.seq = cfg.seq;
    setup.dtype_bytes = 4.0; // the executor's rings carry f32
    let sim = simulate_step(&setup);
    let fig11_tp_agreement =
        histogram_agreement(&exec.report.message_shares(), &sim.message_shares());

    print_table(
        "Executed TP=2 vs simulated message histogram (Fig. 11)",
        &[
            "source",
            "collective",
            "buffer bytes",
            "share of wire traffic",
        ],
        &exec
            .report
            .message_shares()
            .iter()
            .map(|(k, b, s)| {
                vec![
                    "executed".into(),
                    k.name().to_string(),
                    b.to_string(),
                    format!("{s:.4}"),
                ]
            })
            .chain(sim.message_shares().iter().map(|(k, b, s)| {
                vec![
                    "simulated".into(),
                    k.name().to_string(),
                    format!("{b:.0}"),
                    format!("{s:.4}"),
                ]
            }))
            .collect::<Vec<_>>(),
    );

    // ---- PP bubble: closed form per chunk count
    let chunk_counts: &[usize] = if ctx.smoke { &[1, 4] } else { &[1, 2, 4] };
    let mut pp_rows = Vec::new();
    for &c in chunk_counts {
        let out = train(Topology::new(1, 1, 2).with_chunks(c))?;
        wire_exact &= out.report.wire_exact();
        let bubble = 1.0 / (1.0 + c as f64); // (p−1)/(p−1+chunks) at p=2
        pp_rows.push(vec![
            c.to_string(),
            format!("{bubble:.3}"),
            format!("{:.4}", out.final_val),
        ]);
    }
    print_table(
        "Executed PP=2 1F1B (bubble closed form (p−1)/(p−1+chunks))",
        &["chunks", "bubble", "final val loss"],
        &pp_rows,
    );

    println!("\n-- reference vs measured --");
    compare(
        "Fig. 11 message-histogram agreement (TP=2)",
        ">= 0.9 share overlap",
        &format!("{fig11_tp_agreement:.4}"),
        verdict(fig11_tp_agreement >= 0.9),
    );
    compare(
        "per-rank wire bytes, TP=2 rings and PP=2 links",
        "exactly the closed forms",
        if wire_exact { "exact" } else { "off" },
        verdict(wire_exact),
    );
    Ok(TpNumbers {
        fig11_tp_agreement,
        wire_exact,
    })
}
