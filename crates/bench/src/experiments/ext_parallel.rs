//! Extension: executed data-parallel training — the measured
//! counterpart of the simulator's Figs. 7–10 scaling claims.
//!
//! Where `fig07_parallelism` *prices* DP/ZeRO scaling with the α-β
//! machine model, this experiment *runs* it: `core::parallel` trains real
//! replicas over a hand-rolled ring allreduce and the numbers here are
//! measured, not modelled. Three claims are checked:
//!
//! * **Throughput** — the bulk-synchronous critical path shrinks with
//!   worker count (paper Fig. 8's data-parallel regime, where gradient
//!   math dominates sync); printed, not gated.
//! * **Traffic** — mean per-rank gradient-sync bytes land *exactly* on
//!   the `2(N−1)/N · 4M` ring-allreduce closed form the simulator
//!   prices (Fig. 11's volume accounting), measured on the channels.
//! * **Memory** — ZeRO-1 cuts the largest per-worker optimizer-state
//!   footprint to ≤ 0.35× the replicated bytes at 4 workers (Fig. 5's
//!   optimizer-state term of the memory model).
//!
//! The speedup column is the contention-free reference executor's
//! critical path — an explanation, not a wall-clock claim (the wall
//! number is `core.dp2_call_ms` in `perf/`); see PARALLELISM.md. The
//! bitwise and byte-exact claims are held by `tests/parallelism.rs`.

use super::{base_recipe, small_corpus, Ctx};
use crate::{compare, print_table, verdict};
use matgpt_core::parallel::{DataParallel, ParallelConfig, ParallelOutcome};
use matgpt_core::PretrainConfig;
use matgpt_frontier_sim::collectives::{wire_bytes, Collective};
use matgpt_frontier_sim::{simulate_step, Strategy, TrainSetup};
use matgpt_model::{ArchKind, GptConfig};

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let smoke = ctx.smoke;
    let documents = small_corpus(23);
    let cfg = PretrainConfig {
        steps: if smoke { 4 } else { 8 },
        batch_seqs: 8,
        seq: if smoke { 32 } else { 48 },
        ..base_recipe(ArchKind::Llama)
    };
    let worker_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    // ---- throughput: contention-free critical path vs worker count
    let runs: Vec<ParallelOutcome> = worker_counts
        .iter()
        .map(|&n| DataParallel::train_reference(&documents, &cfg, n))
        .collect();
    let base_ms = runs[0].report.critical_path_ms();
    let speedups: Vec<f64> = runs
        .iter()
        .map(|r| base_ms / r.report.critical_path_ms())
        .collect();
    let dp_speedup_4w = speedups[worker_counts.iter().position(|&n| n == 4).unwrap()];

    // different worker counts group the micro-gradient sum differently,
    // so curves are only bitwise comparable at equal N — here just
    // check every run trained to a finite loss
    for r in &runs {
        assert!(
            r.pretrained.curves.final_train().is_finite(),
            "reference run diverged"
        );
    }

    // ---- the threaded executor must reproduce the reference bitwise,
    // and its measured channel traffic must land on the closed form
    let check_n = if smoke { 2 } else { 4 };
    let idx = worker_counts.iter().position(|&n| n == check_n).unwrap();
    let threaded = DataParallel::new(ParallelConfig::replicated(check_n)).train(&documents, &cfg);
    assert_eq!(
        threaded.pretrained.curves.train, runs[idx].pretrained.curves.train,
        "threaded executor must match the sequential reference bitwise"
    );
    assert_eq!(
        threaded.pretrained.store.flat_values(),
        runs[idx].pretrained.store.flat_values(),
        "final weights must match bitwise"
    );
    let m = threaded.report.param_scalars;
    let formula = wire_bytes(Collective::AllReduce, (m * 4) as f64, check_n);
    let measured = threaded.report.measured_allreduce_bytes_per_step;

    // ---- ZeRO-1 memory: replicated vs sharded optimizer state at 4
    let four = worker_counts.iter().position(|&n| n == 4).unwrap();
    let zero1 = DataParallel::new(ParallelConfig::zero1(4)).train(&documents, &cfg);
    assert_eq!(
        zero1.pretrained.curves.train, runs[four].pretrained.curves.train,
        "ZeRO-1 must not change the training computation"
    );
    let replicated_opt_bytes = 8 + m * 2 * 4; // Adam: step counter + m,v moments
    let max_shard = zero1.report.max_opt_state_bytes();
    let zero1_opt_state_reduction_4w = replicated_opt_bytes as f64 / max_shard as f64;

    print_table(
        &format!(
            "Executed data parallelism (LLaMA base, {} steps, global batch {}, seq {}, M={} params)",
            cfg.steps, cfg.batch_seqs, cfg.seq, m
        ),
        &["workers", "critical path ms", "speedup", "per-rank sync KiB/step"],
        &worker_counts
            .iter()
            .zip(&runs)
            .zip(&speedups)
            .map(|((&n, r), &s)| {
                vec![
                    n.to_string(),
                    format!("{:.1}", r.report.critical_path_ms()),
                    format!("{s:.2}x"),
                    format!(
                        "{:.1}",
                        wire_bytes(Collective::AllReduce, (m * 4) as f64, n) / 1024.0
                    ),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nZeRO-1 at 4 workers: optimizer state {} B replicated -> max shard {} B \
         ({zero1_opt_state_reduction_4w:.2}x reduction); shard scalars {:?}",
        replicated_opt_bytes, max_shard, zero1.report.shard_scalars
    );

    // ---- cross-validate the simulator's DP scaling shape: its priced
    // per-rank allreduce seconds must grow with N like the volume
    // formula the executor was measured to emit (the simulator moves
    // bf16 gradients, the executor f32 — shapes match, scales differ)
    let sim_cfg = GptConfig::tiny(ArchKind::Llama, 1024);
    let sim_comm: Vec<f64> = worker_counts
        .iter()
        .map(|&n| {
            if n < 2 {
                return 0.0;
            }
            let setup = TrainSetup::new(sim_cfg.clone(), n, Strategy::DataParallel);
            simulate_step(&setup).comm_s
        })
        .collect();
    println!("\n-- simulator cross-check (priced DP comm seconds per step) --");
    for (i, (&n, &c)) in worker_counts.iter().zip(&sim_comm).enumerate() {
        let vol = wire_bytes(Collective::AllReduce, (m * 4) as f64, n);
        println!("  N={n}: sim {c:.3e} s, executor volume {vol:.0} B");
        if i > 0 && worker_counts[i - 1] >= 2 {
            assert!(
                c >= sim_comm[i - 1],
                "simulated DP comm must be monotone in N (volume 2(N-1)/N grows)"
            );
        }
    }

    println!("\n-- reference vs measured --");
    let traffic_ok = measured == formula;
    let mem_ok = zero1_opt_state_reduction_4w >= 1.0 / 0.35;
    compare(
        "per-rank allreduce bytes per step, on the channels",
        &format!("{formula:.0} = 2(N-1)/N * 4M"),
        &format!("{measured:.0}"),
        verdict(traffic_ok),
    );
    compare(
        "DP critical-path speedup at 4 workers (reference executor)",
        "explains core.dp2_call_ms",
        &format!("{dp_speedup_4w:.2}x"),
        "INFO",
    );
    compare(
        "ZeRO-1 optimizer-state reduction at 4 workers",
        ">= 2.86x (max shard <= 0.35x replicated)",
        &format!("{zero1_opt_state_reduction_4w:.2}x"),
        verdict(mem_ok),
    );
    Ok(())
}
