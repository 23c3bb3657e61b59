//! End-to-end critical-path attribution: a 4-worker data-parallel run
//! with one rank stalled must trace, analyze, and cross-check against
//! the simulator.
//!
//! Runs alone in its own process (single test in this file) because it
//! owns the global recorder for the duration of the run.

use matgpt_bench::experiments::{base_recipe, small_corpus};
use matgpt_core::parallel::{DataParallel, ParallelConfig};
use matgpt_core::{FaultPlan, PretrainConfig, RecoveryPolicy, ResilienceConfig};
use matgpt_frontier_sim::parallel::{simulate_step, Strategy, TrainSetup};
use matgpt_model::{ArchKind, GptConfig};
use matgpt_obs::critical_path;
use matgpt_obs::Recorder;

#[test]
fn injected_straggler_is_attributed_and_phase_order_matches_fig9() {
    let rec = Recorder::global();
    rec.clear();
    rec.enable();

    let documents = small_corpus(31);
    let cfg = PretrainConfig {
        steps: 6,
        batch_seqs: 4,
        seq: 32,
        ..base_recipe(ArchKind::Llama)
    };
    // a 300 ms stall on rank 2 — far above a step's natural jitter,
    // far below the failure-detection thresholds, so the epoch
    // completes and the stall shows up only as a straggling step
    let res = ResilienceConfig {
        snapshot_every: 3,
        faults: FaultPlan::stall(2, 2, 300),
        policy: RecoveryPolicy::Respawn,
        ..ResilienceConfig::default()
    };
    let out = DataParallel::new(ParallelConfig::zero1(4)).train_resilient(&documents, &cfg, res);
    rec.disable();
    assert_eq!(out.resilience.faults_fired, 1, "the stall must fire");
    assert!(
        out.resilience.recoveries.is_empty(),
        "a 200 ms stall must not be mistaken for a failure"
    );

    let events = rec.snapshot();
    let flows = rec.flows();
    let tracks = rec.track_names();
    let report = critical_path::analyze(&events, &flows, &tracks);

    // the stalled rank dominates the critical path
    assert_eq!(
        report.straggler(),
        Some(2),
        "per-rank straggle shares: {:?}",
        report.ranks
    );
    let stalled_step = report
        .steps
        .iter()
        .max_by(|a, b| a.straggle_ms.total_cmp(&b.straggle_ms))
        .expect("steps analyzed");
    assert_eq!(stalled_step.critical_rank, 2);
    // magnitude is deliberately loose: on an oversubscribed CI core the
    // peers compute while rank 2 sleeps, eating much of the 300 ms gap —
    // the hard claim is *which* rank straggled, asserted above
    assert!(
        stalled_step.straggle_ms >= 50.0,
        "injected 300 ms stall, measured straggle {} ms",
        stalled_step.straggle_ms
    );

    // measured phase ordering agrees with the simulator's Fig. 9 step
    // timeline — the trainer and the model of the trainer must tell
    // the same story about what happens in what order
    let setup = TrainSetup::new(
        GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
        256,
        Strategy::Zero1,
    );
    let sim_order = matgpt_frontier_sim::trace::phase_order(&setup, &simulate_step(&setup));
    assert_eq!(
        report.phase_order, sim_order,
        "measured phase order diverges from the simulated Fig. 9 timeline"
    );
}
