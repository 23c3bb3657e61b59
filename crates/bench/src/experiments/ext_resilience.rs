//! Extension: executed fault tolerance — the measured counterpart of
//! the simulator's checkpoint-restart goodput model (`ext_fault_tolerance`).
//!
//! Where `frontier_sim::faults` *prices* failure-prone training with
//! Young/Daly analytics, this experiment *runs* it: `core::parallel` trains
//! real replicas under a seeded [`FaultPlan`] sampled from the same
//! exponential MTBF process the analytic model integrates
//! ([`FaultModel::sample_failure_schedule`]), recovering via snapshot
//! rollback. The sweep varies the snapshot interval and measures
//! goodput; the claim under test is Daly's: the measured optimum lands
//! within one grid step of [`FaultModel::daly_interval_s`].
//!
//! Accounting is in **step units** (one step = one "second" of the
//! fault model), which makes the sweep fully deterministic and
//! machine-portable: every run faces the identical seeded kill
//! schedule, so goodput differences come only from the Young/Daly
//! tradeoff — snapshot overhead vs. work lost per rollback —
//! not from wall-clock noise:
//!
//! ```text
//! goodput(i) = useful_steps / (attempted_steps + snapshots·δ + recoveries·R)
//! ```
//!
//! with δ = `checkpoint_write_s` and R = `detect_s + restart_s`, both
//! expressed in step-seconds.
//!
//! No wall clock enters the accounting, so there is one scale (a
//! coarser smoke grid cannot resolve the 0.95 bar) and
//! `tests/executed_claims.rs` holds both claims on it.

use super::{base_recipe, small_corpus, Ctx};
use crate::{compare, print_table, verdict};
use matgpt_core::parallel::{DataParallel, ParallelConfig};
use matgpt_core::{FaultPlan, PretrainConfig, RecoveryPolicy, ResilienceConfig, ResilientOutcome};
use matgpt_frontier_sim::{interval_agreement, FaultModel};
use matgpt_model::ArchKind;

const WORKERS: usize = 2;

/// What [`run`] prints, for `tests/executed_claims.rs`.
pub struct ResilienceNumbers {
    /// The measured goodput optimum lies within one grid step of the
    /// grid point nearest [`FaultModel::daly_interval_s`].
    pub within_one_step: bool,
    /// Goodput at the Daly grid point over the measured peak.
    pub goodput_daly_ratio: f64,
}

/// Sweep the snapshot interval under one seeded kill schedule.
pub fn run(_ctx: &Ctx) -> Result<ResilienceNumbers, String> {
    let documents = small_corpus(23);
    let cfg = PretrainConfig {
        steps: 24,
        batch_seqs: 4,
        seq: 32,
        ..base_recipe(ArchKind::NeoX)
    };
    // One executed step is one model "second"; the job MTBF is chosen
    // so the horizon sees a couple of failures, and δ/R are a sizable
    // fraction of the MTBF so the interval tradeoff has a real peak.
    let step_s = 1.0;
    let mtbf_steps = 12.0;
    let model = FaultModel {
        node_mtbf_hours: mtbf_steps * WORKERS as f64 / 3600.0,
        gcds_per_node: 1,
        detect_s: 1.0,
        restart_s: 2.0,
        checkpoint_write_s: 2.0,
        straggler_prob: 0.0,
        degraded_link_prob: 0.0,
        seed: 0x600d_0001,
        ..FaultModel::default()
    };
    let delta = model.checkpoint_write_s;
    let repair = model.detect_s + model.restart_s;
    let daly = model.daly_interval_s(WORKERS);
    let intervals = [2usize, 4, 8, 16];

    // ---- the executed sweep: identical seeded kill schedule per run,
    // only the snapshot cadence varies
    let runs: Vec<ResilientOutcome> = intervals
        .iter()
        .map(|&every| {
            let res = ResilienceConfig {
                snapshot_every: every,
                faults: FaultPlan::from_model(&model, WORKERS, cfg.steps, step_s),
                policy: RecoveryPolicy::Respawn,
                ..ResilienceConfig::default()
            };
            DataParallel::new(ParallelConfig::zero1(WORKERS)).train_resilient(&documents, &cfg, res)
        })
        .collect();

    // every run faced the same schedule and recovered every failure
    let fired = runs[0].resilience.faults_fired;
    for r in &runs {
        assert_eq!(
            r.resilience.faults_fired, fired,
            "the seeded schedule must fire identically across the sweep"
        );
        assert!(
            r.outcome.pretrained.curves.final_train().is_finite(),
            "a recovered run must still train to a finite loss"
        );
        assert_eq!(
            r.resilience.final_workers, WORKERS,
            "respawn recovery keeps the world at full width"
        );
    }

    let goodput: Vec<f64> = runs
        .iter()
        .map(|r| {
            let res = &r.resilience;
            let cost = res.steps_executed as f64
                + res.snapshots_taken as f64 * delta
                + res.recoveries.len() as f64 * repair;
            cfg.steps as f64 / cost
        })
        .collect();
    let grid_s: Vec<f64> = intervals.iter().map(|&i| i as f64 * step_s).collect();
    let agreement = interval_agreement(&grid_s, &goodput, daly);
    let best = agreement.measured_idx;
    let goodput_daly_ratio = goodput[agreement.predicted_idx] / goodput[best];

    print_table(
        &format!(
            "Executed resilience sweep (NeoX base, {} steps, {} workers, MTBF {} steps, δ={} R={})",
            cfg.steps, WORKERS, mtbf_steps, delta, repair
        ),
        &[
            "snapshot every",
            "goodput",
            "recoveries",
            "lost steps",
            "snapshots",
        ],
        &intervals
            .iter()
            .zip(&runs)
            .zip(&goodput)
            .map(|((&i, r), &g)| {
                vec![
                    format!("{i}{}", if i == intervals[best] { " *" } else { "" }),
                    format!("{g:.3}"),
                    r.resilience.recoveries.len().to_string(),
                    r.resilience.lost_steps.to_string(),
                    r.resilience.snapshots_taken.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nDaly interval {daly:.2} step-s -> grid point {} (idx {}); measured optimum {} (idx {}); \
         {} kills fired per run",
        intervals[agreement.predicted_idx],
        agreement.predicted_idx,
        intervals[best],
        best,
        fired,
    );

    println!("\n-- predicted vs measured --");
    compare(
        "measured goodput optimum vs Daly interval",
        "within one grid step",
        &format!(
            "idx {} vs idx {} (|Δ| = {})",
            best,
            agreement.predicted_idx,
            best.abs_diff(agreement.predicted_idx)
        ),
        verdict(agreement.within_one_step),
    );
    compare(
        "goodput at the Daly grid point",
        ">= 0.95x the measured peak",
        &format!("{goodput_daly_ratio:.3}x"),
        verdict(goodput_daly_ratio >= 0.95),
    );
    Ok(ResilienceNumbers {
        within_one_step: agreement.within_one_step,
        goodput_daly_ratio,
    })
}
