//! Tier-1 integration tests for executed fault tolerance: a killed
//! worker is detected (never deadlocks) and the run completes; the
//! post-recovery continuation is bit-identical to an uninterrupted
//! [`DataParallel::resume`] from the same snapshot; elastic shrink to
//! the survivors is bit-identical to a fresh smaller-world resume; a
//! stalled worker is declared dead via heartbeats rather than hanging
//! the pool; and a seeded chaos run (kills sampled from the simulator's
//! MTBF process, `MATGPT_CHAOS_SEED`-selectable) still reproduces the
//! sequential reference bit-for-bit.

use matgpt::core::parallel::{reference_topology, DataParallel, ParallelConfig, Topology};
use matgpt::core::recipes::{OptChoice, PretrainConfig, SizeRole};
use matgpt::core::{FailureCause, FaultPlan, RecoveryPolicy, ResilienceConfig, ResilientOutcome};
use matgpt::corpus::{build_corpus, CorpusConfig};
use matgpt::frontier_sim::FaultModel;
use matgpt::model::ArchKind;
use matgpt::tokenizer::TokenizerKind;
use std::sync::OnceLock;

fn docs() -> &'static Vec<String> {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| {
        build_corpus(&CorpusConfig {
            n_materials: 30,
            total_docs: 90,
            offtopic_fraction: 0.2,
            seed: 23,
        })
        .documents
    })
}

fn cfg(batch_seqs: usize) -> PretrainConfig {
    PretrainConfig {
        steps: 6,
        batch_seqs,
        seq: 32,
        ..PretrainConfig::scaled(
            ArchKind::NeoX,
            TokenizerKind::Hf,
            300,
            OptChoice::Adam,
            SizeRole::Base,
        )
    }
}

/// Snapshot image the run rolled back to, from the outcome's own
/// checkpoint list.
fn rollback_image(out: &ResilientOutcome) -> (usize, Vec<u8>) {
    let at = out.resilience.recoveries[0].rolled_back_to;
    let (step, image) = out
        .outcome
        .checkpoints
        .iter()
        .find(|(s, _)| *s == at)
        .expect("rollback snapshot is in the outcome");
    (*step, image.clone())
}

/// A worker killed mid-step neither deadlocks nor poisons the pool: the
/// failure is detected, training rolls back to the last snapshot,
/// respawns at full width, and the final weights and curves are
/// **bit-identical** to (1) an uninterrupted resume from that same
/// snapshot and (2) a never-faulted run — detection and recovery are
/// numerically invisible.
#[test]
fn kill_recovers_bitwise_identical_to_resume_from_snapshot() {
    let cfg = cfg(4);
    let res = ResilienceConfig {
        snapshot_every: 2,
        faults: FaultPlan::kill(1, 3),
        policy: RecoveryPolicy::Respawn,
        ..ResilienceConfig::default()
    };
    let pool = || DataParallel::new(ParallelConfig::replicated(2));
    let out = pool().train_resilient(docs(), &cfg, res);

    assert_eq!(out.resilience.faults_fired, 1);
    assert_eq!(out.resilience.recoveries.len(), 1);
    let ev = &out.resilience.recoveries[0];
    assert_eq!(ev.detected_at_step, 3);
    assert_eq!(ev.dead_ranks, vec![1]);
    assert_eq!(ev.cause, FailureCause::RankLost);
    assert_eq!(ev.rolled_back_to, 2);
    assert_eq!(ev.lost_steps, 1);
    assert_eq!((ev.workers_before, ev.workers_after), (2, 2));
    assert_eq!(out.resilience.lost_work_tokens, (4 * 32) as u64);
    // 6 planned steps + 1 re-executed + 1 failed attempt.
    assert_eq!(out.resilience.steps_executed, 8);

    // (1) bitwise vs. an uninterrupted resume from the same snapshot.
    let (_, image) = rollback_image(&out);
    let resumed = pool()
        .resume(docs(), &cfg, &image)
        .expect("snapshot resumes");
    assert_eq!(
        out.outcome.pretrained.store.flat_values(),
        resumed.pretrained.store.flat_values()
    );
    assert_eq!(
        out.outcome.pretrained.curves.train,
        resumed.pretrained.curves.train
    );
    assert_eq!(
        out.outcome.pretrained.curves.val,
        resumed.pretrained.curves.val
    );

    // (2) bitwise vs. a run that never faulted at all.
    let clean = pool().train(docs(), &cfg);
    assert_eq!(
        out.outcome.pretrained.store.flat_values(),
        clean.pretrained.store.flat_values()
    );
    assert_eq!(
        out.outcome.pretrained.curves.val,
        clean.pretrained.curves.val
    );
}

/// Elastic re-shard: killing one of three ZeRO-1 workers under
/// [`RecoveryPolicy::Shrink`] continues with two — a rebuilt
/// [`ShardPlan`] and redistributed optimizer shards — and the result is
/// bit-identical to a fresh 2-worker pool resuming the same snapshot
/// (which is itself bit-identical to the sequential reference, so the
/// shrink is loss-curve-equivalent to never having had 3 workers).
#[test]
fn elastic_shrink_matches_fresh_smaller_world() {
    let cfg = cfg(6);
    let res = ResilienceConfig {
        snapshot_every: 2,
        faults: FaultPlan::kill(2, 3),
        policy: RecoveryPolicy::Shrink,
        ..ResilienceConfig::default()
    };
    let out = DataParallel::new(ParallelConfig::zero1(3)).train_resilient(docs(), &cfg, res);

    assert_eq!(out.resilience.recoveries.len(), 1);
    let ev = &out.resilience.recoveries[0];
    assert_eq!(ev.dead_ranks, vec![2]);
    assert_eq!((ev.workers_before, ev.workers_after), (3, 2));
    assert_eq!(out.resilience.final_workers, 2);
    assert_eq!(out.resilience.respawn_fallbacks, 0);
    assert_eq!(out.outcome.report.workers, 2);

    let (_, image) = rollback_image(&out);
    let fresh_small = DataParallel::new(ParallelConfig::zero1(2))
        .resume(docs(), &cfg, &image)
        .expect("snapshot resumes at the shrunken world size");
    assert_eq!(
        out.outcome.pretrained.store.flat_values(),
        fresh_small.pretrained.store.flat_values()
    );
    assert_eq!(
        out.outcome.pretrained.curves.train,
        fresh_small.pretrained.curves.train
    );
    assert_eq!(
        out.outcome.pretrained.curves.val,
        fresh_small.pretrained.curves.val
    );

    // The two-worker resume is itself bit-identical to the two-worker
    // sequential reference *from that snapshot on* (tier-1 contract),
    // so the shrunken continuation is loss-curve-equivalent to a run
    // that never had three workers — which is what the curves show:
    // every post-rollback point matches the fresh small-world run.
    let at = out.resilience.recoveries[0].rolled_back_to;
    assert!(out
        .outcome
        .pretrained
        .curves
        .val
        .iter()
        .any(|(step, _)| *step >= at));
}

/// A stalled (not dead) worker sleeping far past the collective timeout
/// is declared dead via the grace drain + stale heartbeat rather than
/// wedging the pool; the run completes bit-identically to a clean one.
#[test]
fn stalled_worker_is_declared_dead_not_waited_on() {
    let cfg = cfg(4);
    let res = ResilienceConfig {
        snapshot_every: 2,
        faults: FaultPlan::stall(1, 2, 3_000),
        policy: RecoveryPolicy::Respawn,
        collective_timeout_ms: 150,
        heartbeat_stale_ms: 600,
        grace_ms: 250,
    };
    let out = DataParallel::new(ParallelConfig::replicated(2)).train_resilient(docs(), &cfg, res);

    assert_eq!(out.resilience.recoveries.len(), 1);
    let ev = &out.resilience.recoveries[0];
    assert_eq!(ev.detected_at_step, 2);
    assert_eq!(ev.dead_ranks, vec![1]);
    assert_eq!(ev.cause, FailureCause::Stalled);

    let clean = DataParallel::new(ParallelConfig::replicated(2)).train(docs(), &cfg);
    assert_eq!(
        out.outcome.pretrained.store.flat_values(),
        clean.pretrained.store.flat_values()
    );
}

/// Seeded chaos: kills sampled from the simulator's exponential MTBF
/// process (`FaultModel::sample_failure_schedule`), respawn recovery so
/// the world width is pinned. Whatever fires, the final weights and
/// curves must equal the sequential reference bit-for-bit — training
/// under chaos is numerically indistinguishable from training without
/// it. The seed comes from `MATGPT_CHAOS_SEED` so CI can sweep a
/// matrix.
#[test]
fn seeded_chaos_run_still_matches_the_sequential_reference() {
    let seed: u64 = std::env::var("MATGPT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let cfg = cfg(4);
    // MTBF tuned so a 6-step horizon sees a couple of arrivals.
    let model = FaultModel {
        node_mtbf_hours: 0.002,
        gcds_per_node: 1,
        straggler_prob: 0.0,
        seed,
        ..FaultModel::default()
    };
    let faults = FaultPlan::from_model(&model, 2, cfg.steps, 1.0);
    let planned = faults.planned().len();
    let res = ResilienceConfig {
        snapshot_every: 2,
        faults,
        policy: RecoveryPolicy::Respawn,
        ..ResilienceConfig::default()
    };
    let out = DataParallel::new(ParallelConfig::zero1(2)).train_resilient(docs(), &cfg, res);

    assert_eq!(out.resilience.faults_planned, planned);
    assert_eq!(out.resilience.final_workers, 2);
    assert_eq!(
        out.resilience.steps_executed,
        cfg.steps + out.resilience.lost_steps + out.resilience.recoveries.len()
    );

    let reference = DataParallel::train_reference(docs(), &cfg, 2);
    assert_eq!(
        out.outcome.pretrained.store.flat_values(),
        reference.pretrained.store.flat_values()
    );
    assert_eq!(
        out.outcome.pretrained.curves.train,
        reference.pretrained.curves.train
    );
    assert_eq!(
        out.outcome.pretrained.curves.val,
        reference.pretrained.curves.val
    );
}

// ---------------------------------------------------------------------------
// Faults on grid coordinates: tensor-parallel peers and pipeline stages.
// ---------------------------------------------------------------------------

/// Kill `victim` (a grid seat) at step 3 of a resilient run on `topo`
/// and assert typed detection, a postmortem that flags the victim seat,
/// and a recovered run bit-identical to one that never faulted.
fn assert_kill_recovers_bitwise(topo: Topology, victim: usize) {
    let cfg = cfg(4);
    let res = ResilienceConfig {
        snapshot_every: 2,
        faults: FaultPlan::kill(victim, 3),
        policy: RecoveryPolicy::Respawn,
        ..ResilienceConfig::default()
    };
    let out = DataParallel::new(topo).train_resilient(docs(), &cfg, res);

    assert_eq!(out.resilience.faults_fired, 1, "{}", topo.describe());
    assert_eq!(out.resilience.recoveries.len(), 1);
    let ev = &out.resilience.recoveries[0];
    assert_eq!(ev.detected_at_step, 3);
    assert_eq!(ev.dead_ranks, vec![victim]);
    assert_eq!(ev.cause, FailureCause::RankLost);
    assert_eq!(ev.rolled_back_to, 2);
    assert_eq!(
        (ev.workers_before, ev.workers_after),
        (topo.world(), topo.world())
    );
    let pm = &out.resilience.postmortems[0];
    assert_eq!(pm.victims, vec![victim as u64]);
    assert!(pm.cause.contains("RankLost"), "{}", pm.cause);
    assert!(
        pm.trace_json.contains(&format!("rank {victim} (victim)")),
        "victim track flagged in the dump"
    );
    // committed steps: 6 planned + the 1 re-executed after the rollback
    assert_eq!(out.outcome.report.steps_run, cfg.steps + ev.lost_steps);

    let clean = DataParallel::new(topo).train(docs(), &cfg);
    assert_eq!(
        out.outcome.pretrained.store.flat_values(),
        clean.pretrained.store.flat_values(),
        "{} weights",
        topo.describe()
    );
    assert_eq!(
        out.outcome.pretrained.curves.train,
        clean.pretrained.curves.train
    );
    assert_eq!(
        out.outcome.pretrained.curves.val,
        clean.pretrained.curves.val
    );
    // fault-free and recovered runs measure the same per-step traffic
    assert_eq!(clean.report.steps_run, cfg.steps);
    assert_eq!(
        out.outcome.report.measured_allreduce_bytes_per_step,
        clean.report.measured_allreduce_bytes_per_step
    );
}

/// A dead tensor-parallel peer: its ring partner sees the activation
/// allreduce disconnect mid-forward, the coordinator names the seat, and
/// the run recovers from the full-model snapshot.
#[test]
fn killed_tp_peer_is_detected_and_recovered_bitwise() {
    assert_kill_recovers_bitwise(Topology::new(1, 2, 1), 1);
}

/// A dead pipeline stage: the neighbour's boundary send/recv fails as a
/// typed `RankLost`, never a hang, and the run recovers bitwise.
#[test]
fn killed_pipeline_stage_is_detected_and_recovered_bitwise() {
    assert_kill_recovers_bitwise(Topology::new(1, 1, 2), 1);
}

/// Shrink acts on the dp axis: a tp death on `{2,2,1}` takes its whole
/// replica with it, and the `{1,2,1}` continuation equals a fresh
/// `{1,2,1}` grid resuming the same snapshot.
#[test]
fn tp_death_shrinks_its_whole_replica() {
    let cfg = cfg(4);
    let topo = Topology::new(2, 2, 1).with_zero1();
    let res = ResilienceConfig {
        snapshot_every: 2,
        faults: FaultPlan::kill(topo.seat(1, 0, 1), 3),
        policy: RecoveryPolicy::Shrink,
        ..ResilienceConfig::default()
    };
    let out = DataParallel::new(topo).train_resilient(docs(), &cfg, res);
    let ev = &out.resilience.recoveries[0];
    assert_eq!(ev.dead_ranks, vec![3]);
    assert_eq!((ev.workers_before, ev.workers_after), (4, 2));
    assert_eq!(out.outcome.report.workers, 2);

    let (_, image) = rollback_image(&out);
    let fresh = DataParallel::new(Topology::new(1, 2, 1).with_zero1())
        .resume(docs(), &cfg, &image)
        .expect("snapshot resumes on the narrower grid");
    assert_eq!(
        out.outcome.pretrained.store.flat_values(),
        fresh.pretrained.store.flat_values()
    );
    assert_eq!(
        out.outcome.pretrained.curves.val,
        fresh.pretrained.curves.val
    );
}

/// A stalled tp peer sleeping far past the collective timeout is
/// declared dead rather than waited on; the run completes bit-identically
/// to a clean one.
#[test]
fn stalled_tp_peer_is_declared_dead_not_waited_on() {
    let cfg = cfg(4);
    let topo = Topology::new(1, 2, 1);
    let res = ResilienceConfig {
        snapshot_every: 2,
        faults: FaultPlan::stall(1, 2, 3_000),
        policy: RecoveryPolicy::Respawn,
        collective_timeout_ms: 150,
        heartbeat_stale_ms: 600,
        grace_ms: 250,
    };
    let out = DataParallel::new(topo).train_resilient(docs(), &cfg, res);

    assert_eq!(out.resilience.recoveries.len(), 1);
    let ev = &out.resilience.recoveries[0];
    assert_eq!(ev.detected_at_step, 2);
    assert_eq!(ev.dead_ranks, vec![1]);
    assert_eq!(ev.cause, FailureCause::Stalled);

    let clean = DataParallel::new(topo).train(docs(), &cfg);
    assert_eq!(
        out.outcome.pretrained.store.flat_values(),
        clean.pretrained.store.flat_values()
    );
}

/// Seeded chaos on a composed grid: kills sampled from the simulator's
/// MTBF process over the four seats of a `{2,2,1}` ZeRO-1 grid (so dp
/// ranks and tp peers both die), respawn recovery. Whatever fires, the
/// result equals the grid's sequential reference bit-for-bit.
/// `MATGPT_CHAOS_SEED` selects the schedule, as for the dp-only run.
#[test]
fn seeded_chaos_on_a_dp_tp_grid_still_matches_the_sequential_reference() {
    let seed: u64 = std::env::var("MATGPT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let cfg = cfg(4);
    let topo = Topology::new(2, 2, 1).with_zero1();
    let model = FaultModel {
        node_mtbf_hours: 0.004,
        gcds_per_node: 1,
        straggler_prob: 0.0,
        seed,
        ..FaultModel::default()
    };
    let faults = FaultPlan::from_model(&model, topo.world(), cfg.steps, 1.0);
    let planned = faults.planned().len();
    let res = ResilienceConfig {
        snapshot_every: 2,
        faults,
        policy: RecoveryPolicy::Respawn,
        ..ResilienceConfig::default()
    };
    let out = DataParallel::new(topo).train_resilient(docs(), &cfg, res);

    assert_eq!(out.resilience.faults_planned, planned);
    assert_eq!(out.resilience.final_workers, topo.world());
    assert_eq!(
        out.resilience.steps_executed,
        cfg.steps + out.resilience.lost_steps + out.resilience.recoveries.len()
    );
    assert_eq!(
        out.outcome.report.steps_run,
        cfg.steps + out.resilience.lost_steps
    );

    let reference = reference_topology(docs(), &cfg, topo).expect("reference grid");
    assert_eq!(
        out.outcome.pretrained.store.flat_values(),
        reference.store.flat_values()
    );
    assert_eq!(out.outcome.pretrained.curves.train, reference.train_curve);
    assert_eq!(
        out.outcome.pretrained.curves.final_val().to_bits(),
        reference.final_val.to_bits()
    );
}
