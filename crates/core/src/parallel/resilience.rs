//! Executed fault tolerance for the grid executor: what can be injected,
//! how liveness is tracked, and what a recovered run reports.
//!
//! PR 2's `frontier_sim::faults` *models* failure-prone training; the
//! executor *executes* it. A seeded [`FaultPlan`] kills or stalls
//! specific seats of the [`Topology`](super::Topology) grid at specific
//! steps, mirroring the MTBF and straggler distributions of
//! [`matgpt_frontier_sim::faults::FaultModel`]. The coordinator loop in
//! `parallel/executor.rs` survives them through bounded-timeout
//! detection on every wire plus per-seat heartbeats, rollback to a
//! full-model v2 snapshot, and — under [`RecoveryPolicy::Shrink`] —
//! elastic narrowing of the dp axis. `PARALLELISM.md` has the state
//! machine and the bit-identity contract; `ext_resilience` checks the
//! measured goodput optimum against `FaultModel::daly_interval_s`.

use super::ParallelOutcome;
use matgpt_frontier_sim::faults::FaultModel;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Fault plan: which worker dies or stalls, and when.
// ---------------------------------------------------------------------------

/// What an injected fault does to its worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread dies at the top of the step: every ring and
    /// pipeline endpoint it holds drops before its first send — peers
    /// observe a vanished rank on whichever wire they share with it.
    Kill,
    /// The worker sleeps `ms` before its collective — a transient
    /// straggler if shorter than the collective timeout, operationally
    /// indistinguishable from a dead rank if longer.
    Stall {
        /// Sleep duration, milliseconds.
        ms: u64,
    },
}

/// One planned fault: `kind` strikes `rank` the first time it executes
/// global step `step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedFault {
    /// Worker seat the fault strikes: the grid-lexicographic index
    /// `(d·pp + s)·tp + r` ([`Topology::seat`](super::Topology::seat)),
    /// which is the dp rank on a `{dp,1,1}` grid. Numbered in the grid
    /// current at fire time; entries beyond the live world never fire.
    pub rank: usize,
    /// Global training step the fault fires at.
    pub step: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded schedule of worker faults, consumed one-shot: each entry
/// fires the *first* time its `(rank, step)` executes, so steps
/// re-executed after a rollback are not re-struck and recovery always
/// makes progress.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
    fired: Vec<AtomicBool>,
}

impl FaultPlan {
    /// No faults — the plan every fault-free run carries.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan from an explicit fault list.
    pub fn new(faults: Vec<PlannedFault>) -> Self {
        let fired = faults.iter().map(|_| AtomicBool::new(false)).collect();
        Self { faults, fired }
    }

    /// Convenience: kill `rank` at `step`.
    pub fn kill(rank: usize, step: usize) -> Self {
        Self::new(vec![PlannedFault {
            rank,
            step,
            kind: FaultKind::Kill,
        }])
    }

    /// Convenience: stall `rank` at `step` for `ms` milliseconds.
    pub fn stall(rank: usize, step: usize, ms: u64) -> Self {
        Self::new(vec![PlannedFault {
            rank,
            step,
            kind: FaultKind::Stall { ms },
        }])
    }

    /// Builder: append one more fault.
    pub fn with(mut self, fault: PlannedFault) -> Self {
        self.faults.push(fault);
        self.fired.push(AtomicBool::new(false));
        self
    }

    /// Sample a plan from the simulator's failure process: exponential
    /// kill arrivals at the job MTBF
    /// ([`FaultModel::sample_failure_schedule`]) plus per-(step, rank)
    /// transient stragglers at `straggler_prob`, each stalling for the
    /// model's slowdown over one `step_s`-second step. Fully determined
    /// by `model.seed` — the same process the analytic goodput model
    /// replays, which is what makes executed-vs-predicted sweeps
    /// comparable.
    pub fn from_model(
        model: &FaultModel,
        workers: usize,
        horizon_steps: usize,
        step_s: f64,
    ) -> Self {
        let mut faults: Vec<PlannedFault> = model
            .sample_failure_schedule(workers, horizon_steps, step_s)
            .into_iter()
            .map(|(step, rank)| PlannedFault {
                rank,
                step,
                kind: FaultKind::Kill,
            })
            .collect();
        if model.straggler_prob > 0.0 {
            let stall_ms = ((model.straggler_slowdown - 1.0) * step_s * 1e3).max(1.0) as u64;
            let mut rng = ChaCha8Rng::seed_from_u64(model.seed ^ 0x057a_11e5);
            for step in 0..horizon_steps {
                for rank in 0..workers {
                    if rng.gen_bool(model.straggler_prob.clamp(0.0, 1.0)) {
                        faults.push(PlannedFault {
                            rank,
                            step,
                            kind: FaultKind::Stall { ms: stall_ms },
                        });
                    }
                }
            }
        }
        faults.sort_by_key(|f| (f.step, f.rank));
        Self::new(faults)
    }

    /// Consume the fault for `(rank, step)` if one is planned and has
    /// not fired yet.
    pub fn take(&self, rank: usize, step: usize) -> Option<FaultKind> {
        for (i, f) in self.faults.iter().enumerate() {
            if f.rank == rank
                && f.step == step
                && self.fired[i]
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return Some(f.kind);
            }
        }
        None
    }

    /// The planned faults, in order.
    pub fn planned(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// How many faults have fired so far.
    pub fn fired(&self) -> usize {
        self.fired
            .iter()
            .filter(|f| f.load(Ordering::Relaxed))
            .count()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Heartbeats: the liveness board failure detection reads.
// ---------------------------------------------------------------------------

/// Per-rank last-progress timestamps (milliseconds since pool start).
/// Workers store at every phase boundary; the coordinator reads ages to
/// tell a slow worker (recent beat → keep waiting) from a dead or
/// wedged one (stale beat → declare lost).
pub(crate) struct Heartbeats {
    t0: Instant,
    cells: Vec<AtomicU64>,
}

impl Heartbeats {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            t0: Instant::now(),
            cells: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record progress for `rank` (stored as elapsed-ms + 1 so zero
    /// means "never beat").
    pub(crate) fn beat(&self, rank: usize) {
        self.cells[rank].store(self.t0.elapsed().as_millis() as u64 + 1, Ordering::Relaxed);
    }

    /// Milliseconds since `rank` last beat; `None` if it never has.
    pub(crate) fn age_ms(&self, rank: usize) -> Option<u64> {
        let v = self.cells[rank].load(Ordering::Relaxed);
        (v > 0).then(|| (self.t0.elapsed().as_millis() as u64 + 1).saturating_sub(v))
    }
}

// ---------------------------------------------------------------------------
// Configuration and reporting.
// ---------------------------------------------------------------------------

/// What to do with the pool after a seat is declared dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Rebuild the full grid from the snapshot — a spare replaces the
    /// dead seat. Post-recovery training is bit-identical to an
    /// uninterrupted same-grid resume from the same snapshot.
    Respawn,
    /// Continue without the data replicas that lost a seat (a tp or pp
    /// death takes its whole replica with it): rebuild the
    /// [`super::ShardPlan`]s for the narrower dp axis and redistribute
    /// the consolidated optimizer state across it. Falls back to
    /// [`Self::Respawn`] when the global batch does not divide by the
    /// narrower dp (or no seat can be identified) — shrinking would
    /// break the micro-batch split, and completing the run beats dying.
    Shrink,
}

/// Resilient-training knobs.
#[derive(Debug)]
pub struct ResilienceConfig {
    /// Take an in-memory snapshot every this many committed steps
    /// (clamped to ≥ 1). Smaller = less lost work per failure, more
    /// snapshot overhead — the Young/Daly tradeoff, executed.
    pub snapshot_every: usize,
    /// The injected faults.
    pub faults: FaultPlan,
    /// Respawn at N or shrink to the survivors.
    pub policy: RecoveryPolicy,
    /// Ring and pipeline-link receive bound, ms: how long a worker
    /// waits on a silent peer before reporting
    /// [`CollectiveError::Timeout`](super::CollectiveError::Timeout).
    /// A fault-free run waits 120 s.
    pub collective_timeout_ms: u64,
    /// Heartbeat age, ms, beyond which a non-responding rank is
    /// declared dead rather than slow.
    pub heartbeat_stale_ms: u64,
    /// How long the coordinator keeps draining survivor reports after
    /// the first failure signal before deciding who died, ms.
    pub grace_ms: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            snapshot_every: 4,
            faults: FaultPlan::none(),
            policy: RecoveryPolicy::Shrink,
            collective_timeout_ms: 2_000,
            heartbeat_stale_ms: 1_500,
            grace_ms: 400,
        }
    }
}

/// Why a step failed, as the coordinator classified it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// A peer's ring endpoints disconnected — the thread died.
    RankLost,
    /// A peer went silent past the bounded waits but its thread never
    /// visibly exited — a stall treated as death.
    Stalled,
}

/// One detected failure and what recovery did about it.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// Global step being attempted when the failure was detected.
    pub detected_at_step: usize,
    /// Seats declared dead, as grid-lexicographic indices (empty when
    /// every seat responded but the step still failed — recovered by
    /// full respawn).
    pub dead_ranks: Vec<usize>,
    /// How the failure presented.
    pub cause: FailureCause,
    /// Snapshot step training rolled back to (0 = job start).
    pub rolled_back_to: usize,
    /// World size `dp·tp·pp` before the failure.
    pub workers_before: usize,
    /// World size after recovery (smaller under [`RecoveryPolicy::Shrink`]).
    pub workers_after: usize,
    /// Committed-then-discarded steps: work done since the snapshot.
    pub lost_steps: usize,
    /// Detection-to-rollback-complete wall time, ms (worker respawn
    /// overlaps the next epoch and is excluded).
    pub recovery_ms: f64,
}

/// Aggregate resilience accounting for one run.
#[derive(Clone, Debug, Default)]
pub struct ResilienceReport {
    /// Faults the plan held.
    pub faults_planned: usize,
    /// Faults that actually fired.
    pub faults_fired: usize,
    /// Every detected failure, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Snapshots consolidated (including the final-step one).
    pub snapshots_taken: usize,
    /// Step attempts fanned out, committed or not — re-executed steps
    /// count again, so `steps_executed − cfg.steps` is the re-done work.
    pub steps_executed: usize,
    /// Total committed-then-discarded steps across all rollbacks.
    pub lost_steps: usize,
    /// `lost_steps × global-batch tokens` — the work failures destroyed.
    pub lost_work_tokens: u64,
    /// World size at completion.
    pub final_workers: usize,
    /// Shrink requests that fell back to respawn (indivisible batch or
    /// unidentifiable seat).
    pub respawn_fallbacks: usize,
    /// Flight-recorder postmortem bundles, one per detected failure —
    /// the victim's final collective events, survivors' state, and a
    /// metrics snapshot. Persisted under `$MATGPT_POSTMORTEM_DIR`
    /// (subdirectory `recovery-<i>`) when that variable is set.
    pub postmortems: Vec<matgpt_obs::flight::Postmortem>,
}

/// A resilient run's result: the ordinary [`ParallelOutcome`] (its
/// `checkpoints` are the snapshots, so callers can replay or resume any
/// of them) plus the resilience accounting.
pub struct ResilientOutcome {
    /// The trained bundle and executor accounting. When the world
    /// shrank mid-run, `report.measured_allreduce_bytes_per_step`
    /// blends epochs at different N while the formula describes the
    /// final world size.
    pub outcome: ParallelOutcome,
    /// What the faults cost and how recovery handled them.
    pub resilience: ResilienceReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_entries_fire_exactly_once() {
        let plan = FaultPlan::kill(1, 3).with(PlannedFault {
            rank: 0,
            step: 3,
            kind: FaultKind::Stall { ms: 7 },
        });
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.take(1, 2), None);
        assert_eq!(plan.take(1, 3), Some(FaultKind::Kill));
        // one-shot: the re-executed step after a rollback is spared
        assert_eq!(plan.take(1, 3), None);
        assert_eq!(plan.take(0, 3), Some(FaultKind::Stall { ms: 7 }));
        assert_eq!(plan.fired(), 2);
    }

    #[test]
    fn fault_plan_from_model_is_seed_deterministic() {
        let fm = FaultModel {
            node_mtbf_hours: 0.05, // fail fast so the plan is non-empty
            gcds_per_node: 1,
            ..FaultModel::default()
        };
        let a = FaultPlan::from_model(&fm, 4, 64, 1.0);
        let b = FaultPlan::from_model(&fm, 4, 64, 1.0);
        assert_eq!(a.planned(), b.planned());
        assert!(!a.is_empty());
        for f in a.planned() {
            assert!(f.rank < 4 && f.step < 64);
        }
    }

    #[test]
    fn heartbeats_age_from_none_to_fresh() {
        let hb = Heartbeats::new(2);
        assert_eq!(hb.age_ms(0), None);
        hb.beat(0);
        assert!(hb.age_ms(0).expect("beaten") < 1_000);
        assert_eq!(hb.age_ms(1), None);
    }
}
