//! Executed `dp × tp × pp` training with a ZeRO-1 sharded optimizer.
//!
//! Where [`crate::pretrain::Trainer`] advances one replica, this module
//! runs **one worker thread per seat of a [`Topology`] grid**: data
//! replicas synchronized by a hand-rolled **ring allreduce** over
//! in-process channels — chunked reduce-scatter followed by allgather,
//! exactly the schedule RCCL rings execute on Frontier, so the measured
//! per-worker traffic lands on the paper's `2(N−1)/N · M` closed form
//! ([`matgpt_frontier_sim::collectives::wire_bytes`]) — Megatron-style
//! tensor shards, and 1F1B pipeline stages (see [`topology`]).
//!
//! There is **one executor** (`executor.rs`): one threaded worker
//! function, one coordinator step loop, one sequential reference.
//! [`DataParallel`] and [`train_topology`] / [`reference_topology`] are
//! thin entry points onto it; a [`ParallelConfig`] *is* a [`Topology`],
//! and `ParallelConfig::replicated(n)` / `zero1(n)` name `{n,1,1}` grids.
//!
//! Two optimizer modes on the dp ring, at any `{tp, pp}`:
//!
//! * **Replicated** — classic DP: reduce-scatter the gradients, average,
//!   allgather them back, every replica applies the identical full
//!   optimizer step.
//! * **ZeRO-1** ([`Topology::with_zero1`]) — each dp rank owns a
//!   contiguous, tensor-aligned ~1/N shard of its shard store's flat
//!   parameter space ([`ShardPlan`]), keeps Adam/LAMB moments **only for
//!   its shard** ([`matgpt_optim::Optimizer::step_masked`]), and
//!   publishes updated parameters with an allgather. Optimizer-state
//!   memory per worker drops ~N×, at the same wire volume
//!   (reduce-scatter + allgather ≙ allreduce).
//!
//! # Determinism and equivalence
//!
//! f32 addition is not associative, so "DP equals single-worker
//! training on the concatenated batch" is only meaningful under a fixed
//! reduction order. The ring fixes one: chunk `c` accumulates
//! contributions in ring order starting from rank `c+1` (the rank that
//! injects chunk `c` first). [`ring_fold`] is that order as a pure
//! sequential function; the sequential reference uses it, and defines
//! the equivalence target. The guarantees, proven by
//! `tests/parallelism.rs`:
//!
//! * the threaded run on any grid (replicated **and** ZeRO-1) is
//!   **bit-identical** to the sequential reference on the same grid —
//!   thread scheduling never leaks into the numerics;
//! * the `{1,1,1}` grid is **bit-identical** to
//!   [`crate::pretrain::Trainer`], at any [`PretrainConfig::precision`];
//! * replicated and ZeRO-1 are **bit-identical to each other** on any
//!   grid (shard-aligned reduction buckets, whole-tensor LAMB trust
//!   ratios, and a tensor-order global-norm fold make the masked update
//!   exact);
//! * checkpoints are ordinary v2 MGPT images of the *full* model (tp,
//!   pp and ZeRO-1 shards of weights and moments are merged back), so
//!   [`crate::pretrain::pretrain_resume`] composes with any grid's run.
//!
//! # Fault tolerance
//!
//! The [`resilience`] submodule describes injected failures: a seeded
//! [`resilience::FaultPlan`] kills or stalls grid seats at specific
//! steps, every wire detects the loss through bounded-timeout receives
//! ([`CollectiveError`]) plus per-seat heartbeats, and
//! [`DataParallel::train_resilient`] recovers by rolling back to an
//! in-memory v2 snapshot — optionally **elastically shrinking** the dp
//! axis to the surviving replicas. See `PARALLELISM.md` for the state
//! machine and the determinism contract.

pub mod collective;
mod executor;
pub mod resilience;
pub mod topology;

use crate::pretrain::{LossCurves, Pretrained, ResumeError};
use crate::recipes::PretrainConfig;
use executor::{reference_grid, run_grid, GridRun, RunSpec};
use matgpt_corpus::Batch;
use resilience::{ResilienceConfig, ResilientOutcome};
use std::ops::Range;

pub use collective::{
    ring_allgather_rank_bytes, ring_allreduce_rank_bytes, ring_allreduce_sum,
    ring_reduce_scatter_rank_bytes, CollectiveError, PipeDir, PipeLink, RingComm,
};
/// Re-exported from `matgpt_tensor`, where the fold order now lives so
/// the tape's sequential-reference TP ops share it.
pub use matgpt_tensor::ring_fold;
pub use topology::{
    reference_topology, train_topology, MsgBin, Topology, TopologyError, TopologyOutcome,
    TopologyReport, WireAudit,
};

/// How many workers, and how they keep optimizer state: the grid
/// description itself. `ParallelConfig::replicated(n)` and
/// `ParallelConfig::zero1(n)` are `{n,1,1}` [`Topology`] grids.
pub type ParallelConfig = Topology;

/// Per-run accounting the executor reports next to the trained model.
#[derive(Clone, Debug, Default)]
pub struct ParallelReport {
    /// Worker threads the run finished on: the grid's world size
    /// `dp·tp·pp` (N for a `{N,1,1}` data-parallel run). Per-worker
    /// vectors below are indexed by [`Topology::seat`].
    pub workers: usize,
    /// Whether optimizer state was ZeRO-1 sharded.
    pub zero1: bool,
    /// Optimizer steps this run committed. A resumed run counts from
    /// its image's step; a recovered run counts the steps it re-executed
    /// after a rollback again. The same steps are the denominator of
    /// [`Self::measured_allreduce_bytes_per_step`], whatever the mode.
    pub steps_run: usize,
    /// Flattened parameter count M (scalars) of the full model.
    pub param_scalars: usize,
    /// Scalars each worker owns on its dp ring (the ZeRO-1 shard sizes;
    /// each `(s, r)` column's sum to that shard store's size, so on a
    /// `{N,1,1}` grid they sum to `param_scalars`).
    pub shard_scalars: Vec<usize>,
    /// Measured dp-ring traffic: mean bytes sent per worker per
    /// committed step (reduce-scatter + allgather, plus ZeRO-1's norm
    /// allgather, counted on the channels).
    pub measured_allreduce_bytes_per_step: f64,
    /// The analytic `2(N−1)/N · 4M` per-rank allreduce volume the paper
    /// profiles, averaged over the grid's shard stores — the mean
    /// measured gradient traffic must land on it exactly.
    pub formula_allreduce_bytes_per_step: f64,
    /// Σ over steps of the slowest worker's gradient-compute time — the
    /// bulk-synchronous critical path's compute term.
    pub critical_compute_ms: f64,
    /// Total gradient-compute time per worker (per data replica under
    /// the sequential reference).
    pub total_compute_ms: Vec<f64>,
    /// Synchronization cost: reduction/fold time (reference executor)
    /// or time blocked on ring and link receives (threaded workers),
    /// per worker.
    pub comm_ms: Vec<f64>,
    /// Per-step serial remainder (grad load, clip, optimizer update) on
    /// the critical path, summed over steps.
    pub post_ms: f64,
    /// Optimizer-state bytes held by each worker after training
    /// ([`matgpt_optim::Optimizer::state_bytes`] accounting).
    pub opt_state_bytes: Vec<usize>,
}

impl ParallelReport {
    /// The bulk-synchronous critical path: slowest-worker compute plus
    /// synchronization plus the serial per-step remainder. On a machine
    /// with ≥ N cores this is the step wall-clock; measuring the terms
    /// contention-free keeps the ratio portable to single-core CI.
    pub fn critical_path_ms(&self) -> f64 {
        let comm = self.comm_ms.iter().cloned().fold(0.0, f64::max);
        self.critical_compute_ms + comm + self.post_ms
    }

    /// Largest per-worker optimizer-state footprint in bytes.
    pub fn max_opt_state_bytes(&self) -> usize {
        self.opt_state_bytes.iter().copied().max().unwrap_or(0)
    }
}

/// What a [`DataParallel`] run returns.
pub struct ParallelOutcome {
    /// The trained bundle, identical in shape to [`fn@crate::pretrain::pretrain`]'s.
    pub pretrained: Pretrained,
    /// Executor accounting (traffic, timings, memory).
    pub report: ParallelReport,
    /// `(steps_completed, bytes)` checkpoints when periodic
    /// checkpointing was requested; empty otherwise.
    pub checkpoints: Vec<(usize, Vec<u8>)>,
}

// ---------------------------------------------------------------------------
// Shard plan: tensor-aligned contiguous partition of the flat space.
// ---------------------------------------------------------------------------

/// The partition both ring collectives and ZeRO-1 ownership use: rank
/// `r` owns a contiguous run of whole tensors, balanced by scalar
/// count. Using the same bounds for reduction chunks and optimizer
/// shards is what makes ZeRO-1 bit-identical to replicated DP.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Per-rank scalar ranges in the flat layout.
    pub flat: Vec<Range<usize>>,
    /// Per-rank tensor-index ranges.
    pub tensors: Vec<Range<usize>>,
    /// Flat offset of each tensor (prefix sums of the sizes).
    pub offsets: Vec<usize>,
    /// Total scalar count M.
    pub total: usize,
}

/// Typed failure for [`ShardPlan::try_new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPlanError {
    /// Zero ranks cannot partition anything.
    NoRanks,
}

impl std::fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPlanError::NoRanks => write!(f, "shard plan needs at least one rank"),
        }
    }
}

impl std::error::Error for ShardPlanError {}

impl ShardPlan {
    /// Partition tensors of the given sizes across `n` ranks.
    ///
    /// Panics when `n == 0` ([`ShardPlan::try_new`] is the
    /// non-panicking form). Degenerate inputs are clamped, never
    /// implicit:
    /// * **more ranks than tensors** (or than scalars) leaves the
    ///   surplus ranks with empty shards — they own nothing and move
    ///   zero-length ring chunks;
    /// * **zero-length tensors** are owned by the rank whose tensor
    ///   range contains them (trailing ones by the last rank), so
    ///   [`ShardPlan::owners`] covers every tensor;
    /// * **`n == 1`** degenerates to one rank owning the whole flat
    ///   space.
    pub fn new(sizes: &[usize], n: usize) -> Self {
        Self::try_new(sizes, n).expect("need at least one rank")
    }

    /// As [`ShardPlan::new`], returning a typed error instead of
    /// panicking on a zero-rank request.
    pub fn try_new(sizes: &[usize], n: usize) -> Result<Self, ShardPlanError> {
        if n == 0 {
            return Err(ShardPlanError::NoRanks);
        }
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0usize;
        for &s in sizes {
            offsets.push(acc);
            acc += s;
        }
        let total = acc;
        // Snap the ideal equal cuts to tensor boundaries: shard r covers
        // tensors [b_r, b_{r+1}) where b_r is the boundary nearest to
        // r·M/n (rounding to the nearest boundary rather than always up
        // halves the worst-case skew a large tensor can induce). The
        // outer cuts are pinned so the partition always covers all
        // tensors, including zero-length ones at offset 0 or M.
        let cut = |i: usize| -> usize {
            if i == 0 {
                return 0;
            }
            if i >= n {
                return sizes.len();
            }
            let ideal = i * total / n;
            let hi = offsets.partition_point(|&off| off < ideal);
            if hi == 0 {
                return 0;
            }
            let hi_off = offsets.get(hi).copied().unwrap_or(total);
            let lo_off = offsets[hi - 1];
            if ideal - lo_off < hi_off - ideal {
                hi - 1
            } else {
                hi
            }
        };
        let mut tensors = Vec::with_capacity(n);
        let mut flat = Vec::with_capacity(n);
        let mut prev = 0usize;
        for r in 0..n {
            // clamp keeps the boundaries monotone when duplicate offsets
            // (zero-length tensors) make nearest-rounding ambiguous
            let a = prev;
            let b = cut(r + 1).clamp(a, sizes.len());
            prev = b;
            tensors.push(a..b);
            let start = offsets.get(a).copied().unwrap_or(total);
            let end = offsets.get(b).copied().unwrap_or(total);
            flat.push(start..end);
        }
        offsets.push(total);
        Ok(Self {
            flat,
            tensors,
            offsets,
            total,
        })
    }

    /// Ownership mask over tensors for `rank` (the
    /// [`matgpt_optim::Optimizer::step_masked`] argument).
    pub fn owned_mask(&self, rank: usize) -> Vec<bool> {
        let n_tensors = self.offsets.len() - 1;
        (0..n_tensors)
            .map(|t| self.tensors[rank].contains(&t))
            .collect()
    }

    /// For every tensor, the rank that owns it (the
    /// [`matgpt_optim::OptimizerState::merge_shards`] argument).
    pub fn owners(&self) -> Vec<usize> {
        let n_tensors = self.offsets.len() - 1;
        (0..n_tensors)
            .map(|t| {
                self.tensors
                    .iter()
                    .position(|r| r.contains(&t))
                    .expect("every tensor has an owner")
            })
            .collect()
    }

    /// Scalar count owned by each rank.
    pub fn shard_scalars(&self) -> Vec<usize> {
        self.flat.iter().map(|r| r.len()).collect()
    }
}

// ---------------------------------------------------------------------------
// Shared numerics (coordinator, workers and reference must agree bitwise).
// ---------------------------------------------------------------------------

/// Rank-order left-fold mean — the one loss-averaging order every
/// executor uses so recorded curves agree bitwise.
fn fold_mean(losses: &[f32]) -> f32 {
    losses.iter().copied().fold(0.0f32, |a, b| a + b) / losses.len() as f32
}

/// Split the coordinator's global batch into per-replica micro-batches
/// of `rows` rows each (contiguous row blocks, rank order).
fn split_batch(batch: &Batch, n: usize) -> Vec<Batch> {
    assert!(batch.batch.is_multiple_of(n), "batch divides over workers");
    let rows = batch.batch / n;
    let stride = rows * batch.seq;
    (0..n)
        .map(|r| Batch {
            inputs: batch.inputs[r * stride..(r + 1) * stride].to_vec(),
            targets: batch.targets[r * stride..(r + 1) * stride].to_vec(),
            batch: rows,
            seq: batch.seq,
        })
        .collect()
}

/// Scale `buf[own]` by 1/n — the gradient-averaging step, applied by
/// each chunk's owner right after the reduce-scatter so every element
/// is scaled exactly once. Skipped at n = 1 to keep DP×1 bit-identical
/// to the plain [`crate::pretrain::Trainer`] (which never averages).
fn scale_owned(buf: &mut [f32], own: &Range<usize>, n: usize) {
    if n > 1 {
        let inv = 1.0f32 / n as f32;
        for x in &mut buf[own.clone()] {
            *x *= inv;
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// The data-parallel training executor. See the module docs for the
/// synchronization modes and equivalence guarantees.
///
/// # Examples
///
/// ```
/// use matgpt_core::parallel::{DataParallel, ParallelConfig};
/// use matgpt_core::{OptChoice, PretrainConfig, SizeRole};
/// use matgpt_corpus::{build_corpus, CorpusConfig};
/// use matgpt_model::ArchKind;
/// use matgpt_tokenizer::TokenizerKind;
///
/// let documents = build_corpus(&CorpusConfig {
///     n_materials: 8,
///     total_docs: 24,
///     offtopic_fraction: 0.2,
///     seed: 5,
/// })
/// .documents;
/// let cfg = PretrainConfig {
///     steps: 2,
///     batch_seqs: 4,
///     seq: 16,
///     ..PretrainConfig::scaled(
///         ArchKind::Llama,
///         TokenizerKind::Hf,
///         300,
///         OptChoice::Adam,
///         SizeRole::Base,
///     )
/// };
///
/// // Two replicas with a ZeRO-1 sharded optimizer.
/// let outcome = DataParallel::new(ParallelConfig::zero1(2)).train(&documents, &cfg);
/// assert_eq!(outcome.report.workers, 2);
/// assert!(outcome.pretrained.curves.final_train().is_finite());
/// // Each worker held roughly half the optimizer state.
/// let max_shard = outcome.report.max_opt_state_bytes();
/// let replicated: usize = 8 + 2 * 4 * outcome.report.param_scalars;
/// assert!(max_shard < replicated);
/// ```
pub struct DataParallel {
    topo: Topology,
}

impl DataParallel {
    /// An executor for the given grid. A `{workers,1,1}`
    /// [`ParallelConfig`] is classic data parallelism; any other
    /// [`Topology`] composes tensor and pipeline parallelism in.
    pub fn new(cfg: ParallelConfig) -> Self {
        Self { topo: cfg }
    }

    /// Train `cfg` on `documents` across the configured workers.
    /// Panics when the grid cannot host the model or batch
    /// ([`train_topology`] is the non-panicking form).
    pub fn train(&self, documents: &[String], cfg: &PretrainConfig) -> ParallelOutcome {
        let run = run_grid(documents, cfg, self.topo, RunSpec::plain(true));
        outcome(run.unwrap_or_else(|e| panic!("{e}")), cfg)
    }

    /// As [`DataParallel::train`], checkpointing every `every` steps
    /// (and at the final step). The images are ordinary v2 MGPT
    /// checkpoints of the full model:
    /// [`crate::pretrain::pretrain_resume`] accepts them.
    pub fn train_with_checkpoints(
        &self,
        documents: &[String],
        cfg: &PretrainConfig,
        every: usize,
    ) -> ParallelOutcome {
        let spec = RunSpec {
            image_every: Some(every.max(1)),
            ..RunSpec::plain(true)
        };
        let run = run_grid(documents, cfg, self.topo, spec);
        outcome(run.unwrap_or_else(|e| panic!("{e}")), cfg)
    }

    /// Resume a checkpointed run (from any grid, or a single-worker
    /// [`crate::pretrain::Trainer`]) and finish it on this grid.
    pub fn resume(
        &self,
        documents: &[String],
        cfg: &PretrainConfig,
        bytes: &[u8],
    ) -> Result<ParallelOutcome, ResumeError> {
        let spec = RunSpec {
            resume: Some(bytes),
            ..RunSpec::plain(true)
        };
        match run_grid(documents, cfg, self.topo, spec) {
            Ok(run) => Ok(outcome(run, cfg)),
            Err(TopologyError::Resume(e)) => Err(e),
            Err(e) => panic!("{e}"),
        }
    }

    /// Train under injected faults, surviving them: bounded-timeout
    /// detection on every wire, snapshot rollback, and
    /// (policy-dependent) elastic shrink of the dp axis to the surviving
    /// replicas. See the [`resilience`] docs for the contract and
    /// `PARALLELISM.md` for the state machine.
    ///
    /// The returned outcome's `checkpoints` are the in-memory snapshots
    /// `(step, v2 image)` the run consolidated; post-recovery segments
    /// are bit-identical to [`DataParallel::resume`] runs from those
    /// images on the post-recovery grid.
    pub fn train_resilient(
        &self,
        documents: &[String],
        cfg: &PretrainConfig,
        res: ResilienceConfig,
    ) -> ResilientOutcome {
        let spec = RunSpec {
            image_every: Some(res.snapshot_every.max(1)),
            resume: None,
            val_each_eval: true,
            res,
            recover: true,
        };
        let mut run = run_grid(documents, cfg, self.topo, spec).unwrap_or_else(|e| panic!("{e}"));
        let resilience = std::mem::take(&mut run.resilience);
        ResilientOutcome {
            outcome: outcome(run, cfg),
            resilience,
        }
    }

    /// The sequential reference executor at `{workers,1,1}`: one
    /// thread, micro-batch gradients combined with [`ring_fold`] — the
    /// deterministic-reduction definition of "single-worker training on
    /// the concatenated batch" that the threaded executor must (and
    /// does) match bit-for-bit. Also the contention-free way to measure
    /// per-worker compute on machines with fewer cores than workers.
    /// [`reference_topology`] is the same replay on any grid.
    pub fn train_reference(
        documents: &[String],
        cfg: &PretrainConfig,
        workers: usize,
    ) -> ParallelOutcome {
        let run = reference_grid(documents, cfg, Topology::replicated(workers), true)
            .unwrap_or_else(|e| panic!("{e}"));
        outcome(run, cfg)
    }
}

/// Project a finished grid run onto the [`ParallelOutcome`] shape.
fn outcome(run: GridRun, cfg: &PretrainConfig) -> ParallelOutcome {
    ParallelOutcome {
        pretrained: Pretrained {
            model: run.model,
            store: run.store,
            tokenizer: run.tokenizer,
            curves: LossCurves {
                label: cfg.label(),
                train: run.train_curve,
                val: run.val_curve,
            },
            config: cfg.clone(),
        },
        report: run.parallel,
        checkpoints: run.images,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_covers_and_aligns() {
        let sizes = vec![100, 3, 50, 50, 7, 90];
        for n in 1..=4 {
            let plan = ShardPlan::new(&sizes, n);
            assert_eq!(plan.total, 300);
            assert_eq!(plan.flat.len(), n);
            // contiguous cover of the flat space
            assert_eq!(plan.flat[0].start, 0);
            assert_eq!(plan.flat[n - 1].end, 300);
            for w in plan.flat.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            // every bound is a tensor boundary
            for r in &plan.flat {
                assert!(plan.offsets.contains(&r.start));
                assert!(plan.offsets.contains(&r.end));
            }
            // ownership is a partition
            let owners = plan.owners();
            assert_eq!(owners.len(), sizes.len());
            for (t, &o) in owners.iter().enumerate() {
                assert!(plan.owned_mask(o)[t]);
            }
        }
    }

    #[test]
    fn shard_plan_more_ranks_than_tensors_leaves_empty_shards() {
        let sizes = vec![8, 4];
        let plan = ShardPlan::new(&sizes, 5);
        assert_eq!(plan.flat.len(), 5);
        assert_eq!(plan.shard_scalars().iter().sum::<usize>(), 12);
        // coverage is contiguous even through the empty shards
        assert_eq!(plan.flat[0].start, 0);
        assert_eq!(plan.flat[4].end, 12);
        for w in plan.flat.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let owners = plan.owners();
        assert_eq!(owners.len(), 2);
        for (t, &o) in owners.iter().enumerate() {
            assert!(plan.owned_mask(o)[t]);
        }
        assert!(
            plan.shard_scalars().contains(&0),
            "surplus ranks own nothing"
        );
    }

    #[test]
    fn shard_plan_zero_length_tensors_are_always_owned() {
        // zero-length tensors at the head, middle and tail — every one
        // must still have exactly one owner, whatever the rank count
        let sizes = vec![0, 5, 0, 7, 0, 0];
        for n in 1..=5 {
            let plan = ShardPlan::new(&sizes, n);
            assert_eq!(plan.total, 12);
            let owners = plan.owners();
            assert_eq!(owners.len(), sizes.len());
            for (t, &o) in owners.iter().enumerate() {
                assert!(plan.owned_mask(o)[t], "tensor {t} owned at n={n}");
            }
            assert_eq!(plan.flat[0].start, 0);
            assert_eq!(plan.flat[n - 1].end, 12);
        }
    }

    #[test]
    fn shard_plan_degenerate_all_zero_and_empty_inputs() {
        for sizes in [vec![], vec![0, 0, 0]] {
            for n in 1..=3 {
                let plan = ShardPlan::new(&sizes, n);
                assert_eq!(plan.total, 0);
                assert_eq!(plan.owners().len(), sizes.len());
                assert!(plan.flat.iter().all(|r| r.is_empty()));
            }
        }
    }

    #[test]
    fn shard_plan_single_worker_owns_everything() {
        let plan = ShardPlan::new(&[3, 0, 9], 1);
        assert_eq!(plan.flat, vec![0..12]);
        assert_eq!(plan.tensors, vec![0..3]);
        assert_eq!(plan.owners(), vec![0, 0, 0]);
    }

    #[test]
    fn shard_plan_zero_ranks_is_a_typed_error() {
        assert!(matches!(
            ShardPlan::try_new(&[4], 0),
            Err(ShardPlanError::NoRanks)
        ));
    }

    #[test]
    fn fold_mean_of_single_loss_is_identity() {
        let l = 2.3456789f32;
        assert_eq!(fold_mean(&[l]).to_bits(), l.to_bits());
    }

    #[test]
    fn split_batch_partitions_rows_in_rank_order() {
        let batch = Batch {
            inputs: (0..12).collect(),
            targets: (100..112).collect(),
            batch: 4,
            seq: 3,
        };
        let micros = split_batch(&batch, 2);
        assert_eq!(micros[0].inputs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(micros[1].inputs, vec![6, 7, 8, 9, 10, 11]);
        assert_eq!(micros[1].targets, vec![106, 107, 108, 109, 110, 111]);
        assert_eq!(micros[0].batch, 2);
        assert_eq!(micros[0].seq, 3);
    }
}
