//! The one grid description every training entry point runs on, and
//! what a grid run reports about its own communication.
//!
//! A [`Topology`] is the executed (not simulated) 3-D parallel layout
//! of the paper's Sec. 4: one worker thread per grid seat `(d, s, r)` —
//! data replica `d`, pipeline stage `s`, tensor rank `r` — with every
//! wire between workers a bounded ring or a
//! [`PipeLink`](super::PipeLink):
//!
//! * **TP** — each `(d, s)` pair owns a `tp`-rank ring; the four
//!   Megatron sync points per layer (`f` after each norm on the way
//!   back, `g` after each row-parallel matmul on the way forward) run
//!   as real ring allreduces through a [`RingComm`](super::RingComm)
//!   tape hook, in ring-fold order so the result is bitwise
//!   reproducible.
//! * **PP** — each `(d, r)` column owns `pp − 1` links; the per-step
//!   schedule is 1F1B (warm-up of `min(chunks, pp − 1 − s)` forwards,
//!   then alternating forward/backward, then cool-down), with boundary
//!   activations and gradients as p2p transfers.
//! * **DP** — each `(s, r)` pair owns a `dp`-rank ring over its shard
//!   store's gradient: reduce-scatter + allgather when the optimizer is
//!   replicated; under [`Topology::zero1`] reduce-scatter, a masked
//!   optimizer step on the owned [`ShardPlan`](super::ShardPlan) run,
//!   and an allgather of the updated parameters.
//! * **Grad-norm** — global clipping needs one scalar across the whole
//!   grid; each replica `d` owns a `pp·tp`-member ring that allgathers
//!   per-tensor squared norms, folded in one canonical order (stages
//!   ascending, tensors in registration order, sharded tensors summed
//!   over tp ranks, replicated tensors counted once from rank 0).
//!
//! [`train_topology`] runs a grid on threads; [`reference_topology`]
//! replays the identical arithmetic on a single thread, so
//! `train ≡ reference` is a bitwise test, not a tolerance test. Both are
//! thin wrappers over the one executor in `parallel/executor.rs`, as
//! are the [`DataParallel`](super::DataParallel) entry points. Every
//! worker also audits its wire bytes against closed forms and logs a
//! per-collective message-size histogram for comparison against the
//! simulator's Fig. 11 model.

use super::collective::CollectiveError;
use super::executor::{reference_grid, run_grid, GridRun, RunSpec};
use crate::pretrain::ResumeError;
use crate::recipes::PretrainConfig;
use matgpt_frontier_sim::collectives::{wire_bytes, Collective as CollKind};
use matgpt_model::tp::TpPlanError;
use matgpt_model::GptModel;
use matgpt_tensor::ParamStore;

/// A `dp × tp × pp` device grid, the micro-batch chunk count of its
/// 1F1B pipeline schedule, and how its dp axis keeps optimizer state.
///
/// [`ParallelConfig`](super::ParallelConfig) is this type:
/// `ParallelConfig::replicated(n)` and `ParallelConfig::zero1(n)` build
/// `{n, 1, 1}` grids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Data-parallel replicas. The global batch must divide by it.
    pub dp: usize,
    /// Tensor-parallel ranks per replica-stage.
    pub tp: usize,
    /// Pipeline stages.
    pub pp: usize,
    /// Micro-batch chunks per step (1F1B schedule width). Defaults to
    /// `pp`; more chunks shrink the pipeline bubble
    /// `(pp−1)/(pp−1+chunks)`.
    pub chunks: usize,
    /// ZeRO-1: shard optimizer state across the dp ring instead of
    /// replicating it, at any `{tp, pp}`.
    pub zero1: bool,
}

impl Topology {
    /// A grid with `chunks = pp` and a replicated optimizer.
    pub fn new(dp: usize, tp: usize, pp: usize) -> Self {
        assert!(
            dp >= 1 && tp >= 1 && pp >= 1,
            "degenerate axes are 1, not 0"
        );
        Topology {
            dp,
            tp,
            pp,
            chunks: pp,
            zero1: false,
        }
    }

    /// Classic replicated data parallelism over `workers` replicas.
    pub fn replicated(workers: usize) -> Self {
        Self::new(workers, 1, 1)
    }

    /// Data parallelism over `workers` replicas with a ZeRO-1 sharded
    /// optimizer.
    pub fn zero1(workers: usize) -> Self {
        Self::new(workers, 1, 1).with_zero1()
    }

    /// Override the micro-batch chunk count.
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1, "need at least one chunk");
        self.chunks = chunks;
        self
    }

    /// Shard optimizer state across the dp ring (ZeRO-1).
    pub fn with_zero1(mut self) -> Self {
        self.zero1 = true;
        self
    }

    /// Total worker count `dp · tp · pp`.
    pub fn world(&self) -> usize {
        self.dp * self.tp * self.pp
    }

    /// Grid-lexicographic index of seat `(d, s, r)` — the worker "rank"
    /// fault plans, heartbeats, postmortems and per-worker report
    /// vectors use. On a `{dp,1,1}` grid it is the dp rank.
    pub fn seat(&self, d: usize, s: usize, r: usize) -> usize {
        (d * self.pp + s) * self.tp + r
    }

    /// Inverse of [`Topology::seat`]: `(d, s, r)` of a seat index.
    pub fn coords(&self, seat: usize) -> (usize, usize, usize) {
        (
            seat / (self.pp * self.tp),
            seat / self.tp % self.pp,
            seat % self.tp,
        )
    }

    /// Compact label for reports and CI logs, e.g. `dp2-tp2-pp1c1`
    /// (`-zero1` appended when the optimizer is sharded).
    pub fn describe(&self) -> String {
        let zero1 = if self.zero1 { "-zero1" } else { "" };
        format!(
            "dp{}-tp{}-pp{}c{}{zero1}",
            self.dp, self.tp, self.pp, self.chunks
        )
    }
}

/// Why a topology run could not start or finish.
#[derive(Debug)]
pub enum TopologyError {
    /// The model does not divide across the requested grid.
    Plan(TpPlanError),
    /// The optimizer update is not elementwise (LAMB's per-tensor
    /// trust ratio), so per-shard updates would diverge from the
    /// assembled-tensor update under TP.
    Optimizer {
        /// The requested tensor-parallel width.
        tp: usize,
    },
    /// The global batch does not divide across `dp` replicas.
    Batch {
        /// Global batch (sequences).
        batch: usize,
        /// Data-parallel replicas.
        dp: usize,
    },
    /// More chunks than micro-batch rows — some chunks would be empty.
    Chunks {
        /// Requested chunk count.
        chunks: usize,
        /// Rows per replica.
        rows: usize,
    },
    /// A step failed and the run was not asked to recover; the step
    /// did not commit anywhere (peers observe the loss and abort too).
    /// Names the seat that never answered — with
    /// [`CollectiveError::RankLost`] when it died, `Timeout` when it
    /// stalled — or, when every seat answered, the first seat to report
    /// a wire failure.
    Step {
        /// Training step that failed.
        step: usize,
        /// Data replica of the named seat.
        d: usize,
        /// Pipeline stage of the named seat.
        stage: usize,
        /// Tensor rank of the named seat.
        tp_rank: usize,
        /// The underlying wire failure.
        err: CollectiveError,
    },
    /// The resume image was rejected before any thread spawned.
    Resume(ResumeError),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Plan(e) => write!(f, "topology plan: {e}"),
            TopologyError::Optimizer { tp } => write!(
                f,
                "optimizer update is not elementwise; cannot shard across tp={tp}"
            ),
            TopologyError::Batch { batch, dp } => {
                write!(f, "global batch {batch} does not divide across dp={dp}")
            }
            TopologyError::Chunks { chunks, rows } => {
                write!(
                    f,
                    "{chunks} chunks over {rows} rows leaves empty micro-batches"
                )
            }
            TopologyError::Step {
                step,
                d,
                stage,
                tp_rank,
                err,
            } => write!(
                f,
                "step {step} failed at (d={d}, stage={stage}, tp={tp_rank}): {err}"
            ),
            TopologyError::Resume(e) => write!(f, "resume: {e}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<TpPlanError> for TopologyError {
    fn from(e: TpPlanError) -> Self {
        TopologyError::Plan(e)
    }
}

/// One worker's measured wire bytes next to the closed forms the
/// ring/link algorithms imply — equality is exact, not approximate.
#[derive(Clone, Copy, Debug)]
pub struct WireAudit {
    /// Data replica.
    pub d: usize,
    /// Pipeline stage.
    pub stage: usize,
    /// Tensor rank.
    pub tp_rank: usize,
    /// Bytes this worker sent on its TP activation ring.
    pub tp_bytes: u64,
    /// Closed form: `steps · Σ_chunks 4·layers_s ·` per-rank ring
    /// allreduce bytes over `rows_j·seq·hidden` scalars.
    pub tp_expected: u64,
    /// Bytes sent on the DP gradient ring.
    pub dp_bytes: u64,
    /// Closed form: per-rank reduce-scatter + allgather bytes over the
    /// shard store's tensor-aligned chunk bounds, plus under ZeRO-1 the
    /// allgather of one squared norm per tensor.
    pub dp_expected: u64,
    /// Bytes sent on the grad-norm allgather ring.
    pub norm_bytes: u64,
    /// Closed form: per-member allgather bytes over the per-tensor
    /// squared-norm segments.
    pub norm_expected: u64,
    /// Bytes sent over pipeline boundary links (both directions).
    pub pipe_bytes: u64,
    /// Closed form: `steps · dirs · Σ_chunks 4·rows_j·seq·hidden`.
    pub pipe_expected: u64,
}

impl WireAudit {
    /// Did every measured counter hit its closed form exactly?
    pub fn exact(&self) -> bool {
        self.tp_bytes == self.tp_expected
            && self.dp_bytes == self.dp_expected
            && self.norm_bytes == self.norm_expected
            && self.pipe_bytes == self.pipe_expected
    }
}

/// One bin of the executed message-size histogram: a distinct
/// (collective kind, logical buffer bytes, group size) with its
/// group-level call count — the executed twin of the simulator's
/// Fig. 11 message-size breakdown.
#[derive(Clone, Copy, Debug)]
pub struct MsgBin {
    /// Collective kind.
    pub kind: CollKind,
    /// Logical buffer size in bytes (the full tensor, not per-rank
    /// wire traffic).
    pub bytes: u64,
    /// Participating ranks.
    pub group: usize,
    /// Group-level calls across the run.
    pub calls: u64,
}

/// What a topology run measured about its own communication.
#[derive(Clone, Debug)]
pub struct TopologyReport {
    /// The grid that ran.
    pub topo: Topology,
    /// Optimizer steps this run committed — the same count as
    /// [`ParallelReport::steps_run`](super::ParallelReport::steps_run).
    pub steps_run: usize,
    /// Full-model scalar count.
    pub param_scalars: usize,
    /// Per-worker wire audit, `(d, s, r)` lexicographic, covering the
    /// steps the final worker pool ran. Empty for the sequential
    /// reference (nothing crosses a wire there).
    pub wire: Vec<WireAudit>,
    /// Executed message-size histogram.
    pub msg_bins: Vec<MsgBin>,
}

impl TopologyReport {
    /// True when every worker's bytes match the closed forms exactly.
    pub fn wire_exact(&self) -> bool {
        self.wire.iter().all(|w| w.exact())
    }

    /// Each bin's share of total wire traffic (bin wire bytes =
    /// per-call [`wire_bytes`] formula × calls), for comparison against
    /// the simulator's message-size shares.
    pub fn message_shares(&self) -> Vec<(CollKind, u64, f64)> {
        let weights: Vec<f64> = self
            .msg_bins
            .iter()
            .map(|b| wire_bytes(b.kind, b.bytes as f64, b.group) * b.calls as f64)
            .collect();
        let total: f64 = weights.iter().sum();
        self.msg_bins
            .iter()
            .zip(&weights)
            .map(|(b, w)| (b.kind, b.bytes, if total > 0.0 { w / total } else { 0.0 }))
            .collect()
    }
}

/// A finished topology run: the consolidated full model plus curves
/// and the communication report.
pub struct TopologyOutcome {
    /// The full (unsharded) model description.
    pub model: GptModel,
    /// Consolidated full parameter store.
    pub store: ParamStore,
    /// `(step, loss)` at eval points — the dp-mean of per-replica
    /// chunk-weighted losses.
    pub train_curve: Vec<(usize, f32)>,
    /// Validation loss of the consolidated model after the last step.
    pub final_val: f32,
    /// Wire audit and message histogram.
    pub report: TopologyReport,
}

impl TopologyOutcome {
    fn from_run(run: GridRun) -> Self {
        let final_val = run.val_curve.last().map_or(f32::NAN, |&(_, l)| l);
        TopologyOutcome {
            model: run.model,
            store: run.store,
            train_curve: run.train_curve,
            final_val,
            report: run.topology,
        }
    }
}

/// Train on an executed `dp × tp × pp` grid of worker threads, then
/// consolidate replica 0's shards back into one full model. Fault-free:
/// a dead or silent worker ends the run with [`TopologyError::Step`].
///
/// Bitwise contract: for any grid and chunk count this produces the
/// same weights and losses as [`reference_topology`], ZeRO-1 or not; at
/// `{N,1,1}` it is the run [`DataParallel::train`](super::DataParallel::train)
/// performs (minus the per-eval-step validation), and at `{1,1,1}×1`
/// the TP sync ops and pipeline boundaries degenerate to the plain
/// single-tape graph of [`crate::pretrain::Trainer`].
pub fn train_topology(
    documents: &[String],
    cfg: &PretrainConfig,
    topo: Topology,
) -> Result<TopologyOutcome, TopologyError> {
    run_grid(documents, cfg, topo, RunSpec::plain(false)).map(TopologyOutcome::from_run)
}

/// The sequential single-thread replay of [`train_topology`]: identical
/// shard stores, identical chunking and fold orders, zero wires. Every
/// grid's threaded run must match this bitwise.
pub fn reference_topology(
    documents: &[String],
    cfg: &PretrainConfig,
    topo: Topology,
) -> Result<TopologyOutcome, TopologyError> {
    reference_grid(documents, cfg, topo, false).map(TopologyOutcome::from_run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_defaults_chunks_to_pp() {
        let t = Topology::new(2, 1, 3);
        assert_eq!(t.chunks, 3);
        assert_eq!(t.world(), 6);
        assert_eq!(t.describe(), "dp2-tp1-pp3c3");
        assert_eq!(Topology::new(1, 2, 1).with_chunks(4).chunks, 4);
        assert_eq!(Topology::zero1(2).describe(), "dp2-tp1-pp1c1-zero1");
    }

    #[test]
    fn seats_are_grid_lexicographic_and_invert() {
        let t = Topology::new(2, 2, 3);
        let mut next = 0;
        for d in 0..2 {
            for s in 0..3 {
                for r in 0..2 {
                    assert_eq!(t.seat(d, s, r), next);
                    assert_eq!(t.coords(next), (d, s, r));
                    next += 1;
                }
            }
        }
        // on a pure dp grid the seat is the dp rank
        assert_eq!(Topology::replicated(4).seat(3, 0, 0), 3);
    }

    #[test]
    fn message_shares_weight_by_wire_bytes() {
        let report = TopologyReport {
            topo: Topology::new(1, 2, 1),
            steps_run: 1,
            param_scalars: 0,
            wire: Vec::new(),
            msg_bins: vec![
                MsgBin {
                    kind: CollKind::AllReduce,
                    bytes: 1000,
                    group: 2,
                    calls: 3,
                },
                MsgBin {
                    kind: CollKind::P2p,
                    bytes: 500,
                    group: 2,
                    calls: 2,
                },
            ],
        };
        let shares = report.message_shares();
        assert_eq!(shares.len(), 2);
        let total: f64 = shares.iter().map(|(_, _, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
