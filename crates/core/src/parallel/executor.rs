//! The one training executor: one threaded worker per grid seat, one
//! coordinator step loop, one sequential reference.
//!
//! Every training entry point of [`crate::parallel`] —
//! [`DataParallel`](super::DataParallel)'s `train`,
//! `train_with_checkpoints`, `resume`, `train_resilient`, and
//! [`train_topology`](super::train_topology) — is [`run_grid`] under a
//! different [`RunSpec`]; `train_reference` and
//! [`reference_topology`](super::reference_topology) are
//! [`reference_grid`]. A fault-free run is the resilient run with an
//! empty [`FaultPlan`], no snapshots and no permission to recover.
//!
//! The coordinator never holds a shard: workers own their
//! `(ShardModel, ParamStore)` and optimizer, and ship flat weights (and,
//! at snapshot steps, optimizer state) back with their step reply when
//! asked. Consolidating those exports into the full model is how eval
//! steps validate, how snapshots become ordinary v2 images, and how the
//! run ends — on any grid.

use super::collective::{
    ring_allgather_rank_bytes, ring_allreduce_rank_bytes, ring_reduce_scatter_rank_bytes,
    CollectiveError, PipeDir, PipeLink, Ring, RingComm,
};
use super::resilience::{
    FailureCause, FaultKind, FaultPlan, Heartbeats, RecoveryEvent, RecoveryPolicy,
    ResilienceConfig, ResilienceReport,
};
use super::topology::{MsgBin, Topology, TopologyError, TopologyReport, WireAudit};
use super::{fold_mean, scale_owned, split_batch, ParallelReport, ShardPlan};
use crate::pretrain::{
    build_model, build_optimizer, decode_resume, encode_checkpoint, is_eval_step, restore_weights,
    validation_loss_on, ResumeError, RunSetup, SEC_OPT,
};
use crate::recipes::PretrainConfig;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use matgpt_corpus::Batch;
use matgpt_frontier_sim::collectives::{wire_bytes, Collective as CollKind};
use matgpt_model::tp::{
    accumulate_staged_grads, consolidate_shards, reference_loss, shard_model, stage_ranges,
    validate_plan, ShardModel, StageForward, StageInput,
};
use matgpt_model::GptModel;
use matgpt_obs::{flight, pids, Histogram, Registry, Span};
use matgpt_optim::{LrSchedule, OptimizerState};
use matgpt_tensor::precision::{restore_values, round_store, snapshot_values};
use matgpt_tensor::{
    ring_chunks, ring_fold, CommHook, ParamStore, Precision, Tape, TapeComm, Tensor, Var,
};
use matgpt_tokenizer::Tokenizer;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::rc::Rc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// What a run is asked to do, and what it hands back.
// ---------------------------------------------------------------------------

/// The knobs that distinguish the entry points from one another.
pub(crate) struct RunSpec<'a> {
    /// Consolidate a v2 image every this many committed steps (and at
    /// the final step): periodic checkpoints and rollback snapshots are
    /// the same thing. `None` writes no images.
    pub image_every: Option<usize>,
    /// Start from this v2 image instead of step 0.
    pub resume: Option<&'a [u8]>,
    /// Validate at every eval step (the `DataParallel` contract) or
    /// only after the last step (the `train_topology` contract).
    pub val_each_eval: bool,
    /// Injected faults, detection thresholds and recovery policy.
    pub res: ResilienceConfig,
    /// Roll back and continue after a failure; otherwise the first
    /// failure ends the run with [`TopologyError::Step`].
    pub recover: bool,
}

impl RunSpec<'static> {
    /// A fault-free run from step 0 with no images.
    pub(crate) fn plain(val_each_eval: bool) -> Self {
        RunSpec {
            image_every: None,
            resume: None,
            val_each_eval,
            res: ResilienceConfig::default(),
            recover: false,
        }
    }
}

/// Everything a finished run produced; the public outcome types are
/// projections of this.
pub(crate) struct GridRun {
    pub tokenizer: Box<dyn Tokenizer>,
    pub model: GptModel,
    pub store: ParamStore,
    pub train_curve: Vec<(usize, f32)>,
    pub val_curve: Vec<(usize, f32)>,
    pub images: Vec<(usize, Vec<u8>)>,
    pub parallel: ParallelReport,
    pub topology: TopologyReport,
    pub resilience: ResilienceReport,
}

// ---------------------------------------------------------------------------
// Shared numerics (workers and the reference must agree bitwise).
// ---------------------------------------------------------------------------

/// One `(stage, tp rank)` grid of shards, `[s][r]`.
type Grid = Vec<Vec<(ShardModel, ParamStore)>>;

fn carve_grid(model: &GptModel, store: &ParamStore, tp: usize, ranges: &[Range<usize>]) -> Grid {
    let pp = ranges.len();
    (0..pp)
        .map(|s| {
            (0..tp)
                .map(|r| shard_model(model, store, tp, r, ranges[s].clone(), s == 0, s + 1 == pp))
                .collect()
        })
        .collect()
}

fn grid_view(grid: &Grid) -> Vec<Vec<(&ShardModel, &ParamStore)>> {
    grid.iter()
        .map(|row| row.iter().map(|(m, st)| (m, st)).collect())
        .collect()
}

/// Layout of the grad-norm allgather buffer: member `(s, r)` of a
/// replica contributes one squared norm per tensor of its shard store.
struct NormLayout {
    tp: usize,
    /// Tensors per stage.
    counts: Vec<usize>,
    /// Per stage, per tensor: TP-sharded (true) or replicated.
    flags: Vec<Vec<bool>>,
    /// Member `s·tp + r`'s segment of the buffer.
    bounds: Vec<Range<usize>>,
}

impl NormLayout {
    fn of(grid: &Grid) -> Self {
        let tp = grid[0].len();
        let counts: Vec<usize> = grid.iter().map(|row| row[0].1.len()).collect();
        let flags = grid
            .iter()
            .map(|row| row[0].0.sharded_flags(&row[0].1))
            .collect();
        let mut bounds = Vec::with_capacity(counts.len() * tp);
        let mut off = 0usize;
        for &count in &counts {
            for _ in 0..tp {
                bounds.push(off..off + count);
                off += count;
            }
        }
        NormLayout {
            tp,
            counts,
            flags,
            bounds,
        }
    }

    fn total(&self) -> usize {
        self.bounds.last().map_or(0, |b| b.end)
    }

    /// Canonical fold of the allgathered per-tensor squared norms into
    /// the global grad norm: stages ascending, tensors in registration
    /// order; a sharded tensor sums its `tp` partial norms in rank
    /// order, a replicated tensor is counted once, from rank 0. Workers
    /// and the reference fold in exactly this order, so the clip scale —
    /// and therefore every weight — matches bitwise.
    fn fold(&self, buf: &[f32]) -> f32 {
        let mut total = 0.0f32;
        for (s, &cnt) in self.counts.iter().enumerate() {
            for i in 0..cnt {
                let ranks = if self.flags[s][i] { self.tp } else { 1 };
                for r in 0..ranks {
                    total += buf[self.bounds[s * self.tp + r].start + i];
                }
            }
        }
        total.sqrt()
    }
}

/// Squared gradient norms of the tensors in `tensors`, read from a flat
/// buffer laid out by `offsets` — each entry computed exactly like
/// `Tensor::sq_norm`, so the clip matches `ParamStore::clip_grad_norm`
/// bitwise. Entries outside `tensors` are left untouched.
fn sq_norms(flat: &[f32], offsets: &[usize], tensors: Range<usize>, out: &mut [f32]) {
    for t in tensors {
        out[t] = flat[offsets[t]..offsets[t + 1]]
            .iter()
            .map(|v| v * v)
            .sum::<f32>();
    }
}

/// Scale a gradient slice in place when the global norm exceeds the
/// clip ceiling — same condition and scale as
/// [`ParamStore::clip_grad_norm`] at `max_norm = 1.0`.
fn clip(grads: &mut [f32], norm: f32) {
    if norm > 1.0 {
        let s = 1.0 / norm;
        for v in grads.iter_mut() {
            *v *= s;
        }
    }
}

fn chunk_weight(rows_j: usize, rows: usize) -> f32 {
    rows_j as f32 / rows as f32
}

/// Shared validation for both executors. Returns
/// `(rows_per_replica, stage layer ranges)`.
fn validate_topology(
    cfg: &PretrainConfig,
    model: &GptModel,
    topo: &Topology,
) -> Result<(usize, Vec<Range<usize>>), TopologyError> {
    validate_plan(&model.cfg, topo.tp, topo.pp)?;
    if !cfg.batch_seqs.is_multiple_of(topo.dp) {
        return Err(TopologyError::Batch {
            batch: cfg.batch_seqs,
            dp: topo.dp,
        });
    }
    let rows = cfg.batch_seqs / topo.dp;
    if topo.chunks > rows {
        return Err(TopologyError::Chunks {
            chunks: topo.chunks,
            rows,
        });
    }
    if topo.tp > 1 && !build_optimizer(cfg).elementwise() {
        return Err(TopologyError::Optimizer { tp: topo.tp });
    }
    Ok((rows, stage_ranges(model.cfg.layers, topo.pp)))
}

/// Round every store of a step to the mixed-precision grid, returning
/// the fp32 masters to restore after forward+backward — exactly
/// [`crate::pretrain::Trainer::step_once`]'s recipe, and a no-op at f32.
fn round_to_precision(store: &mut ParamStore, precision: Precision) -> Option<Vec<Vec<f32>>> {
    (precision != Precision::F32).then(|| {
        let masters = snapshot_values(store);
        round_store(store, precision);
        masters
    })
}

// ---------------------------------------------------------------------------
// Snapshots: the full-model optimizer state of a sharded grid.
// ---------------------------------------------------------------------------

/// Split a full-model optimizer state into one state per `(s, r)`
/// column, by pushing each moment slot through [`shard_model`] as if it
/// were the weights — moments shard exactly like the tensors they
/// shadow. `store` is borrowed as scratch and left unchanged.
fn shard_opt_state(
    model: &GptModel,
    store: &mut ParamStore,
    tp: usize,
    ranges: &[Range<usize>],
    state: &OptimizerState,
) -> Result<Vec<OptimizerState>, ResumeError> {
    let sizes = store.tensor_sizes();
    // an untouched optimizer (image taken before the first step) has
    // empty slots; anything else must shadow the parameter table
    let shadows = |slot: &Vec<Vec<f32>>| {
        slot.len() == sizes.len() && slot.iter().zip(&sizes).all(|(p, &n)| p.len() == n)
    };
    if !state.slots.iter().all(|s| s.is_empty() || shadows(s)) {
        return Err(ResumeError::Corrupt(SEC_OPT));
    }
    let weights = snapshot_values(store);
    let mut columns = vec![
        OptimizerState {
            step: state.step,
            slots: Vec::new(),
        };
        ranges.len() * tp
    ];
    for slot in &state.slots {
        if slot.is_empty() {
            columns.iter_mut().for_each(|c| c.slots.push(Vec::new()));
            continue;
        }
        restore_values(store, slot);
        let shards = carve_grid(model, store, tp, ranges);
        for (column, (_, shard)) in columns.iter_mut().zip(shards.iter().flatten()) {
            column.slots.push(snapshot_values(shard));
        }
    }
    restore_values(store, &weights);
    Ok(columns)
}

/// Inverse of [`shard_opt_state`]: re-assemble the per-column states
/// into the full-model state a v2 image carries, by consolidating each
/// moment slot through the same path as the weights. Clobbers `grid`'s
/// values (every consolidation reloads them first) and leaves `store`
/// unchanged.
fn consolidate_opt_state(
    store: &mut ParamStore,
    grid: &mut Grid,
    columns: &[OptimizerState],
) -> OptimizerState {
    let weights = snapshot_values(store);
    let slots = (0..columns[0].slots.len())
        .map(|k| {
            for (column, (_, shard)) in columns.iter().zip(grid.iter_mut().flatten()) {
                restore_values(shard, &column.slots[k]);
            }
            consolidate_shards(store, &grid_view(grid));
            snapshot_values(store)
        })
        .collect();
    restore_values(store, &weights);
    OptimizerState {
        step: columns[0].step,
        slots,
    }
}

// ---------------------------------------------------------------------------
// The worker: one thread per grid seat.
// ---------------------------------------------------------------------------

struct StepCmd {
    step: usize,
    lr: f32,
    /// This seat's replica's micro-batch.
    micro: Batch,
    /// Attach the shard's flat weights to the reply.
    want_weights: bool,
    /// Attach the optimizer state (a shard under ZeRO-1) to the reply.
    want_opt: bool,
}

struct StepDone {
    seat: usize,
    /// Chunk-weighted micro-batch loss, from the last stage's tp rank 0.
    loss: Option<f32>,
    compute_ms: f64,
    comm_ms: f64,
    /// Bytes sent on the dp ring this step.
    dp_bytes: u64,
    opt_bytes: usize,
    weights: Option<Vec<f32>>,
    opt: Option<OptimizerState>,
}

enum FromWorker {
    Done(StepDone),
    /// A wire failed under this seat: it reports the typed error and
    /// exits — the coordinator decides who actually died.
    Failed {
        seat: usize,
        err: CollectiveError,
    },
}

/// Everything one worker thread owns: its shard, its rings, its link
/// endpoints, and its command/result channels.
struct Seat {
    /// Grid-lexicographic index, [`Topology::seat`].
    seat: usize,
    shard: ShardModel,
    store: ParamStore,
    opt_state: Option<OptimizerState>,
    tp_ring: Ring,
    dp_ring: Ring,
    norm_ring: Ring,
    prev: Option<PipeLink>,
    next: Option<PipeLink>,
    cmd: Receiver<StepCmd>,
    out: Sender<FromWorker>,
}

/// What every worker of one pool shares.
#[derive(Clone, Copy)]
struct Pool<'a> {
    cfg: &'a PretrainConfig,
    topo: Topology,
    layout: &'a NormLayout,
    /// Per `(s, r)` column, the dp partition of its shard store.
    plans: &'a [ShardPlan],
    /// Injected faults this worker consults at each step.
    faults: &'a FaultPlan,
    /// Liveness board the coordinator reads for failure detection.
    beats: &'a Heartbeats,
}

/// What a worker hands back when its command channel closes.
struct WorkerReturn {
    msg_log: Vec<(CollKind, u64, usize)>,
    audit: WireAudit,
}

fn wait_ms(
    tp: &RingComm,
    dp: &Ring,
    norm: &Ring,
    prev: &Option<PipeLink>,
    next: &Option<PipeLink>,
) -> f64 {
    tp.wait_ms()
        + dp.wait_ms
        + norm.wait_ms
        + prev.as_ref().map_or(0.0, PipeLink::wait_ms)
        + next.as_ref().map_or(0.0, PipeLink::wait_ms)
}

#[allow(clippy::too_many_lines)]
fn grid_worker(seat: Seat, pool: Pool<'_>) -> Option<WorkerReturn> {
    let Seat {
        seat: me,
        shard,
        mut store,
        opt_state,
        tp_ring,
        mut dp_ring,
        mut norm_ring,
        mut prev,
        mut next,
        cmd,
        out,
    } = seat;
    let (cfg, topo, layout, beats) = (pool.cfg, pool.topo, pool.layout, pool.beats);
    let (d, s, r) = topo.coords(me);
    let (dp, tp, pp, chunks) = (topo.dp, topo.tp, topo.pp, topo.chunks);
    let member = s * tp + r;
    let tp_comm = Rc::new(RingComm::new(tp_ring));
    let hook = CommHook::new(tp_comm.clone() as Rc<dyn TapeComm>);
    let mut opt = build_optimizer(cfg);
    if let Some(state) = opt_state {
        opt.import_state(state);
    }
    let plan = &pool.plans[member];
    let mask = plan.owned_mask(d);
    let n_tensors = store.len();
    let rows = cfg.batch_seqs / dp;
    let seq = cfg.seq;
    let h = shard.cfg.hidden;
    let row_bounds = ring_chunks(rows, chunks);
    let mut msg_log: Vec<(CollKind, u64, usize)> = Vec::new();
    let mut steps_run = 0u64;

    // Identify this thread everywhere observability looks: the flight
    // ring (postmortems flag the victim by seat), and the global
    // recorder's track names (critical-path attribution parses them).
    flight::label_thread(format!("rank {me}"), Some(me as u64));
    matgpt_obs::Recorder::global().set_track_name(
        pids::PARALLEL,
        matgpt_obs::thread_tid(),
        format!("rank {me}"),
    );
    let seat_label = me.to_string();
    let labels = [("worker", seat_label.as_str())];
    let reg = Registry::global();
    let bytes_total = reg.counter_with(
        "parallel_allreduce_bytes_total",
        &labels,
        "gradient-sync bytes this worker sent on its dp ring",
    );
    let sync_wait = reg.histogram_with(
        "parallel_step_sync_wait_ms",
        &labels,
        "per-step time blocked on ring and link receives",
        &Histogram::LATENCY_MS_BOUNDS,
    );
    let steps_total = reg.counter_with(
        "parallel_steps_total",
        &labels,
        "training steps this worker executed",
    );

    // Per-step closed forms, multiplied by steps_run for the audit.
    let exp_tp_step: u64 = row_bounds
        .iter()
        .map(|b| {
            (4 * shard.layer_range.len()) as u64
                * ring_allreduce_rank_bytes(b.len() * seq * h, tp, r)
        })
        .sum();
    let exp_dp_step = ring_reduce_scatter_rank_bytes(&plan.flat, d)
        + ring_allgather_rank_bytes(&plan.flat, d)
        + if topo.zero1 {
            ring_allgather_rank_bytes(&plan.tensors, d)
        } else {
            0
        };
    let exp_norm_step = ring_allgather_rank_bytes(&layout.bounds, member);
    let exp_pipe_step: u64 = {
        let per_dir: u64 = row_bounds
            .iter()
            .map(|b| (4 * b.len() * seq * h) as u64)
            .sum();
        ((s + 1 < pp) as u64 + (s > 0) as u64) * per_dir
    };

    // A closed command channel — the run finished, or the coordinator
    // is tearing the pool down after a failure — ends the worker.
    while let Ok(StepCmd {
        step,
        lr,
        micro,
        want_weights,
        want_opt,
    }) = cmd.recv()
    {
        beats.beat(me);
        tp_comm.set_step(step as u64);
        dp_ring.step = step as u64;
        norm_ring.step = step as u64;
        for link in prev.iter_mut().chain(next.iter_mut()) {
            link.step = step as u64;
        }
        let step_span = Span::enter(pids::PARALLEL, "dp", "worker-step");
        match pool.faults.take(me, step) {
            // dropping every endpoint is exactly what a vanished node
            // looks like to its peers
            Some(FaultKind::Kill) => return None,
            Some(FaultKind::Stall { ms }) => std::thread::sleep(Duration::from_millis(ms)),
            None => {}
        }
        let dp_before = dp_ring.sent_bytes;
        let wait_before = wait_ms(&tp_comm, &dp_ring, &norm_ring, &prev, &next);
        let t0 = Instant::now();

        let step_body = (|| -> Result<f32, CollectiveError> {
            store.zero_grads();
            let masters = round_to_precision(&mut store, cfg.precision);
            let mut loss_acc = 0.0f32;
            let mut pending: VecDeque<(Tape, StageForward, Option<Var>)> = VecDeque::new();

            // 1F1B: warm-up forwards, steady 1F1B pairs, cool-down
            // backwards. Backwards drain the queue in FIFO chunk order.
            let warmup = chunks.min(pp - 1 - s);
            let mut sched: Vec<(bool, usize)> = Vec::with_capacity(2 * chunks);
            for j in 0..warmup {
                sched.push((true, j));
            }
            for j in warmup..chunks {
                sched.push((true, j));
                sched.push((false, j - warmup));
            }
            for j in (chunks - warmup)..chunks {
                sched.push((false, j));
            }

            for (is_fwd, j) in sched {
                let b = &row_bounds[j];
                let rows_j = b.len();
                if is_fwd {
                    let mut tape = Tape::new();
                    let input = match &mut prev {
                        None => StageInput::Tokens(&micro.inputs[b.start * seq..b.end * seq]),
                        Some(link) => StageInput::Activation(Tensor::from_vec(
                            &[rows_j * seq, h],
                            link.recv(j, PipeDir::Forward)?,
                        )),
                    };
                    let targets: Option<&[u32]> = shard
                        .last_stage
                        .then(|| &micro.targets[b.start * seq..b.end * seq]);
                    let sf = {
                        let _s = Span::enter(pids::PARALLEL, "dp", "forward");
                        shard.stage_forward(&mut tape, &store, input, targets, &hook, rows_j, seq)
                    };
                    if let Some(err) = tp_comm.take_failure() {
                        return Err(err);
                    }
                    let root = match &mut next {
                        None => {
                            let w = chunk_weight(rows_j, rows);
                            loss_acc += w * tape.value(sf.out).item();
                            Some(if chunks > 1 {
                                tape.scale(sf.out, w)
                            } else {
                                sf.out
                            })
                        }
                        Some(link) => {
                            let act = tape.value(sf.out).data().to_vec();
                            msg_log.push((CollKind::P2p, (4 * act.len()) as u64, 2));
                            link.send(act, j, PipeDir::Forward)?;
                            None
                        }
                    };
                    pending.push_back((tape, sf, root));
                } else {
                    let (mut tape, sf, root) = pending.pop_front().expect("1F1B queue");
                    let seed = match (&root, &mut next) {
                        (None, Some(link)) => {
                            let shape = tape.value(sf.out).shape().to_vec();
                            Some(Tensor::from_vec(&shape, link.recv(j, PipeDir::Backward)?))
                        }
                        _ => None,
                    };
                    {
                        let _s = Span::enter(pids::PARALLEL, "dp", "backward");
                        match (root, seed) {
                            (Some(v), _) => tape.backward(v),
                            (None, Some(g)) => tape.backward_from(sf.out, g),
                            (None, None) => unreachable!("a non-last stage has a next link"),
                        }
                    }
                    if let Some(err) = tp_comm.take_failure() {
                        return Err(err);
                    }
                    if let (Some(input), Some(link)) = (sf.input, &mut prev) {
                        let g = tape
                            .grad(input)
                            .expect("boundary input grad")
                            .data()
                            .to_vec();
                        msg_log.push((CollKind::P2p, (4 * g.len()) as u64, 2));
                        link.send(g, j, PipeDir::Backward)?;
                    }
                    accumulate_staged_grads(&tape, &sf.staged, &mut store);
                }
                beats.beat(me);
            }
            if let Some(masters) = masters {
                restore_values(&mut store, &masters);
            }

            // DP gradient sync: reduce-scatter, then the owner scales
            // its chunk by 1/dp. Replicated: allgather the gradients
            // back. ZeRO-1: keep only the owned shard and allgather the
            // owned tensors' squared norms instead — the same per-tensor
            // values the replicated branch computes from the full flat.
            let mut flat = store.flat_grads();
            {
                let _s = Span::enter(pids::PARALLEL, "dp", "reduce-scatter");
                dp_ring.reduce_scatter(&mut flat, &plan.flat)?;
            }
            beats.beat(me);
            scale_owned(&mut flat, &plan.flat[d], dp);
            let mut sq = vec![0f32; n_tensors];
            let log_dp = d == 0 && dp > 1;
            let grad_bytes = (4 * flat.len()) as u64;
            let owned = if topo.zero1 {
                sq_norms(&flat, &plan.offsets, plan.tensors[d].clone(), &mut sq);
                let _s = Span::enter(pids::PARALLEL, "dp", "allgather-norms");
                dp_ring.allgather(&mut sq, &plan.tensors)?;
                if log_dp {
                    msg_log.push((CollKind::ReduceScatter, grad_bytes, dp));
                    msg_log.push((CollKind::AllGather, (4 * n_tensors) as u64, dp));
                }
                plan.flat[d].clone()
            } else {
                {
                    let _s = Span::enter(pids::PARALLEL, "dp", "allgather-grads");
                    dp_ring.allgather(&mut flat, &plan.flat)?;
                }
                if log_dp {
                    msg_log.push((CollKind::AllReduce, grad_bytes, dp));
                }
                sq_norms(&flat, &plan.offsets, 0..n_tensors, &mut sq);
                0..flat.len()
            };

            // Global grad norm: allgather per-tensor squared norms
            // across the replica's pp·tp members, fold canonically.
            let mut norms = vec![0f32; layout.total()];
            norms[layout.bounds[member].clone()].copy_from_slice(&sq);
            norm_ring.allgather(&mut norms, &layout.bounds)?;
            if member == 0 && pp * tp > 1 {
                msg_log.push((CollKind::AllGather, (4 * norms.len()) as u64, pp * tp));
            }
            clip(&mut flat[owned], layout.fold(&norms));
            store.load_flat_grads(&flat);
            {
                let _s = Span::enter(pids::PARALLEL, "dp", "optimizer");
                if topo.zero1 {
                    opt.step_masked(&mut store, lr, &mask);
                } else {
                    opt.step(&mut store, lr);
                }
            }
            beats.beat(me);
            if topo.zero1 {
                let mut vals = store.flat_values();
                let _s = Span::enter(pids::PARALLEL, "dp", "allgather-params");
                dp_ring.allgather(&mut vals, &plan.flat)?;
                store.load_flat_values(&vals);
                if log_dp {
                    msg_log.push((CollKind::AllGather, grad_bytes, dp));
                }
            }
            Ok(loss_acc)
        })();

        let loss = match step_body {
            Ok(loss) => loss,
            Err(err) => {
                // Report the typed failure (best-effort: the coordinator
                // may already be tearing down) and exit; dropping the
                // wires wakes any peer still blocked.
                let _ = out.send(FromWorker::Failed { seat: me, err });
                return None;
            }
        };
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        beats.beat(me);
        // The training step proper ends here; exporting state for the
        // coordinator is bookkeeping no peer waits on.
        drop(step_span);
        steps_run += 1;

        let waited = wait_ms(&tp_comm, &dp_ring, &norm_ring, &prev, &next) - wait_before;
        let dp_bytes = dp_ring.sent_bytes - dp_before;
        bytes_total.add(dp_bytes);
        sync_wait.observe(waited);
        steps_total.inc();
        let done = StepDone {
            seat: me,
            loss: (shard.last_stage && r == 0).then_some(loss),
            // compute = wall time not blocked on a receive
            compute_ms: (wall_ms - waited).max(0.0),
            comm_ms: waited,
            dp_bytes,
            opt_bytes: opt.state_bytes(),
            weights: want_weights.then(|| store.flat_values()),
            opt: want_opt.then(|| opt.export_state()),
        };
        // after the last step there is nothing left to wait for: exit
        // now, so the shard and its moments are freed while the
        // coordinator consolidates and validates
        if out.send(FromWorker::Done(done)).is_err() || step + 1 == cfg.steps {
            break;
        }
    }

    // TP allreduces are logged group-level from rank 0 of each ring.
    if r == 0 && tp > 1 {
        msg_log.extend(tp_comm.drain_log().into_iter().map(|(k, b)| (k, b, tp)));
    }
    let audit = WireAudit {
        d,
        stage: s,
        tp_rank: r,
        tp_bytes: tp_comm.sent_bytes(),
        tp_expected: exp_tp_step * steps_run,
        dp_bytes: dp_ring.sent_bytes,
        dp_expected: exp_dp_step * steps_run,
        norm_bytes: norm_ring.sent_bytes,
        norm_expected: exp_norm_step * steps_run,
        pipe_bytes: prev.as_ref().map_or(0, PipeLink::sent_bytes)
            + next.as_ref().map_or(0, PipeLink::sent_bytes),
        pipe_expected: exp_pipe_step * steps_run,
    };
    Some(WorkerReturn { msg_log, audit })
}

// ---------------------------------------------------------------------------
// The coordinator: one step loop per worker-pool lifetime.
// ---------------------------------------------------------------------------

/// Build one `n`-rank ring per group and deal endpoint `k` of group `g`
/// to seat `seat_of(g, k)`.
fn deal_rings(
    world: usize,
    n: usize,
    timeout: Duration,
    seat_of: impl Fn(usize, usize) -> usize,
) -> Vec<Option<Ring>> {
    let mut rings: Vec<Option<Ring>> = (0..world).map(|_| None).collect();
    for g in 0..world / n {
        for (k, ring) in Ring::build(n, timeout).into_iter().enumerate() {
            rings[seat_of(g, k)] = Some(ring);
        }
    }
    rings
}

/// A step that did not commit, as the coordinator classified it.
struct Failure {
    at_step: usize,
    /// Seats that never answered.
    dead: Vec<usize>,
    cause: FailureCause,
    /// Wire failures the survivors reported.
    reports: Vec<(usize, CollectiveError)>,
    detected: Instant,
}

/// The state that outlives a worker pool.
struct Coordinator<'a> {
    cfg: &'a PretrainConfig,
    spec: RunSpec<'a>,
    setup: RunSetup,
    train_curve: Vec<(usize, f32)>,
    val_curve: Vec<(usize, f32)>,
    images: Vec<(usize, Vec<u8>)>,
    /// Per `(s, r)` column, the dp partition of its shard store under
    /// the current grid.
    plans: Vec<ShardPlan>,
    /// Step attempts fanned out, committed or not.
    attempted: usize,
    /// dp-ring bytes over all committed steps, and Σ over those steps of
    /// the world size — integers, so the per-step mean stays exact.
    dp_bytes: u64,
    seat_steps: u64,
    /// Timers, memory and the committed-step count, accumulated in place.
    report: ParallelReport,
}

impl Coordinator<'_> {
    /// One worker-pool lifetime: spawn a worker per seat (from the
    /// coordinator's current weights and, after a restore, the
    /// per-column optimizer states), run steps until completion or until
    /// a failure is detected, then tear the pool down.
    #[allow(clippy::too_many_lines)]
    fn epoch(
        &mut self,
        topo: Topology,
        start_step: usize,
        opt_columns: Option<Vec<OptimizerState>>,
    ) -> Result<Vec<WorkerReturn>, Failure> {
        let cfg = self.cfg;
        let res = &self.spec.res;
        let RunSetup {
            model,
            store,
            dataset,
            val_batches,
            schedule,
            ..
        } = &mut self.setup;
        let (dp, tp, pp, world) = (topo.dp, topo.tp, topo.pp, topo.world());
        let column = pp * tp;
        let grace = Duration::from_millis(res.grace_ms.max(1));
        let stale = Duration::from_millis(res.heartbeat_stale_ms.max(1));
        let step_budget = topo.timeout + stale + Duration::from_secs(1);

        // Every replica is carved from the same store, so all start
        // from identical bits; the first one also fixes the fold layout
        // the workers share and each column's dp partition.
        let ranges = stage_ranges(model.cfg.layers, pp);
        let first = carve_grid(model, store, tp, &ranges);
        let layout = NormLayout::of(&first);
        self.plans = first
            .iter()
            .flatten()
            .map(|(_, shard)| ShardPlan::new(&shard.tensor_sizes(), dp))
            .collect();
        let plans = &self.plans;
        let mut first = Some(first);
        // The grid replica 0's exports consolidate through — carved on
        // first use, so a run that only exports once, at its last step,
        // does not carry a spare replica while it trains.
        let mut template: Option<Grid> = None;

        // Wires: a tp ring per (d, s), a dp ring per (s, r), a grad-norm
        // ring per d, a link per interior stage boundary of each (d, r).
        let mut tp_rings = deal_rings(world, tp, topo.timeout, |g, k| g * tp + k);
        let mut dp_rings = deal_rings(world, dp, topo.timeout, |g, k| k * column + g);
        let mut norm_rings = deal_rings(world, column, topo.timeout, |g, k| g * column + k);
        let mut links: Vec<(Option<PipeLink>, Option<PipeLink>)> =
            (0..world).map(|_| (None, None)).collect();
        for seat in (0..world).filter(|&seat| topo.coords(seat).1 + 1 < pp) {
            let (earlier, later) = PipeLink::pair(topo.timeout);
            links[seat].1 = Some(earlier);
            links[seat + tp].0 = Some(later);
        }

        let beats = Heartbeats::new(world);
        let pool = Pool {
            cfg,
            topo,
            layout: &layout,
            plans,
            faults: &res.faults,
            beats: &beats,
        };
        let (out_tx, out_rx) = unbounded::<FromWorker>();
        std::thread::scope(|scope| {
            let mut cmds: Vec<Sender<StepCmd>> = Vec::with_capacity(world);
            let mut handles = Vec::with_capacity(world);
            for d in 0..dp {
                let replica = first
                    .take()
                    .unwrap_or_else(|| carve_grid(model, store, tp, &ranges));
                for (c, (shard, shard_store)) in replica.into_iter().flatten().enumerate() {
                    let seat = d * column + c;
                    let (cmd_tx, cmd) = unbounded::<StepCmd>();
                    cmds.push(cmd_tx);
                    let opt_state = opt_columns.as_ref().map(|columns| match topo.zero1 {
                        true => columns[c].shard(&plans[c].owned_mask(d)),
                        false => columns[c].clone(),
                    });
                    let (prev, next) = std::mem::take(&mut links[seat]);
                    let seat = Seat {
                        seat,
                        shard,
                        store: shard_store,
                        opt_state,
                        tp_ring: tp_rings[seat].take().expect("tp ring dealt"),
                        dp_ring: dp_rings[seat].take().expect("dp ring dealt"),
                        norm_ring: norm_rings[seat].take().expect("norm ring dealt"),
                        prev,
                        next,
                        cmd,
                        out: out_tx.clone(),
                    };
                    handles.push(scope.spawn(move || grid_worker(seat, pool)));
                }
            }
            drop(out_tx);
            // Closing the command channels ends idle workers; joins
            // drain the rest (a stalled worker finishes its sleep, hits
            // a dead wire, and exits). A panicked worker joins as `None`.
            let teardown = |cmds: Vec<Sender<StepCmd>>, handles: Vec<_>| {
                drop(cmds);
                handles
                    .into_iter()
                    .map(|h| std::thread::ScopedJoinHandle::join(h).ok().flatten())
                    .collect::<Vec<Option<WorkerReturn>>>()
            };

            for step in start_step..cfg.steps {
                let eval = is_eval_step(cfg, step);
                let completed = step + 1;
                let last = completed == cfg.steps;
                let image_due = self
                    .spec
                    .image_every
                    .is_some_and(|every| completed.is_multiple_of(every) || last);
                let validate = if self.spec.val_each_eval { eval } else { last };
                let batch = dataset.sample_batch(cfg.batch_seqs, cfg.seq);
                let micros = split_batch(&batch, dp);
                let lr = schedule.lr(step);
                self.attempted += 1;
                for (seat, tx) in cmds.iter().enumerate() {
                    let d = seat / column;
                    // a worker that is already gone is found below, as a
                    // seat that never answers
                    let _ = tx.send(StepCmd {
                        step,
                        lr,
                        micro: micros[d].clone(),
                        want_weights: d == 0 && (validate || image_due || last),
                        want_opt: image_due && (topo.zero1 || d == 0),
                    });
                }

                // Collect the step's replies under a bounded deadline.
                // A missing seat whose heartbeat is fresh extends the
                // wait (a slow worker is not a dead one); a stale
                // heartbeat, a disconnect, or a peer-reported error
                // starts the grace drain, after which whoever never
                // responded is dead.
                let mut replies: Vec<Option<StepDone>> = (0..world).map(|_| None).collect();
                let mut reports: Vec<(usize, CollectiveError)> = Vec::new();
                let mut silent: Vec<usize> = (0..world).collect();
                let mut first_bad: Option<Instant> = None;
                let mut deadline = Instant::now() + step_budget;
                while !silent.is_empty() {
                    let limit = match first_bad {
                        Some(t0) if t0.elapsed() >= grace => break,
                        Some(t0) => t0 + grace,
                        None => deadline,
                    };
                    let seat = match out_rx.recv_deadline(limit) {
                        Ok(FromWorker::Done(done)) => {
                            let seat = done.seat;
                            replies[seat] = Some(done);
                            seat
                        }
                        Ok(FromWorker::Failed { seat, err }) => {
                            reports.push((seat, err));
                            first_bad.get_or_insert_with(Instant::now);
                            seat
                        }
                        // Every worker dropped its reply channel:
                        // nobody left to wait for.
                        Err(RecvTimeoutError::Disconnected) => break,
                        Err(RecvTimeoutError::Timeout) => {
                            let wedged = silent.iter().any(|&seat| {
                                beats.age_ms(seat).unwrap_or(u64::MAX) > res.heartbeat_stale_ms
                            });
                            if first_bad.is_some() || wedged {
                                break;
                            }
                            // everyone missing is still beating — extend
                            deadline = Instant::now() + stale.max(Duration::from_millis(250));
                            continue;
                        }
                    };
                    silent.retain(|&s| s != seat);
                }

                if !silent.is_empty() || !reports.is_empty() {
                    let _detect = Span::enter(pids::PARALLEL, "dp", "fault-detect");
                    let detected = Instant::now();
                    let lost = |(_, e): &(usize, CollectiveError)| {
                        matches!(e, CollectiveError::RankLost { .. })
                    };
                    let cause = if reports.is_empty() || reports.iter().any(lost) {
                        FailureCause::RankLost
                    } else {
                        FailureCause::Stalled
                    };
                    teardown(cmds, handles);
                    return Err(Failure {
                        at_step: step,
                        dead: silent,
                        cause,
                        reports,
                        detected,
                    });
                }

                // Committed: fold the step into the run accounting.
                let replies: Vec<StepDone> = replies.into_iter().flatten().collect();
                let report = &mut self.report;
                report.steps_run += 1;
                self.seat_steps += world as u64;
                report.opt_state_bytes = replies.iter().map(|done| done.opt_bytes).collect();
                let mut slowest = 0.0f64;
                let mut losses = vec![0f32; dp];
                for done in &replies {
                    self.dp_bytes += done.dp_bytes;
                    report.total_compute_ms[done.seat] += done.compute_ms;
                    report.comm_ms[done.seat] += done.comm_ms;
                    slowest = slowest.max(done.compute_ms);
                    if let Some(loss) = done.loss {
                        losses[done.seat / column] = loss;
                    }
                }
                report.critical_compute_ms += slowest;
                if eval {
                    self.train_curve.push((step, fold_mean(&losses)));
                }

                // Replica 0's exports, consolidated into the full model.
                if replies[0].weights.is_some() {
                    let template =
                        template.get_or_insert_with(|| carve_grid(model, store, tp, &ranges));
                    for ((_, shard), done) in template.iter_mut().flatten().zip(&replies) {
                        let weights = done.weights.as_ref().expect("replica 0 exports weights");
                        shard.load_flat_values(weights);
                    }
                    consolidate_shards(store, &grid_view(template));
                }
                if validate {
                    let _s = Span::enter(pids::PARALLEL, "dp", "validation");
                    let loss = validation_loss_on(model, store, val_batches);
                    self.val_curve.push((step, loss));
                }
                if image_due {
                    let _s = Span::enter(pids::PARALLEL, "dp", "snapshot");
                    let mut opts: Vec<Option<OptimizerState>> =
                        replies.into_iter().map(|done| done.opt).collect();
                    let mut exported = |d: usize, c: usize| {
                        opts[d * column + c]
                            .take()
                            .expect("optimizer state exported")
                    };
                    let columns: Vec<OptimizerState> = (0..column)
                        .map(|c| match topo.zero1 {
                            false => exported(0, c),
                            true => {
                                let shards: Vec<_> = (0..dp).map(|d| exported(d, c)).collect();
                                OptimizerState::merge_shards(&shards, &plans[c].owners())
                                    .expect("shards cover every parameter consistently")
                            }
                        })
                        .collect();
                    let template = template.as_mut().expect("an image step exports weights");
                    let opt_state = consolidate_opt_state(store, template, &columns);
                    let image = encode_checkpoint(
                        cfg,
                        store,
                        &opt_state,
                        completed,
                        dataset.cursor(),
                        &self.train_curve,
                        &self.val_curve,
                    );
                    self.images.push((completed, image));
                }
            }

            let returns = teardown(cmds, handles).into_iter();
            Ok(returns
                .map(|ret| ret.expect("a worker that finished every step returns its audit"))
                .collect())
        })
    }

    /// Classify a detected failure, dump its postmortem, account the
    /// lost work and decide the grid the next epoch runs on.
    fn recover(
        &self,
        topo: Topology,
        failure: Failure,
        rolled_back_to: usize,
        resilience: &mut ResilienceReport,
    ) -> Topology {
        let Failure {
            at_step,
            dead,
            cause,
            detected,
            ..
        } = failure;
        let _roll = Span::enter(pids::PARALLEL, "dp", "rollback");
        let reg = Registry::global();
        let (kind, help) = match cause {
            FailureCause::RankLost => ("rank_lost", "detected worker failures: dead ranks"),
            FailureCause::Stalled => (
                "stalled",
                "detected worker failures: stalls past the bounded waits",
            ),
        };
        reg.counter_with("parallel_faults_total", &[("kind", kind)], help)
            .inc();
        // Black-box dump the moment the failure is classified: the
        // victim's last collective events are still in its flight ring
        // (the registry keeps dead threads' rings readable).
        let victims: Vec<u64> = dead.iter().map(|&seat| seat as u64).collect();
        let pm = flight::Postmortem::capture(
            &format!("{cause:?} at step {at_step} (dead ranks {dead:?})"),
            &victims,
            256,
            &[reg],
        );
        if let Ok(dir) = std::env::var("MATGPT_POSTMORTEM_DIR") {
            let path = std::path::Path::new(&dir)
                .join(format!("recovery-{}", resilience.recoveries.len()));
            if let Err(e) = pm.write_to(&path) {
                eprintln!("postmortem write to {} failed: {e}", path.display());
            }
        }
        resilience.postmortems.push(pm);
        let lost_steps = at_step - rolled_back_to;
        let lost_tokens = (lost_steps * self.cfg.batch_seqs * self.cfg.seq) as u64;
        reg.counter(
            "parallel_lost_work_tokens",
            "training tokens discarded by failure rollbacks",
        )
        .add(lost_tokens);
        resilience.lost_steps += lost_steps;
        resilience.lost_work_tokens += lost_tokens;

        // Shrink drops every data replica that lost a seat; the tp × pp
        // shape of the survivors is untouched.
        let mut next = topo;
        if self.spec.res.policy == RecoveryPolicy::Shrink {
            let mut lost: Vec<usize> = dead.iter().map(|&seat| topo.coords(seat).0).collect();
            lost.dedup();
            let dp = topo.dp.saturating_sub(lost.len());
            if !dead.is_empty() && dp >= 1 && self.cfg.batch_seqs.is_multiple_of(dp) {
                let _reshard = Span::enter(pids::PARALLEL, "dp", "reshard");
                next.dp = dp;
            } else {
                resilience.respawn_fallbacks += 1;
            }
        }

        let recovery_ms = detected.elapsed().as_secs_f64() * 1e3;
        reg.histogram(
            "parallel_recovery_ms",
            "failure detection to rollback-complete wall time",
            &Histogram::LATENCY_MS_BOUNDS,
        )
        .observe(recovery_ms);
        resilience.recoveries.push(RecoveryEvent {
            detected_at_step: at_step,
            dead_ranks: dead,
            cause,
            rolled_back_to,
            workers_before: topo.world(),
            workers_after: next.world(),
            lost_steps,
            recovery_ms,
        });
        next
    }
}

/// Train `cfg` on `documents` over the `topo` grid of worker threads —
/// the one threaded run behind every training entry point.
pub(crate) fn run_grid(
    documents: &[String],
    cfg: &PretrainConfig,
    mut topo: Topology,
    spec: RunSpec<'_>,
) -> Result<GridRun, TopologyError> {
    let setup = RunSetup::new(documents, cfg, None);
    validate_topology(cfg, &setup.model, &topo)?;
    let initial_cursor = setup.dataset.cursor();
    let vocab = setup.tokenizer.vocab_size();
    let mut resilience = ResilienceReport {
        faults_planned: spec.res.faults.len(),
        ..ResilienceReport::default()
    };
    let mut co = Coordinator {
        cfg,
        spec,
        train_curve: Vec::new(),
        val_curve: Vec::new(),
        images: Vec::new(),
        plans: Vec::new(),
        attempted: 0,
        dp_bytes: 0,
        seat_steps: 0,
        report: ParallelReport {
            zero1: topo.zero1,
            param_scalars: setup.store.num_scalars(),
            total_compute_ms: vec![0.0; topo.world()],
            comm_ms: vec![0.0; topo.world()],
            ..ParallelReport::default()
        },
        setup,
    };

    let returns = loop {
        // Start from — or roll back to — the newest image: this run's
        // last snapshot, else the caller's resume image, else step 0.
        let image = co.images.last().map(|(_, bytes)| bytes.as_slice());
        let state = image
            .or(co.spec.resume)
            .map(|bytes| decode_resume(cfg, bytes))
            .transpose()
            .map_err(TopologyError::Resume)?;
        let (start_step, opt_columns) = match state {
            Some(state) => {
                let RunSetup {
                    model,
                    store,
                    dataset,
                    ..
                } = &mut co.setup;
                restore_weights(store, &state.weights).map_err(TopologyError::Resume)?;
                dataset.seek(state.cursor);
                co.train_curve = state.train_curve;
                co.val_curve = state.val_curve;
                let ranges = stage_ranges(model.cfg.layers, topo.pp);
                let columns = shard_opt_state(model, store, topo.tp, &ranges, &state.opt_state)
                    .map_err(TopologyError::Resume)?;
                (state.step, Some(columns))
            }
            None => {
                if co.attempted > 0 {
                    (co.setup.model, co.setup.store) = build_model(cfg, vocab);
                }
                co.setup.dataset.seek(initial_cursor);
                co.train_curve.clear();
                co.val_curve.clear();
                (0, None)
            }
        };

        let failure = match co.epoch(topo, start_step, opt_columns) {
            Ok(returns) => break returns,
            Err(failure) => failure,
        };
        if !co.spec.recover {
            // name the seat that never answered, else the first reporter
            let (seat, err) = match (failure.dead.first(), failure.cause) {
                (Some(&rank), FailureCause::RankLost) => (rank, CollectiveError::RankLost { rank }),
                (Some(&rank), FailureCause::Stalled) => {
                    let waited_ms = topo.timeout.as_millis() as u64;
                    (rank, CollectiveError::Timeout { rank, waited_ms })
                }
                (None, _) => failure.reports[0],
            };
            let (d, stage, tp_rank) = topo.coords(seat);
            return Err(TopologyError::Step {
                step: failure.at_step,
                d,
                stage,
                tp_rank,
                err,
            });
        }
        // the newest image — or, with none written yet, wherever the
        // failed epoch itself started from
        let rolled_back_to = co.images.last().map_or(start_step, |(step, _)| *step);
        topo = co.recover(topo, failure, rolled_back_to, &mut resilience);
    };

    resilience.faults_fired = co.spec.res.faults.fired();
    resilience.final_workers = topo.world();
    resilience.steps_executed = co.attempted;
    resilience.snapshots_taken = co.images.len();
    let (shard_scalars, formula) = dp_ring_accounting(&co.plans, topo.dp);
    let parallel = ParallelReport {
        workers: topo.world(),
        shard_scalars,
        measured_allreduce_bytes_per_step: co.dp_bytes as f64 / co.seat_steps.max(1) as f64,
        formula_allreduce_bytes_per_step: formula,
        ..co.report
    };
    Ok(GridRun {
        topology: topology_report(topo, parallel.steps_run, parallel.param_scalars, &returns),
        tokenizer: co.setup.tokenizer,
        model: co.setup.model,
        store: co.setup.store,
        train_curve: co.train_curve,
        val_curve: co.val_curve,
        images: co.images,
        parallel,
        resilience,
    })
}

/// Per seat (grid-lexicographic), the scalars it owns on its dp ring;
/// and the mean over shard stores of the per-rank ring-allreduce bytes.
fn dp_ring_accounting(plans: &[ShardPlan], dp: usize) -> (Vec<usize>, f64) {
    let column = plans.len();
    let shard_scalars = (0..dp * column)
        .map(|seat| plans[seat % column].flat[seat / column].len())
        .collect();
    let formula = plans
        .iter()
        .map(|p| wire_bytes(CollKind::AllReduce, (p.total * 4) as f64, dp))
        .sum::<f64>()
        / column as f64;
    (shard_scalars, formula)
}

/// Fold the final pool's audits and message logs into the report.
fn topology_report(
    topo: Topology,
    steps_run: usize,
    param_scalars: usize,
    returns: &[WorkerReturn],
) -> TopologyReport {
    let mut bins: BTreeMap<(&'static str, u64, usize), (CollKind, u64)> = BTreeMap::new();
    for &(kind, bytes, group) in returns.iter().flat_map(|ret| &ret.msg_log) {
        bins.entry((kind.name(), bytes, group))
            .or_insert((kind, 0))
            .1 += 1;
    }
    TopologyReport {
        topo,
        steps_run,
        param_scalars,
        wire: returns.iter().map(|ret| ret.audit).collect(),
        msg_bins: bins
            .into_iter()
            .map(|((_, bytes, group), (kind, calls))| MsgBin {
                kind,
                bytes,
                group,
                calls,
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// The sequential reference.
// ---------------------------------------------------------------------------

/// The single-thread replay of [`run_grid`]: identical shard stores,
/// identical chunking and fold orders, zero wires — one tape per
/// micro-batch chunk spanning all stages and ranks
/// ([`reference_loss`]), [`ring_fold`] in place of the threaded rings.
/// Every grid's threaded run must match this bitwise, ZeRO-1 or not
/// (sharding the optimizer moves state, never changes arithmetic, so the
/// reference keeps one full optimizer per shard).
///
/// Also the contention-free stopwatch: per-replica compute, the dp fold
/// and the serial clip+update remainder are timed separately, which is
/// what [`ParallelReport::critical_path_ms`] reads on machines with
/// fewer cores than workers.
pub(crate) fn reference_grid(
    documents: &[String],
    cfg: &PretrainConfig,
    topo: Topology,
    val_each_eval: bool,
) -> Result<GridRun, TopologyError> {
    let (dp, tp, pp, chunks) = (topo.dp, topo.tp, topo.pp, topo.chunks);
    let RunSetup {
        tokenizer,
        model,
        mut store,
        mut dataset,
        val_batches,
        schedule,
    } = RunSetup::new(documents, cfg, None);
    let (rows, ranges) = validate_topology(cfg, &model, &topo)?;
    let row_bounds = ring_chunks(rows, chunks);
    let seq = cfg.seq;

    // One (stage, rank) shard grid shared by all dp replicas, plus one
    // optimizer per shard (threaded replicas hold bitwise-identical
    // moments, so one copy stands for all dp of them).
    let mut grid = carve_grid(&model, &store, tp, &ranges);
    let layout = NormLayout::of(&grid);
    let mut opts: Vec<_> = (0..pp * tp).map(|_| build_optimizer(cfg)).collect();
    let plans: Vec<ShardPlan> = grid
        .iter()
        .flatten()
        .map(|(_, shard)| ShardPlan::new(&shard.tensor_sizes(), dp))
        .collect();

    let mut train_curve = Vec::new();
    let mut val_curve = Vec::new();
    let mut critical_ms = 0.0f64;
    let mut total_compute = vec![0.0f64; dp];
    let mut fold_ms = 0.0f64;
    let mut post_ms = 0.0f64;
    for step in 0..cfg.steps {
        let batch = dataset.sample_batch(cfg.batch_seqs, cfg.seq);
        let lr = schedule.lr(step);

        // Per replica: accumulate chunk gradients into the shard grid,
        // snapshot the flats, weight the chunk losses.
        let masters: Vec<_> = grid
            .iter_mut()
            .flatten()
            .map(|(_, shard)| round_to_precision(shard, cfg.precision))
            .collect();
        let mut parts: Vec<Vec<Vec<f32>>> = vec![Vec::with_capacity(dp); pp * tp];
        let mut losses = Vec::with_capacity(dp);
        let mut slowest = 0.0f64;
        for (d, micro) in split_batch(&batch, dp).iter().enumerate() {
            let t0 = Instant::now();
            for (_, shard) in grid.iter_mut().flatten() {
                shard.zero_grads();
            }
            let mut loss_acc = 0.0f32;
            for b in &row_bounds {
                let rows_j = b.len();
                let mut tape = Tape::new();
                let (loss, staged) = reference_loss(
                    &grid_view(&grid),
                    &mut tape,
                    &micro.inputs[b.start * seq..b.end * seq],
                    &micro.targets[b.start * seq..b.end * seq],
                    rows_j,
                    seq,
                );
                let w = chunk_weight(rows_j, rows);
                loss_acc += w * tape.value(loss).item();
                let root = if chunks > 1 {
                    tape.scale(loss, w)
                } else {
                    loss
                };
                tape.backward(root);
                for (staged, (_, shard)) in staged.iter().flatten().zip(grid.iter_mut().flatten()) {
                    accumulate_staged_grads(&tape, staged, shard);
                }
            }
            losses.push(loss_acc);
            for (part, (_, shard)) in parts.iter_mut().zip(grid.iter().flatten()) {
                part.push(shard.flat_grads());
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            total_compute[d] += ms;
            slowest = slowest.max(ms);
        }
        critical_ms += slowest;
        for (masters, (_, shard)) in masters.iter().zip(grid.iter_mut().flatten()) {
            if let Some(masters) = masters {
                restore_values(shard, masters);
            }
        }

        // DP fold per shard (ring order), then the canonical grad-norm
        // fold and clip, then one optimizer step per shard.
        let t1 = Instant::now();
        let mut reduced: Vec<Vec<f32>> = parts
            .into_iter()
            .zip(&plans)
            .map(|(mut part, plan)| {
                if dp == 1 {
                    return part.pop().expect("one replica part");
                }
                let mut flat = ring_fold(&part, &plan.flat);
                for own in &plan.flat {
                    scale_owned(&mut flat, own, dp);
                }
                flat
            })
            .collect();
        fold_ms += t1.elapsed().as_secs_f64() * 1e3;

        let t2 = Instant::now();
        let mut norms = vec![0f32; layout.total()];
        for ((flat, plan), bounds) in reduced.iter().zip(&plans).zip(&layout.bounds) {
            let n_tensors = plan.offsets.len() - 1;
            sq_norms(
                flat,
                &plan.offsets,
                0..n_tensors,
                &mut norms[bounds.clone()],
            );
        }
        let norm = layout.fold(&norms);
        for ((flat, (_, shard)), opt) in reduced
            .iter_mut()
            .zip(grid.iter_mut().flatten())
            .zip(&mut opts)
        {
            clip(flat, norm);
            shard.load_flat_grads(flat);
            opt.step(shard, lr);
        }
        post_ms += t2.elapsed().as_secs_f64() * 1e3;

        let eval = is_eval_step(cfg, step);
        if eval {
            train_curve.push((step, fold_mean(&losses)));
        }
        let validate = if val_each_eval {
            eval
        } else {
            step + 1 == cfg.steps
        };
        if validate {
            consolidate_shards(&mut store, &grid_view(&grid));
            val_curve.push((step, validation_loss_on(&model, &store, &val_batches)));
        }
    }

    let param_scalars = store.num_scalars();
    let (shard_scalars, formula) = dp_ring_accounting(&plans, dp);
    let parallel = ParallelReport {
        workers: topo.world(),
        zero1: false,
        steps_run: cfg.steps,
        param_scalars,
        shard_scalars,
        measured_allreduce_bytes_per_step: formula,
        formula_allreduce_bytes_per_step: formula,
        critical_compute_ms: critical_ms,
        total_compute_ms: total_compute,
        comm_ms: vec![fold_ms],
        post_ms,
        opt_state_bytes: opts.iter().map(|opt| opt.state_bytes()).collect(),
    };
    Ok(GridRun {
        tokenizer,
        model,
        store,
        train_curve,
        val_curve,
        images: Vec::new(),
        parallel,
        topology: topology_report(topo, cfg.steps, param_scalars, &[]),
        resilience: ResilienceReport::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipes::{OptChoice, SizeRole};
    use matgpt_corpus::{build_corpus, CorpusConfig};
    use matgpt_model::ArchKind;
    use matgpt_tokenizer::TokenizerKind;

    #[test]
    fn norm_fold_counts_replicated_once_and_shards_across_ranks() {
        // Two stages, tp=2. Stage 0 has one sharded tensor, stage 1
        // one replicated tensor.
        let layout = NormLayout {
            tp: 2,
            counts: vec![1, 1],
            flags: vec![vec![true], vec![false]],
            bounds: vec![0..1, 1..2, 2..3, 3..4],
        };
        // sharded partials 9 + 16 = 25; replicated 4 (rank-1 copy 4 is
        // skipped); total 29.
        assert_eq!(layout.fold(&[9.0, 16.0, 4.0, 4.0]), 29.0f32.sqrt());
        assert_eq!(layout.total(), 4);
    }

    #[test]
    fn sq_norms_follow_the_flat_layout_and_skip_unowned_tensors() {
        let flat = [1.0, 2.0, 3.0, 4.0];
        let mut out = [0.0; 2];
        sq_norms(&flat, &[0, 1, 4], 0..2, &mut out);
        assert_eq!(out, [1.0, 4.0 + 9.0 + 16.0]);
        let mut owned = [7.0; 2];
        sq_norms(&flat, &[0, 1, 4], 1..2, &mut owned);
        assert_eq!(owned, [7.0, 29.0]);
    }

    #[test]
    fn clip_only_fires_above_one() {
        let mut a = [2.0f32];
        clip(&mut a, 0.5);
        assert_eq!(a, [2.0]);
        clip(&mut a, 2.0);
        assert_eq!(a, [1.0]);
    }

    /// A worker that dies without reporting — here the only peer of a
    /// pipeline whose other stage then also exits — must surface as a
    /// typed step error naming the dead seat, not a coordinator panic.
    #[test]
    fn unrecovered_worker_death_is_a_typed_step_error_naming_the_seat() {
        let documents = build_corpus(&CorpusConfig {
            n_materials: 8,
            total_docs: 24,
            offtopic_fraction: 0.2,
            seed: 5,
        })
        .documents;
        let cfg = PretrainConfig {
            steps: 3,
            batch_seqs: 2,
            seq: 16,
            ..PretrainConfig::scaled(
                ArchKind::Llama,
                TokenizerKind::Hf,
                300,
                OptChoice::Adam,
                SizeRole::Base,
            )
        };
        for (topo, victim) in [
            (Topology::new(1, 1, 2), 1),
            (Topology::new(1, 2, 1), 0),
            (Topology::new(1, 1, 1), 0),
        ] {
            let spec = RunSpec {
                res: ResilienceConfig {
                    faults: FaultPlan::kill(victim, 1),
                    ..ResilienceConfig::default()
                },
                ..RunSpec::plain(false)
            };
            let (d, stage, tp_rank) = topo.coords(victim);
            match run_grid(&documents, &cfg, topo, spec) {
                Err(TopologyError::Step {
                    step: 1,
                    d: ed,
                    stage: es,
                    tp_rank: er,
                    err: CollectiveError::RankLost { rank },
                }) => assert_eq!((ed, es, er, rank), (d, stage, tp_rank, victim)),
                other => panic!(
                    "{}: expected a RankLost step error, got {:?}",
                    topo.describe(),
                    other.err()
                ),
            }
        }
    }
}
