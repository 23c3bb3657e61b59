//! Distributed-training strategy simulation (paper Figs. 7, 8, 11).
//!
//! Each strategy turns one optimizer step into compute phases plus a list
//! of collective calls, then prices them against the machine model.
//! Communication overlaps with the backward pass up to a configurable
//! window, as DeepSpeed/Megatron do; whatever does not fit is exposed on
//! the critical path.

use crate::collectives::{collective_time, wire_bytes, Collective};
use crate::kernels::{FlashVersion, KernelModel};
use crate::machine::MachineConfig;
use crate::memory::{peak_memory_gib, Partitioning};
use matgpt_model::count::total_params;
use matgpt_model::GptConfig;

/// Where the two ranks of a TP=2 group live — the paper's Observation 2:
/// "map the partition of model parallelism to the platform network
/// topology to maximize the network bandwidth utilization."
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TpMapping {
    /// Both GCDs of one MI250X (200 GB/s) — the paper's choice.
    IntraMi250x,
    /// Two GPUs in the same node on Infinity Fabric (100 GB/s).
    IntraNode,
    /// Two GPUs on different nodes over Slingshot (100 GB/s + contention).
    InterNode,
}

impl TpMapping {
    /// Representative rank pair for the mapping.
    pub fn ranks(&self) -> [usize; 2] {
        match self {
            TpMapping::IntraMi250x => [0, 1],
            TpMapping::IntraNode => [0, 2],
            TpMapping::InterNode => [0, 8],
        }
    }
}

/// The four strategies the paper evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Vanilla data parallelism (model replicated per GCD).
    DataParallel,
    /// DeepSpeed ZeRO stage 1: optimizer states sharded over all ranks.
    Zero1,
    /// Megatron tensor parallelism with the given partition degree
    /// (the paper studies TP = 2, mapped onto one MI250X).
    TensorParallel(usize),
    /// Pipeline parallelism with the given stage count.
    PipelineParallel(usize),
}

impl Strategy {
    /// Label as used in the paper's figures.
    pub fn label(&self) -> String {
        match self {
            Strategy::DataParallel => "DP".into(),
            Strategy::Zero1 => "ZeRO=1".into(),
            Strategy::TensorParallel(t) => format!("TP={t}"),
            Strategy::PipelineParallel(p) => format!("PP={p}"),
        }
    }
}

/// A full training setup to be simulated.
#[derive(Clone, Debug)]
pub struct TrainSetup {
    /// Model architecture.
    pub cfg: GptConfig,
    /// Machine description.
    pub machine: MachineConfig,
    /// Kernel performance model.
    pub kernel: KernelModel,
    /// Flash attention setting.
    pub flash: FlashVersion,
    /// Number of GCDs used.
    pub n_gcds: usize,
    /// Parallelism strategy.
    pub strategy: Strategy,
    /// Micro-batch size per model replica.
    pub micro_batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// Micro-batches per pipeline flush (controls the PP bubble).
    pub pipeline_chunks: usize,
    /// Fraction of backward compute that can hide communication.
    pub overlap_window: f64,
    /// Gradient-bucket bytes for fused DP all-reduce.
    pub dp_bucket_bytes: f64,
    /// Bucket bytes for ZeRO reduce-scatter / all-gather (smaller, as the
    /// per-tensor launches fuse less).
    pub zero_bucket_bytes: f64,
    /// Topology placement of tensor-parallel groups.
    pub tp_mapping: TpMapping,
    /// Bytes per scalar on the wire (2.0 = bf16, the paper's setting;
    /// the executed-topology cross-check sets 4.0 for its f32 rings).
    pub dtype_bytes: f64,
}

impl TrainSetup {
    /// Reasonable defaults matching the paper's experiments.
    pub fn new(cfg: GptConfig, n_gcds: usize, strategy: Strategy) -> Self {
        Self {
            cfg,
            machine: MachineConfig::frontier(),
            kernel: KernelModel::default(),
            flash: FlashVersion::V2,
            n_gcds,
            strategy,
            micro_batch: 1,
            seq: 2048,
            pipeline_chunks: 2,
            overlap_window: 0.7,
            dp_bucket_bytes: 500e6,
            zero_bucket_bytes: 128e6,
            tp_mapping: TpMapping::IntraMi250x,
            dtype_bytes: 2.0,
        }
    }

    /// Transformer layers resident on one GCD: the busiest pipeline
    /// stage under `PipelineParallel` — the first stage of the executed
    /// topology's first-heavy split ([`matgpt_model::tp::stage_ranges`],
    /// so the simulator prices exactly the split the executor runs) —
    /// all layers otherwise. The single source of truth shared by
    /// [`simulate_step`] and [`crate::trace::step_timeline`]: both must
    /// split compute over the same layer count or the trace timeline
    /// drifts from the priced step.
    pub fn stage_layers(&self) -> usize {
        match self.strategy {
            Strategy::PipelineParallel(p) => {
                let p = p.max(1).min(self.cfg.layers);
                matgpt_model::tp::stage_ranges(self.cfg.layers, p)[0].len()
            }
            _ => self.cfg.layers,
        }
    }

    /// The memory partitioning implied by the strategy.
    pub fn partitioning(&self) -> Partitioning {
        match self.strategy {
            Strategy::DataParallel => Partitioning {
                dp: self.n_gcds,
                zero1: false,
                tp: 1,
                pp: 1,
            },
            Strategy::Zero1 => Partitioning {
                dp: self.n_gcds,
                zero1: true,
                tp: 1,
                pp: 1,
            },
            Strategy::TensorParallel(t) => Partitioning {
                dp: self.n_gcds / t,
                zero1: false,
                tp: t,
                pp: 1,
            },
            Strategy::PipelineParallel(p) => Partitioning {
                dp: self.n_gcds / p,
                zero1: false,
                tp: 1,
                pp: p,
            },
        }
    }
}

/// One recorded class of RCCL calls.
#[derive(Clone, Debug)]
pub struct MsgRecord {
    /// Collective type.
    pub collective: Collective,
    /// Bytes per call (buffer size handed to RCCL).
    pub bytes_per_call: f64,
    /// Calls per step per GPU.
    pub calls: usize,
    /// Group size.
    pub group: usize,
}

impl MsgRecord {
    /// Total wire bytes per step per GPU for this record.
    pub fn wire_total(&self) -> f64 {
        wire_bytes(self.collective, self.bytes_per_call, self.group) * self.calls as f64
    }
}

/// The simulated cost of one training step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Pure compute seconds per step.
    pub compute_s: f64,
    /// Total communication seconds issued (before overlap).
    pub comm_s: f64,
    /// Communication seconds exposed on the critical path.
    pub comm_exposed_s: f64,
    /// Data-movement (IO kernel class) seconds.
    pub io_s: f64,
    /// End-to-end step seconds.
    pub step_s: f64,
    /// Achieved model TFLOPS per GCD.
    pub tflops_per_gcd: f64,
    /// Aggregate PFLOPS across all GCDs.
    pub aggregate_pflops: f64,
    /// Peak memory per GCD (GiB).
    pub memory_gib: f64,
    /// Whether the setup fits in HBM.
    pub fits_memory: bool,
    /// RCCL call records (Fig. 11 input).
    pub msgs: Vec<MsgRecord>,
    /// Tokens processed per step across the job.
    pub tokens_per_step: usize,
}

impl StepReport {
    /// Total RCCL calls per step per GPU.
    pub fn total_calls(&self) -> usize {
        self.msgs.iter().map(|m| m.calls).sum()
    }

    /// Total wire bytes per step per GPU.
    pub fn total_wire_bytes(&self) -> f64 {
        self.msgs.iter().map(|m| m.wire_total()).sum()
    }

    /// Compute / comm / io shares of the critical path (sums to 1) —
    /// what the wall clock and the power sensor see.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let busy = self.compute_s + self.comm_exposed_s + self.io_s;
        (
            self.compute_s / busy,
            self.comm_exposed_s / busy,
            self.io_s / busy,
        )
    }

    /// Compute / comm / io shares by *kernel time* (sums to 1) — what a
    /// rocprof aggregation reports (Fig. 8 bottom): overlapped
    /// communication kernels still accrue device time.
    pub fn profile_breakdown(&self) -> (f64, f64, f64) {
        let busy = self.compute_s + self.comm_s + self.io_s;
        (self.compute_s / busy, self.comm_s / busy, self.io_s / busy)
    }

    /// Each message record's share of total wire traffic, as
    /// `(collective, bytes_per_call, share)` — the Fig. 11 message-size
    /// breakdown in the same shape the executed topology reports, so
    /// the two histograms can be compared bin by bin.
    pub fn message_shares(&self) -> Vec<(Collective, f64, f64)> {
        let total: f64 = self.msgs.iter().map(MsgRecord::wire_total).sum();
        self.msgs
            .iter()
            .map(|m| {
                (
                    m.collective,
                    m.bytes_per_call,
                    if total > 0.0 {
                        m.wire_total() / total
                    } else {
                        0.0
                    },
                )
            })
            .collect()
    }
}

/// Simulate one training step of `setup`.
pub fn simulate_step(setup: &TrainSetup) -> StepReport {
    let cfg = &setup.cfg;
    let m = &setup.machine;
    let km = &setup.kernel;
    let part = setup.partitioning();
    let params = total_params(cfg) as f64;
    let grad_bytes = setup.dtype_bytes * params; // bf16 by default
    let n = setup.n_gcds;
    assert!(n >= 1, "need at least one GCD");

    let mut msgs: Vec<MsgRecord> = Vec::new();
    let mut comm_critical = 0.0f64; // not overlappable (in forward path)
    let mut comm_overlappable = 0.0f64;

    // ---- compute time per GCD
    let (mut compute, replicas): (f64, usize) = match setup.strategy {
        Strategy::DataParallel | Strategy::Zero1 => (
            km.step_compute_time(
                cfg,
                setup.micro_batch,
                setup.seq,
                setup.flash,
                cfg.layers,
                1,
            ),
            n,
        ),
        Strategy::TensorParallel(t) => {
            // TP halves the GEMM shapes; small efficiency loss from the
            // narrower matrices.
            // narrower sharded GEMMs run further from peak
            let c = km.step_compute_time(
                cfg,
                setup.micro_batch,
                setup.seq,
                setup.flash,
                cfg.layers,
                t,
            ) * 1.15;
            (c, n / t)
        }
        Strategy::PipelineParallel(p) => {
            let layers_here = setup.stage_layers();
            let per_chunk = km.step_compute_time(
                cfg,
                setup.micro_batch,
                setup.seq,
                setup.flash,
                layers_here,
                1,
            );
            // 1F1B-style schedule: bubble fraction (p-1)/(chunks+p-1)
            let chunks = setup.pipeline_chunks.max(1);
            let busy = per_chunk * chunks as f64;
            let total = busy * (chunks + p - 1) as f64 / chunks as f64;
            (total, n / p)
        }
    };

    // ---- communication per strategy
    match setup.strategy {
        Strategy::DataParallel => {
            if n > 1 {
                let group: Vec<usize> = (0..n).collect();
                let calls = (grad_bytes / setup.dp_bucket_bytes).ceil() as usize;
                let per_call = grad_bytes / calls as f64;
                comm_overlappable +=
                    collective_time(m, Collective::AllReduce, per_call, &group) * calls as f64;
                msgs.push(MsgRecord {
                    collective: Collective::AllReduce,
                    bytes_per_call: per_call,
                    calls,
                    group: n,
                });
            }
        }
        Strategy::Zero1 => {
            if n > 1 {
                let group: Vec<usize> = (0..n).collect();
                let calls = (grad_bytes / setup.zero_bucket_bytes).ceil() as usize;
                let per_call = grad_bytes / calls as f64;
                // reduce-scatter of gradients: ZeRO's per-bucket launches
                // overlap the backward only partially
                let rs =
                    collective_time(m, Collective::ReduceScatter, per_call, &group) * calls as f64;
                comm_overlappable += 0.5 * rs;
                comm_critical += 0.5 * rs;
                msgs.push(MsgRecord {
                    collective: Collective::ReduceScatter,
                    bytes_per_call: per_call,
                    calls,
                    group: n,
                });
                // all-gather of updated parameters (blocks next forward —
                // half of it still hides behind the optimizer/step tail)
                let ag = collective_time(m, Collective::AllGather, per_call, &group) * calls as f64;
                comm_overlappable += 0.5 * ag;
                comm_critical += 0.5 * ag;
                msgs.push(MsgRecord {
                    collective: Collective::AllGather,
                    bytes_per_call: per_call,
                    calls,
                    group: n,
                });
            }
        }
        Strategy::TensorParallel(t) => {
            // per-layer activation all-reduces inside the TP group:
            // 2 in forward + 2 in backward (Megatron), on the critical path
            let tp_group: Vec<usize> = if t == 2 {
                setup.tp_mapping.ranks().to_vec()
            } else {
                (0..t).collect()
            };
            let act_bytes = (setup.micro_batch * setup.seq * cfg.hidden) as f64 * setup.dtype_bytes;
            let tp_calls = 4 * cfg.layers;
            comm_critical +=
                collective_time(m, Collective::AllReduce, act_bytes, &tp_group) * tp_calls as f64;
            msgs.push(MsgRecord {
                collective: Collective::AllReduce,
                bytes_per_call: act_bytes,
                calls: tp_calls,
                group: t,
            });
            // DP gradient all-reduce over the replicas (sharded params)
            if replicas > 1 {
                let dp_group: Vec<usize> = (0..replicas).map(|i| i * t).collect();
                let shard_bytes = grad_bytes / t as f64;
                let calls = (shard_bytes / setup.dp_bucket_bytes).ceil() as usize;
                let per_call = shard_bytes / calls as f64;
                comm_overlappable +=
                    collective_time(m, Collective::AllReduce, per_call, &dp_group) * calls as f64;
                msgs.push(MsgRecord {
                    collective: Collective::AllReduce,
                    bytes_per_call: per_call,
                    calls,
                    group: replicas,
                });
            }
        }
        Strategy::PipelineParallel(p) => {
            // stage-boundary activations, twice per chunk (fwd + bwd)
            let act_bytes = (setup.micro_batch * setup.seq * cfg.hidden) as f64 * setup.dtype_bytes;
            let p2p_calls = 2 * setup.pipeline_chunks * (p - 1);
            comm_critical +=
                collective_time(m, Collective::P2p, act_bytes, &[0, 2]) * p2p_calls as f64;
            msgs.push(MsgRecord {
                collective: Collective::P2p,
                bytes_per_call: act_bytes,
                calls: p2p_calls,
                group: 2,
            });
            if replicas > 1 {
                let dp_group: Vec<usize> = (0..replicas).map(|i| i * p).collect();
                let shard_bytes = grad_bytes / p as f64;
                let calls = (shard_bytes / setup.dp_bucket_bytes).ceil() as usize;
                let per_call = shard_bytes / calls as f64;
                comm_overlappable +=
                    collective_time(m, Collective::AllReduce, per_call, &dp_group) * calls as f64;
                msgs.push(MsgRecord {
                    collective: Collective::AllReduce,
                    bytes_per_call: per_call,
                    calls,
                    group: replicas,
                });
            }
            // the bubble already extended compute; chunks multiply compute
            compute *= 1.0;
        }
    }

    // ---- IO kernel class (h2d batch staging + d2h logging + ZeRO d2d)
    let batch_bytes = (setup.micro_batch * setup.seq * replicas / n.max(1)).max(1) as f64 * 8.0;
    let mut io = batch_bytes / (m.staging_gbps * 1e9) + 0.01 * compute;
    if matches!(setup.strategy, Strategy::Zero1) {
        // optimizer-shard gather/scatter staging: the paper observes ZeRO
        // has the most data movement, ~5 % of step time
        io += 0.04 * (compute + comm_overlappable);
    }

    // ---- overlap model
    let window = setup.overlap_window * compute;
    let comm_exposed = comm_critical + (comm_overlappable - window).max(0.0);
    let step = compute + comm_exposed + io;

    // ---- throughput accounting (model FLOPs convention). A pipeline
    // replica processes `pipeline_chunks` micro-batches per step.
    let chunk_mult = match setup.strategy {
        Strategy::PipelineParallel(_) => setup.pipeline_chunks.max(1),
        _ => 1,
    };
    let flops_per_replica =
        matgpt_model::count::train_flops_per_step(cfg, setup.micro_batch, setup.seq)
            * chunk_mult as f64;
    let total_flops = flops_per_replica * replicas as f64;
    let tflops_per_gcd = total_flops / step / n as f64 / 1e12;

    let part_mem = peak_memory_gib(cfg, setup.micro_batch, setup.seq, setup.flash, &part);

    StepReport {
        compute_s: compute,
        comm_s: comm_critical + comm_overlappable,
        comm_exposed_s: comm_exposed,
        io_s: io,
        step_s: step,
        tflops_per_gcd,
        aggregate_pflops: total_flops / step / 1e15,
        memory_gib: part_mem,
        fits_memory: part_mem <= m.gcd_memory_gib,
        msgs,
        tokens_per_step: setup.micro_batch * setup.seq * replicas * chunk_mult,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_model::ArchKind;

    fn cfg_1_7b() -> GptConfig {
        GptConfig::paper_1_7b(ArchKind::NeoX, 52_000)
    }

    fn cfg_6_7b() -> GptConfig {
        GptConfig::paper_6_7b(ArchKind::NeoX, 52_000)
    }

    #[test]
    fn fig7_single_node_ordering() {
        // Paper Fig. 7 (8 GCDs, 6.7B): ZeRO-1 best (~81 TFLOPS/GCD), then
        // TP=2, with PP=2 performing much worse.
        let zero = simulate_step(&TrainSetup::new(cfg_6_7b(), 8, Strategy::Zero1));
        let tp = simulate_step(&TrainSetup::new(cfg_6_7b(), 8, Strategy::TensorParallel(2)));
        let pp = simulate_step(&TrainSetup::new(
            cfg_6_7b(),
            8,
            Strategy::PipelineParallel(2),
        ));
        assert!(
            zero.tflops_per_gcd > tp.tflops_per_gcd,
            "ZeRO {} vs TP {}",
            zero.tflops_per_gcd,
            tp.tflops_per_gcd
        );
        assert!(
            tp.tflops_per_gcd > pp.tflops_per_gcd * 1.1,
            "TP {} vs PP {}",
            tp.tflops_per_gcd,
            pp.tflops_per_gcd
        );
        assert!(
            (70.0..95.0).contains(&zero.tflops_per_gcd),
            "ZeRO single node {}",
            zero.tflops_per_gcd
        );
    }

    #[test]
    fn fig7_memory_feasibility() {
        // 6.7B pure DP on one GCD does not fit; all three strategies fit.
        let dp1 = simulate_step(&TrainSetup::new(cfg_6_7b(), 1, Strategy::DataParallel));
        assert!(!dp1.fits_memory);
        for s in [
            Strategy::Zero1,
            Strategy::TensorParallel(2),
            Strategy::PipelineParallel(2),
        ] {
            let r = simulate_step(&TrainSetup::new(cfg_6_7b(), 8, s));
            assert!(r.fits_memory, "{} should fit", s.label());
        }
    }

    #[test]
    fn fig8_dp_scaling_efficiency() {
        // Paper: 1.7B DP reaches >18 PFLOPS at 256 GCDs with 88 % scaling
        // efficiency.
        let base = simulate_step(&TrainSetup::new(cfg_1_7b(), 8, Strategy::DataParallel));
        let big = simulate_step(&TrainSetup::new(cfg_1_7b(), 256, Strategy::DataParallel));
        let eff = big.tflops_per_gcd / base.tflops_per_gcd;
        assert!(eff > 0.75, "DP scaling efficiency {eff}");
        assert!(
            big.aggregate_pflops > 15.0,
            "aggregate {} PFLOPS",
            big.aggregate_pflops
        );
    }

    #[test]
    fn fig8_zero_drops_at_scale_tp_sustains() {
        // Paper: 6.7B per-device throughput is about the same for ≤64 GPUs
        // with ZeRO-1, then drops; TP=2 sustains better efficiency at 256.
        let z64 = simulate_step(&TrainSetup::new(cfg_6_7b(), 64, Strategy::Zero1));
        let z256 = simulate_step(&TrainSetup::new(cfg_6_7b(), 256, Strategy::Zero1));
        let t256 = simulate_step(&TrainSetup::new(
            cfg_6_7b(),
            256,
            Strategy::TensorParallel(2),
        ));
        assert!(
            z256.tflops_per_gcd < z64.tflops_per_gcd * 0.95,
            "ZeRO should drop: {} -> {}",
            z64.tflops_per_gcd,
            z256.tflops_per_gcd
        );
        assert!(
            t256.tflops_per_gcd > z256.tflops_per_gcd,
            "TP=2 at 256 ({}) should beat ZeRO at 256 ({})",
            t256.tflops_per_gcd,
            z256.tflops_per_gcd
        );
    }

    #[test]
    fn fig8_zero_comm_fraction_at_scale() {
        // Paper: at 256 GPUs with ZeRO-1 on 6.7B, communication accounts
        // for ~40 % of the step; IO for ~5 %.
        let r = simulate_step(&TrainSetup::new(cfg_6_7b(), 256, Strategy::Zero1));
        let (comp, comm, io) = r.profile_breakdown();
        assert!((0.2..0.6).contains(&comm), "comm share {comm}");
        assert!((0.01..0.12).contains(&io), "io share {io}");
        assert!(comp > 0.4, "compute share {comp}");
    }

    #[test]
    fn fig11_message_accounting() {
        // Paper: ZeRO-1/TP incur over an order of magnitude more RCCL calls
        // than vanilla DP; DP/ZeRO move ~2× the model size per step, TP ~3×.
        // per-device batch matching the paper's production runs (4M-token
        // global batch over 256 GCDs ≈ 8 sequences of 2048 per GCD)
        let at_batch = |cfg: GptConfig, strat: Strategy| {
            let mut s = TrainSetup::new(cfg, 256, strat);
            s.micro_batch = 8;
            simulate_step(&s)
        };
        let dp = at_batch(cfg_1_7b(), Strategy::DataParallel);
        let zero = at_batch(cfg_6_7b(), Strategy::Zero1);
        let tp = at_batch(cfg_6_7b(), Strategy::TensorParallel(2));
        assert!(
            zero.total_calls() > 10 * dp.total_calls(),
            "ZeRO calls {} vs DP {}",
            zero.total_calls(),
            dp.total_calls()
        );
        assert!(
            tp.total_calls() > 10 * dp.total_calls(),
            "TP calls {} vs DP {}",
            tp.total_calls(),
            dp.total_calls()
        );
        let model_bytes_17 = 2.0 * total_params(&cfg_1_7b()) as f64;
        let model_bytes_67 = 2.0 * total_params(&cfg_6_7b()) as f64;
        let dp_ratio = dp.total_wire_bytes() / model_bytes_17;
        let zero_ratio = zero.total_wire_bytes() / model_bytes_67;
        let tp_ratio = tp.total_wire_bytes() / model_bytes_67;
        assert!((1.5..2.5).contains(&dp_ratio), "DP ratio {dp_ratio}");
        assert!((1.5..2.5).contains(&zero_ratio), "ZeRO ratio {zero_ratio}");
        assert!(tp_ratio > zero_ratio, "TP {tp_ratio} vs ZeRO {zero_ratio}");
    }

    #[test]
    fn observation_2_tp_mapping_matters() {
        // Mapping the TP pair onto one MI250X (200 GB/s) beats spreading it
        // within the node, which beats crossing nodes.
        let mut t = [0.0f64; 3];
        for (i, mapping) in [
            TpMapping::IntraMi250x,
            TpMapping::IntraNode,
            TpMapping::InterNode,
        ]
        .iter()
        .enumerate()
        {
            let mut s = TrainSetup::new(cfg_6_7b(), 256, Strategy::TensorParallel(2));
            s.tp_mapping = *mapping;
            t[i] = simulate_step(&s).tflops_per_gcd;
        }
        assert!(t[0] > t[1], "intra-MI250X {} vs intra-node {}", t[0], t[1]);
        assert!(t[1] >= t[2], "intra-node {} vs inter-node {}", t[1], t[2]);
    }

    #[test]
    fn pipeline_bubble_shrinks_with_more_chunks() {
        let mut s = TrainSetup::new(cfg_6_7b(), 8, Strategy::PipelineParallel(2));
        s.pipeline_chunks = 1;
        let few = simulate_step(&s);
        s.pipeline_chunks = 8;
        let many = simulate_step(&s);
        assert!(many.tflops_per_gcd > few.tflops_per_gcd);
    }

    #[test]
    fn flash_improves_throughput_under_any_strategy() {
        for strat in [Strategy::Zero1, Strategy::TensorParallel(2)] {
            let mut s = TrainSetup::new(cfg_6_7b(), 8, strat);
            s.flash = FlashVersion::None;
            let base = simulate_step(&s);
            s.flash = FlashVersion::V2;
            let fast = simulate_step(&s);
            assert!(
                fast.tflops_per_gcd > base.tflops_per_gcd,
                "{}",
                strat.label()
            );
        }
    }
}
