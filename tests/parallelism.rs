//! Tier-1 integration tests for the data-parallel training executor:
//! bit-level equivalence of the threaded N-worker run against the
//! sequential deterministic-reduction reference (both architectures,
//! replicated and ZeRO-1), the ring allreduce against a naive oracle
//! (including non-divisible chunkings), ZeRO-1 optimizer-state memory
//! accounting, and checkpoint interchange with the single-worker
//! [`Trainer`] resume path.

use matgpt::core::parallel::{ring_allreduce_sum, DataParallel, ParallelConfig};
use matgpt::core::recipes::{OptChoice, PretrainConfig, SizeRole};
use matgpt::core::{pretrain, pretrain_resume};
use matgpt::corpus::{build_corpus, CorpusConfig};
use matgpt::frontier_sim::collectives::{ring_chunks, wire_bytes, Collective};
use matgpt::model::ArchKind;
use matgpt::tokenizer::TokenizerKind;
use proptest::prelude::*;
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

fn cfg(arch: ArchKind) -> PretrainConfig {
    PretrainConfig {
        steps: 6,
        batch_seqs: 4,
        seq: 32,
        ..PretrainConfig::scaled(
            arch,
            TokenizerKind::Hf,
            300,
            OptChoice::Adam,
            SizeRole::Base,
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The threaded N-worker executor is **bit-identical** to the
    /// sequential reference (one replica, micro gradients combined in
    /// the ring's fixed fold order): same train/val curves, same final
    /// weights. Holds for both architectures, for replicated and
    /// ZeRO-1 synchronization, for N ∈ {1, 2, 4}.
    #[test]
    fn threaded_dp_matches_sequential_reference_bitwise(
        arch in prop_oneof![Just(ArchKind::NeoX), Just(ArchKind::Llama)],
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
        zero1 in prop_oneof![Just(false), Just(true)],
    ) {
        let cfg = cfg(arch);
        let pcfg = if zero1 {
            ParallelConfig::zero1(workers)
        } else {
            ParallelConfig::replicated(workers)
        };
        let dp = DataParallel::new(pcfg).train(docs(), &cfg);
        let reference = DataParallel::train_reference(docs(), &cfg, workers);

        prop_assert_eq!(&dp.pretrained.curves.train, &reference.pretrained.curves.train);
        prop_assert_eq!(&dp.pretrained.curves.val, &reference.pretrained.curves.val);
        prop_assert_eq!(
            dp.pretrained.store.flat_values(),
            reference.pretrained.store.flat_values()
        );
        // The measured mean per-rank gradient traffic lands exactly on
        // the paper's 2(N−1)/N · 4M closed form. ZeRO-1 additionally
        // allgathers one squared norm per tensor for global-norm
        // clipping — an (N−1)/N · 4T term, exact as well.
        let m = dp.report.param_scalars;
        let t = dp.pretrained.store.tensor_sizes().len();
        let mut formula = wire_bytes(Collective::AllReduce, (m * 4) as f64, workers);
        if zero1 {
            formula += wire_bytes(Collective::AllGather, (t * 4) as f64, workers);
        }
        prop_assert_eq!(dp.report.measured_allreduce_bytes_per_step, formula);
    }

    /// The real threaded ring allreduce agrees with a naive oracle sum
    /// on integer-valued floats (where f32 addition is exact), for
    /// rank counts that do and do not divide the buffer length, and
    /// every rank sends exactly the bytes the ring schedule prescribes.
    #[test]
    fn ring_allreduce_matches_naive_oracle(
        len in 1usize..40,
        n in 1usize..6,
        seed in 0u64..1000,
    ) {
        let parts: Vec<Vec<f32>> = (0..n)
            .map(|r| {
                (0..len)
                    .map(|i| (((seed as usize + r * 31 + i * 7) % 17) as f32) - 8.0)
                    .collect()
            })
            .collect();
        let naive: Vec<f32> = (0..len)
            .map(|i| parts.iter().map(|p| p[i]).sum::<f32>())
            .collect();

        let bounds = ring_chunks(len, n);
        let (results, sent) =
            ring_allreduce_sum(parts, &bounds).expect("healthy ring cannot fail");
        for buf in &results {
            prop_assert_eq!(buf, &naive);
        }
        // Per-rank traffic: each rank sends every chunk except one per
        // phase (reduce-scatter + allgather), 4 bytes per scalar.
        for (rank, &bytes) in sent.iter().enumerate() {
            let rs: usize = (0..n)
                .filter(|&c| c != rank)
                .map(|c| bounds[c].len())
                .sum();
            let ag: usize = (0..n)
                .filter(|&c| c != (rank + 1) % n)
                .map(|c| bounds[c].len())
                .sum();
            prop_assert_eq!(bytes, ((rs + ag) * 4) as u64);
        }
        // ... and the mean over ranks is the closed-form wire volume.
        let mean = sent.iter().sum::<u64>() as f64 / n as f64;
        let formula = wire_bytes(Collective::AllReduce, (len * 4) as f64, n);
        prop_assert!((mean - formula).abs() < 1e-6, "{} vs {}", mean, formula);
    }
}

/// A single-worker data-parallel run degenerates to the plain
/// [`matgpt::core::Trainer`] loop, bit-for-bit.
#[test]
fn one_worker_dp_matches_plain_trainer_bitwise() {
    let cfg = cfg(ArchKind::Llama);
    let dp = DataParallel::new(ParallelConfig::replicated(1)).train(docs(), &cfg);
    let plain = pretrain(docs(), &cfg);
    assert_eq!(dp.pretrained.curves.train, plain.curves.train);
    assert_eq!(dp.pretrained.curves.val, plain.curves.val);
    assert_eq!(dp.pretrained.store.flat_values(), plain.store.flat_values());
}

/// ZeRO-1 sharding changes where optimizer state lives, not what the
/// run computes: curves and weights are bit-identical to the
/// replicated run, while each worker's optimizer-state footprint drops
/// to roughly 1/N of the replicated bytes (tensor-aligned shards, so
/// "roughly" means bounded by the largest tensor, and the shards sum
/// to the replicated state plus one 8-byte step counter per extra
/// worker).
#[test]
fn zero1_is_bitwise_equal_and_shards_optimizer_state() {
    let cfg = cfg(ArchKind::NeoX);
    let n = 4;
    let replicated = DataParallel::new(ParallelConfig::replicated(n)).train(docs(), &cfg);
    let sharded = DataParallel::new(ParallelConfig::zero1(n)).train(docs(), &cfg);

    assert_eq!(
        sharded.pretrained.curves.train,
        replicated.pretrained.curves.train
    );
    assert_eq!(
        sharded.pretrained.store.flat_values(),
        replicated.pretrained.store.flat_values()
    );

    // Replicated: every worker holds the full Adam state (8-byte step
    // counter + two f32 moments per parameter scalar).
    let m = replicated.report.param_scalars;
    let full = 8 + m * 2 * 4;
    for &b in &replicated.report.opt_state_bytes {
        assert_eq!(b, full);
    }
    // ZeRO-1: shard footprints match each worker's owned scalars and
    // sum back to the replicated state (modulo per-worker counters).
    for (rank, &b) in sharded.report.opt_state_bytes.iter().enumerate() {
        assert_eq!(b, 8 + sharded.report.shard_scalars[rank] * 2 * 4);
    }
    let total: usize = sharded.report.opt_state_bytes.iter().sum();
    assert_eq!(total, full + (n - 1) * 8);
    // The gate the bench enforces: ≤ 0.35× the replicated footprint at
    // four workers.
    let max_shard = sharded.report.max_opt_state_bytes() as f64;
    assert!(
        max_shard <= 0.35 * full as f64,
        "max shard {} vs replicated {}",
        max_shard,
        full
    );
}

/// Checkpoints written by the data-parallel executor are ordinary v2
/// MGPT images: resuming under DP(4)+ZeRO-1 reproduces the
/// uninterrupted DP run bit-for-bit, and the single-worker
/// [`pretrain_resume`] path accepts the same bytes.
#[test]
fn dp_checkpoints_resume_bitwise_and_interchange_with_trainer() {
    let cfg = cfg(ArchKind::Llama);
    let pcfg = ParallelConfig::zero1(4);
    let full = DataParallel::new(pcfg).train_with_checkpoints(docs(), &cfg, 3);
    let (mid_step, image) = full
        .checkpoints
        .iter()
        .find(|(s, _)| *s == 3)
        .expect("midpoint checkpoint at step 3");
    assert_eq!(*mid_step, 3);

    let resumed = DataParallel::new(pcfg)
        .resume(docs(), &cfg, image)
        .expect("DP resume accepts its own checkpoint");
    assert_eq!(
        resumed.pretrained.curves.train,
        full.pretrained.curves.train
    );
    assert_eq!(resumed.pretrained.curves.val, full.pretrained.curves.val);
    assert_eq!(
        resumed.pretrained.store.flat_values(),
        full.pretrained.store.flat_values()
    );
    assert_eq!(resumed.report.steps_run, cfg.steps - mid_step);

    // The same bytes drive the plain single-worker resume path: the
    // consolidated optimizer state, LR step and data cursor all decode.
    let single = pretrain_resume(docs(), &cfg, image).expect("Trainer resume accepts DP image");
    assert_eq!(single.curves.train.len(), cfg.steps);
    assert!(single.curves.final_val().is_finite());
}

// ---------------------------------------------------------------------------
// Executed dp × tp × pp topologies.
// ---------------------------------------------------------------------------

use matgpt::core::parallel::{
    reference_topology, train_topology, CollectiveError, PipeDir, PipeLink, Topology,
    TopologyError, TopologyOutcome,
};
use matgpt::core::recipes::OptChoice as Opt2;
use matgpt::model::tp::stage_ranges;
use std::time::Duration;

/// Run threaded and sequential-reference topology training and assert
/// they are bit-identical: same train curve, same final validation
/// loss, same consolidated weights. Also asserts every worker's wire
/// bytes hit the ring/link closed forms exactly.
fn assert_topology_matches_reference(arch: ArchKind, topo: Topology) -> TopologyOutcome {
    let cfg = cfg(arch);
    let threaded = train_topology(docs(), &cfg, topo).expect("threaded topology");
    let reference = reference_topology(docs(), &cfg, topo).expect("reference topology");
    assert_eq!(
        threaded.train_curve,
        reference.train_curve,
        "{arch:?} {} train curve",
        topo.describe()
    );
    assert_eq!(
        threaded.final_val.to_bits(),
        reference.final_val.to_bits(),
        "{arch:?} {} final val",
        topo.describe()
    );
    let tb: Vec<u32> = threaded
        .store
        .flat_values()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let rb: Vec<u32> = reference
        .store
        .flat_values()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(tb, rb, "{arch:?} {} weights", topo.describe());
    assert!(
        threaded.report.wire_exact(),
        "{arch:?} {} wire audit: {:#?}",
        topo.describe(),
        threaded.report.wire
    );
    threaded
}

/// The degenerate 1×1×1 grid collapses to the plain single-tape,
/// single-store training loop: both topology executors must match
/// `DataParallel::train_reference(1)` bitwise — proof that the TP sync
/// ops and stage plumbing add nothing to the graph when inactive.
#[test]
fn unit_topology_matches_dp_reference_bitwise() {
    for arch in [ArchKind::NeoX, ArchKind::Llama] {
        let cfg = cfg(arch);
        let topo = Topology::new(1, 1, 1);
        let threaded = train_topology(docs(), &cfg, topo).expect("unit grid");
        let sequential = reference_topology(docs(), &cfg, topo).expect("unit grid");
        let dp = DataParallel::train_reference(docs(), &cfg, 1);
        for out in [&threaded, &sequential] {
            assert_eq!(
                out.train_curve, dp.pretrained.curves.train,
                "{arch:?} curve"
            );
            assert_eq!(
                out.store.flat_values(),
                dp.pretrained.store.flat_values(),
                "{arch:?} weights"
            );
            let (_, last_val) = *dp.pretrained.curves.val.last().expect("val curve");
            assert_eq!(out.final_val.to_bits(), last_val.to_bits(), "{arch:?} val");
        }
    }
}

/// TP=2: column/row sharded projections with real ring allreduces at
/// the Megatron f/g sync points match the sequential TP-aware
/// reference bitwise, and TP wire bytes hit the per-rank closed form.
#[test]
fn topology_tp2_matches_reference_bitwise() {
    for arch in [ArchKind::NeoX, ArchKind::Llama] {
        let out = assert_topology_matches_reference(arch, Topology::new(1, 2, 1));
        for w in &out.report.wire {
            assert!(w.tp_bytes > 0, "tp ring must carry traffic");
            assert_eq!(w.pipe_bytes, 0);
            assert_eq!(w.dp_bytes, 0);
        }
    }
}

/// PP=2 under 1F1B: for one chunk, an even chunking, and a
/// non-divisible chunking (4 rows over 3 chunks → 2+1+1), boundary
/// activations/gradients over real p2p links reproduce the sequential
/// reference bitwise.
#[test]
fn topology_pp2_matches_reference_bitwise_any_chunking() {
    for chunks in [1usize, 2, 3] {
        let out = assert_topology_matches_reference(
            ArchKind::Llama,
            Topology::new(1, 1, 2).with_chunks(chunks),
        );
        for w in &out.report.wire {
            assert!(w.pipe_bytes > 0, "pipe links must carry traffic");
            assert!(w.norm_bytes > 0, "grad-norm ring must carry traffic");
        }
    }
}

/// DP×PP composition: gradient rings per (stage, rank) and pipe links
/// per replica compose without breaking bitwise determinism.
#[test]
fn topology_dp2_pp2_matches_reference_bitwise() {
    let out = assert_topology_matches_reference(ArchKind::Llama, Topology::new(2, 1, 2));
    for w in &out.report.wire {
        assert!(w.dp_bytes > 0 && w.pipe_bytes > 0);
    }
}

/// DP×TP composition on the NeoX graph (biases exercised end to end).
#[test]
fn topology_dp2_tp2_matches_reference_bitwise() {
    let out = assert_topology_matches_reference(ArchKind::NeoX, Topology::new(2, 2, 1));
    for w in &out.report.wire {
        assert!(w.dp_bytes > 0 && w.tp_bytes > 0);
    }
}

/// Optional CI matrix entry: `MATGPT_TOPOLOGY=dp,tp,pp[,chunks][,zero1]`
/// runs that grid through the full bitwise + wire-audit contract, with
/// a ZeRO-1 sharded optimizer when the trailing `zero1` flag is given.
#[test]
fn topology_matrix_from_env() {
    let Ok(spec) = std::env::var("MATGPT_TOPOLOGY") else {
        return;
    };
    let mut fields: Vec<&str> = spec.split(',').map(str::trim).collect();
    let zero1 = fields.last() == Some(&"zero1");
    if zero1 {
        fields.pop();
    }
    let parts: Vec<usize> = fields
        .iter()
        .map(|p| {
            p.parse()
                .expect("MATGPT_TOPOLOGY=dp,tp,pp[,chunks][,zero1]")
        })
        .collect();
    assert!(
        parts.len() == 3 || parts.len() == 4,
        "dp,tp,pp[,chunks][,zero1]"
    );
    let mut topo = Topology::new(parts[0], parts[1], parts[2]);
    if let Some(&c) = parts.get(3) {
        topo = topo.with_chunks(c);
    }
    if zero1 {
        topo = topo.with_zero1();
    }
    assert_topology_matches_reference(ArchKind::Llama, topo);
}

/// Stage splits are first-heavy: 33 layers over 2 stages is 17 + 16,
/// and every split covers the layer range exactly once.
#[test]
fn stage_ranges_are_first_heavy_and_cover() {
    assert_eq!(stage_ranges(33, 2), vec![0..17, 17..33]);
    assert_eq!(stage_ranges(7, 3), vec![0..3, 3..5, 5..7]);
    for layers in 1..=9usize {
        for p in 1..=layers {
            let ranges = stage_ranges(layers, p);
            assert_eq!(ranges.first().expect("stage").start, 0);
            assert_eq!(ranges.last().expect("stage").end, layers);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(w[0].len() >= w[1].len(), "first-heavy");
            }
        }
    }
}

/// A lost or silent pipeline neighbour is a typed error within the
/// deadline — never a hang.
#[test]
fn pipe_link_failures_are_typed_not_hangs() {
    // Dropped peer → RankLost.
    let (earlier, mut later) = PipeLink::pair(Duration::from_millis(200));
    drop(earlier);
    match later.recv(0, PipeDir::Forward) {
        Err(CollectiveError::RankLost { .. }) => {}
        other => panic!("expected RankLost, got {other:?}"),
    }
    // Alive but silent peer → Timeout at the deadline.
    let (_earlier, mut later) = PipeLink::pair(Duration::from_millis(50));
    match later.recv(0, PipeDir::Backward) {
        Err(CollectiveError::Timeout { waited_ms, .. }) => assert!(waited_ms >= 50),
        other => panic!("expected Timeout, got {other:?}"),
    }
}

/// Invalid grids are typed plan errors, caught before any thread
/// spawns: LAMB's non-elementwise update × TP, a batch that does not
/// divide across replicas, more chunks than rows, more stages than
/// layers.
#[test]
fn topology_misconfigurations_are_typed_errors() {
    let base = cfg(ArchKind::Llama);
    let lamb = PretrainConfig {
        optimizer: Opt2::Lamb,
        ..base.clone()
    };
    match train_topology(docs(), &lamb, Topology::new(1, 2, 1)) {
        Err(TopologyError::Optimizer { tp: 2 }) => {}
        other => panic!("expected Optimizer error, got {:?}", other.err()),
    }
    match train_topology(docs(), &base, Topology::new(3, 1, 1)) {
        Err(TopologyError::Batch { batch: 4, dp: 3 }) => {}
        other => panic!("expected Batch error, got {:?}", other.err()),
    }
    match train_topology(docs(), &base, Topology::new(1, 1, 2).with_chunks(9)) {
        Err(TopologyError::Chunks { chunks: 9, rows: 4 }) => {}
        other => panic!("expected Chunks error, got {:?}", other.err()),
    }
    match train_topology(docs(), &base, Topology::new(1, 1, 3)) {
        Err(TopologyError::Plan(_)) => {}
        other => panic!("expected Plan error, got {:?}", other.err()),
    }
    match train_topology(docs(), &base, Topology::new(1, 3, 1)) {
        Err(TopologyError::Plan(_)) => {}
        other => panic!("expected Plan error, got {:?}", other.err()),
    }
}

// ---------------------------------------------------------------------------
// One executor: the DataParallel and train_topology entry points agree,
// and ZeRO-1 / mixed precision compose with every axis.
// ---------------------------------------------------------------------------

use matgpt::core::ResumeError;
use matgpt::tensor::{checkpoint, ParamStore, Precision};

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// ZeRO-1 is an optimizer-sharding mode of the dp ring at any
/// `{tp, pp}`: on `{2,2,1}` and `{2,1,2}` it matches the sequential
/// reference bitwise with an exact wire audit (the reference never
/// shards its optimizer, so this is also ZeRO-1 ≡ replicated), the
/// replicated threaded run produces the same bits, and the largest
/// per-worker optimizer footprint drops to about 1/dp of replicated.
#[test]
fn zero1_composes_with_tp_and_pp_bitwise() {
    for (arch, topo) in [
        (ArchKind::NeoX, Topology::new(2, 2, 1)),
        (ArchKind::Llama, Topology::new(2, 1, 2)),
    ] {
        let sharded = assert_topology_matches_reference(arch, topo.with_zero1());
        let cfg = cfg(arch);
        let replicated = DataParallel::new(topo).train(docs(), &cfg);
        let zero1 = DataParallel::new(topo.with_zero1()).train(docs(), &cfg);
        assert_eq!(
            zero1.pretrained.curves.train,
            replicated.pretrained.curves.train
        );
        assert_eq!(
            zero1.pretrained.curves.val,
            replicated.pretrained.curves.val
        );
        assert_eq!(
            bits(&zero1.pretrained.store.flat_values()),
            bits(&replicated.pretrained.store.flat_values())
        );
        assert_eq!(
            bits(&sharded.store.flat_values()),
            bits(&replicated.pretrained.store.flat_values()),
            "train_topology and DataParallel run the same executor"
        );

        // every seat of the replicated grid holds its whole shard
        // store's moments; under ZeRO-1 a seat holds its dp shard only
        let full = replicated.report.max_opt_state_bytes() as f64;
        let max_shard = zero1.report.max_opt_state_bytes() as f64;
        assert!(
            max_shard <= 0.65 * full && max_shard >= 0.35 * full,
            "{}: max shard {max_shard} vs replicated {full}",
            topo.describe()
        );
        let held =
            |o: &matgpt::core::ParallelOutcome| o.report.opt_state_bytes.iter().sum::<usize>();
        // the shards of the two replicas sum back to one replica's state
        // (each seat carries its own 8-byte step counter)
        let seats = topo.world();
        assert_eq!(
            held(&zero1) - 8 * seats,
            (held(&replicated) - 8 * seats) / topo.dp
        );
    }
}

/// `train_topology({N,1,1})` *is* `DataParallel::replicated(N).train`:
/// same curves, same weights, same final validation loss, for
/// N ∈ {2, 4} and both architectures.
#[test]
fn dp_grid_topology_matches_data_parallel_bitwise() {
    for arch in [ArchKind::NeoX, ArchKind::Llama] {
        for n in [2usize, 4] {
            let cfg = cfg(arch);
            let grid = train_topology(docs(), &cfg, Topology::new(n, 1, 1)).expect("dp grid");
            let dp = DataParallel::new(ParallelConfig::replicated(n)).train(docs(), &cfg);
            assert_eq!(
                grid.train_curve, dp.pretrained.curves.train,
                "{arch:?} n={n}"
            );
            assert_eq!(
                bits(&grid.store.flat_values()),
                bits(&dp.pretrained.store.flat_values()),
                "{arch:?} n={n} weights"
            );
            assert_eq!(
                grid.final_val.to_bits(),
                dp.pretrained.curves.final_val().to_bits(),
                "{arch:?} n={n} val"
            );
            assert_eq!(grid.report.steps_run, dp.report.steps_run);
        }
    }
}

/// `PretrainConfig::precision` reaches the grid executor: a bf16
/// `{1,1,1}` run (threaded and reference) rounds the store around
/// forward+backward exactly like `Trainer`, bit for bit — and differs
/// from the f32 run, so the rounding really happened.
#[test]
fn unit_topology_honours_mixed_precision_bitwise() {
    let base = cfg(ArchKind::Llama);
    let bf16 = PretrainConfig {
        precision: Precision::Bf16,
        ..base.clone()
    };
    let plain = pretrain(docs(), &bf16);
    let topo = Topology::new(1, 1, 1);
    for out in [
        train_topology(docs(), &bf16, topo).expect("threaded"),
        reference_topology(docs(), &bf16, topo).expect("reference"),
    ] {
        assert_eq!(out.train_curve, plain.curves.train);
        assert_eq!(
            bits(&out.store.flat_values()),
            bits(&plain.store.flat_values())
        );
        assert_eq!(out.final_val.to_bits(), plain.curves.final_val().to_bits());
    }
    let f32_run = train_topology(docs(), &base, topo).expect("f32");
    assert_ne!(
        bits(&f32_run.store.flat_values()),
        bits(&plain.store.flat_values())
    );
    // and it composes with sharding: TP=2 under bf16 still matches its
    // sequential reference
    let tp2 = Topology::new(1, 2, 1);
    let threaded = train_topology(docs(), &bf16, tp2).expect("threaded tp2");
    let reference = reference_topology(docs(), &bf16, tp2).expect("reference tp2");
    assert_eq!(threaded.train_curve, reference.train_curve);
    assert_eq!(
        bits(&threaded.store.flat_values()),
        bits(&reference.store.flat_values())
    );
}

/// Checkpoints are full-model v2 images whatever grid wrote them: a
/// `{2,2,1}` ZeRO-1 run's midpoint image resumes bitwise on the same
/// grid, on a differently shaped grid, and under the plain `Trainer`.
#[test]
fn grid_checkpoints_interchange_across_grids_and_trainer() {
    let cfg = cfg(ArchKind::Llama);
    let topo = Topology::new(2, 2, 1).with_zero1();
    let full = DataParallel::new(topo).train_with_checkpoints(docs(), &cfg, 3);
    let (_, image) = full
        .checkpoints
        .iter()
        .find(|(s, _)| *s == 3)
        .expect("midpoint checkpoint at step 3");

    let same = DataParallel::new(topo)
        .resume(docs(), &cfg, image)
        .expect("same-grid resume");
    assert_eq!(same.pretrained.curves.train, full.pretrained.curves.train);
    assert_eq!(same.pretrained.curves.val, full.pretrained.curves.val);
    assert_eq!(
        bits(&same.pretrained.store.flat_values()),
        bits(&full.pretrained.store.flat_values())
    );
    assert_eq!(same.report.steps_run, cfg.steps - 3);

    // a {1,1,2} pipeline and the single-worker Trainer both accept it
    let other = DataParallel::new(Topology::new(1, 1, 2))
        .resume(docs(), &cfg, image)
        .expect("cross-grid resume");
    assert_eq!(other.pretrained.curves.train.len(), cfg.steps);
    assert!(other.pretrained.curves.final_val().is_finite());
    let single = pretrain_resume(docs(), &cfg, image).expect("Trainer resume");
    assert_eq!(single.curves.train.len(), cfg.steps);
    // ... and the {1,1,1} grid resumes a Trainer image like Trainer does
    let (trained, images) = matgpt::core::pretrain_with_checkpoints(docs(), &cfg, 3);
    let unit = DataParallel::new(ParallelConfig::replicated(1))
        .resume(docs(), &cfg, &images[0].1)
        .expect("Trainer image resumes on the unit grid");
    assert_eq!(unit.pretrained.curves.train, trained.curves.train);
    assert_eq!(
        bits(&unit.pretrained.store.flat_values()),
        bits(&trained.store.flat_values())
    );
}

/// A resume image whose parameter table does not cover the model is a
/// typed `ParamMismatch` from `DataParallel::resume` — decided on the
/// coordinator, before any worker spawns.
#[test]
fn resume_with_wrong_shaped_image_is_param_mismatch() {
    let cfg = cfg(ArchKind::Llama);
    let pool = DataParallel::new(ParallelConfig::zero1(2));
    let run = pool.train_with_checkpoints(docs(), &cfg, 3);
    let ck = checkpoint::load_full(&run.checkpoints[0].1).expect("own image decodes");
    // same sections, but the last tensor of the table is missing
    let mut truncated = ParamStore::new();
    let ids: Vec<_> = ck.store.ids().collect();
    for &id in &ids[..ids.len() - 1] {
        truncated.add(ck.store.name(id), ck.store.value(id).clone());
    }
    let image = checkpoint::save_with_sections(&truncated, &ck.sections).to_vec();
    match pool.resume(docs(), &cfg, &image) {
        Err(ResumeError::ParamMismatch { restored, expected }) => {
            assert_eq!((restored, expected), (ids.len() - 1, ids.len()));
        }
        other => panic!("expected ParamMismatch, got {:?}", other.err()),
    }
}
