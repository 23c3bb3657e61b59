//! Megatron-style tensor-parallel shards of [`crate::GptModel`]: carving
//! and re-assembling them, and the two sharded callers of the one tape
//! forward, [`crate::gpt`]'s `walk`.
//!
//! The shard layout follows GPT-NeoX-20B / Megatron-LM and is read off
//! the `split` column of `crate::gpt::LAYER_LAYOUT`, never re-listed
//! here:
//!
//! * **column-parallel** (`Split::Col`) — the q/k/v projections (by
//!   contiguous head blocks), the MLP up/gate projections and their
//!   biases: each rank holds a column slice and computes a disjoint
//!   slice of the output features;
//! * **row-parallel** (`Split::Row`) — the two projections back to the
//!   residual stream: each rank holds the row block matching its
//!   column slice and produces a *partial sum* of the full output,
//!   combined by an allreduce (the Megatron "g" point);
//! * **replicated** — embeddings, norms, the row-parallel outputs'
//!   biases (added after the allreduce) and the LM head: identical on
//!   every rank, kept in lockstep because every gradient that reaches
//!   them has already been allreduced (the Megatron "f" point).
//!
//! Which entry point is which caller of the walk:
//!
//! * [`ShardModel::stage_forward`] — what a threaded grid worker runs:
//!   one rank view (its shard of its stage), the sync points are real
//!   collectives on the worker's [`CommHook`];
//! * [`reference_loss`] — the sequential reference: per stage, all `tp`
//!   shards as views on one tape, the sync points folded on the tape in
//!   the exact ring reduction order ([`matgpt_tensor::ring_fold`]).
//!
//! Equivalence contract: a threaded TP×t run is bit-identical to
//! [`reference_loss`]; at `t = 1` (any `pp`) both record node for node
//! the tape [`crate::GptModel::loss`] records, since every sync op is
//! the identity for a group of one.

use crate::config::GptConfig;
use crate::gpt::{walk, GptModel, LayerIds, RankView, Split, WalkFrom, WalkTo, LAYER_LAYOUT};
use matgpt_tensor::{CommHook, ParamId, ParamStore, Tape, Tensor, Var};
use std::ops::Range;

/// Why a `(tp, pp)` layout cannot shard this model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TpPlanError {
    /// Attention heads don't divide across the TP group.
    Heads {
        /// Head count.
        heads: usize,
        /// Requested TP degree.
        tp: usize,
    },
    /// Key/value heads don't divide across the TP group.
    KvHeads {
        /// KV head count.
        kv_heads: usize,
        /// Requested TP degree.
        tp: usize,
    },
    /// The MLP inner width doesn't divide across the TP group.
    MlpWidth {
        /// MLP inner width.
        mlp: usize,
        /// Requested TP degree.
        tp: usize,
    },
    /// More pipeline stages than layers.
    Stages {
        /// Layer count.
        layers: usize,
        /// Requested PP degree.
        pp: usize,
    },
}

impl std::fmt::Display for TpPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TpPlanError::Heads { heads, tp } => {
                write!(f, "{heads} attention heads do not divide across TP={tp}")
            }
            TpPlanError::KvHeads { kv_heads, tp } => {
                write!(f, "{kv_heads} kv heads do not divide across TP={tp}")
            }
            TpPlanError::MlpWidth { mlp, tp } => {
                write!(f, "MLP width {mlp} does not divide across TP={tp}")
            }
            TpPlanError::Stages { layers, pp } => {
                write!(f, "{layers} layers cannot fill PP={pp} stages")
            }
        }
    }
}

impl std::error::Error for TpPlanError {}

/// Validate that `cfg` shards across `tp` tensor ranks and `pp` stages.
pub fn validate_plan(cfg: &GptConfig, tp: usize, pp: usize) -> Result<(), TpPlanError> {
    assert!(tp >= 1 && pp >= 1, "degrees start at one");
    if !cfg.heads.is_multiple_of(tp) {
        return Err(TpPlanError::Heads {
            heads: cfg.heads,
            tp,
        });
    }
    if !cfg.kv_head_count().is_multiple_of(tp) {
        return Err(TpPlanError::KvHeads {
            kv_heads: cfg.kv_head_count(),
            tp,
        });
    }
    if !cfg.mlp_hidden().is_multiple_of(tp) {
        return Err(TpPlanError::MlpWidth {
            mlp: cfg.mlp_hidden(),
            tp,
        });
    }
    if pp > cfg.layers {
        return Err(TpPlanError::Stages {
            layers: cfg.layers,
            pp,
        });
    }
    Ok(())
}

/// Contiguous layer ranges for `p` pipeline stages: sizes differ by at
/// most one, remainder layers land on the **earliest** stages (so the
/// first stage is the busiest — the convention
/// `matgpt_frontier_sim::parallel::TrainSetup::stage_layers` prices).
/// 33 layers over 2 stages split 17 + 16.
pub fn stage_ranges(layers: usize, p: usize) -> Vec<Range<usize>> {
    assert!(p >= 1, "need at least one stage");
    let q = layers / p;
    let rem = layers % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0usize;
    for s in 0..p {
        let len = q + usize::from(s < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Is this parameter tensor sharded under TP (true) or replicated
/// (false)? Looked up in `LAYER_LAYOUT` by the registration name's
/// `layer{l}.`-stripped suffix; the model ends are all replicated.
pub fn is_sharded_name(name: &str) -> bool {
    name.split_once('.').is_some_and(|(_, suffix)| {
        LAYER_LAYOUT
            .iter()
            .any(|spec| spec.suffix == suffix && spec.split != Split::Replicated)
    })
}

/// The `(rows, columns)` block of a full tensor that TP rank `r` of `tp`
/// holds under `split`, and the full row width. A vector is one row.
fn shard_block(
    split: Split,
    shape: &[usize],
    r: usize,
    tp: usize,
) -> (Range<usize>, Range<usize>, usize) {
    let (rows, cols) = match *shape {
        [n] => (1, n),
        [rows, cols] => (rows, cols),
        _ => panic!("model tensors are vectors or matrices, not {shape:?}"),
    };
    let block = |n: usize| r * n / tp..(r + 1) * n / tp;
    match split {
        Split::Replicated => (0..rows, 0..cols, cols),
        Split::Col => (0..rows, block(cols), cols),
        Split::Row => (block(rows), 0..cols, cols),
    }
}

/// Rank `r` of `tp`'s exact slice of `full`.
fn shard_of(full: &Tensor, split: Split, r: usize, tp: usize) -> Tensor {
    let (rows, cols, width) = shard_block(split, full.shape(), r, tp);
    let mut data = Vec::with_capacity(rows.len() * cols.len());
    for row in rows.clone() {
        data.extend_from_slice(&full.data()[row * width + cols.start..row * width + cols.end]);
    }
    if full.rank() == 1 {
        Tensor::from_vec(&[cols.len()], data)
    } else {
        Tensor::from_vec(&[rows.len(), cols.len()], data)
    }
}

/// Inverse of [`shard_of`]: write rank `r`'s slice back into `full`.
fn unshard_into(full: &mut Tensor, shard: &Tensor, split: Split, r: usize, tp: usize) {
    let (rows, cols, width) = shard_block(split, full.shape(), r, tp);
    assert_eq!(shard.numel(), rows.len() * cols.len(), "shard geometry");
    for (src, row) in shard.data().chunks_exact(cols.len()).zip(rows) {
        full.data_mut()[row * width + cols.start..row * width + cols.end].copy_from_slice(src);
    }
}

/// One rank's stage of the model: the owned layer span sharded across
/// `tp` ranks, plus the replicated stage-boundary pieces (embedding on
/// the first stage, final norm + head on the last).
pub struct ShardModel {
    /// Architecture configuration (full, unsharded dimensions).
    pub cfg: GptConfig,
    /// TP group size.
    pub tp: usize,
    /// This shard's TP rank.
    pub rank: usize,
    /// Global layer indices this stage owns.
    pub layer_range: Range<usize>,
    /// First pipeline stage (owns the token embedding).
    pub first_stage: bool,
    /// Last pipeline stage (owns the final norm, head and loss).
    pub last_stage: bool,
    tok_emb: Option<ParamId>,
    layers: Vec<LayerIds>,
    lnf_g: Option<ParamId>,
    lnf_b: Option<ParamId>,
    lm_head: Option<ParamId>,
    /// The full-store tensor each of this shard's tensors was carved
    /// from and how, in registration order — the way back for
    /// [`consolidate_shards`].
    origin: Vec<(ParamId, Split)>,
}

/// Carve rank `(rank of tp)`'s shard of `layer_range` out of a fully
/// initialised model. The shard store registers tensors under the same
/// names, in the same relative order, as the full store — values are
/// exact slices, so `t = 1, pp = 1` reproduces the full store bitwise.
pub fn shard_model(
    full: &GptModel,
    full_store: &ParamStore,
    tp: usize,
    rank: usize,
    layer_range: Range<usize>,
    first_stage: bool,
    last_stage: bool,
) -> (ShardModel, ParamStore) {
    let cfg = full.cfg.clone();
    validate_plan(&cfg, tp, 1).expect("validated layout");
    assert!(rank < tp, "rank within group");

    let mut store = ParamStore::new();
    let mut origin = Vec::new();
    let mut carve = |id: ParamId, split: Split| {
        origin.push((id, split));
        let slice = shard_of(full_store.value(id), split, rank, tp);
        store.add(full_store.name(id), slice)
    };
    let tok_emb = first_stage.then(|| carve(full.tok_emb, Split::Replicated));
    let layers = layer_range
        .clone()
        .map(|l| {
            let src = &full.layers[l];
            LayerIds::from_fn(|spec| src.get(spec.slot).map(|id| carve(id, spec.split)))
        })
        .collect();
    let lnf_g = last_stage.then(|| carve(full.lnf_g, Split::Replicated));
    let lnf_b = full
        .lnf_b
        .filter(|_| last_stage)
        .map(|id| carve(id, Split::Replicated));
    let lm_head = last_stage.then(|| carve(full.lm_head, Split::Replicated));

    (
        ShardModel {
            cfg,
            tp,
            rank,
            layer_range,
            first_stage,
            last_stage,
            tok_emb,
            layers,
            lnf_g,
            lnf_b,
            lm_head,
            origin,
        },
        store,
    )
}

/// What flows into a stage's forward pass.
pub enum StageInput<'a> {
    /// First stage: the token ids of this micro-batch chunk.
    Tokens(&'a [u32]),
    /// Later stages: the boundary activation received from the
    /// previous stage, laid out `[rows, hidden]`.
    Activation(Tensor),
}

/// The tape handles a stage forward leaves behind for the backward
/// half-step.
pub struct StageForward {
    /// Stage output: the boundary hidden states — or, on the last
    /// stage when targets were supplied, the scalar loss.
    pub out: Var,
    /// The boundary input var (present iff the input was an
    /// activation); its gradient is what flows back to the previous
    /// stage.
    pub input: Option<Var>,
    /// `(param, staged var)` pairs, for gradient accumulation into the
    /// shard store.
    pub staged: Vec<(ParamId, Var)>,
}

impl ShardModel {
    /// Per-tensor TP-sharded flags in this shard store's registration
    /// order (false = replicated; count it once across the group).
    pub fn sharded_flags(&self, store: &ParamStore) -> Vec<bool> {
        store
            .ids()
            .map(|id| is_sharded_name(store.name(id)))
            .collect()
    }

    /// This shard as one rank view for [`walk`].
    fn view<'a>(&'a self, store: &'a ParamStore) -> RankView<'a> {
        RankView {
            store,
            tok_emb: self.tok_emb,
            layers: &self.layers,
            lnf_g: self.lnf_g,
            lnf_b: self.lnf_b,
            lm_head: self.lm_head,
            staged: Vec::new(),
        }
    }

    /// One rank's threaded forward over its stage span: `walk` with
    /// this shard as the only view and `comm` at the TP sync points
    /// ([`Tape::sync_grad`] before each sharded block,
    /// [`Tape::sync_sum`] after each row-parallel product); a group of
    /// one makes both no-ops and the graph degenerates to
    /// [`crate::GptModel`]'s. With `targets` on the last stage the
    /// output is the scalar loss, otherwise the boundary hidden states.
    #[allow(clippy::too_many_arguments)]
    pub fn stage_forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        input: StageInput<'_>,
        targets: Option<&[u32]>,
        comm: &CommHook,
        batch: usize,
        seq: usize,
    ) -> StageForward {
        assert_eq!(comm.0.group(), self.tp, "hook spans this shard's TP group");
        let (from, input_var) = match input {
            StageInput::Tokens(tokens) => {
                assert!(self.first_stage, "tokens enter at the first stage");
                assert_eq!(tokens.len(), batch * seq, "token layout");
                (WalkFrom::Tokens(tokens), None)
            }
            StageInput::Activation(act) => {
                assert!(!self.first_stage, "activations enter at later stages");
                let v = tape.input(act);
                (WalkFrom::Hidden(v), Some(v))
            }
        };
        let to = match (self.last_stage, targets) {
            (false, _) => WalkTo::Boundary,
            (true, Some(targets)) => WalkTo::Loss(targets),
            (true, None) => WalkTo::Hidden,
        };
        let mut views = [self.view(store)];
        let out = walk(&self.cfg, tape, &mut views, Some(comm), from, to, seq);
        let [view] = views;
        StageForward {
            out,
            input: input_var,
            staged: view.staged,
        }
    }
}

/// Add each staged parameter's tape gradient into its store slot —
/// the multi-store-safe twin of [`Tape::accumulate_param_grads`]
/// (parameter ids from different shard stores share one id space, so
/// the reference tracks `(id, var)` pairs explicitly).
pub fn accumulate_staged_grads(tape: &Tape, staged: &[(ParamId, Var)], store: &mut ParamStore) {
    for &(pid, var) in staged {
        if let Some(g) = tape.grad(var) {
            store.grad_mut(pid).add_assign(g);
        }
    }
}

/// One micro-batch chunk's loss on the **sequential reference** graph:
/// `walk` once per stage with all of the stage's `tp` shards as its
/// views on a single tape, so [`Tape::tp_branches`] /
/// [`Tape::ring_sum`] stand in for the threaded sync points (same
/// ring-fold reduction order) and stage boundaries flow through
/// directly (a threaded boundary transfers the same bits). Replicated
/// segments are computed once, against TP rank 0's copies — the copies
/// every consolidation reads.
///
/// Returns the loss and the staged `(param, var)` pairs per
/// `[stage][tp rank]`, for accumulation into the matching shard store.
#[allow(clippy::type_complexity)]
pub fn reference_loss(
    stages: &[Vec<(&ShardModel, &ParamStore)>],
    tape: &mut Tape,
    inputs: &[u32],
    targets: &[u32],
    batch: usize,
    seq: usize,
) -> (Var, Vec<Vec<Vec<(ParamId, Var)>>>) {
    assert_eq!(inputs.len(), batch * seq, "token layout");
    let cfg = &stages[0][0].0.cfg;
    let mut staged = Vec::with_capacity(stages.len());
    let mut x = None;
    for (si, stage) in stages.iter().enumerate() {
        let mut views: Vec<RankView<'_>> = stage.iter().map(|(m, s)| m.view(s)).collect();
        let from = x.map_or(WalkFrom::Tokens(inputs), WalkFrom::Hidden);
        let to = if si + 1 == stages.len() {
            WalkTo::Loss(targets)
        } else {
            WalkTo::Boundary
        };
        x = Some(walk(cfg, tape, &mut views, None, from, to, seq));
        staged.push(views.into_iter().map(|v| v.staged).collect());
    }
    (x.expect("at least one stage"), staged)
}

/// Write one dp-replica's shard grid back into `full_store`: column
/// shards re-concatenate along columns, row shards along rows,
/// replicated tensors copy from TP rank 0 — each tensor into the
/// full-store slot, and by the split, it was carved with.
pub fn consolidate_shards(full_store: &mut ParamStore, stages: &[Vec<(&ShardModel, &ParamStore)>]) {
    for stage in stages {
        for (r, &(model, store)) in stage.iter().enumerate() {
            assert_eq!(model.origin.len(), store.len(), "store carved with model");
            for (sid, &(fid, split)) in store.ids().zip(&model.origin) {
                debug_assert_eq!(store.name(sid), full_store.name(fid), "aligned order");
                if split != Split::Replicated || r == 0 {
                    unshard_into(
                        full_store.value_mut(fid),
                        store.value(sid),
                        split,
                        r,
                        model.tp,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchKind;
    use matgpt_tensor::init;

    /// Both Fig. 2 variants, plus LLaMA with grouped-query attention
    /// (4 heads over 2 kv heads: `wk`/`wv` are narrower than `wq`).
    const VARIANTS: [(ArchKind, Option<usize>); 3] = [
        (ArchKind::NeoX, None),
        (ArchKind::Llama, None),
        (ArchKind::Llama, Some(2)),
    ];

    fn full(arch: ArchKind, kv_heads: Option<usize>) -> (GptModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(7);
        let cfg = GptConfig {
            vocab_size: 40,
            max_seq: 16,
            kv_heads,
            ..GptConfig::tiny(arch, 40)
        };
        let model = GptModel::new(cfg, &mut store, &mut rng);
        (model, store)
    }

    type Grid = Vec<Vec<(ShardModel, ParamStore)>>;

    fn carve(model: &GptModel, store: &ParamStore, tp: usize, pp: usize) -> Grid {
        stage_ranges(model.cfg.layers, pp)
            .into_iter()
            .enumerate()
            .map(|(s, range)| {
                (0..tp)
                    .map(|r| shard_model(model, store, tp, r, range.clone(), s == 0, s == pp - 1))
                    .collect()
            })
            .collect()
    }

    fn view(grid: &Grid) -> Vec<Vec<(&ShardModel, &ParamStore)>> {
        grid.iter()
            .map(|st| st.iter().map(|(m, s)| (m, s)).collect())
            .collect()
    }

    /// Consolidate `grid` into a fresh, differently seeded store.
    fn consolidated(model: &GptModel, grid: &Grid) -> ParamStore {
        let mut rebuilt = ParamStore::new();
        GptModel::new(model.cfg.clone(), &mut rebuilt, &mut init::rng(99));
        consolidate_shards(&mut rebuilt, &view(grid));
        rebuilt
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn stage_ranges_cover_with_heavy_front() {
        assert_eq!(stage_ranges(33, 2), vec![0..17, 17..33]);
        assert_eq!(stage_ranges(4, 2), vec![0..2, 2..4]);
        assert_eq!(stage_ranges(5, 3), vec![0..2, 2..4, 4..5]);
        let r = stage_ranges(7, 7);
        assert_eq!(r.len(), 7);
        assert!(r.iter().all(|x| x.len() == 1));
    }

    #[test]
    fn shard_then_consolidate_is_identity() {
        for (arch, kv_heads) in VARIANTS {
            let (model, store) = full(arch, kv_heads);
            // the layout table covers every id the store registered, in
            // order, under the names checkpoints carry
            let (whole, _) = shard_model(&model, &store, 1, 0, 0..model.cfg.layers, true, true);
            let covered: Vec<ParamId> = whole.origin.iter().map(|&(id, _)| id).collect();
            assert_eq!(covered, store.ids().collect::<Vec<_>>(), "{arch:?}");
            for (l, layer) in model.layers.iter().enumerate() {
                for (spec, id) in layer.iter() {
                    assert_eq!(store.name(id), format!("layer{l}.{}", spec.suffix));
                }
            }
            for (tp, pp) in [(1, 1), (2, 1), (1, 2), (2, 2), (4, 1)] {
                if validate_plan(&model.cfg, tp, pp).is_err() {
                    continue; // 2 kv heads do not split four ways
                }
                let rebuilt = consolidated(&model, &carve(&model, &store, tp, pp));
                for (a, b) in store.ids().zip(rebuilt.ids()) {
                    assert_eq!(store.name(a), rebuilt.name(b));
                    let (va, vb) = (store.value(a), rebuilt.value(b));
                    assert_eq!(va.shape(), vb.shape(), "{}", store.name(a));
                    assert_eq!(
                        bits(va.data()),
                        bits(vb.data()),
                        "{arch:?} tp={tp} pp={pp} {}",
                        store.name(a)
                    );
                }
            }
        }
    }

    /// Ties the TP reference to the *unsharded* model (the threaded
    /// executor is only ever compared to the reference): loss and every
    /// gradient, written back through [`consolidate_shards`], equal
    /// [`GptModel::loss`] on the full store — bitwise at `tp = 1`, and
    /// within `1e-6 + 1e-4·|want|` at `tp = 2`, where the ring fold sums
    /// the two ranks' partials in a different order than one matmul.
    #[test]
    fn reference_over_shards_matches_the_unsharded_model() {
        let (batch, seq) = (2, 8);
        let inputs: Vec<u32> = (0..batch * seq).map(|i| (i * 7 % 40) as u32).collect();
        let targets: Vec<u32> = (0..batch * seq)
            .map(|i| ((i * 7 + 3) % 40) as u32)
            .collect();
        for (arch, kv_heads) in VARIANTS {
            let (model, mut store) = full(arch, kv_heads);
            let mut tape = Tape::new();
            let loss = model.loss(&mut tape, &store, &inputs, &targets, batch, seq);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            let want_loss = tape.value(loss).item();
            let want_grads = store.flat_grads();
            assert!(want_grads.iter().any(|g| *g != 0.0));

            for (tp, pp) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
                let mut grid = carve(&model, &store, tp, pp);
                let mut tape = Tape::new();
                let (loss, staged) =
                    reference_loss(&view(&grid), &mut tape, &inputs, &targets, batch, seq);
                tape.backward(loss);
                let got_loss = tape.value(loss).item();
                // move each shard's gradients into its values, so the
                // weight consolidation path carries them back
                for ((_, shard), staged) in grid.iter_mut().flatten().zip(staged.iter().flatten()) {
                    accumulate_staged_grads(&tape, staged, shard);
                    let grads = shard.flat_grads();
                    shard.load_flat_values(&grads);
                }
                let got_grads = consolidated(&model, &grid).flat_values();

                let label = format!("{arch:?} kv={kv_heads:?} tp={tp} pp={pp}");
                if tp == 1 {
                    assert_eq!(got_loss.to_bits(), want_loss.to_bits(), "{label} loss");
                    assert_eq!(bits(&got_grads), bits(&want_grads), "{label} grads");
                } else {
                    let close =
                        |got: f32, want: f32| (got - want).abs() <= 1e-6 + 1e-4 * want.abs();
                    assert!(
                        close(got_loss, want_loss),
                        "{label}: {got_loss} vs {want_loss}"
                    );
                    for (i, (&g, &w)) in got_grads.iter().zip(&want_grads).enumerate() {
                        assert!(close(g, w), "{label} grad[{i}]: {g} vs {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn plan_validation_catches_bad_layouts() {
        let cfg = GptConfig::tiny(ArchKind::NeoX, 40); // 4 heads, 2 layers
        assert!(validate_plan(&cfg, 2, 2).is_ok());
        assert_eq!(
            validate_plan(&cfg, 3, 1),
            Err(TpPlanError::Heads { heads: 4, tp: 3 })
        );
        assert_eq!(
            validate_plan(&cfg, 1, 3),
            Err(TpPlanError::Stages { layers: 2, pp: 3 })
        );
    }

    #[test]
    fn sharded_names_classify_the_layout() {
        assert!(is_sharded_name("layer0.wq"));
        assert!(is_sharded_name("layer11.w2"));
        assert!(is_sharded_name("layer2.b1"));
        assert!(!is_sharded_name("layer0.bo"));
        assert!(!is_sharded_name("layer0.b2"));
        assert!(!is_sharded_name("layer0.ln1.g"));
        assert!(!is_sharded_name("tok_emb"));
        assert!(!is_sharded_name("lm_head"));
        assert!(!is_sharded_name("lnf.g"));
    }
}
