//! Decoder-only GPT models: the NeoX and LLaMA variants of Fig. 2.
//!
//! Both share the identical attention block (rotary embeddings, causal
//! multi-head attention); they differ exactly where the paper says they do:
//! the normalisation (LayerNorm + biases vs RMSNorm, no biases) and the MLP
//! (2-matrix GELU at 4h vs 3-matrix SwiGLU at 8h/3).
//!
//! Two definitions here are the only copy of what they describe:
//!
//! * `LAYER_LAYOUT` — every per-layer tensor (name suffix, shape, init,
//!   tensor-parallel split, which variant carries it) in registration
//!   order. [`GptModel::new`], the shard/consolidate pair in [`crate::tp`]
//!   and [`crate::quant`] all iterate it.
//! * `walk` — the block recipe on the autograd tape, over `t` TP rank
//!   views of one layer span. Its callers: [`GptModel::hidden_states`] /
//!   [`GptModel::logits`] / [`GptModel::loss`] (one view, every layer),
//!   [`crate::tp::ShardModel::stage_forward`] (one view, a
//!   [`CommHook`] at the sync points) and [`crate::tp::reference_loss`]
//!   (`t` views per stage, folded on the tape).
//!
//! The tape-free decode path ([`crate::infer`]) reads the same
//! `LayerIds` but keeps its own loop: it runs without a tape.

use crate::config::{ArchKind, GptConfig};
use matgpt_tensor::{init, CommHook, ParamId, ParamStore, Tape, Tensor, Var};
use rand::Rng;

/// A model width a tensor dimension takes.
#[derive(Clone, Copy)]
pub(crate) enum Dim {
    Hidden,
    /// `kv_heads × head_dim` (narrower than `Hidden` under GQA).
    Kv,
    Mlp,
}

#[derive(Clone, Copy)]
pub(crate) enum Init {
    Ones,
    Zeros,
    /// `N(0, 0.02²)`.
    Randn,
    /// `N(0, (0.02 / √(2·layers))²)` — the projections back into the
    /// residual stream.
    RandnResid,
}

/// How Megatron tensor parallelism lays a tensor out across a TP group
/// (GPT-NeoX-20B's layout): column-parallel tensors split their last
/// dimension, row-parallel ones their first, in contiguous rank blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Split {
    Replicated,
    Col,
    Row,
}

/// Which architecture variants register a tensor.
#[derive(Clone, Copy)]
pub(crate) enum When {
    Always,
    /// Only with biases (NeoX).
    Biased,
    /// Only with the SwiGLU MLP (LLaMA).
    Llama,
}

/// One row of [`LAYER_LAYOUT`].
pub(crate) struct ParamSpec {
    pub(crate) slot: Slot,
    /// Registered as `layer{l}.{suffix}`.
    pub(crate) suffix: &'static str,
    /// `[len]` for a vector, `[rows, cols]` for a matmul weight.
    pub(crate) shape: &'static [Dim],
    pub(crate) init: Init,
    pub(crate) split: Split,
    pub(crate) when: When,
}

/// Declares [`Slot`] and [`LAYER_LAYOUT`] from one listing, so a tensor
/// cannot be in one and not the other, or at different positions.
macro_rules! layer_layout {
    ($($slot:ident $suffix:literal [$($dim:ident),+] $init:ident $split:ident $when:ident;)+) => {
        /// One per-layer tensor, in registration order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum Slot {
            $($slot),+
        }

        /// The per-layer parameter layout, in registration order (which
        /// is also the rng draw order and the v2 checkpoint order —
        /// append, never reorder).
        pub(crate) const LAYER_LAYOUT: &[ParamSpec] = &[$(ParamSpec {
            slot: Slot::$slot,
            suffix: $suffix,
            shape: &[$(Dim::$dim),+],
            init: Init::$init,
            split: Split::$split,
            when: When::$when,
        }),+];
    };
}

layer_layout! {
    // slot  suffix   shape             init        split       registered
    Ln1G    "ln1.g"  [Hidden]          Ones        Replicated  Always;
    Ln1B    "ln1.b"  [Hidden]          Zeros       Replicated  Biased;
    Wq      "wq"     [Hidden, Hidden]  Randn       Col         Always;
    Bq      "bq"     [Hidden]          Zeros       Col         Biased;
    Wk      "wk"     [Hidden, Kv]      Randn       Col         Always;
    Bk      "bk"     [Kv]              Zeros       Col         Biased;
    Wv      "wv"     [Hidden, Kv]      Randn       Col         Always;
    Bv      "bv"     [Kv]              Zeros       Col         Biased;
    Wo      "wo"     [Hidden, Hidden]  RandnResid  Row         Always;
    Bo      "bo"     [Hidden]          Zeros       Replicated  Biased;
    Ln2G    "ln2.g"  [Hidden]          Ones        Replicated  Always;
    Ln2B    "ln2.b"  [Hidden]          Zeros       Replicated  Biased;
    W1      "w1"     [Hidden, Mlp]     Randn       Col         Always;
    B1      "b1"     [Mlp]             Zeros       Col         Biased;
    W2      "w2"     [Mlp, Hidden]     RandnResid  Row         Always;
    B2      "b2"     [Hidden]          Zeros       Replicated  Biased;
    W3      "w3"     [Hidden, Mlp]     Randn       Col         Llama; // SwiGLU up-projection
}

impl ParamSpec {
    /// Does this tensor feed a matmul (and so get quantized for int8
    /// serving)?
    pub(crate) fn is_matmul(&self) -> bool {
        self.shape.len() == 2
    }

    fn registered(&self, cfg: &GptConfig) -> bool {
        match self.when {
            When::Always => true,
            When::Biased => cfg.has_biases(),
            When::Llama => cfg.arch == ArchKind::Llama,
        }
    }

    fn init<R: Rng>(&self, cfg: &GptConfig, rng: &mut R) -> Tensor {
        let shape: Vec<usize> = self
            .shape
            .iter()
            .map(|d| match d {
                Dim::Hidden => cfg.hidden,
                Dim::Kv => cfg.kv_head_count() * cfg.head_dim(),
                Dim::Mlp => cfg.mlp_hidden(),
            })
            .collect();
        match self.init {
            Init::Ones => Tensor::full(&shape, 1.0),
            Init::Zeros => Tensor::zeros(&shape),
            Init::Randn => init::randn(&shape, INIT_STD, rng),
            Init::RandnResid => {
                init::randn(&shape, INIT_STD / (2.0 * cfg.layers as f32).sqrt(), rng)
            }
        }
    }
}

const INIT_STD: f32 = 0.02;

/// One layer's parameter handles, one per [`LAYER_LAYOUT`] row (`None`
/// where the variant does not register the tensor). Crate-visible so the
/// tape-free inference path (`crate::infer`) reads the same weights.
pub(crate) struct LayerIds([Option<ParamId>; LAYER_LAYOUT.len()]);

impl LayerIds {
    /// Build a layer's handles by visiting the layout in registration
    /// order.
    pub(crate) fn from_fn(mut f: impl FnMut(&'static ParamSpec) -> Option<ParamId>) -> Self {
        let mut ids = [None; LAYER_LAYOUT.len()];
        for (id, spec) in ids.iter_mut().zip(LAYER_LAYOUT) {
            *id = f(spec);
        }
        Self(ids)
    }

    pub(crate) fn get(&self, slot: Slot) -> Option<ParamId> {
        self.0[slot as usize]
    }

    /// A tensor the running variant must have registered.
    pub(crate) fn id(&self, slot: Slot) -> ParamId {
        self.get(slot)
            .unwrap_or_else(|| panic!("{slot:?} is not registered for this architecture"))
    }

    /// The registered tensors, in registration order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static ParamSpec, ParamId)> + '_ {
        LAYER_LAYOUT
            .iter()
            .zip(self.0)
            .filter_map(|(spec, id)| Some((spec, id?)))
    }
}

/// A GPT model: configuration plus parameter handles into a store.
pub struct GptModel {
    /// The architecture configuration.
    pub cfg: GptConfig,
    pub(crate) tok_emb: ParamId,
    pub(crate) layers: Vec<LayerIds>,
    pub(crate) lnf_g: ParamId,
    pub(crate) lnf_b: Option<ParamId>,
    pub(crate) lm_head: ParamId,
}

impl GptModel {
    /// Create a model, registering all parameters in `store`.
    pub fn new<R: Rng>(cfg: GptConfig, store: &mut ParamStore, rng: &mut R) -> Self {
        let (h, v) = (cfg.hidden, cfg.vocab_size);
        let tok_emb = store.add("tok_emb", init::randn(&[v, h], INIT_STD, rng));
        let layers = (0..cfg.layers)
            .map(|l| {
                LayerIds::from_fn(|spec| {
                    spec.registered(&cfg).then(|| {
                        store.add(format!("layer{l}.{}", spec.suffix), spec.init(&cfg, rng))
                    })
                })
            })
            .collect();
        let lnf_g = store.add("lnf.g", Tensor::full(&[h], 1.0));
        let lnf_b = cfg
            .has_biases()
            .then(|| store.add("lnf.b", Tensor::zeros(&[h])));
        let lm_head = store.add("lm_head", init::randn(&[h, v], INIT_STD, rng));
        Self {
            cfg,
            tok_emb,
            layers,
            lnf_g,
            lnf_b,
            lm_head,
        }
    }

    /// The whole model as one rank view for [`walk`].
    fn view<'a>(&'a self, store: &'a ParamStore) -> RankView<'a> {
        RankView {
            store,
            tok_emb: Some(self.tok_emb),
            layers: &self.layers,
            lnf_g: Some(self.lnf_g),
            lnf_b: self.lnf_b,
            lm_head: Some(self.lm_head),
            staged: Vec::new(),
        }
    }

    fn walk_to(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        tokens: &[u32],
        to: WalkTo<'_>,
        batch: usize,
        seq: usize,
    ) -> Var {
        assert_eq!(tokens.len(), batch * seq, "token layout");
        assert!(seq <= self.cfg.max_seq, "sequence too long");
        let from = WalkFrom::Tokens(tokens);
        let views = &mut [self.view(store)];
        walk(&self.cfg, tape, views, None, from, to, seq)
    }

    /// Forward to final hidden states: `[B*T, h]`.
    pub fn hidden_states(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        tokens: &[u32],
        batch: usize,
        seq: usize,
    ) -> Var {
        self.walk_to(tape, store, tokens, WalkTo::Hidden, batch, seq)
    }

    /// Forward to logits: `[B*T, vocab]`.
    pub fn logits(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        tokens: &[u32],
        batch: usize,
        seq: usize,
    ) -> Var {
        self.walk_to(tape, store, tokens, WalkTo::Logits, batch, seq)
    }

    /// Next-token cross-entropy loss for a `[B, T]` batch of inputs with
    /// aligned targets.
    pub fn loss(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        inputs: &[u32],
        targets: &[u32],
        batch: usize,
        seq: usize,
    ) -> Var {
        self.walk_to(tape, store, inputs, WalkTo::Loss(targets), batch, seq)
    }

    /// Total log-probability of `tokens[pos]` given the prefix, summed over
    /// `pos ∈ [start, tokens.len())`. The scoring primitive behind the
    /// zero/few-shot harness (length-normalise externally if desired).
    /// One tape-free [`GptModel::forward_cached`] on a fresh cache, whose
    /// logits are [`GptModel::logits`]' bit for bit.
    pub fn score_span(&self, store: &ParamStore, tokens: &[u32], start: usize) -> f64 {
        assert!(start >= 1 && start <= tokens.len(), "span start");
        let seq = tokens.len() - 1;
        if seq == 0 {
            return 0.0;
        }
        let logits = self.forward_cached(store, &tokens[..seq], &mut self.new_cache());
        let v = self.cfg.vocab_size;
        let mut total = 0.0f64;
        for pos in start.max(1)..tokens.len() {
            let row = &logits[(pos - 1) * v..pos * v];
            let lse = matgpt_tensor::kernels::softmax::logsumexp(row) as f64;
            total += row[tokens[pos] as usize] as f64 - lse;
        }
        total
    }

    /// Mean-pooled final-hidden-state embedding of a token sequence.
    pub fn embed(&self, store: &ParamStore, tokens: &[u32]) -> Vec<f32> {
        let seq = tokens.len().min(self.cfg.max_seq);
        let mut tape = Tape::new();
        let hid = self.hidden_states(&mut tape, store, &tokens[..seq], 1, seq);
        let pooled = tape.group_mean_rows(hid, seq);
        tape.value(pooled).data().to_vec()
    }
}

/// One TP rank's window onto the model for [`walk`]: the store holding
/// its (possibly sharded) tensors, its handles for a contiguous layer
/// span plus whichever model ends the span owns, and every
/// `(param, tape var)` pair the walk staged from it.
pub(crate) struct RankView<'a> {
    pub(crate) store: &'a ParamStore,
    pub(crate) tok_emb: Option<ParamId>,
    pub(crate) layers: &'a [LayerIds],
    pub(crate) lnf_g: Option<ParamId>,
    pub(crate) lnf_b: Option<ParamId>,
    pub(crate) lm_head: Option<ParamId>,
    pub(crate) staged: Vec<(ParamId, Var)>,
}

impl<'a> RankView<'a> {
    /// Layer `li`'s handles, borrowed from the model rather than from
    /// this view — the view stays free to stage parameters meanwhile.
    fn layer(&self, li: usize) -> &'a LayerIds {
        &self.layers[li]
    }

    fn param(&mut self, tape: &mut Tape, id: ParamId) -> Var {
        let v = tape.param(self.store, id);
        self.staged.push((id, v));
        v
    }

    fn norm(
        &mut self,
        cfg: &GptConfig,
        tape: &mut Tape,
        x: Var,
        g: ParamId,
        b: Option<ParamId>,
    ) -> Var {
        let gv = self.param(tape, g);
        match cfg.arch {
            ArchKind::NeoX => {
                let bv = self.param(tape, b.expect("NeoX LayerNorm beta"));
                tape.layernorm(x, gv, bv, cfg.norm_eps)
            }
            ArchKind::Llama => tape.rmsnorm(x, gv, cfg.norm_eps),
        }
    }

    fn proj(&mut self, tape: &mut Tape, x: Var, w: ParamId, b: Option<ParamId>) -> Var {
        let wv = self.param(tape, w);
        let y = tape.matmul(x, wv);
        match b {
            Some(b) => {
                let bv = self.param(tape, b);
                tape.add_bias(y, bv)
            }
            None => y,
        }
    }
}

/// Where a [`walk`] starts.
pub(crate) enum WalkFrom<'a> {
    /// Token ids, embedded by the first view (which must own `tok_emb`).
    Tokens(&'a [u32]),
    /// Residual-stream rows `[B*T, h]` already on the tape: the boundary
    /// activation a later pipeline stage received.
    Hidden(Var),
}

/// Where a [`walk`] stops once its layer span is done.
pub(crate) enum WalkTo<'a> {
    /// The raw residual stream, handed to the next pipeline stage.
    Boundary,
    /// Final-norm hidden states `[B*T, h]`.
    Hidden,
    /// Logits `[B*T, vocab]`.
    Logits,
    /// Mean next-token cross-entropy against these targets.
    Loss(&'a [u32]),
}

/// The Fig. 2 block recipe, written once: run `views` — the TP ranks of
/// one layer span, `views[0]` owning the replicated pieces — over
/// `from`, on one tape.
///
/// Each rank computes its head block and MLP column block from the
/// replicated norm output (the Megatron "f" point) and the row-parallel
/// `wo` / `w2` products are summed across ranks (the "g" point) before
/// the replicated output bias and the residual add. With `comm`, the one
/// view is a real rank and both points are collectives on the hook;
/// without, the views are folded on the tape in ring order
/// ([`Tape::tp_branches`] / [`Tape::ring_sum`]). Every sync op is the
/// identity for a group of one, so all callers build the same graph
/// there, node for node.
pub(crate) fn walk(
    cfg: &GptConfig,
    tape: &mut Tape,
    views: &mut [RankView<'_>],
    comm: Option<&CommHook>,
    from: WalkFrom<'_>,
    to: WalkTo<'_>,
    seq: usize,
) -> Var {
    use Slot::*;
    assert!(comm.is_none() || views.len() == 1, "a hook syncs one rank");
    let tp = comm.map_or(views.len(), |c| c.0.group());
    let d = cfg.head_dim();
    let fan_out = |tape: &mut Tape, x: Var| match comm {
        Some(c) => vec![tape.sync_grad(x, c)],
        None => tape.tp_branches(x, tp),
    };
    // sum the ranks' partials, then the replicated bias and the residual
    let close = |tape: &mut Tape, lead: &mut RankView<'_>, x: Var, parts: Vec<Var>, bias| {
        let mut y = match comm {
            Some(c) => tape.sync_sum(parts[0], c),
            None => tape.ring_sum(&parts),
        };
        if let Some(b) = bias {
            let bv = lead.param(tape, b);
            y = tape.add_bias(y, bv);
        }
        tape.add(x, y)
    };

    let mut x = match from {
        WalkFrom::Tokens(tokens) => {
            let emb = views[0].tok_emb.expect("tokens enter where tok_emb lives");
            let emb = views[0].param(tape, emb);
            tape.embedding(emb, tokens)
        }
        WalkFrom::Hidden(x) => x,
    };
    for li in 0..views[0].layers.len() {
        let lead = views[0].layer(li);
        // --- attention block
        let n1 = views[0].norm(cfg, tape, x, lead.id(Ln1G), lead.get(Ln1B));
        let parts = views
            .iter_mut()
            .zip(fan_out(tape, n1))
            .map(|(view, n1)| {
                let layer = view.layer(li);
                let q = view.proj(tape, n1, layer.id(Wq), layer.get(Bq));
                let k = view.proj(tape, n1, layer.id(Wk), layer.get(Bk));
                let v = view.proj(tape, n1, layer.id(Wv), layer.get(Bv));
                let q = tape.rotary(q, seq, d, cfg.rope_base);
                let k = tape.rotary(k, seq, d, cfg.rope_base);
                let att = tape.causal_attention(q, k, v, seq, d);
                let wo = view.param(tape, layer.id(Wo));
                tape.matmul(att, wo)
            })
            .collect();
        x = close(tape, &mut views[0], x, parts, lead.get(Bo));
        // --- mlp block
        let n2 = views[0].norm(cfg, tape, x, lead.id(Ln2G), lead.get(Ln2B));
        let parts = views
            .iter_mut()
            .zip(fan_out(tape, n2))
            .map(|(view, n2)| {
                let layer = view.layer(li);
                let a = view.proj(tape, n2, layer.id(W1), layer.get(B1));
                let a = match cfg.arch {
                    ArchKind::NeoX => tape.gelu(a),
                    ArchKind::Llama => {
                        let gate = tape.silu(a);
                        let up = view.proj(tape, n2, layer.id(W3), None);
                        tape.mul(gate, up)
                    }
                };
                let w2 = view.param(tape, layer.id(W2));
                tape.matmul(a, w2)
            })
            .collect();
        x = close(tape, &mut views[0], x, parts, lead.get(B2));
    }
    if let WalkTo::Boundary = to {
        return x;
    }
    let lead = &mut views[0];
    let hid = lead.norm(
        cfg,
        tape,
        x,
        lead.lnf_g.expect("last stage owns lnf"),
        lead.lnf_b,
    );
    if let WalkTo::Hidden = to {
        return hid;
    }
    let head = lead.param(tape, lead.lm_head.expect("last stage owns lm_head"));
    let logits = tape.matmul(hid, head);
    match to {
        WalkTo::Loss(targets) => tape.cross_entropy(logits, targets),
        _ => logits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_tensor::init;

    const DIGEST_NEOX: u64 = 0x69ee_e76e_a3b7_41c9;
    const DIGEST_LLAMA: u64 = 0x12b0_8580_d03b_9fbd;
    const DIGEST_GQA: u64 = 0xdd67_e94a_10da_5479;

    fn tiny(arch: ArchKind) -> (GptModel, ParamStore) {
        tiny_kv(arch, None)
    }

    fn tiny_kv(arch: ArchKind, kv_heads: Option<usize>) -> (GptModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(0);
        let cfg = GptConfig {
            vocab_size: 50,
            hidden: 16,
            layers: 2,
            heads: 2,
            kv_heads,
            max_seq: 16,
            ..GptConfig::tiny(arch, 50)
        };
        let model = GptModel::new(cfg, &mut store, &mut rng);
        (model, store)
    }

    #[test]
    fn registered_params_match_counting_module() {
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let (model, store) = tiny(arch);
            let expected = crate::count::total_params(&model.cfg);
            assert_eq!(store.num_scalars(), expected, "{arch}");
        }
    }

    #[test]
    fn forward_shapes() {
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let (model, store) = tiny(arch);
            let tokens: Vec<u32> = (0..2 * 8).map(|i| (i % 50) as u32).collect();
            let mut tape = Tape::new();
            let logits = model.logits(&mut tape, &store, &tokens, 2, 8);
            assert_eq!(tape.value(logits).shape(), &[2 * 8, 50]);
        }
    }

    #[test]
    fn loss_is_near_uniform_at_init() {
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let (model, store) = tiny(arch);
            let tokens: Vec<u32> = (0..16).map(|i| (i * 3 % 50) as u32).collect();
            let targets: Vec<u32> = (0..16).map(|i| ((i * 3 + 1) % 50) as u32).collect();
            let mut tape = Tape::new();
            let loss = model.loss(&mut tape, &store, &tokens, &targets, 1, 16);
            let l = tape.value(loss).item();
            let uniform = (50f32).ln();
            assert!(
                (l - uniform).abs() < 0.5,
                "{arch}: loss {l} vs ln(V) {uniform}"
            );
        }
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let (model, mut store) = tiny(arch);
            let tokens: Vec<u32> = (0..16).map(|i| (i % 5) as u32).collect();
            let targets: Vec<u32> = (0..16).map(|i| ((i + 1) % 5) as u32).collect();
            let loss_at = |store: &ParamStore| {
                let mut tape = Tape::new();
                let l = model.loss(&mut tape, store, &tokens, &targets, 1, 16);
                tape.value(l).item()
            };
            let before = loss_at(&store);
            for _ in 0..5 {
                store.zero_grads();
                let mut tape = Tape::new();
                let l = model.loss(&mut tape, &store, &tokens, &targets, 1, 16);
                tape.backward(l);
                tape.accumulate_param_grads(&mut store);
                // plain SGD inline to avoid a dev-dependency cycle
                store.for_each_param(|_, value, grad| {
                    for (w, g) in value.data_mut().iter_mut().zip(grad.data()) {
                        *w -= 0.5 * g;
                    }
                });
            }
            let after = loss_at(&store);
            assert!(after < before, "{arch}: {before} -> {after}");
        }
    }

    #[test]
    fn loss_and_gradient_bits_are_pinned() {
        // FNV-1a over the bits of the loss and every parameter gradient
        // of a tiny NeoX (GELU, biases), LLaMA (SiLU) and LLaMA with
        // one KV head for its two query heads (GQA) step. The NeoX and
        // LLaMA digests were recorded when the activations ran their
        // scalar formulas one element at a time, the GQA one when the
        // tape attended over head-major copies and gathered the shared
        // KV head; neither the vectorized slice forms nor the
        // token-major attention may move a bit of them
        for (arch, kv_heads, want) in [
            (ArchKind::NeoX, None, DIGEST_NEOX),
            (ArchKind::Llama, None, DIGEST_LLAMA),
            (ArchKind::Llama, Some(1), DIGEST_GQA),
        ] {
            let (model, mut store) = tiny_kv(arch, kv_heads);
            let tokens: Vec<u32> = (0..32).map(|i| (i * 7 % 50) as u32).collect();
            let targets: Vec<u32> = (0..32).map(|i| ((i * 7 + 3) % 50) as u32).collect();
            let mut tape = Tape::new();
            let l = model.loss(&mut tape, &store, &tokens, &targets, 2, 16);
            tape.backward(l);
            tape.accumulate_param_grads(&mut store);
            let mut bits = vec![tape.value(l).item().to_bits()];
            store.for_each_param(|_, _, g| bits.extend(g.data().iter().map(|v| v.to_bits())));
            let fnv = bits.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
            assert!(bits.len() > 1000);
            assert_eq!(fnv, want, "{arch} {kv_heads:?}: {fnv:#018x}");
        }
    }

    #[test]
    fn causality_score_unaffected_by_future() {
        let (model, store) = tiny(ArchKind::Llama);
        // score of position 1..3 must not depend on tokens after position 3
        let a = [1u32, 5, 9, 12, 20];
        let b = [1u32, 5, 9, 12, 40];
        let sa = model.score_span(&store, &a[..4], 1);
        let sb = model.score_span(&store, &b[..4], 1);
        assert_eq!(sa.to_bits(), sb.to_bits());
    }

    #[test]
    fn embeddings_have_hidden_dim_and_differ_by_input() {
        let (model, store) = tiny(ArchKind::NeoX);
        let e1 = model.embed(&store, &[1, 2, 3]);
        let e2 = model.embed(&store, &[4, 5, 6]);
        assert_eq!(e1.len(), model.cfg.hidden);
        assert_ne!(e1, e2);
    }

    #[test]
    fn gqa_param_count_and_forward() {
        let mut store = ParamStore::new();
        let mut rng = init::rng(4);
        let cfg = GptConfig {
            vocab_size: 40,
            hidden: 16,
            layers: 2,
            heads: 4,
            kv_heads: Some(2),
            max_seq: 16,
            ..GptConfig::tiny(ArchKind::Llama, 40)
        };
        let model = GptModel::new(cfg.clone(), &mut store, &mut rng);
        assert_eq!(store.num_scalars(), crate::count::total_params(&cfg));
        // fewer params than full multi-head attention
        let full = crate::count::total_params(&GptConfig {
            kv_heads: None,
            ..cfg.clone()
        });
        assert!(crate::count::total_params(&cfg) < full);
        // forward works and trains
        let tokens: Vec<u32> = (0..8).map(|i| i % 40).collect();
        let targets: Vec<u32> = (0..8).map(|i| (i + 1) % 40).collect();
        let mut tape = Tape::new();
        let loss = model.loss(&mut tape, &store, &tokens, &targets, 1, 8);
        assert!(tape.value(loss).item().is_finite());
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        assert!(store.grad_norm() > 0.0);
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        let full = GptConfig::paper_6_7b(ArchKind::Llama, 52_000);
        let gqa = GptConfig {
            kv_heads: Some(8),
            ..full.clone()
        };
        assert_eq!(
            gqa.kv_cache_bytes_per_token() * 4,
            full.kv_cache_bytes_per_token()
        );
    }

    #[test]
    fn score_span_is_negative_log_domain() {
        let (model, store) = tiny(ArchKind::Llama);
        let s = model.score_span(&store, &[1, 2, 3, 4], 1);
        assert!(s < 0.0, "log-prob must be negative: {s}");
    }
}
