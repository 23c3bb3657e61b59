//! Eager, tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation as it executes; [`Tape::backward`]
//! replays the record in reverse, accumulating gradients. Because nodes are
//! appended eagerly, the creation order is already a topological order and
//! reverse iteration is a valid reverse sweep.
//!
//! Values live in the nodes; gradients live in a parallel vector so the
//! backward sweep can borrow node data immutably while mutating gradients.
//! A parameter's value is staged by reference: its node shares the
//! store's `Arc<Tensor>` ([`Tape::param`]), so a forward copies no weight.
//!
//! **Release.** Backward recycles as it goes. Once a node's own backward
//! has run, nothing later in the sweep can read it (its consumers have
//! higher ids and ran first), so an interior node's value, gradient and
//! saved state go onto a free list the tape owns, keyed by length. Every
//! op draws its output, saved state, gradient buffers and scratch from
//! that list before allocating. A parameter's node drops its share of the
//! store's value, so a swept tape holds no weight and the store's next
//! write happens in place however long the tape lives. After
//! [`Tape::backward_from`]`(out, ·)` the leaves keep their gradients,
//! inputs ([`Tape::input`]) their values and `out` its value; every other
//! value and gradient is released, and [`Tape::value`] or [`Tape::grad`]
//! on it panics, naming the node, as does a second sweep.
//!
//! **Between steps.** The free list outlives a tape only when its caller
//! keeps it: [`Tape::into_buffers`] ends a tape and moves every buffer it
//! still holds (values, saved state, leaf gradients) onto the list, and
//! [`Tape::with_buffers`] starts the next tape on it. The caller owns the
//! [`TapeBuffers`] in between; no `Var` survives, since the old tape is
//! gone. A tape carries forward only what it released: a buffer it was
//! started with and never drew is dropped at `into_buffers`, so the set
//! kept never exceeds one tape's own buffers, whatever shapes the caller
//! varies. A step of the shapes before it draws every buffer from the
//! list and allocates none. Draws whose contents the op overwrites are
//! filled with NaN in debug builds, so a read before the write shows.

use std::collections::HashMap;
use std::sync::Arc;

use crate::collective::{ring_chunks, ring_fold, CommHook};
use crate::kernels::activation as act;
use crate::kernels::attention::{attention_bwd_scratch, attention_fwd_into, AttnSaved, AttnShape};
use crate::kernels::infer::RotaryTable;
use crate::kernels::matmul::{matmul, matmul_at_acc, matmul_bt_acc_scratch};
use crate::kernels::norm;
use crate::kernels::softmax::{self, IGNORE_INDEX};
use crate::kernels::tanh::tanh_slice;
use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a value on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Per-node auxiliary state saved by forward for backward.
#[derive(Clone, Debug)]
enum Saved {
    None,
    /// A norm's per-row statistics: LayerNorm's means then rstds,
    /// RMSNorm's reciprocal rms.
    Norm(Vec<f32>),
    /// Cross-entropy probabilities.
    Probs(Vec<f32>),
    /// Attention forward stash.
    Attn(AttnSaved),
}

#[derive(Clone, Debug)]
enum Op {
    Input,
    Param(ParamId),
    Add(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddBias(Var, Var),
    MatMul(Var, Var),
    Gelu(Var),
    Silu(Var),
    Tanh(Var),
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
    },
    RmsNorm {
        x: Var,
        gamma: Var,
    },
    CrossEntropy {
        logits: Var,
        targets: Vec<u32>,
        n_valid: usize,
    },
    Mse {
        pred: Var,
        target: Tensor,
    },
    Embedding {
        table: Var,
        ids: Vec<u32>,
    },
    Rotary {
        x: Var,
        t: usize,
        heads: usize,
        d: usize,
        base: f32,
    },
    Attention {
        q: Var,
        k: Var,
        v: Var,
        shape: AttnShape,
        causal: bool,
    },
    Concat(Var, Var),
    IndexSelect {
        x: Var,
        idx: Vec<u32>,
    },
    SegmentSum {
        x: Var,
        seg: Vec<u32>,
    },
    GroupMeanRows {
        x: Var,
        group: usize,
    },
    Sum(Var),
    Mean(Var),
    /// Forward allreduce-sum across a TP group; backward identity.
    SyncSum {
        x: Var,
    },
    /// Forward identity; backward allreduce-sums the gradient.
    SyncGrad {
        x: Var,
        comm: CommHook,
    },
    /// Sequential-reference fold of per-rank partials in ring order.
    RingSum {
        parts: Vec<Var>,
    },
    /// Sequential-reference TP branch (non-final): identity forward, no
    /// backward of its own — the matching [`Op::TpJoin`] folds its grad.
    TpPart,
    /// Sequential-reference TP branch (final): folds every branch's
    /// gradient in ring order into `x` exactly once.
    TpJoin {
        x: Var,
        parts: Vec<Var>,
    },
}

impl Op {
    /// Leaves keep their value and gradient through a sweep.
    fn is_leaf(&self) -> bool {
        matches!(self, Op::Input | Op::Param(_))
    }
}

/// A node's forward value.
enum Value {
    /// Computed by the node's op; the tape owns it.
    Owned(Tensor),
    /// A parameter, shared with its [`ParamStore`].
    Shared(Arc<Tensor>),
    /// Recycled by the reverse sweep.
    Released,
}

struct Node {
    op: Op,
    value: Value,
    saved: Saved,
}

impl Node {
    /// The value, unless the sweep released it.
    fn value(&self) -> Option<&Tensor> {
        match &self.value {
            Value::Owned(t) => Some(t),
            Value::Shared(t) => Some(t),
            Value::Released => None,
        }
    }

    /// Move the node's value and saved state onto `free`; a parameter
    /// drops its share of the store's value.
    fn release(&mut self, free: &mut FreeList) {
        if let Value::Owned(t) = std::mem::replace(&mut self.value, Value::Released) {
            free.put(t.into_vec());
        }
        self.release_saved(free);
    }

    /// Move the node's saved state onto `free`.
    fn release_saved(&mut self, free: &mut FreeList) {
        match std::mem::replace(&mut self.saved, Saved::None) {
            Saved::None => {}
            Saved::Norm(v) | Saved::Probs(v) => free.put(v),
            Saved::Attn(AttnSaved::Probs(v) | AttnSaved::Lse(v)) => free.put(v),
        }
    }
}

/// Free buffers of one length: `bufs[..carried]` came in with the tape
/// and no draw has taken them since; the rest the tape released.
#[derive(Default)]
struct Stack {
    bufs: Vec<Vec<f32>>,
    carried: usize,
}

/// Released buffers, by length, for every op to draw from before it
/// allocates. A draw takes the buffer released last, so a buffer that
/// came in with the tape is drawn only when none the tape released fits.
#[derive(Default)]
struct FreeList(HashMap<usize, Stack>);

impl FreeList {
    fn put(&mut self, buf: Vec<f32>) {
        self.0.entry(buf.len()).or_default().bufs.push(buf);
    }

    fn pop(&mut self, len: usize) -> Option<Vec<f32>> {
        let stack = self.0.get_mut(&len)?;
        let buf = stack.bufs.pop()?;
        stack.carried = stack.carried.min(stack.bufs.len());
        Some(buf)
    }

    /// A zeroed buffer of `len` floats.
    fn zeros(&mut self, len: usize) -> Vec<f32> {
        match self.pop(len) {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// A buffer of `len` floats for the caller to overwrite: NaN in
    /// debug builds, so a read before the write shows.
    fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.pop(len).unwrap_or_else(|| vec![0.0; len]);
        if cfg!(debug_assertions) {
            buf.fill(f32::NAN);
        }
        buf
    }

    /// A copy of `src` in a recycled buffer where one fits.
    fn copy_of(&mut self, src: &[f32]) -> Vec<f32> {
        match self.pop(src.len()) {
            Some(mut buf) => {
                buf.copy_from_slice(src);
                buf
            }
            None => src.to_vec(),
        }
    }

    /// End a tape's use of the list: drop the buffers it came in with
    /// and never drew, and mark the rest carried into the next.
    fn carry(&mut self) {
        for stack in self.0.values_mut() {
            stack.bufs.drain(..stack.carried);
            stack.carried = stack.bufs.len();
        }
    }
}

/// The gradient slots and the free list the sweep draws them from.
#[derive(Default)]
struct Grads {
    slots: Vec<Option<Tensor>>,
    free: FreeList,
}

impl Grads {
    /// Hand an op's scratch back once it is folded in.
    fn recycle<const N: usize>(&mut self, bufs: [Vec<f32>; N]) {
        for buf in bufs {
            self.free.put(buf);
        }
    }
}

/// What a finished tape leaves for the next one: its buffers by length,
/// and its node and gradient lists, emptied with their capacity kept.
/// See [`Tape::into_buffers`]; the default holds nothing.
#[derive(Default)]
pub struct TapeBuffers {
    free: FreeList,
    nodes: Vec<Node>,
    slots: Vec<Option<Tensor>>,
}

/// The autograd tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Grads,
    /// Set by the sweep: interior nodes are released from then on.
    swept: bool,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tape that draws from the buffers a finished tape left
    /// (see the module docs).
    pub fn with_buffers(buffers: TapeBuffers) -> Self {
        let TapeBuffers { free, nodes, slots } = buffers;
        Self {
            nodes,
            grads: Grads { slots, free },
            swept: false,
        }
    }

    /// End the tape, keeping every buffer it holds for
    /// [`Tape::with_buffers`]: owned values, saved state and gradients
    /// (the leaves' included) go onto its free list, and the buffers it
    /// was started with and never drew are dropped.
    pub fn into_buffers(self) -> TapeBuffers {
        let Tape {
            mut nodes,
            grads: Grads {
                mut slots,
                mut free,
            },
            ..
        } = self;
        for mut node in nodes.drain(..) {
            node.release(&mut free);
        }
        for g in slots.drain(..).flatten() {
            free.put(g.into_vec());
        }
        free.carry();
        TapeBuffers { free, nodes, slots }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, value: Tensor, saved: Saved) -> Var {
        self.push_value(op, Value::Owned(value), saved)
    }

    fn push_value(&mut self, op: Op, value: Value, saved: Saved) -> Var {
        self.nodes.push(Node { op, value, saved });
        self.grads.slots.push(None);
        Var(self.nodes.len() - 1)
    }

    /// The forward value of `v`.
    ///
    /// # Panics
    /// If a sweep released `v`: after [`Tape::backward_from`]`(out, ·)`
    /// only inputs and `out` keep their values.
    pub fn value(&self, v: Var) -> &Tensor {
        self.nodes[v.0]
            .value()
            .unwrap_or_else(|| released(&self.nodes, v))
    }

    /// The values of `vars` beside the free list, so an op reads its
    /// operands while it draws its output.
    fn operands<const N: usize>(&mut self, vars: [Var; N]) -> ([&Tensor; N], &mut FreeList) {
        let Tape { nodes, grads, .. } = self;
        let nodes = &*nodes;
        let values = vars.map(|v| nodes[v.0].value().unwrap_or_else(|| released(nodes, v)));
        (values, &mut grads.free)
    }

    /// The gradient of `v` if `backward` has produced one.
    ///
    /// # Panics
    /// If a sweep released `v`: after a sweep only the leaves keep their
    /// gradients.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        if self.swept && !self.nodes[v.0].op.is_leaf() {
            released(&self.nodes, v);
        }
        self.grads.slots[v.0].as_ref()
    }

    // ---------------------------------------------------------------- leaves

    /// Record a constant input (no gradient flows into it from the caller's
    /// perspective; a gradient is still computed and queryable).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(Op::Input, t, Saved::None)
    }

    /// Stage a parameter from `store` onto the tape. The node shares the
    /// store's value (no copy) until the sweep releases it; a store write
    /// before then, or while an unswept tape is alive, copies the tensor.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let value = Value::Shared(store.shared_value(id));
        self.push_value(Op::Param(id), value, Saved::None)
    }

    // ----------------------------------------------------------- elementwise

    /// Elementwise addition of same-shape tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip_with(a, b, Op::Add(a, b), "add", |x, y| x + y)
    }

    /// Elementwise (Hadamard) product of same-shape tensors.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip_with(a, b, Op::Mul(a, b), "mul", |x, y| x * y)
    }

    /// `f` over same-shape `a` and `b`, element by element.
    fn zip_with(&mut self, a: Var, b: Var, op: Op, name: &str, f: impl Fn(f32, f32) -> f32) -> Var {
        let ([ta, tb], free) = self.operands([a, b]);
        assert_eq!(ta.shape(), tb.shape(), "{name} shape mismatch");
        let mut data = free.take(ta.numel());
        for (o, (&x, &y)) in data.iter_mut().zip(ta.data().iter().zip(tb.data())) {
            *o = f(x, y);
        }
        let out = Tensor::from_vec(ta.shape(), data);
        self.push(op, out, Saved::None)
    }

    /// Multiply by a compile-time constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let ([ta], free) = self.operands([a]);
        let mut data = free.copy_of(ta.data());
        for v in &mut data {
            *v *= s;
        }
        let out = Tensor::from_vec(ta.shape(), data);
        self.push(Op::Scale(a, s), out, Saved::None)
    }

    /// Broadcast-add a bias vector over the last dimension: `x + b`.
    pub fn add_bias(&mut self, x: Var, b: Var) -> Var {
        let ([tx, tb], free) = self.operands([x, b]);
        let (_, d) = tx.as_2d();
        assert_eq!(tb.numel(), d, "bias length mismatch");
        let mut data = free.take(tx.numel());
        for (out, row) in data.chunks_exact_mut(d).zip(tx.data().chunks_exact(d)) {
            for ((o, &xv), &bv) in out.iter_mut().zip(row).zip(tb.data()) {
                *o = xv + bv;
            }
        }
        let out = Tensor::from_vec(tx.shape(), data);
        self.push(Op::AddBias(x, b), out, Saved::None)
    }

    // ---------------------------------------------------------------- linalg

    /// Matrix product. The left operand is viewed as 2-D over its last
    /// dimension (`[…, k] -> [rows, k]`); the right must be `[k, n]`.
    /// Output shape is the left shape with `k` replaced by `n`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let ([ta, tb], free) = self.operands([a, b]);
        let (m, k) = ta.as_2d();
        assert_eq!(tb.rank(), 2, "matmul rhs must be 2-D");
        assert_eq!(tb.dim(0), k, "matmul inner dims {} vs {}", k, tb.dim(0));
        let n = tb.dim(1);
        let mut out = free.take(m * n);
        matmul(ta.data(), tb.data(), &mut out, m, k, n);
        let mut shape = ta.shape().to_vec();
        if shape.is_empty() {
            shape = vec![1];
        }
        *shape.last_mut().unwrap() = n;
        let out = Tensor::from_vec(&shape, out);
        self.push(Op::MatMul(a, b), out, Saved::None)
    }

    /// Fully-connected layer: `x @ w + b`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let y = self.matmul(x, w);
        self.add_bias(y, b)
    }

    // ----------------------------------------------------------- activations

    /// `x` through an activation's in-place slice form.
    fn activation(&mut self, x: Var, f: fn(&mut [f32]), op: Op) -> Var {
        let ([tx], free) = self.operands([x]);
        let mut data = free.copy_of(tx.data());
        f(&mut data);
        let out = Tensor::from_vec(tx.shape(), data);
        self.push(op, out, Saved::None)
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&mut self, x: Var) -> Var {
        self.activation(x, act::gelu_in_place, Op::Gelu(x))
    }

    /// SiLU activation.
    pub fn silu(&mut self, x: Var) -> Var {
        self.activation(x, act::silu_in_place, Op::Silu(x))
    }

    /// tanh activation.
    pub fn tanh(&mut self, x: Var) -> Var {
        self.activation(x, tanh_slice, Op::Tanh(x))
    }

    // ----------------------------------------------------------------- norms

    /// LayerNorm over the last dimension with affine parameters.
    pub fn layernorm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let ([tx, tg, tb], free) = self.operands([x, gamma, beta]);
        let (rows, d) = tx.as_2d();
        let (mut y, mut stats) = (free.take(rows * d), free.take(2 * rows));
        let [xs, gs, bs] = [tx, tg, tb].map(Tensor::data);
        norm::layernorm_fwd(xs, gs, bs, &mut y, &mut stats, rows, d, eps);
        let out = Tensor::from_vec(tx.shape(), y);
        self.push(Op::LayerNorm { x, gamma, beta }, out, Saved::Norm(stats))
    }

    /// RMSNorm over the last dimension with a gain parameter.
    pub fn rmsnorm(&mut self, x: Var, gamma: Var, eps: f32) -> Var {
        let ([tx, tg], free) = self.operands([x, gamma]);
        let (rows, d) = tx.as_2d();
        let (mut y, mut rrms) = (free.take(rows * d), free.take(rows));
        norm::rmsnorm_fwd(tx.data(), tg.data(), &mut y, &mut rrms, rows, d, eps);
        let out = Tensor::from_vec(tx.shape(), y);
        self.push(Op::RmsNorm { x, gamma }, out, Saved::Norm(rrms))
    }

    // ---------------------------------------------------------------- losses

    /// Mean cross-entropy between `logits` (`[n, vocab]`) and integer
    /// targets. Entries equal to `IGNORE_INDEX` are skipped.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[u32]) -> Var {
        let ([tl], free) = self.operands([logits]);
        let mut probs = free.copy_of(tl.data());
        let (loss, n_valid) = softmax::cross_entropy(&mut probs, targets, tl.as_2d().1);
        self.push(
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                n_valid,
            },
            Tensor::scalar(loss),
            Saved::Probs(probs),
        )
    }

    /// Mean squared error against a constant target of the same shape.
    pub fn mse(&mut self, pred: Var, target: &Tensor) -> Var {
        let tp = self.value(pred);
        assert_eq!(tp.shape(), target.shape(), "mse shape mismatch");
        let n = tp.numel() as f32;
        let loss: f32 = tp
            .data()
            .iter()
            .zip(target.data())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / n;
        let out = Tensor::scalar(loss);
        self.push(
            Op::Mse {
                pred,
                target: target.clone(),
            },
            out,
            Saved::None,
        )
    }

    /// Sum all elements to a scalar.
    pub fn sum(&mut self, x: Var) -> Var {
        let s: f32 = self.value(x).data().iter().sum();
        self.push(Op::Sum(x), Tensor::scalar(s), Saved::None)
    }

    /// Mean of all elements.
    pub fn mean(&mut self, x: Var) -> Var {
        let t = self.value(x);
        let s: f32 = t.data().iter().sum::<f32>() / t.numel() as f32;
        self.push(Op::Mean(x), Tensor::scalar(s), Saved::None)
    }

    // ------------------------------------------------- parallel sync points

    /// Allreduce-sum `x` across the hook's group (ring-fold order);
    /// backward is the identity into this rank's partial. The Megatron
    /// "g" point after a row-parallel matmul. A no-op for a group of
    /// one, so the graph degenerates bitwise to the unsharded model.
    pub fn sync_sum(&mut self, x: Var, comm: &CommHook) -> Var {
        if comm.0.group() == 1 {
            return x;
        }
        let ([tx], free) = self.operands([x]);
        let mut data = free.copy_of(tx.data());
        comm.0.allreduce(&mut data);
        let out = Tensor::from_vec(tx.shape(), data);
        self.push(Op::SyncSum { x }, out, Saved::None)
    }

    /// Identity forward; backward allreduce-sums the gradient across
    /// the hook's group before accumulating into `x`. The Megatron "f"
    /// point at a tensor-parallel block input. A no-op for a group of
    /// one.
    pub fn sync_grad(&mut self, x: Var, comm: &CommHook) -> Var {
        if comm.0.group() == 1 {
            return x;
        }
        let ([tx], free) = self.operands([x]);
        let out = Tensor::from_vec(tx.shape(), free.copy_of(tx.data()));
        self.push(
            Op::SyncGrad {
                x,
                comm: comm.clone(),
            },
            out,
            Saved::None,
        )
    }

    /// Sequential-reference twin of [`Tape::sync_sum`]: fold the
    /// per-rank partials (rank order) with the exact ring reduction
    /// order a threaded allreduce would use. Backward is the identity
    /// into every part. A no-op for a single part.
    pub fn ring_sum(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "ring_sum needs at least one part");
        if parts.len() == 1 {
            return parts[0];
        }
        let shape = self.value(parts[0]).shape().to_vec();
        let vecs: Vec<Vec<f32>> = parts
            .iter()
            .map(|&p| {
                assert_eq!(self.value(p).shape(), &shape[..], "ring_sum shape mismatch");
                self.value(p).data().to_vec()
            })
            .collect();
        let bounds = ring_chunks(vecs[0].len(), vecs.len());
        let folded = ring_fold(&vecs, &bounds);
        let out = Tensor::from_vec(&shape, folded);
        self.push(
            Op::RingSum {
                parts: parts.to_vec(),
            },
            out,
            Saved::None,
        )
    }

    /// Sequential-reference twin of [`Tape::sync_grad`]: `t` identity
    /// copies of `x`, one per simulated rank. The branch gradients are
    /// folded with the ring order and added into `x` exactly once, by
    /// the final branch — created last, so its backward runs first in
    /// the reverse sweep, after every branch consumer has contributed.
    pub fn tp_branches(&mut self, x: Var, t: usize) -> Vec<Var> {
        assert!(t > 0, "tp_branches needs at least one rank");
        if t == 1 {
            return vec![x];
        }
        let mut out = Vec::with_capacity(t);
        for _ in 0..t - 1 {
            let v = self.value(x).clone();
            out.push(self.push(Op::TpPart, v, Saved::None));
        }
        let v = self.value(x).clone();
        out.push(self.push(
            Op::TpJoin {
                x,
                parts: out.clone(),
            },
            v,
            Saved::None,
        ));
        out
    }

    // ------------------------------------------------------------- embedding

    /// Row-gather from an embedding table `[vocab, d]` by token ids.
    pub fn embedding(&mut self, table: Var, ids: &[u32]) -> Var {
        let ([tt], free) = self.operands([table]);
        assert_eq!(tt.rank(), 2, "embedding table must be 2-D");
        let d = tt.dim(1);
        let vocab = tt.dim(0);
        let mut data = free.take(ids.len() * d);
        for (r, &id) in ids.iter().enumerate() {
            let id = id as usize;
            assert!(id < vocab, "token id {id} out of vocab {vocab}");
            data[r * d..][..d].copy_from_slice(&tt.data()[id * d..][..d]);
        }
        let out = Tensor::from_vec(&[ids.len(), d], data);
        self.push(
            Op::Embedding {
                table,
                ids: ids.to_vec(),
            },
            out,
            Saved::None,
        )
    }

    // ----------------------------------------------------- attention related

    /// Apply rotary position embeddings to token-major `x`
    /// `[B·T, H·D]`: every `D`-wide head of row `r` sits at position
    /// `r % T` (half-split style), as [`RotaryTable::rotate_rows`] places
    /// a sequence's rows when serving.
    pub fn rotary(&mut self, x: Var, t: usize, d: usize, base: f32) -> Var {
        let ([tx], free) = self.operands([x]);
        let (rows, width) = tx.as_2d();
        assert!(rows % t == 0 && width % d == 0, "rotary layout mismatch");
        let heads = width / d;
        let mut data = free.copy_of(tx.data());
        rotary_apply(&mut data, t, heads, d, base, false);
        let out = Tensor::from_vec(tx.shape(), data);
        let op = Op::Rotary {
            x,
            t,
            heads,
            d,
            base,
        };
        self.push(op, out, Saved::None)
    }

    /// Fused causal multi-head attention over token-major `q`
    /// `[B·T, H·D]` and `k`, `v` `[B·T, Hkv·D]`, `T = t` tokens a
    /// sequence: query head `h` reads key/value head `h / (H / Hkv)`.
    /// Returns `[B·T, H·D]`. The forward stashes each row's log-sum-exp
    /// and the backward recomputes the probabilities from it
    /// ([`AttentionImpl::Flash`](crate::AttentionImpl::Flash)).
    pub fn causal_attention(&mut self, q: Var, k: Var, v: Var, t: usize, d: usize) -> Var {
        self.attention(q, k, v, t, d, true)
    }

    /// Fused bidirectional (BERT-style) attention, laid out as
    /// [`Tape::causal_attention`].
    pub fn bidirectional_attention(&mut self, q: Var, k: Var, v: Var, t: usize, d: usize) -> Var {
        self.attention(q, k, v, t, d, false)
    }

    fn attention(&mut self, q: Var, k: Var, v: Var, t: usize, d: usize, causal: bool) -> Var {
        let ([tq, tk, tv], free) = self.operands([q, k, v]);
        let (rows, width) = tq.as_2d();
        let (kv_rows, kv_width) = tk.as_2d();
        assert_eq!(tv.shape(), tk.shape(), "k / v shape");
        assert!(
            kv_rows == rows && rows % t == 0 && width % d == 0 && kv_width % d == 0,
            "attention layout: q [{rows}, {width}], k [{kv_rows}, {kv_width}], t {t}, d {d}"
        );
        let shape = AttnShape {
            batch: rows / t,
            t,
            heads: width / d,
            kv_heads: kv_width / d,
            d,
        };
        assert_eq!(
            shape.heads % shape.kv_heads,
            0,
            "kv heads must divide heads"
        );
        let mut out = free.zeros(tq.numel());
        let mut saved = AttnSaved::Lse(free.take(rows * shape.heads));
        let (qd, kd, vd) = (tq.data(), tk.data(), tv.data());
        attention_fwd_into(qd, kd, vd, shape, causal, &mut out, &mut saved);
        let out = Tensor::from_vec(&[rows, width], out);
        let op = Op::Attention {
            q,
            k,
            v,
            shape,
            causal,
        };
        self.push(op, out, Saved::Attn(saved))
    }

    // ------------------------------------------------------ structure / misc

    /// Concatenate along the last dimension (both viewed as `[rows, *]`).
    pub fn concat(&mut self, a: Var, b: Var) -> Var {
        let ta = self.value(a);
        let tb = self.value(b);
        let (ra, da) = ta.as_2d();
        let (rb, db) = tb.as_2d();
        assert_eq!(ra, rb, "concat row mismatch");
        let mut data = Vec::with_capacity(ra * (da + db));
        for r in 0..ra {
            data.extend_from_slice(&ta.data()[r * da..(r + 1) * da]);
            data.extend_from_slice(&tb.data()[r * db..(r + 1) * db]);
        }
        let out = Tensor::from_vec(&[ra, da + db], data);
        self.push(Op::Concat(a, b), out, Saved::None)
    }

    /// Gather rows of a 2-D tensor by index (rows may repeat).
    pub fn index_select(&mut self, x: Var, idx: &[u32]) -> Var {
        let tx = self.value(x);
        let (rows, d) = tx.as_2d();
        let mut data = Vec::with_capacity(idx.len() * d);
        for &i in idx {
            let i = i as usize;
            assert!(i < rows, "index_select row {i} out of {rows}");
            data.extend_from_slice(&tx.data()[i * d..(i + 1) * d]);
        }
        let out = Tensor::from_vec(&[idx.len(), d], data);
        self.push(
            Op::IndexSelect {
                x,
                idx: idx.to_vec(),
            },
            out,
            Saved::None,
        )
    }

    /// Sum rows into `nseg` output rows according to `seg[i]`.
    pub fn segment_sum(&mut self, x: Var, seg: &[u32], nseg: usize) -> Var {
        let tx = self.value(x);
        let (rows, d) = tx.as_2d();
        assert_eq!(rows, seg.len(), "segment ids length mismatch");
        let mut data = vec![0.0f32; nseg * d];
        for (r, &s) in seg.iter().enumerate() {
            let s = s as usize;
            assert!(s < nseg, "segment id {s} out of {nseg}");
            for i in 0..d {
                data[s * d + i] += tx.data()[r * d + i];
            }
        }
        let out = Tensor::from_vec(&[nseg, d], data);
        self.push(
            Op::SegmentSum {
                x,
                seg: seg.to_vec(),
            },
            out,
            Saved::None,
        )
    }

    /// Mean over consecutive groups of `group` rows:
    /// `[G*group, d] -> [G, d]`. Used for sequence mean-pooling.
    pub fn group_mean_rows(&mut self, x: Var, group: usize) -> Var {
        let tx = self.value(x);
        let (rows, d) = tx.as_2d();
        assert_eq!(rows % group, 0, "group_mean_rows: {rows} % {group} != 0");
        let g = rows / group;
        let mut data = vec![0.0f32; g * d];
        for r in 0..rows {
            let o = r / group;
            for i in 0..d {
                data[o * d + i] += tx.data()[r * d + i];
            }
        }
        let inv = 1.0 / group as f32;
        for v in data.iter_mut() {
            *v *= inv;
        }
        let out = Tensor::from_vec(&[g, d], data);
        self.push(Op::GroupMeanRows { x, group }, out, Saved::None)
    }

    // -------------------------------------------------------------- backward

    /// Run the reverse sweep seeding `d loss = 1` (see
    /// [`Tape::backward_from`]).
    pub fn backward(&mut self, loss: Var) {
        let value = self.value(loss);
        assert_eq!(value.numel(), 1, "backward seed must be scalar");
        let seed = Tensor::from_vec(value.shape(), vec![1.0]);
        self.backward_from(loss, seed);
    }

    /// Run the reverse sweep from `out` seeded with an arbitrary
    /// upstream gradient — the pipeline-parallel entry point, where the
    /// seed is the activation gradient received back from the next
    /// stage.
    ///
    /// The sweep releases as it goes (see the module docs): afterwards
    /// the leaves keep their gradients, inputs their values and `out` its
    /// value; the tape no longer shares any parameter with its store.
    ///
    /// # Panics
    /// On a tape that was already swept.
    pub fn backward_from(&mut self, out: Var, seed: Tensor) {
        assert!(
            !self.swept,
            "backward_from(node {}): the tape was already swept and its interior nodes released",
            out.0
        );
        assert_eq!(
            seed.shape(),
            self.value(out).shape(),
            "backward_from seed shape mismatch"
        );
        match &mut self.grads.slots[out.0] {
            Some(g) => g.add_assign(&seed),
            slot => *slot = Some(seed),
        }
        self.swept = true;
        let Tape { nodes, grads, .. } = self;
        for id in (0..nodes.len()).rev() {
            if let Some(g) = grads.slots[id].take() {
                backward_op(nodes, grads, id, &g);
                if nodes[id].op.is_leaf() {
                    grads.slots[id] = Some(g);
                } else {
                    grads.free.put(g.into_vec());
                }
            }
            if id == out.0 {
                // the root keeps its value, but nothing reads its saved
                // state again: the loss's probabilities feed the first
                // parameter gradient
                nodes[id].release_saved(&mut grads.free);
            } else if !matches!(nodes[id].op, Op::Input) {
                nodes[id].release(&mut grads.free);
            }
        }
    }

    /// Copy accumulated parameter gradients into `store` (adding to any
    /// gradient already there, so gradient accumulation across micro-batches
    /// falls out naturally).
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) {
        for (id, node) in self.nodes.iter().enumerate() {
            if let Op::Param(pid) = node.op {
                if let Some(g) = &self.grads.slots[id] {
                    store.grad_mut(pid).add_assign(g);
                }
            }
        }
    }
}

/// Name `v` in a panic: its index and its op's kind.
fn released(nodes: &[Node], v: Var) -> ! {
    let op = format!("{:?}", nodes[v.0].op);
    let kind = op.split([' ', '(', '{']).next().unwrap_or_default();
    panic!(
        "tape node {} ({kind}) was released by the backward sweep",
        v.0
    )
}

/// Apply (or, with `inverse`, un-apply) rotary embeddings in place over
/// token-major rows `heads` heads of `d` wide: row `i` sits at position
/// `i % t`.
fn rotary_apply(data: &mut [f32], t: usize, heads: usize, d: usize, base: f32, inverse: bool) {
    let positions: Vec<usize> = (0..t).collect();
    RotaryTable::new(&positions, d, base).rotate(data, heads, |i| i % t, inverse);
}

/// Ensure a gradient buffer exists for `id` and return it.
fn grad_buf<'a>(grads: &'a mut Grads, nodes: &[Node], id: usize) -> &'a mut Tensor {
    let Grads { slots, free } = grads;
    slots[id].get_or_insert_with(|| {
        let value = val(nodes, id);
        Tensor::from_vec(value.shape(), free.zeros(value.numel()))
    })
}

/// A value the sweep reads: one it has not released yet, since every
/// reader of a node runs before the node's own backward.
fn val(nodes: &[Node], id: usize) -> &Tensor {
    nodes[id].value().expect("the sweep reads only live nodes")
}

#[allow(clippy::too_many_lines)]
fn backward_op(nodes: &[Node], grads: &mut Grads, id: usize, g: &Tensor) {
    match &nodes[id].op {
        Op::Input | Op::Param(_) => {}
        Op::Add(a, b) => {
            grad_buf(grads, nodes, a.0).add_assign(g);
            grad_buf(grads, nodes, b.0).add_assign(g);
        }
        Op::Mul(a, b) => {
            for (x, other) in [(a, b), (b, a)] {
                let gx = grad_buf(grads, nodes, x.0);
                let oval = val(nodes, other.0).data();
                for ((o, &gv), &ov) in gx.data_mut().iter_mut().zip(g.data()).zip(oval) {
                    *o += gv * ov;
                }
            }
        }
        Op::Scale(a, s) => {
            let s = *s;
            let ga = grad_buf(grads, nodes, a.0);
            for (o, &gv) in ga.data_mut().iter_mut().zip(g.data()) {
                *o += gv * s;
            }
        }
        Op::AddBias(x, b) => {
            grad_buf(grads, nodes, x.0).add_assign(g);
            let (_, d) = val(nodes, x.0).as_2d();
            let gb = grad_buf(grads, nodes, b.0).data_mut();
            for row in g.data().chunks_exact(d) {
                for (gv, &r) in gb.iter_mut().zip(row) {
                    *gv += r;
                }
            }
        }
        Op::MatMul(a, b) => {
            let (aval, bval) = (val(nodes, a.0).data(), val(nodes, b.0).data());
            let (m, k) = val(nodes, a.0).as_2d();
            let n = val(nodes, b.0).dim(1);
            // dA[m,k] += dC[m,n] @ B^T: the bt kernel's inner dimension is
            // n and its transposed operand, stored [k,n], is B as it lies;
            // its scratch is B^T [n,k] and a temporary like dA
            let (mut bt, mut acc) = (grads.free.take(n * k), grads.free.zeros(m * k));
            let ga = grad_buf(grads, nodes, a.0).data_mut();
            matmul_bt_acc_scratch(g.data(), bval, ga, m, n, k, &mut bt, &mut acc);
            grads.recycle([bt, acc]);
            // dB[k,n] += A^T @ dC
            let gb = grad_buf(grads, nodes, b.0).data_mut();
            matmul_at_acc(aval, g.data(), gb, m, k, n);
        }
        Op::Gelu(x) => activation_bwd(nodes, grads, *x, g, act::gelu_grad_slice),
        Op::Silu(x) => activation_bwd(nodes, grads, *x, g, act::silu_grad_slice),
        Op::Tanh(x) => activation_bwd(nodes, grads, *x, g, act::tanh_grad_slice),
        Op::LayerNorm { x, gamma, beta } => {
            let (rows, d) = val(nodes, x.0).as_2d();
            let Saved::Norm(stats) = &nodes[id].saved else {
                unreachable!("layernorm saved state")
            };
            let (means, rstds) = stats.split_at(rows);
            let mut dx = grads.free.zeros(rows * d);
            let mut dgamma = grads.free.zeros(d);
            let mut dbeta = grads.free.zeros(d);
            norm::layernorm_bwd(
                val(nodes, x.0).data(),
                val(nodes, gamma.0).data(),
                g.data(),
                means,
                rstds,
                &mut dx,
                &mut dgamma,
                &mut dbeta,
                rows,
                d,
            );
            add_into(grad_buf(grads, nodes, x.0), &dx);
            add_into(grad_buf(grads, nodes, gamma.0), &dgamma);
            add_into(grad_buf(grads, nodes, beta.0), &dbeta);
            grads.recycle([dx, dgamma, dbeta]);
        }
        Op::RmsNorm { x, gamma } => {
            let (rows, d) = val(nodes, x.0).as_2d();
            let Saved::Norm(rrms) = &nodes[id].saved else {
                unreachable!("rmsnorm saved state")
            };
            let (xval, gval) = (val(nodes, x.0).data(), val(nodes, gamma.0).data());
            let mut dx = grads.free.zeros(rows * d);
            let mut dgamma = grads.free.zeros(d);
            norm::rmsnorm_bwd(xval, gval, g.data(), rrms, &mut dx, &mut dgamma, rows, d);
            add_into(grad_buf(grads, nodes, x.0), &dx);
            add_into(grad_buf(grads, nodes, gamma.0), &dgamma);
            grads.recycle([dx, dgamma]);
        }
        Op::CrossEntropy {
            logits,
            targets,
            n_valid,
        } => {
            let (_, v) = val(nodes, logits.0).as_2d();
            let Saved::Probs(probs) = &nodes[id].saved else {
                unreachable!("cross entropy saved state")
            };
            let seed = g.item() / *n_valid as f32;
            let gl = grad_buf(grads, nodes, logits.0);
            let gld = gl.data_mut();
            let rows = gld.chunks_exact_mut(v).zip(probs.chunks_exact(v));
            for ((o, p), &t) in rows.zip(targets) {
                if t == IGNORE_INDEX {
                    continue;
                }
                // the target's `p - 1` between two branch-free spans
                let t = t as usize;
                let span = |o: &mut [f32], p: &[f32]| {
                    for (o, &p) in o.iter_mut().zip(p) {
                        *o += seed * p;
                    }
                };
                span(&mut o[..t], &p[..t]);
                o[t] += seed * (p[t] - 1.0);
                span(&mut o[t + 1..], &p[t + 1..]);
            }
        }
        Op::Mse { pred, target } => {
            let pval = val(nodes, pred.0).data();
            let seed = g.item() * 2.0 / pval.len() as f32;
            let gp = grad_buf(grads, nodes, pred.0);
            for ((o, &p), &t) in gp.data_mut().iter_mut().zip(pval).zip(target.data()) {
                *o += seed * (p - t);
            }
        }
        Op::Sum(x) => {
            let seed = g.item();
            let gx = grad_buf(grads, nodes, x.0);
            for o in gx.data_mut().iter_mut() {
                *o += seed;
            }
        }
        Op::Mean(x) => {
            let n = val(nodes, x.0).numel() as f32;
            let seed = g.item() / n;
            let gx = grad_buf(grads, nodes, x.0);
            for o in gx.data_mut().iter_mut() {
                *o += seed;
            }
        }
        Op::Embedding { table, ids } => {
            let d = val(nodes, table.0).dim(1);
            let gt = grad_buf(grads, nodes, table.0);
            let gtd = gt.data_mut();
            for (r, &idx) in ids.iter().enumerate() {
                let idx = idx as usize;
                for i in 0..d {
                    gtd[idx * d + i] += g.data()[r * d + i];
                }
            }
        }
        Op::Rotary {
            x,
            t,
            heads,
            d,
            base,
        } => {
            // Rotation is orthogonal: the gradient transforms by the inverse
            // rotation.
            let x = *x;
            let mut dg = grads.free.copy_of(g.data());
            rotary_apply(&mut dg, *t, *heads, *d, *base, true);
            add_into(grad_buf(grads, nodes, x.0), &dg);
            grads.recycle([dg]);
        }
        Op::Attention {
            q,
            k,
            v,
            shape,
            causal,
        } => {
            let Saved::Attn(saved) = &nodes[id].saved else {
                unreachable!("attention saved state")
            };
            let (qv, kv, vv) = (
                val(nodes, q.0).data(),
                val(nodes, k.0).data(),
                val(nodes, v.0).data(),
            );
            let mut dq = grads.free.zeros(qv.len());
            let mut dk = grads.free.zeros(kv.len());
            let mut dv = grads.free.zeros(vv.len());
            let mut own = [(); 2].map(|_| grads.free.zeros(shape.own_len()));
            let [dk_own, dv_own] = &mut own;
            let mut blocks = grads.free.take(shape.block_len());
            attention_bwd_scratch(
                qv,
                kv,
                vv,
                val(nodes, id).data(),
                g.data(),
                saved,
                &mut dq,
                &mut dk,
                &mut dv,
                [dk_own, dv_own],
                &mut blocks,
                *shape,
                *causal,
            );
            add_into(grad_buf(grads, nodes, q.0), &dq);
            add_into(grad_buf(grads, nodes, k.0), &dk);
            add_into(grad_buf(grads, nodes, v.0), &dv);
            grads.recycle([dq, dk, dv, blocks]);
            grads.recycle(own);
        }
        Op::Concat(a, b) => {
            let (a, b) = (*a, *b);
            let (ra, da) = val(nodes, a.0).as_2d();
            let (_, db) = val(nodes, b.0).as_2d();
            {
                let ga = grad_buf(grads, nodes, a.0);
                let gad = ga.data_mut();
                for r in 0..ra {
                    for i in 0..da {
                        gad[r * da + i] += g.data()[r * (da + db) + i];
                    }
                }
            }
            {
                let gb = grad_buf(grads, nodes, b.0);
                let gbd = gb.data_mut();
                for r in 0..ra {
                    for i in 0..db {
                        gbd[r * db + i] += g.data()[r * (da + db) + da + i];
                    }
                }
            }
        }
        Op::IndexSelect { x, idx } => {
            let (_, d) = val(nodes, x.0).as_2d();
            let gx = grad_buf(grads, nodes, x.0);
            let gxd = gx.data_mut();
            for (r, &i) in idx.iter().enumerate() {
                let i = i as usize;
                for c in 0..d {
                    gxd[i * d + c] += g.data()[r * d + c];
                }
            }
        }
        Op::SegmentSum { x, seg } => {
            let (_, d) = val(nodes, x.0).as_2d();
            let gx = grad_buf(grads, nodes, x.0);
            let gxd = gx.data_mut();
            for (r, &s) in seg.iter().enumerate() {
                let s = s as usize;
                for c in 0..d {
                    gxd[r * d + c] += g.data()[s * d + c];
                }
            }
        }
        Op::GroupMeanRows { x, group } => {
            let (x, group) = (*x, *group);
            let (rows, d) = val(nodes, x.0).as_2d();
            let inv = 1.0 / group as f32;
            let gx = grad_buf(grads, nodes, x.0);
            let gxd = gx.data_mut();
            for r in 0..rows {
                let o = r / group;
                for c in 0..d {
                    gxd[r * d + c] += g.data()[o * d + c] * inv;
                }
            }
        }
        Op::SyncSum { x } => {
            grad_buf(grads, nodes, x.0).add_assign(g);
        }
        Op::SyncGrad { x, comm } => {
            let mut buf = grads.free.copy_of(g.data());
            comm.0.allreduce(&mut buf);
            add_into(grad_buf(grads, nodes, x.0), &buf);
            grads.recycle([buf]);
        }
        Op::RingSum { parts } => {
            for p in parts {
                grad_buf(grads, nodes, p.0).add_assign(g);
            }
        }
        Op::TpPart => {}
        Op::TpJoin { x, parts } => {
            let n = parts.len() + 1;
            let mut vecs: Vec<Vec<f32>> = Vec::with_capacity(n);
            for p in parts {
                match &grads.slots[p.0] {
                    Some(gp) => vecs.push(gp.data().to_vec()),
                    None => vecs.push(vec![0.0; g.numel()]),
                }
            }
            vecs.push(g.data().to_vec());
            let folded = ring_fold(&vecs, &ring_chunks(g.numel(), n));
            add_into(grad_buf(grads, nodes, x.0), &folded);
        }
    }
}

/// `dx += g ⊙ f'(x)`, with `df` writing `f'` at every element of its
/// first argument into its second.
fn activation_bwd(
    nodes: &[Node],
    grads: &mut Grads,
    x: Var,
    g: &Tensor,
    df: fn(&[f32], &mut [f32]),
) {
    let xval = val(nodes, x.0).data();
    let mut d = grads.free.zeros(xval.len());
    df(xval, &mut d);
    let gx = grad_buf(grads, nodes, x.0);
    for ((o, &gv), &d) in gx.data_mut().iter_mut().zip(g.data()).zip(&d) {
        *o += gv * d;
    }
    grads.recycle([d]);
}

fn add_into(dst: &mut Tensor, src: &[f32]) {
    debug_assert_eq!(dst.numel(), src.len());
    for (o, &s) in dst.data_mut().iter_mut().zip(src.iter()) {
        *o += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    /// `loss = sum(tanh(x @ w))`, with `x` an input and `w` a parameter.
    fn swept() -> (Tape, ParamStore, [Var; 4]) {
        let mut store = ParamStore::new();
        let w = store.add("w", init::randn(&[3, 2], 0.5, &mut init::rng(1)));
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(
            &[2, 3],
            vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0],
        ));
        let wv = tape.param(&store, w);
        let y = tape.matmul(x, wv);
        let h = tape.tanh(y);
        let loss = tape.sum(h);
        tape.backward(loss);
        (tape, store, [x, wv, h, loss])
    }

    #[test]
    fn leaves_keep_gradients_and_inputs_and_out_keep_values() {
        let (tape, mut store, [x, wv, _, loss]) = swept();
        assert_eq!(tape.value(x).shape(), &[2, 3]);
        assert_eq!(tape.grad(x).expect("input grad").shape(), &[2, 3]);
        assert_eq!(tape.grad(wv).expect("param grad").shape(), &[3, 2]);
        assert!(tape.value(loss).item().is_finite());
        tape.accumulate_param_grads(&mut store);
        let w = store.ids().next().unwrap();
        assert_eq!(store.grad(w).data(), tape.grad(wv).unwrap().data());
    }

    /// Staging shares the store's value; the sweep gives it back, so a
    /// write with the tape still alive happens in place.
    #[test]
    fn a_parameter_is_shared_until_the_sweep() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(&[2], vec![0.5, -1.5]));
        let at = store.value(w).data().as_ptr();
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        assert_eq!(tape.value(wv).data().as_ptr(), at);
        let loss = tape.sum(wv);
        tape.backward(loss);
        store.value_mut(w).data_mut()[0] = 2.0;
        assert_eq!(store.value(w).data().as_ptr(), at);
        assert_eq!(tape.grad(wv).expect("param grad").data(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "tape node 1 (Param) was released")]
    fn reading_a_swept_parameter_value_panics() {
        let (tape, _, [_, wv, _, _]) = swept();
        let _ = tape.value(wv);
    }

    #[test]
    #[should_panic(expected = "tape node 3 (Tanh) was released")]
    fn reading_a_released_value_panics_naming_the_node() {
        let (tape, _, [_, _, h, _]) = swept();
        let _ = tape.value(h);
    }

    #[test]
    #[should_panic(expected = "tape node 3 (Tanh) was released")]
    fn reading_a_released_gradient_panics_naming_the_node() {
        let (tape, _, [_, _, h, _]) = swept();
        let _ = tape.grad(h);
    }

    #[test]
    #[should_panic(expected = "already swept")]
    fn a_second_sweep_panics() {
        let (mut tape, _, [_, _, _, loss]) = swept();
        tape.backward(loss);
    }

    /// A finished tape's buffers, as (count, floats).
    fn held(buffers: &TapeBuffers) -> (usize, usize) {
        let bufs = buffers.free.0.values().flat_map(|s| &s.bufs);
        bufs.fold((0, 0), |(n, f), b| (n + 1, f + b.len()))
    }

    /// One swept `sum(tanh(x @ w))` over `rows` input rows on `buffers`.
    fn step_on(buffers: TapeBuffers, rows: usize) -> TapeBuffers {
        let mut store = ParamStore::new();
        let w = store.add("w", init::randn(&[3, 2], 0.5, &mut init::rng(1)));
        let mut tape = Tape::with_buffers(buffers);
        let x = tape.input(init::randn(&[rows, 3], 1.0, &mut init::rng(2)));
        let wv = tape.param(&store, w);
        let y = tape.matmul(x, wv);
        let h = tape.tanh(y);
        let loss = tape.sum(h);
        tape.backward(loss);
        tape.into_buffers()
    }

    /// A tape keeps every buffer it held, the leaves' gradients and the
    /// inputs' values included, and carries forward only what it
    /// released: a step of other shapes leaves what a fresh one would.
    #[test]
    fn a_tape_carries_forward_only_what_it_released() {
        let first = step_on(TapeBuffers::default(), 2);
        let kept = held(&first);
        // the x, y, tanh and loss values (w's is the store's), five
        // gradients and matmul's two scratch buffers
        assert_eq!(kept.0, 11);
        let again = step_on(first, 2);
        assert_eq!(held(&again), kept, "the same shapes draw the same set");
        let other = step_on(again, 5);
        assert_eq!(held(&other), held(&step_on(TapeBuffers::default(), 5)));
    }

    /// `TpJoin` reads its branches' gradients before their own backward
    /// releases them: `x` receives the ring fold of all three.
    #[test]
    fn tp_join_folds_every_branch_gradient() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(&[5], vec![0.5, -1.0, 2.0, 0.25, 3.0]));
        let branches = tape.tp_branches(x, 3);
        let scales = [0.1f32, -0.7, 1.3];
        let sums: Vec<Var> = branches
            .iter()
            .zip(scales)
            .map(|(&b, s)| {
                let y = tape.scale(b, s);
                tape.sum(y)
            })
            .collect();
        let partial = tape.add(sums[0], sums[1]);
        let loss = tape.add(partial, sums[2]);
        tape.backward(loss);
        let want = ring_fold(&scales.map(|s| vec![s; 5]), &ring_chunks(5, 3));
        let got = tape.grad(x).expect("x grad").data().to_vec();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
