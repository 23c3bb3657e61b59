//! Eager, tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation as it executes; [`Tape::backward`]
//! replays the record in reverse, accumulating gradients. Because nodes are
//! appended eagerly, the creation order is already a topological order and
//! reverse iteration is a valid reverse sweep.
//!
//! Values live in the nodes; gradients live in a parallel vector so the
//! backward sweep can borrow node data immutably while mutating gradients.

use crate::collective::{ring_chunks, ring_fold, CommHook};
use crate::kernels::activation as act;
use crate::kernels::attention::{attention_bwd, attention_fwd, AttentionImpl, AttnSaved};
use crate::kernels::infer::rotary_heads;
use crate::kernels::matmul::{matmul, matmul_at_acc, matmul_bt_acc};
use crate::kernels::norm;
use crate::kernels::softmax::softmax_rows;
use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a value on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Per-node auxiliary state saved by forward for backward.
#[derive(Clone, Debug)]
enum Saved {
    None,
    /// LayerNorm per-row (mean, rstd).
    Norm(Vec<f32>, Vec<f32>),
    /// RMSNorm per-row reciprocal rms.
    Rrms(Vec<f32>),
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
        d: usize,
        base: f32,
    },
    Attention {
        q: Var,
        k: Var,
        v: Var,
        bh: usize,
        t: usize,
        d: usize,
        causal: bool,
    },
    Reshape(Var),
    SplitHeads {
        x: Var,
        b: usize,
        t: usize,
        h: usize,
        d: usize,
    },
    MergeHeads {
        x: Var,
        b: usize,
        t: usize,
        h: usize,
        d: usize,
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

struct Node {
    op: Op,
    value: Tensor,
    saved: Saved,
}

/// The autograd tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    /// Which attention kernel newly created attention nodes use.
    pub attention_impl: Option<AttentionImpl>,
}

impl Tape {
    /// An empty tape using flash attention by default.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            grads: Vec::new(),
            attention_impl: Some(AttentionImpl::Flash),
        }
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
        self.nodes.push(Node { op, value, saved });
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient of `v` if `backward` has produced one.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads[v.0].as_ref()
    }

    // ---------------------------------------------------------------- leaves

    /// Record a constant input (no gradient flows into it from the caller's
    /// perspective; a gradient is still computed and queryable).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(Op::Input, t, Saved::None)
    }

    /// Stage a parameter from `store` onto the tape.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let value = store.value(id).clone();
        self.push(Op::Param(id), value, Saved::None)
    }

    // ----------------------------------------------------------- elementwise

    /// Elementwise addition of same-shape tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "add shape mismatch");
        let mut out = ta.clone();
        out.add_assign(tb);
        self.push(Op::Add(a, b), out, Saved::None)
    }

    /// Elementwise (Hadamard) product of same-shape tensors.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "mul shape mismatch");
        let data = ta
            .data()
            .iter()
            .zip(tb.data())
            .map(|(x, y)| x * y)
            .collect();
        let out = Tensor::from_vec(ta.shape(), data);
        self.push(Op::Mul(a, b), out, Saved::None)
    }

    /// Multiply by a compile-time constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let mut out = self.value(a).clone();
        out.scale_assign(s);
        self.push(Op::Scale(a, s), out, Saved::None)
    }

    /// Broadcast-add a bias vector over the last dimension: `x + b`.
    pub fn add_bias(&mut self, x: Var, b: Var) -> Var {
        let tx = self.value(x);
        let tb = self.value(b);
        let (rows, d) = tx.as_2d();
        assert_eq!(tb.numel(), d, "bias length mismatch");
        let mut data = tx.data().to_vec();
        for r in 0..rows {
            for i in 0..d {
                data[r * d + i] += tb.data()[i];
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
        let ta = self.value(a);
        let tb = self.value(b);
        let (m, k) = ta.as_2d();
        assert_eq!(tb.rank(), 2, "matmul rhs must be 2-D");
        assert_eq!(tb.dim(0), k, "matmul inner dims {} vs {}", k, tb.dim(0));
        let n = tb.dim(1);
        let mut out = vec![0.0f32; m * n];
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

    fn unary(&mut self, x: Var, f: fn(f32) -> f32, op: Op) -> Var {
        let tx = self.value(x);
        let data = tx.data().iter().map(|&v| f(v)).collect();
        let out = Tensor::from_vec(tx.shape(), data);
        self.push(op, out, Saved::None)
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&mut self, x: Var) -> Var {
        self.unary(x, act::gelu, Op::Gelu(x))
    }

    /// SiLU activation.
    pub fn silu(&mut self, x: Var) -> Var {
        self.unary(x, act::silu, Op::Silu(x))
    }

    /// tanh activation.
    pub fn tanh(&mut self, x: Var) -> Var {
        self.unary(x, act::tanh, Op::Tanh(x))
    }

    // ----------------------------------------------------------------- norms

    /// LayerNorm over the last dimension with affine parameters.
    pub fn layernorm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let tx = self.value(x);
        let (rows, d) = tx.as_2d();
        let mut y = vec![0.0f32; rows * d];
        let (means, rstds) = norm::layernorm_fwd(
            tx.data(),
            self.value(gamma).data(),
            self.value(beta).data(),
            &mut y,
            rows,
            d,
            eps,
        );
        let out = Tensor::from_vec(tx.shape(), y);
        self.push(
            Op::LayerNorm { x, gamma, beta },
            out,
            Saved::Norm(means, rstds),
        )
    }

    /// RMSNorm over the last dimension with a gain parameter.
    pub fn rmsnorm(&mut self, x: Var, gamma: Var, eps: f32) -> Var {
        let tx = self.value(x);
        let (rows, d) = tx.as_2d();
        let mut y = vec![0.0f32; rows * d];
        let rrms = norm::rmsnorm_fwd(tx.data(), self.value(gamma).data(), &mut y, rows, d, eps);
        let out = Tensor::from_vec(tx.shape(), y);
        self.push(Op::RmsNorm { x, gamma }, out, Saved::Rrms(rrms))
    }

    // ---------------------------------------------------------------- losses

    /// Mean cross-entropy between `logits` (`[n, vocab]`) and integer
    /// targets. Entries equal to `IGNORE_INDEX` are skipped.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[u32]) -> Var {
        let tl = self.value(logits);
        let (n, v) = tl.as_2d();
        assert_eq!(n, targets.len(), "targets length mismatch");
        let mut probs = tl.data().to_vec();
        softmax_rows(&mut probs, n, v);
        let mut loss = 0.0f64;
        let mut n_valid = 0usize;
        for (r, &t) in targets.iter().enumerate() {
            if t == IGNORE_INDEX {
                continue;
            }
            let p = probs[r * v + t as usize].max(1e-12);
            loss -= (p as f64).ln();
            n_valid += 1;
        }
        let n_valid = n_valid.max(1);
        let out = Tensor::scalar((loss / n_valid as f64) as f32);
        self.push(
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                n_valid,
            },
            out,
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
        let mut out = self.value(x).clone();
        comm.0.allreduce(out.data_mut());
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
        let out = self.value(x).clone();
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
        let tt = self.value(table);
        assert_eq!(tt.rank(), 2, "embedding table must be 2-D");
        let d = tt.dim(1);
        let vocab = tt.dim(0);
        let mut data = Vec::with_capacity(ids.len() * d);
        for &id in ids {
            let id = id as usize;
            assert!(id < vocab, "token id {id} out of vocab {vocab}");
            data.extend_from_slice(&tt.data()[id * d..(id + 1) * d]);
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

    /// Apply rotary position embeddings to `x` laid out `[BH, T, D]`.
    /// Positions run `0..T` within each `[T, D]` block (half-split style).
    pub fn rotary(&mut self, x: Var, t: usize, d: usize, base: f32) -> Var {
        let tx = self.value(x);
        assert_eq!(tx.numel() % (t * d), 0, "rotary layout mismatch");
        let mut data = tx.data().to_vec();
        rotary_apply(&mut data, t, d, base, false);
        let out = Tensor::from_vec(tx.shape(), data);
        self.push(Op::Rotary { x, t, d, base }, out, Saved::None)
    }

    /// Fused causal multi-head attention over `[BH, T, D]` inputs.
    /// The kernel used is controlled by [`Tape::attention_impl`].
    pub fn causal_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        bh: usize,
        t: usize,
        d: usize,
    ) -> Var {
        self.attention(q, k, v, bh, t, d, true)
    }

    /// Fused bidirectional (BERT-style) attention over `[BH, T, D]` inputs.
    #[allow(clippy::too_many_arguments)]
    pub fn bidirectional_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        bh: usize,
        t: usize,
        d: usize,
    ) -> Var {
        self.attention(q, k, v, bh, t, d, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        bh: usize,
        t: usize,
        d: usize,
        causal: bool,
    ) -> Var {
        let imp = self.attention_impl.unwrap_or(AttentionImpl::Flash);
        let (out, saved) = attention_fwd(
            self.value(q).data(),
            self.value(k).data(),
            self.value(v).data(),
            bh,
            t,
            d,
            imp,
            causal,
        );
        let out = Tensor::from_vec(&[bh, t, d], out);
        self.push(
            Op::Attention {
                q,
                k,
                v,
                bh,
                t,
                d,
                causal,
            },
            out,
            Saved::Attn(saved),
        )
    }

    /// Reinterpret with a new shape (same element count).
    pub fn reshape(&mut self, x: Var, shape: &[usize]) -> Var {
        let out = self.value(x).clone().reshaped(shape);
        self.push(Op::Reshape(x), out, Saved::None)
    }

    /// `[B, T, H*D] -> [B*H, T, D]` head split (permutation copy).
    pub fn split_heads(&mut self, x: Var, b: usize, t: usize, h: usize, d: usize) -> Var {
        let tx = self.value(x);
        assert_eq!(tx.numel(), b * t * h * d, "split_heads numel");
        let src = tx.data();
        let mut data = vec![0.0f32; b * h * t * d];
        for bi in 0..b {
            for ti in 0..t {
                for hi in 0..h {
                    let s = ((bi * t + ti) * h + hi) * d;
                    let dst = ((bi * h + hi) * t + ti) * d;
                    data[dst..dst + d].copy_from_slice(&src[s..s + d]);
                }
            }
        }
        let out = Tensor::from_vec(&[b * h, t, d], data);
        self.push(Op::SplitHeads { x, b, t, h, d }, out, Saved::None)
    }

    /// `[B*H, T, D] -> [B, T, H*D]` head merge (inverse of `split_heads`).
    pub fn merge_heads(&mut self, x: Var, b: usize, t: usize, h: usize, d: usize) -> Var {
        let tx = self.value(x);
        assert_eq!(tx.numel(), b * t * h * d, "merge_heads numel");
        let src = tx.data();
        let mut data = vec![0.0f32; b * t * h * d];
        for bi in 0..b {
            for hi in 0..h {
                for ti in 0..t {
                    let s = ((bi * h + hi) * t + ti) * d;
                    let dst = ((bi * t + ti) * h + hi) * d;
                    data[dst..dst + d].copy_from_slice(&src[s..s + d]);
                }
            }
        }
        let out = Tensor::from_vec(&[b, t, h * d], data);
        self.push(Op::MergeHeads { x, b, t, h, d }, out, Saved::None)
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

    /// Run the reverse sweep seeding `d loss = 1`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward seed must be scalar"
        );
        let seed = Tensor::from_vec(self.nodes[loss.0].value.shape(), vec![1.0]);
        self.backward_from(loss, seed);
    }

    /// Run the reverse sweep from `out` seeded with an arbitrary
    /// upstream gradient — the pipeline-parallel entry point, where the
    /// seed is the activation gradient received back from the next
    /// stage.
    pub fn backward_from(&mut self, out: Var, seed: Tensor) {
        assert_eq!(
            seed.shape(),
            self.nodes[out.0].value.shape(),
            "backward_from seed shape mismatch"
        );
        match &mut self.grads[out.0] {
            Some(g) => g.add_assign(&seed),
            slot => *slot = Some(seed),
        }
        let Tape { nodes, grads, .. } = self;
        for id in (0..nodes.len()).rev() {
            let g = match grads[id].take() {
                Some(g) => g,
                None => continue,
            };
            backward_op(nodes, grads, id, &g);
            grads[id] = Some(g);
        }
    }

    /// Copy accumulated parameter gradients into `store` (adding to any
    /// gradient already there, so gradient accumulation across micro-batches
    /// falls out naturally).
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) {
        for (id, node) in self.nodes.iter().enumerate() {
            if let Op::Param(pid) = node.op {
                if let Some(g) = &self.grads[id] {
                    store.grad_mut(pid).add_assign(g);
                }
            }
        }
    }
}

/// Target value that [`Tape::cross_entropy`] skips.
pub const IGNORE_INDEX: u32 = u32::MAX;

/// Apply (or, with `inverse`, un-apply) rotary embeddings in place over
/// `[*, T, D]` blocks: row `j` sits at position `j % t`.
fn rotary_apply(data: &mut [f32], t: usize, d: usize, base: f32, inverse: bool) {
    let positions: Vec<usize> = (0..t).collect();
    rotary_heads(data, &positions, d, base, |j| j % t, inverse);
}

/// Ensure a gradient buffer exists for `id` and return it.
fn grad_buf<'a>(grads: &'a mut [Option<Tensor>], nodes: &[Node], id: usize) -> &'a mut Tensor {
    if grads[id].is_none() {
        grads[id] = Some(Tensor::zeros(nodes[id].value.shape()));
    }
    grads[id].as_mut().unwrap()
}

#[allow(clippy::too_many_lines)]
fn backward_op(nodes: &[Node], grads: &mut [Option<Tensor>], id: usize, g: &Tensor) {
    match &nodes[id].op {
        Op::Input | Op::Param(_) => {}
        Op::Add(a, b) => {
            grad_buf(grads, nodes, a.0).add_assign(g);
            grad_buf(grads, nodes, b.0).add_assign(g);
        }
        Op::Mul(a, b) => {
            for (x, other) in [(a, b), (b, a)] {
                let gx = grad_buf(grads, nodes, x.0);
                let oval = nodes[other.0].value.data();
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
            let (rows, d) = nodes[x.0].value.as_2d();
            let gb = grad_buf(grads, nodes, b.0);
            let gbd = gb.data_mut();
            for r in 0..rows {
                for (i, gv) in gbd.iter_mut().enumerate().take(d) {
                    *gv += g.data()[r * d + i];
                }
            }
        }
        Op::MatMul(a, b) => {
            let (aval, bval) = (nodes[a.0].value.data(), nodes[b.0].value.data());
            let (m, k) = nodes[a.0].value.as_2d();
            let n = nodes[b.0].value.dim(1);
            // dA[m,k] += dC[m,n] @ B^T: the bt kernel's inner dimension is
            // n and its transposed operand, stored [k,n], is B as it lies
            let ga = grad_buf(grads, nodes, a.0).data_mut();
            matmul_bt_acc(g.data(), bval, ga, m, n, k);
            // dB[k,n] += A^T @ dC
            let gb = grad_buf(grads, nodes, b.0).data_mut();
            matmul_at_acc(aval, g.data(), gb, m, k, n);
        }
        Op::Gelu(x) => unary_bwd(nodes, grads, *x, g, act::gelu_grad),
        Op::Silu(x) => unary_bwd(nodes, grads, *x, g, act::silu_grad),
        Op::Tanh(x) => unary_bwd(nodes, grads, *x, g, act::tanh_grad),
        Op::LayerNorm { x, gamma, beta } => {
            let (rows, d) = nodes[x.0].value.as_2d();
            let Saved::Norm(means, rstds) = &nodes[id].saved else {
                unreachable!("layernorm saved state")
            };
            let mut dx = vec![0.0f32; rows * d];
            let mut dgamma = vec![0.0f32; d];
            let mut dbeta = vec![0.0f32; d];
            norm::layernorm_bwd(
                nodes[x.0].value.data(),
                nodes[gamma.0].value.data(),
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
        }
        Op::RmsNorm { x, gamma } => {
            let (rows, d) = nodes[x.0].value.as_2d();
            let Saved::Rrms(rrms) = &nodes[id].saved else {
                unreachable!("rmsnorm saved state")
            };
            let (xval, gval) = (nodes[x.0].value.data(), nodes[gamma.0].value.data());
            let mut dx = vec![0.0f32; rows * d];
            let mut dgamma = vec![0.0f32; d];
            norm::rmsnorm_bwd(xval, gval, g.data(), rrms, &mut dx, &mut dgamma, rows, d);
            add_into(grad_buf(grads, nodes, x.0), &dx);
            add_into(grad_buf(grads, nodes, gamma.0), &dgamma);
        }
        Op::CrossEntropy {
            logits,
            targets,
            n_valid,
        } => {
            let (_, v) = nodes[logits.0].value.as_2d();
            let Saved::Probs(probs) = &nodes[id].saved else {
                unreachable!("cross entropy saved state")
            };
            let seed = g.item() / *n_valid as f32;
            let gl = grad_buf(grads, nodes, logits.0);
            let gld = gl.data_mut();
            for (r, &t) in targets.iter().enumerate() {
                if t == IGNORE_INDEX {
                    continue;
                }
                for c in 0..v {
                    let mut dv = probs[r * v + c];
                    if c == t as usize {
                        dv -= 1.0;
                    }
                    gld[r * v + c] += seed * dv;
                }
            }
        }
        Op::Mse { pred, target } => {
            let pval = nodes[pred.0].value.data();
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
            let n = nodes[x.0].value.numel() as f32;
            let seed = g.item() / n;
            let gx = grad_buf(grads, nodes, x.0);
            for o in gx.data_mut().iter_mut() {
                *o += seed;
            }
        }
        Op::Embedding { table, ids } => {
            let d = nodes[table.0].value.dim(1);
            let gt = grad_buf(grads, nodes, table.0);
            let gtd = gt.data_mut();
            for (r, &idx) in ids.iter().enumerate() {
                let idx = idx as usize;
                for i in 0..d {
                    gtd[idx * d + i] += g.data()[r * d + i];
                }
            }
        }
        Op::Rotary { x, t, d, base } => {
            // Rotation is orthogonal: the gradient transforms by the inverse
            // rotation.
            let (x, t, d, base) = (*x, *t, *d, *base);
            let mut dg = g.data().to_vec();
            rotary_apply(&mut dg, t, d, base, true);
            add_into(grad_buf(grads, nodes, x.0), &dg);
        }
        Op::Attention {
            q,
            k,
            v,
            bh,
            t,
            d,
            causal,
        } => {
            let Saved::Attn(saved) = &nodes[id].saved else {
                unreachable!("attention saved state")
            };
            let (qv, kv, vv) = (
                nodes[q.0].value.data(),
                nodes[k.0].value.data(),
                nodes[v.0].value.data(),
            );
            let mut dq = vec![0.0f32; qv.len()];
            let mut dk = vec![0.0f32; kv.len()];
            let mut dv = vec![0.0f32; vv.len()];
            attention_bwd(
                qv,
                kv,
                vv,
                nodes[id].value.data(),
                g.data(),
                saved,
                &mut dq,
                &mut dk,
                &mut dv,
                *bh,
                *t,
                *d,
                *causal,
            );
            add_into(grad_buf(grads, nodes, q.0), &dq);
            add_into(grad_buf(grads, nodes, k.0), &dk);
            add_into(grad_buf(grads, nodes, v.0), &dv);
        }
        Op::Reshape(x) => {
            let x = *x;
            let gx = grad_buf(grads, nodes, x.0);
            add_into(gx, g.data());
        }
        Op::SplitHeads { x, b, t, h, d } => {
            let (x, b, t, h, d) = (*x, *b, *t, *h, *d);
            let gx = grad_buf(grads, nodes, x.0);
            let gxd = gx.data_mut();
            for bi in 0..b {
                for ti in 0..t {
                    for hi in 0..h {
                        let dst = ((bi * t + ti) * h + hi) * d;
                        let s = ((bi * h + hi) * t + ti) * d;
                        for i in 0..d {
                            gxd[dst + i] += g.data()[s + i];
                        }
                    }
                }
            }
        }
        Op::MergeHeads { x, b, t, h, d } => {
            let (x, b, t, h, d) = (*x, *b, *t, *h, *d);
            let gx = grad_buf(grads, nodes, x.0);
            let gxd = gx.data_mut();
            for bi in 0..b {
                for hi in 0..h {
                    for ti in 0..t {
                        let dst = ((bi * h + hi) * t + ti) * d;
                        let s = ((bi * t + ti) * h + hi) * d;
                        for i in 0..d {
                            gxd[dst + i] += g.data()[s + i];
                        }
                    }
                }
            }
        }
        Op::Concat(a, b) => {
            let (a, b) = (*a, *b);
            let (ra, da) = nodes[a.0].value.as_2d();
            let (_, db) = nodes[b.0].value.as_2d();
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
            let (_, d) = nodes[x.0].value.as_2d();
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
            let (_, d) = nodes[x.0].value.as_2d();
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
            let (rows, d) = nodes[x.0].value.as_2d();
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
            let mut buf = g.data().to_vec();
            comm.0.allreduce(&mut buf);
            add_into(grad_buf(grads, nodes, x.0), &buf);
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
                match &grads[p.0] {
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

fn unary_bwd(nodes: &[Node], grads: &mut [Option<Tensor>], x: Var, g: &Tensor, df: fn(f32) -> f32) {
    let xval = nodes[x.0].value.data();
    let gx = grad_buf(grads, nodes, x.0);
    for ((o, &gv), &xv) in gx.data_mut().iter_mut().zip(g.data()).zip(xval) {
        *o += gv * df(xv);
    }
}

fn add_into(dst: &mut Tensor, src: &[f32]) {
    debug_assert_eq!(dst.numel(), src.len());
    for (o, &s) in dst.data_mut().iter_mut().zip(src.iter()) {
        *o += s;
    }
}
