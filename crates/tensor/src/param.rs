//! Persistent parameter storage shared across training steps.
//!
//! Models register their weights in a [`ParamStore`] once; every training
//! step stages them onto its [`crate::tape::Tape`], runs
//! forward/backward, and copies the gradients back with
//! [`crate::tape::Tape::accumulate_param_grads`]. Optimizers then walk the
//! store's `(value, grad)` pairs.
//!
//! Values are shared, copy on write: each is an `Arc<Tensor>`, and
//! [`crate::tape::Tape::param`] stages a parameter by cloning the `Arc`,
//! not the weights. Every mutable path ([`ParamStore::value_mut`],
//! [`ParamStore::for_each_param`], [`ParamStore::load_flat_values`]) goes
//! through [`Arc::make_mut`], so a write while a tape still holds the
//! value copies it first — correct, but a full copy of the tensor. The
//! backward sweep drops the tape's shares, so only an unswept tape (a
//! forward-only pass) must be dropped before the store is written.
//!
//! A gradient is allocated, as zeros, at its first read or write, so a
//! store that never trains (a serving model's, or a run's before its
//! first step) holds no gradient memory.
//!
//! The clip's squared norms go through [`sq_norms`], which keeps every
//! tensor's `Iterator::sum` chain but advances eight of them side by
//! side; the data-parallel executor folds its flat gradients through
//! the same function, so both clips see the same bits.

use crate::tensor::Tensor;
use std::sync::{Arc, OnceLock};

/// Chains [`sq_norms`] advances side by side.
const CHAINS: usize = 8;

/// `out[i] = Σ xs[i][j]²`, each as [`Tensor::sq_norm`] sums it: one
/// `Iterator::sum` chain from its identity, `x · x` added in index
/// order. One such chain waits on its own adds, so the slices go
/// longest first in groups of eight, whose chains advance side by
/// side, each lane dropping out where its slice ends. Every chain is
/// the one a slice summed alone makes, bit for bit.
pub fn sq_norms(xs: &[&[f32]], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "one sum per slice");
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(xs[i].len()));
    for group in order.chunks(CHAINS) {
        let mut acc = [std::iter::empty::<f32>().sum::<f32>(); CHAINS];
        let mut at = 0;
        // lanes `0..active` (the longest) all run to the end of lane
        // `active - 1`
        for active in (1..=group.len()).rev() {
            let end = xs[group[active - 1]].len();
            match active {
                8 => advance::<8>(xs, group, &mut acc, at..end),
                7 => advance::<7>(xs, group, &mut acc, at..end),
                6 => advance::<6>(xs, group, &mut acc, at..end),
                5 => advance::<5>(xs, group, &mut acc, at..end),
                4 => advance::<4>(xs, group, &mut acc, at..end),
                3 => advance::<3>(xs, group, &mut acc, at..end),
                2 => advance::<2>(xs, group, &mut acc, at..end),
                _ => advance::<1>(xs, group, &mut acc, at..end),
            }
            at = end;
        }
        for (&i, &a) in group.iter().zip(&acc) {
            out[i] = a;
        }
    }
}

/// The first `N` chains of a [`sq_norms`] group over `span` of their
/// slices.
#[inline(always)]
fn advance<const N: usize>(
    xs: &[&[f32]],
    group: &[usize],
    acc: &mut [f32; CHAINS],
    span: std::ops::Range<usize>,
) {
    let lanes: [&[f32]; N] = std::array::from_fn(|l| &xs[group[l]][span.clone()]);
    let mut sum: [f32; N] = std::array::from_fn(|l| acc[l]);
    for j in 0..span.len() {
        for (s, lane) in sum.iter_mut().zip(&lanes) {
            *s += lane[j] * lane[j];
        }
    }
    acc[..N].copy_from_slice(&sum);
}

/// Handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

struct Entry {
    name: String,
    value: Arc<Tensor>,
    grad: OnceLock<Tensor>,
}

impl Entry {
    fn grad(&self) -> &Tensor {
        grad_of(&self.grad, &self.value)
    }

    fn grad_mut(&mut self) -> &mut Tensor {
        self.grad();
        self.grad.get_mut().expect("initialised above")
    }
}

/// `grad`, allocated as zeros of `value`'s shape at its first use.
fn grad_of<'a>(grad: &'a OnceLock<Tensor>, value: &Tensor) -> &'a Tensor {
    grad.get_or_init(|| Tensor::zeros(value.shape()))
}

/// A named collection of trainable tensors and their gradients.
#[derive(Default)]
pub struct ParamStore {
    entries: Vec<Entry>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.entries.push(Entry {
            name: name.into(),
            value: Arc::new(value),
            grad: OnceLock::new(),
        });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.numel()).sum()
    }

    /// The value tensor of `id`.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// The shared value of `id`, for staging onto a tape without a copy.
    pub(crate) fn shared_value(&self, id: ParamId) -> Arc<Tensor> {
        Arc::clone(&self.entries[id.0].value)
    }

    /// Mutable value tensor of `id` (copied first if a tape still
    /// shares it).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.entries[id.0].value)
    }

    /// The gradient tensor of `id`.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        self.entries[id.0].grad()
    }

    /// Mutable gradient tensor of `id`.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.entries[id.0].grad_mut()
    }

    /// The registered name of `id`.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Iterate over `(id, name)` pairs.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(ParamId)
    }

    /// Zero every gradient (call between optimizer steps); one not yet
    /// allocated is zero already.
    pub fn zero_grads(&mut self) {
        for grad in self.entries.iter_mut().filter_map(|e| e.grad.get_mut()) {
            grad.data_mut().fill(0.0);
        }
    }

    /// Visit `(index, value, grad)` triples mutably — the optimizer
    /// entry point. Values a tape still shares are copied first.
    pub fn for_each_param(&mut self, mut f: impl FnMut(usize, &mut Tensor, &Tensor)) {
        for (i, e) in self.entries.iter_mut().enumerate() {
            let grad = grad_of(&e.grad, &e.value);
            f(i, Arc::make_mut(&mut e.value), grad);
        }
    }

    /// Global L2 norm of all gradients: each tensor's
    /// [`Tensor::sq_norm`] (through [`sq_norms`]), summed in registration
    /// order.
    pub fn grad_norm(&self) -> f32 {
        let grads: Vec<&[f32]> = self.entries.iter().map(|e| e.grad().data()).collect();
        let mut sq = vec![0.0; grads.len()];
        sq_norms(&grads, &mut sq);
        sq.iter().sum::<f32>().sqrt()
    }

    /// Scale all gradients so the global norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for e in self.entries.iter_mut() {
                e.grad_mut().scale_assign(s);
            }
        }
        norm
    }

    /// Scalar count of each registered tensor, in registration order.
    /// Prefix-summing this gives each tensor's range in the flat layout
    /// used by [`ParamStore::flat_grads`] / [`ParamStore::flat_values`].
    pub fn tensor_sizes(&self) -> Vec<usize> {
        self.entries.iter().map(|e| e.value.numel()).collect()
    }

    /// All gradients concatenated in registration order into one flat
    /// vector of length [`ParamStore::num_scalars`] — the wire format
    /// collectives operate on.
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_scalars());
        for e in &self.entries {
            out.extend_from_slice(e.grad().data());
        }
        out
    }

    /// Overwrite every gradient from a flat vector laid out as
    /// [`ParamStore::flat_grads`]. Panics on length mismatch.
    pub fn load_flat_grads(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_scalars(), "flat gradient length");
        let mut off = 0;
        for e in self.entries.iter_mut() {
            let n = e.value.numel();
            e.grad_mut().data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }

    /// All parameter values concatenated in registration order (same
    /// layout as [`ParamStore::flat_grads`]).
    pub fn flat_values(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_scalars());
        for e in &self.entries {
            out.extend_from_slice(e.value.data());
        }
        out
    }

    /// Overwrite every parameter value from a flat vector laid out as
    /// [`ParamStore::flat_values`]. Panics on length mismatch.
    pub fn load_flat_values(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_scalars(), "flat value length");
        let mut off = 0;
        for e in self.entries.iter_mut() {
            let n = e.value.numel();
            Arc::make_mut(&mut e.value)
                .data_mut()
                .copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_norms_equal_each_slices_own_sum_bitwise() {
        // uneven lengths (more slices than one group, ties, an empty
        // one), and -0.0, NaN and ±∞ among the values
        let lens = [5usize, 0, 300, 17, 300, 1, 64, 9, 1000, 2, 33, 300, 7];
        let xs: Vec<Vec<f32>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                (0..n)
                    .map(|j| match (i + j) % 97 {
                        0 => -0.0,
                        _ => ((i * 31 + j) as f32 * 0.61).sin() * 3.0,
                    })
                    .collect()
            })
            .collect();
        let mut special = xs.clone();
        special[3][4] = f32::NAN;
        special[8][999] = f32::INFINITY;
        special[6][0] = f32::NEG_INFINITY;
        special[9] = vec![-0.0, -0.0];
        for xs in [&xs, &special] {
            let slices: Vec<&[f32]> = xs.iter().map(|x| &x[..]).collect();
            let mut got = vec![0.0f32; slices.len()];
            sq_norms(&slices, &mut got);
            for (x, g) in slices.iter().zip(&got) {
                let want: f32 = x.iter().map(|v| v * v).sum();
                assert_eq!(g.to_bits(), want.to_bits(), "len {}", x.len());
            }
        }
    }

    #[test]
    fn add_and_query() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::zeros(&[2, 3]));
        let b = s.add("b", Tensor::zeros(&[3]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 9);
        assert_eq!(s.name(a), "w");
        assert_eq!(s.value(b).shape(), &[3]);
    }

    /// A gradient exists from its first use on, as zeros: registering
    /// allocates none, and zeroing does not allocate one.
    #[test]
    fn gradients_are_allocated_at_first_use() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::from_vec(&[2], vec![1.0, 2.0]));
        s.zero_grads();
        assert!(s.entries[0].grad.get().is_none());
        assert_eq!(s.grad(a).data(), &[0.0, 0.0]);
        assert!(s.entries[0].grad.get().is_some());
    }

    #[test]
    fn zero_and_clip_grads() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::zeros(&[2]));
        s.grad_mut(a).data_mut().copy_from_slice(&[3.0, 4.0]);
        assert!((s.grad_norm() - 5.0).abs() < 1e-6);
        let pre = s.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((s.grad_norm() - 1.0).abs() < 1e-5);
        s.zero_grads();
        assert_eq!(s.grad_norm(), 0.0);
    }

    #[test]
    fn flat_round_trips_preserve_layout() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let b = s.add("b", Tensor::from_vec(&[3], vec![5.0, 6.0, 7.0]));
        s.grad_mut(a)
            .data_mut()
            .copy_from_slice(&[0.1, 0.2, 0.3, 0.4]);
        s.grad_mut(b).data_mut().copy_from_slice(&[0.5, 0.6, 0.7]);

        assert_eq!(s.tensor_sizes(), vec![4, 3]);
        assert_eq!(s.flat_values(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(s.flat_grads(), vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]);

        let mut vals = s.flat_values();
        for v in &mut vals {
            *v += 10.0;
        }
        s.load_flat_values(&vals);
        assert_eq!(s.value(b).data(), &[15.0, 16.0, 17.0]);

        let grads = vec![1.0; 7];
        s.load_flat_grads(&grads);
        assert_eq!(s.grad(a).data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "flat gradient length")]
    fn load_flat_grads_rejects_wrong_length() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::zeros(&[2]));
        s.load_flat_grads(&[1.0]);
    }

    #[test]
    fn clip_below_threshold_is_noop() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::zeros(&[2]));
        s.grad_mut(a).data_mut().copy_from_slice(&[0.3, 0.4]);
        s.clip_grad_norm(10.0);
        assert_eq!(s.grad(a).data(), &[0.3, 0.4]);
    }
}
