#![warn(missing_docs)]

//! # matgpt-optim
//!
//! Optimizers and learning-rate schedules for MatGPT training, matching the
//! pre-training recipes of the paper's Table III:
//!
//! * [`Adam`] / AdamW — the baseline optimizer used for the 1M-token-batch
//!   runs (β₁ = 0.9, β₂ = 0.95, lr = 2e-4);
//! * [`Lamb`] — layer-wise adaptive moments for the 4M-token large-batch
//!   runs (β₁ = 0.9, β₂ = 0.999, lr = 1e-2), the optimizer the paper ports
//!   to Frontier to mitigate the large-batch generalisation gap;
//! * [`Sgd`] with optional momentum, as a control;
//! * [`CosineSchedule`] — warmup + cosine decay to a floor, exactly the
//!   paper's schedule (1 % warmup, final LR = 10 % of initial).
//!
//! All optimizers drive a [`matgpt_tensor::ParamStore`] in place.
//!
//! For ZeRO-1 data parallelism (`matgpt_core::parallel`), every
//! optimizer also exposes [`Optimizer::step_masked`] — update only an
//! owned subset of tensors, allocating moments for those alone —
//! [`Optimizer::state_bytes`] for the memory accounting, and
//! [`OptimizerState::merge_shards`] to consolidate per-rank shards back
//! into one checkpointable state.

pub mod schedule;

pub use schedule::{ConstantSchedule, CosineSchedule, LrSchedule};

use matgpt_tensor::{ParamStore, Tensor};

/// A stateful optimizer stepping a parameter store.
pub trait Optimizer {
    /// Apply one update using the gradients currently in `store`, at
    /// learning rate `lr`. Does not zero the gradients.
    fn step(&mut self, store: &mut ParamStore, lr: f32);

    /// ZeRO-1 entry point: apply the update only to parameters whose
    /// index is flagged in `owned`, allocating moment state **only for
    /// those parameters** — a worker owning 1/N of the tensors holds
    /// ~1/N of the optimizer-state bytes. The step counter still
    /// advances once per call so bias correction matches a full
    /// [`Optimizer::step`] exactly; updates to owned parameters are
    /// bit-identical to the unmasked step.
    fn step_masked(&mut self, store: &mut ParamStore, lr: f32, owned: &[bool]);

    /// Bytes of per-parameter optimizer state currently allocated
    /// (moment/momentum payload, 4 bytes per f32, plus the step
    /// counter). This is the `weight_bytes`-style accounting the ZeRO-1
    /// memory claim is asserted with.
    fn state_bytes(&self) -> usize;

    /// Human-readable name for logs and experiment tables.
    fn name(&self) -> &'static str;

    /// True when the update rule touches each scalar independently of
    /// every other scalar in its tensor (Adam, SGD). Tensor-parallel
    /// sharding relies on this: an elementwise update applied per shard
    /// equals the update applied to the assembled tensor. LAMB's
    /// per-tensor trust ratio is **not** elementwise, so the executor
    /// rejects LAMB × TP layouts up front.
    fn elementwise(&self) -> bool {
        true
    }

    /// Snapshot the internal state (moments, step counter) for
    /// checkpointing. Importing the snapshot into a fresh optimizer of
    /// the same kind makes its future updates bit-identical to never
    /// having stopped.
    fn export_state(&self) -> OptimizerState;

    /// Restore a snapshot taken with [`Optimizer::export_state`].
    fn import_state(&mut self, state: OptimizerState);
}

/// Serialisable optimizer internals: the step counter plus one or more
/// per-parameter f32 slot groups (Adam/LAMB: `[m, v]`; SGD: `[buf]`).
///
/// The binary layout (little-endian, `step u64 | n_slots u32 | per
/// slot: n_params u32 | per param: len u64 | f32…`) round-trips every
/// f32 bit-exactly, which checkpoint-restart correctness depends on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptimizerState {
    /// Steps taken so far (drives Adam bias correction).
    pub step: u64,
    /// Slot groups of per-parameter state vectors.
    pub slots: Vec<Vec<Vec<f32>>>,
}

impl OptimizerState {
    /// Serialise to the compact binary layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize = self
            .slots
            .iter()
            .flat_map(|s| s.iter().map(|p| 8 + p.len() * 4))
            .sum();
        let mut out = Vec::with_capacity(12 + self.slots.len() * 4 + payload);
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&(self.slots.len() as u32).to_le_bytes());
        for slot in &self.slots {
            out.extend_from_slice(&(slot.len() as u32).to_le_bytes());
            for param in slot {
                out.extend_from_slice(&(param.len() as u64).to_le_bytes());
                for v in param {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decode the binary layout; `None` on truncated or inconsistent
    /// input (never panics).
    pub fn from_bytes(mut bytes: &[u8]) -> Option<Self> {
        fn take<const N: usize>(b: &mut &[u8]) -> Option<[u8; N]> {
            if b.len() < N {
                return None;
            }
            let (head, rest) = b.split_at(N);
            *b = rest;
            head.try_into().ok()
        }
        let step = u64::from_le_bytes(take::<8>(&mut bytes)?);
        let n_slots = u32::from_le_bytes(take::<4>(&mut bytes)?) as usize;
        let mut slots = Vec::new();
        for _ in 0..n_slots {
            let n_params = u32::from_le_bytes(take::<4>(&mut bytes)?) as usize;
            let mut slot = Vec::new();
            for _ in 0..n_params {
                let len = u64::from_le_bytes(take::<8>(&mut bytes)?) as usize;
                if bytes.len() < len.checked_mul(4)? {
                    return None;
                }
                let mut param = Vec::with_capacity(len);
                for _ in 0..len {
                    param.push(f32::from_le_bytes(take::<4>(&mut bytes)?));
                }
                slot.push(param);
            }
            slots.push(slot);
        }
        Some(Self { step, slots })
    }

    /// Reassemble a full optimizer state from per-worker ZeRO-1 shards.
    ///
    /// `owner[i]` names the shard that stepped parameter `i` (and so
    /// holds its live moments; the other shards left that entry empty
    /// or absent). All shards must agree on the step counter and slot
    /// count. Returns `None` when a shard is missing a parameter it
    /// owns, or the shards are inconsistent — the consolidated
    /// checkpoint would be silently wrong otherwise.
    pub fn merge_shards(shards: &[OptimizerState], owner: &[usize]) -> Option<OptimizerState> {
        let first = shards.first()?;
        let n_slots = first.slots.len();
        if shards
            .iter()
            .any(|s| s.step != first.step || s.slots.len() != n_slots)
        {
            return None;
        }
        let mut slots = Vec::with_capacity(n_slots);
        for slot in 0..n_slots {
            let mut merged = Vec::with_capacity(owner.len());
            for (param, &rank) in owner.iter().enumerate() {
                let entry = shards.get(rank)?.slots[slot].get(param)?;
                if entry.is_empty() {
                    return None;
                }
                merged.push(entry.clone());
            }
            slots.push(merged);
        }
        Some(Self {
            step: first.step,
            slots,
        })
    }

    /// Restrict a full state to the parameters `owned` flags — the
    /// inverse of [`OptimizerState::merge_shards`], and the ZeRO-1
    /// redistribution primitive: re-sharding a consolidated state onto
    /// a different worker count is `shard` under the new plan's masks.
    /// Unowned entries become empty vectors (the shape
    /// [`Optimizer::import_state`] expects for lazily-sized moments);
    /// parameters beyond `owned.len()` are treated as unowned.
    pub fn shard(&self, owned: &[bool]) -> OptimizerState {
        OptimizerState {
            step: self.step,
            slots: self
                .slots
                .iter()
                .map(|slot| {
                    slot.iter()
                        .enumerate()
                        .map(|(i, p)| {
                            if owned.get(i).copied().unwrap_or(false) {
                                p.clone()
                            } else {
                                Vec::new()
                            }
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Payload bytes of this state (4 per f32 plus the step counter) —
    /// the same accounting as [`Optimizer::state_bytes`].
    pub fn payload_bytes(&self) -> usize {
        payload_bytes(&self.slots)
    }
}

/// Bytes of slot groups: 4 per f32 plus the 8-byte step counter.
fn payload_bytes(slots: &[Vec<Vec<f32>>]) -> usize {
    8 + slots.iter().flatten().map(|p| p.len() * 4).sum::<usize>()
}

/// Configuration shared by the Adam-family optimizers.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled weight decay (0 disables).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            beta1: 0.9,
            beta2: 0.95,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

impl AdamConfig {
    /// The paper's Adam recipe for the 1.7B model (Table III).
    pub fn paper_adam() -> Self {
        Self {
            beta1: 0.9,
            beta2: 0.95,
            eps: 1e-8,
            weight_decay: 0.1,
        }
    }

    /// The paper's LAMB betas (Table III).
    pub fn paper_lamb() -> Self {
        Self {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-6,
            weight_decay: 0.1,
        }
    }
}

impl AdamConfig {
    /// The bias-corrected Adam direction of one scalar at step `t` as
    /// `(m, v, grad, weight) -> direction`, advancing its two moments.
    /// Shared with LAMB.
    fn direction(self, t: u64) -> impl Fn(&mut f32, &mut f32, f32, f32) -> f32 {
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        move |m, v, g, w| {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            mhat / (vhat.sqrt() + self.eps) + self.weight_decay * w
        }
    }
}

/// What every optimizer here keeps: `S` slot groups of per-parameter
/// state vectors (Adam/LAMB `[m, v]`, SGD `[buf]`), lazily sized, and
/// the step counter. The masked walk, the byte accounting and the
/// checkpoint snapshot live here once; an optimizer supplies only its
/// per-tensor update.
struct Moments<const S: usize> {
    slots: [Vec<Vec<f32>>; S],
    t: u64,
}

impl<const S: usize> Moments<S> {
    fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| Vec::new()),
            t: 0,
        }
    }

    /// Call `update(value, grad, state)` for every parameter `owned`
    /// flags (every parameter when `None`), `state` being its vector in
    /// each slot group — allocated zeroed on first visit, so a masked
    /// walk holds state for its owned tensors alone.
    fn for_each_param(
        &mut self,
        store: &mut ParamStore,
        owned: Option<&[bool]>,
        mut update: impl FnMut(&mut Tensor, &Tensor, [&mut [f32]; S]),
    ) {
        store.for_each_param(|i, value, grad| {
            let mine = owned.is_none_or(|mask| mask[i]);
            let state = self.slots.each_mut().map(|slot| {
                if slot.len() <= i {
                    slot.resize_with(i + 1, Vec::new);
                }
                if mine && slot[i].len() != grad.numel() {
                    slot[i] = vec![0.0; grad.numel()];
                }
                &mut slot[i][..]
            });
            if mine {
                update(value, grad, state);
            }
        });
    }

    fn export(&self) -> OptimizerState {
        OptimizerState {
            step: self.t,
            slots: self.slots.to_vec(),
        }
    }

    fn import(&mut self, state: OptimizerState) {
        let mut slots = state.slots.into_iter();
        self.slots = std::array::from_fn(|_| slots.next().unwrap_or_default());
        self.t = state.step;
    }
}

/// The [`Optimizer`] methods that are the same for every holder of a
/// `state: Moments` and a `step_impl`.
macro_rules! optimizer_via_moments {
    () => {
        fn step(&mut self, store: &mut ParamStore, lr: f32) {
            self.step_impl(store, lr, None);
        }

        fn step_masked(&mut self, store: &mut ParamStore, lr: f32, owned: &[bool]) {
            self.step_impl(store, lr, Some(owned));
        }

        fn state_bytes(&self) -> usize {
            payload_bytes(&self.state.slots)
        }

        fn export_state(&self) -> OptimizerState {
            self.state.export()
        }

        fn import_state(&mut self, state: OptimizerState) {
            self.state.import(state);
        }
    };
}

/// Adam / AdamW (decoupled weight decay when `weight_decay > 0`).
pub struct Adam {
    cfg: AdamConfig,
    state: Moments<2>,
}

impl Adam {
    /// New optimizer with the given config.
    pub fn new(cfg: AdamConfig) -> Self {
        Self {
            cfg,
            state: Moments::new(),
        }
    }

    fn step_impl(&mut self, store: &mut ParamStore, lr: f32, owned: Option<&[bool]>) {
        self.state.t += 1;
        let direction = self.cfg.direction(self.state.t);
        self.state
            .for_each_param(store, owned, |value, grad, [m, v]| {
                for (((w, &g), m), v) in value.data_mut().iter_mut().zip(grad.data()).zip(m).zip(v)
                {
                    *w -= lr * direction(m, v, g, *w);
                }
            });
    }
}

impl Optimizer for Adam {
    optimizer_via_moments!();

    fn name(&self) -> &'static str {
        "adam"
    }
}

/// LAMB (You et al., 2020): Adam direction rescaled per layer by the trust
/// ratio `‖w‖ / ‖update‖`, enabling very large batch sizes.
pub struct Lamb {
    cfg: AdamConfig,
    state: Moments<2>,
    /// The current tensor's direction: its norm is needed before the
    /// first weight may move. Reused across tensors and steps.
    dir: Vec<f32>,
    /// Clamp for the trust ratio, as in common implementations.
    pub max_trust: f32,
}

impl Lamb {
    /// New LAMB optimizer.
    pub fn new(cfg: AdamConfig) -> Self {
        Self {
            cfg,
            state: Moments::new(),
            dir: Vec::new(),
            max_trust: 10.0,
        }
    }

    /// Trust ratio for a weight/update norm pair. Falls back to 1 when
    /// either norm vanishes (as in the reference implementation).
    pub fn trust_ratio(w_norm: f32, u_norm: f32, max_trust: f32) -> f32 {
        if w_norm > 0.0 && u_norm > 0.0 {
            (w_norm / u_norm).min(max_trust)
        } else {
            1.0
        }
    }

    fn step_impl(&mut self, store: &mut ParamStore, lr: f32, owned: Option<&[bool]>) {
        self.state.t += 1;
        let direction = self.cfg.direction(self.state.t);
        let (dir, max_trust) = (&mut self.dir, self.max_trust);
        self.state
            .for_each_param(store, owned, |value, grad, [m, v]| {
                dir.clear();
                dir.extend(
                    (value.data().iter().zip(grad.data()).zip(m).zip(v))
                        .map(|(((&w, &g), m), v)| direction(m, v, g, w)),
                );
                // The trust ratio is per whole tensor, so ZeRO-1 shards must
                // align to tensor boundaries for masked and full steps to
                // produce identical updates — `core::parallel` guarantees it.
                let u_norm = dir.iter().map(|x| x * x).sum::<f32>().sqrt();
                let trust = Lamb::trust_ratio(value.norm(), u_norm, max_trust);
                for (w, d) in value.data_mut().iter_mut().zip(dir.iter()) {
                    *w -= lr * trust * d;
                }
            });
    }
}

impl Optimizer for Lamb {
    optimizer_via_moments!();

    fn name(&self) -> &'static str {
        "lamb"
    }

    fn elementwise(&self) -> bool {
        false // per-tensor trust ratio couples scalars within a tensor
    }
}

/// Plain SGD with optional momentum. It has no step counter: its
/// snapshots carry `step: 0`.
pub struct Sgd {
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    state: Moments<1>,
}

impl Sgd {
    /// New SGD optimizer.
    pub fn new(momentum: f32) -> Self {
        Self {
            momentum,
            state: Moments::new(),
        }
    }

    fn step_impl(&mut self, store: &mut ParamStore, lr: f32, owned: Option<&[bool]>) {
        let mu = self.momentum;
        self.state
            .for_each_param(store, owned, |value, grad, [buf]| {
                for ((w, &g), b) in value.data_mut().iter_mut().zip(grad.data()).zip(buf) {
                    *b = mu * *b + g;
                    *w -= lr * *b;
                }
            });
    }
}

impl Optimizer for Sgd {
    optimizer_via_moments!();

    fn name(&self) -> &'static str {
        "sgd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_tensor::{ParamStore, Tensor};

    fn quadratic_store() -> (ParamStore, matgpt_tensor::ParamId) {
        let mut s = ParamStore::new();
        let p = s.add("x", Tensor::from_vec(&[2], vec![5.0, -3.0]));
        (s, p)
    }

    /// Minimise f(x) = 0.5 ||x||^2 (gradient = x): all optimizers must
    /// drive x toward 0.
    fn run<O: Optimizer>(mut opt: O, steps: usize, lr: f32) -> f32 {
        let (mut store, p) = quadratic_store();
        for _ in 0..steps {
            store.zero_grads();
            let x = store.value(p).data().to_vec();
            store.grad_mut(p).data_mut().copy_from_slice(&x);
            opt.step(&mut store, lr);
        }
        store.value(p).norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(run(Sgd::new(0.0), 100, 0.1) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges() {
        assert!(run(Sgd::new(0.9), 200, 0.02) < 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(run(Adam::new(AdamConfig::default()), 300, 0.1) < 1e-2);
    }

    #[test]
    fn lamb_converges_on_quadratic() {
        assert!(run(Lamb::new(AdamConfig::paper_lamb()), 300, 0.05) < 1e-1);
    }

    #[test]
    fn shard_then_merge_round_trips_and_reshards() {
        // A full 4-parameter state, sharded across 3 owners, merged
        // back, then re-sharded for a 2-owner world: every path must be
        // bit-exact, and re-sharding the merged state must equal
        // sharding the original directly — the elastic N→N−1 contract.
        let full = OptimizerState {
            step: 7,
            slots: vec![
                vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0, 6.0], vec![7.0]],
                vec![vec![0.1, 0.2], vec![0.3], vec![0.4, 0.5, 0.6], vec![0.7]],
            ],
        };
        let owner3 = [0usize, 1, 1, 2];
        let shards: Vec<OptimizerState> = (0..3)
            .map(|r| {
                let mask: Vec<bool> = owner3.iter().map(|&o| o == r).collect();
                full.shard(&mask)
            })
            .collect();
        // unowned entries are empty, owned are intact
        assert!(shards[0].slots[0][1].is_empty());
        assert_eq!(shards[1].slots[0][2], vec![4.0, 5.0, 6.0]);
        let merged = OptimizerState::merge_shards(&shards, &owner3).expect("consistent shards");
        assert_eq!(merged, full);
        // elastic redistribution: shard(merge(shards(full))) == shard(full)
        let owner2 = [0usize, 0, 1, 1];
        for r in 0..2 {
            let mask: Vec<bool> = owner2.iter().map(|&o| o == r).collect();
            assert_eq!(merged.shard(&mask), full.shard(&mask));
        }
    }

    #[test]
    fn adam_first_step_is_signed_unit_scale() {
        // With bias correction, the very first Adam step is ≈ lr * sign(g).
        let mut s = ParamStore::new();
        let p = s.add("x", Tensor::from_vec(&[2], vec![1.0, 1.0]));
        s.grad_mut(p).data_mut().copy_from_slice(&[0.5, -2.0]);
        let mut opt = Adam::new(AdamConfig {
            weight_decay: 0.0,
            ..AdamConfig::default()
        });
        opt.step(&mut s, 0.1);
        let x = s.value(p).data();
        assert!((x[0] - (1.0 - 0.1)).abs() < 1e-3, "{}", x[0]);
        assert!((x[1] - (1.0 + 0.1)).abs() < 1e-3, "{}", x[1]);
    }

    #[test]
    fn weight_decay_pulls_toward_zero_without_gradient() {
        let mut s = ParamStore::new();
        let p = s.add("x", Tensor::from_vec(&[1], vec![10.0]));
        let mut opt = Adam::new(AdamConfig {
            weight_decay: 0.1,
            ..AdamConfig::default()
        });
        for _ in 0..10 {
            s.zero_grads();
            opt.step(&mut s, 0.1);
        }
        assert!(s.value(p).data()[0] < 10.0);
    }

    #[test]
    fn trust_ratio_bounds() {
        assert_eq!(Lamb::trust_ratio(0.0, 1.0, 10.0), 1.0);
        assert_eq!(Lamb::trust_ratio(1.0, 0.0, 10.0), 1.0);
        assert_eq!(Lamb::trust_ratio(100.0, 1.0, 10.0), 10.0);
        assert!((Lamb::trust_ratio(2.0, 4.0, 10.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn exported_state_resumes_bit_identically() {
        // Run A: 20 straight steps. Run B: 8 steps, export/import through
        // bytes into a fresh optimizer, 12 more. Trajectories must agree
        // bit-for-bit — the checkpoint-restart contract.
        let trajectory = |split: Option<usize>| {
            let (mut store, p) = quadratic_store();
            let mut opt: Box<dyn Optimizer> = Box::new(Adam::new(AdamConfig::paper_adam()));
            for step in 0..20 {
                if split == Some(step) {
                    let bytes = opt.export_state().to_bytes();
                    let restored = OptimizerState::from_bytes(&bytes).expect("decodes");
                    assert_eq!(restored, opt.export_state());
                    let mut fresh: Box<dyn Optimizer> =
                        Box::new(Adam::new(AdamConfig::paper_adam()));
                    fresh.import_state(restored);
                    opt = fresh;
                }
                store.zero_grads();
                let x = store.value(p).data().to_vec();
                store.grad_mut(p).data_mut().copy_from_slice(&x);
                opt.step(&mut store, 0.05);
            }
            store.value(p).data().to_vec()
        };
        let uninterrupted = trajectory(None);
        let resumed = trajectory(Some(8));
        assert_eq!(
            uninterrupted
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            resumed.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn state_decoding_rejects_garbage() {
        assert_eq!(OptimizerState::from_bytes(&[1, 2, 3]), None);
        let mut bytes = OptimizerState {
            step: 3,
            slots: vec![vec![vec![1.0, 2.0]]],
        }
        .to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(OptimizerState::from_bytes(&bytes), None);
    }

    fn two_param_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.add("a", Tensor::from_vec(&[3], vec![1.0, -2.0, 3.0]));
        s.add("b", Tensor::from_vec(&[2], vec![0.5, -0.5]));
        s
    }

    fn set_grads(s: &mut ParamStore) {
        let ids: Vec<_> = s.ids().collect();
        s.grad_mut(ids[0])
            .data_mut()
            .copy_from_slice(&[0.1, 0.7, -0.3]);
        s.grad_mut(ids[1]).data_mut().copy_from_slice(&[-0.2, 0.9]);
    }

    /// Complementary masked steps reproduce the unmasked step bit-for-bit
    /// on the parameters each mask owns — the ZeRO-1 update contract.
    #[test]
    fn masked_steps_union_to_full_step() {
        let make = || Box::new(Adam::new(AdamConfig::paper_adam())) as Box<dyn Optimizer>;
        for steps in 1..4 {
            let mut full_store = two_param_store();
            let mut full = make();
            let mut a_store = two_param_store();
            let mut a_opt = make();
            let mut b_store = two_param_store();
            let mut b_opt = make();
            for _ in 0..steps {
                set_grads(&mut full_store);
                set_grads(&mut a_store);
                set_grads(&mut b_store);
                full.step(&mut full_store, 0.05);
                a_opt.step_masked(&mut a_store, 0.05, &[true, false]);
                b_opt.step_masked(&mut b_store, 0.05, &[false, true]);
                // Emulate the allgather: each shard publishes its owned
                // parameter so the next step sees synced weights.
                let ids: Vec<_> = full_store.ids().collect();
                let a_val = a_store.value(ids[0]).data().to_vec();
                let b_val = b_store.value(ids[1]).data().to_vec();
                a_store.value_mut(ids[1]).data_mut().copy_from_slice(&b_val);
                b_store.value_mut(ids[0]).data_mut().copy_from_slice(&a_val);
            }
            let ids: Vec<_> = full_store.ids().collect();
            for &id in &ids {
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(full_store.value(id)), bits(a_store.value(id)));
            }
        }
    }

    /// A masked optimizer only allocates moments for owned parameters,
    /// and the shards' payload sums back to the replicated footprint.
    #[test]
    fn masked_state_bytes_shrink_with_ownership() {
        let mut full_store = two_param_store();
        let mut full = Adam::new(AdamConfig::paper_adam());
        set_grads(&mut full_store);
        full.step(&mut full_store, 0.05);

        let mut a_store = two_param_store();
        let mut a_opt = Adam::new(AdamConfig::paper_adam());
        set_grads(&mut a_store);
        a_opt.step_masked(&mut a_store, 0.05, &[true, false]);

        let mut b_store = two_param_store();
        let mut b_opt = Adam::new(AdamConfig::paper_adam());
        set_grads(&mut b_store);
        b_opt.step_masked(&mut b_store, 0.05, &[false, true]);

        // Full: (3 + 2 scalars) × 2 slots × 4 bytes + 8-byte counter.
        assert_eq!(full.state_bytes(), 8 + 5 * 2 * 4);
        assert_eq!(a_opt.state_bytes(), 8 + 3 * 2 * 4);
        assert_eq!(b_opt.state_bytes(), 8 + 2 * 2 * 4);
        assert_eq!(
            full.state_bytes() - 8,
            (a_opt.state_bytes() - 8) + (b_opt.state_bytes() - 8)
        );
        assert_eq!(full.export_state().payload_bytes(), full.state_bytes());
    }

    /// Shards merged by ownership reproduce the full optimizer state.
    #[test]
    fn merge_shards_reassembles_full_state() {
        let mut full_store = two_param_store();
        let mut full = Adam::new(AdamConfig::paper_adam());
        let mut a_store = two_param_store();
        let mut a_opt = Adam::new(AdamConfig::paper_adam());
        let mut b_store = two_param_store();
        let mut b_opt = Adam::new(AdamConfig::paper_adam());
        for _ in 0..3 {
            set_grads(&mut full_store);
            set_grads(&mut a_store);
            set_grads(&mut b_store);
            full.step(&mut full_store, 0.05);
            a_opt.step_masked(&mut a_store, 0.05, &[true, false]);
            b_opt.step_masked(&mut b_store, 0.05, &[false, true]);
        }
        let merged =
            OptimizerState::merge_shards(&[a_opt.export_state(), b_opt.export_state()], &[0, 1])
                .expect("consistent shards merge");
        assert_eq!(merged, full.export_state());

        // Inconsistent step counters refuse to merge.
        let mut behind = Adam::new(AdamConfig::paper_adam());
        behind.step_masked(&mut two_param_store(), 0.05, &[false, true]);
        assert_eq!(
            OptimizerState::merge_shards(&[a_opt.export_state(), behind.export_state()], &[0, 1]),
            None
        );
        // An owner missing its parameter refuses to merge.
        assert_eq!(
            OptimizerState::merge_shards(
                &[a_opt.export_state(), b_opt.export_state()],
                &[1, 0] // wrong ownership: shard 1 never stepped param 0
            ),
            None
        );
    }

    #[test]
    fn lamb_update_is_scale_invariant_in_gradient() {
        // LAMB normalises by the update norm: scaling all gradients by a
        // constant must produce (nearly) the same first step.
        let run_once = |scale: f32| {
            let mut s = ParamStore::new();
            let p = s.add("x", Tensor::from_vec(&[2], vec![3.0, 4.0]));
            s.grad_mut(p)
                .data_mut()
                .copy_from_slice(&[0.3 * scale, -0.4 * scale]);
            let mut opt = Lamb::new(AdamConfig {
                weight_decay: 0.0,
                ..AdamConfig::paper_lamb()
            });
            opt.step(&mut s, 0.01);
            s.value(p).data().to_vec()
        };
        let a = run_once(1.0);
        let b = run_once(100.0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }
}
