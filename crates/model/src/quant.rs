//! Post-training int8 weight quantization of a [`GptModel`]'s serving
//! weights.
//!
//! [`QuantizedParamStore::quantize`] walks a trained [`ParamStore`] and
//! converts every matmul weight the decode path streams through — the
//! 2-D rows of [`crate::gpt`]'s per-layer layout table (the attention
//! and MLP matrices) and the LM head — to
//! per-channel symmetric int8 ([`matgpt_tensor::QuantizedMatrix`]),
//! while the small tensors whose values are read element-wise (token
//! embeddings, norm gains, biases) stay f32. The result is
//! self-contained: the original f32 store can be dropped, which is
//! where the ~4× weight-memory saving comes from.
//!
//! [`GptModel::forward_cached_with`] runs against either store through
//! the [`ForwardParams`] trait, so the serving engine picks a precision
//! with one [`WeightPrecision`] knob and everything downstream — KV
//! cache, scheduler, sampling — is unchanged.

use crate::gpt::GptModel;
use matgpt_tensor::kernels::matmul::matmul;
use matgpt_tensor::kernels::quant::{matmul_q8, matmul_q8a8, PackedQ8Matrix, QuantizedMatrix};
use matgpt_tensor::{ParamId, ParamStore, Tensor};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which weight datatype the cached decode path runs against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightPrecision {
    /// Native f32 weights straight out of the [`ParamStore`].
    #[default]
    F32,
    /// Per-channel symmetric int8 matmul weights
    /// ([`QuantizedParamStore`]), fused dequant in the matmul.
    Int8,
}

impl WeightPrecision {
    /// Stable lowercase label for metrics and bench reports.
    pub fn label(&self) -> &'static str {
        match self {
            WeightPrecision::F32 => "f32",
            WeightPrecision::Int8 => "int8",
        }
    }
}

impl std::fmt::Display for WeightPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Weight source abstraction for the tape-free forward pass: dense
/// element access for embeddings/norms/biases, plus the matmul each
/// precision implements with its own kernel.
pub trait ForwardParams {
    /// The f32 values of a dense (non-quantized) parameter.
    fn dense(&self, id: ParamId) -> &[f32];
    /// `c[m,n] = x[m,k] @ w[k,n]` for the weight behind `id`.
    fn matmul(&self, x: &[f32], id: ParamId, c: &mut [f32], m: usize, k: usize, n: usize);
    /// Heap bytes held by the weights (for capacity accounting).
    fn weight_bytes(&self) -> usize;
}

impl ForwardParams for ParamStore {
    fn dense(&self, id: ParamId) -> &[f32] {
        self.value(id).data()
    }

    fn matmul(&self, x: &[f32], id: ParamId, c: &mut [f32], m: usize, k: usize, n: usize) {
        matmul(x, self.value(id).data(), c, m, k, n);
    }

    fn weight_bytes(&self) -> usize {
        self.num_scalars() * std::mem::size_of::<f32>()
    }
}

/// A [`ParamStore`] snapshot with every matmul weight quantized to
/// per-channel int8 and everything else kept f32. Self-contained —
/// drop the f32 store after building one.
pub struct QuantizedParamStore {
    dense: HashMap<ParamId, Tensor>,
    quant: HashMap<ParamId, QuantizedMatrix>,
    /// Codes repacked for the integer-dot kernel; present only on
    /// stores built with [`QuantizedParamStore::for_draft`].
    packed: HashMap<ParamId, PackedQ8Matrix>,
}

impl QuantizedParamStore {
    /// Quantize `model`'s matmul weights out of `store`.
    pub fn quantize(model: &GptModel, store: &ParamStore) -> Self {
        let layer_matmuls = model.layers.iter().flat_map(|layer| {
            layer
                .iter()
                .filter(|(spec, _)| spec.is_matmul())
                .map(|(_, id)| id)
        });
        let quant: HashMap<_, _> = std::iter::once(model.lm_head)
            .chain(layer_matmuls)
            .map(|id| {
                let t = store.value(id);
                let (k, n) = t.as_2d();
                (id, QuantizedMatrix::quantize(t.data(), k, n))
            })
            .collect();
        let dense = store
            .ids()
            .filter(|id| !quant.contains_key(id))
            .map(|id| (id, store.value(id).clone()))
            .collect();
        Self {
            dense,
            quant,
            packed: HashMap::new(),
        }
    }

    /// Quantize for use as a speculative *draft*: matmuls additionally
    /// keep an integer-dot packing ([`PackedQ8Matrix`]) and run W8A8 —
    /// activations are int8-quantized per row and dot products
    /// accumulate exactly in i32. Roughly 1% extra rounding error per
    /// linear versus the serving [`Self::quantize`] path, which for a
    /// draft only shows up as slightly lower acceptance — while the
    /// inner loop drops from a convert-multiply chain to one integer
    /// dot instruction per 64 weights, leaving a draft step close to
    /// memory-bound. Output correctness is unaffected either way: the
    /// f32 verify pass re-derives every emitted token.
    pub fn for_draft(model: &GptModel, store: &ParamStore) -> Self {
        let mut q = Self::quantize(model, store);
        q.packed = q
            .quant
            .iter()
            .map(|(&id, qm)| (id, PackedQ8Matrix::pack(qm)))
            .collect();
        q
    }

    /// Number of quantized matrices.
    pub fn quantized_matrices(&self) -> usize {
        self.quant.len()
    }

    /// Bytes the quantized matrices alone occupy (codes + scales).
    pub fn quantized_bytes(&self) -> usize {
        self.quant.values().map(|q| q.bytes()).sum()
    }

    /// The quantized matrix behind `id`, if `id` was quantized.
    pub fn quantized(&self, id: ParamId) -> Option<&QuantizedMatrix> {
        self.quant.get(&id)
    }
}

impl ForwardParams for QuantizedParamStore {
    fn dense(&self, id: ParamId) -> &[f32] {
        self.dense
            .get(&id)
            .unwrap_or_else(|| panic!("param {id:?} is quantized; dense access is for f32 params"))
            .data()
    }

    fn matmul(&self, x: &[f32], id: ParamId, c: &mut [f32], m: usize, k: usize, n: usize) {
        if let Some(p) = self.packed.get(&id) {
            return matmul_q8a8(x, p, c, m, k, n);
        }
        match self.quant.get(&id) {
            Some(q) => matmul_q8(x, q, c, m, k, n),
            None => matmul(x, self.dense(id), c, m, k, n),
        }
    }

    fn weight_bytes(&self) -> usize {
        let dense: usize = self
            .dense
            .values()
            .map(|t| t.numel() * std::mem::size_of::<f32>())
            .sum();
        let packed: usize = self.packed.values().map(|p| p.bytes()).sum();
        dense + self.quantized_bytes() + packed
    }
}

/// The weights a serving engine runs against: one enum so the scheduler
/// holds either precision behind a single field and the choice stays a
/// construction-time config knob.
pub enum ModelWeights {
    /// Native f32 weights.
    F32(ParamStore),
    /// Int8-quantized matmul weights.
    Int8(QuantizedParamStore),
}

impl ModelWeights {
    /// Build the weights for `precision`, consuming the f32 store (the
    /// int8 path quantizes and drops it).
    pub fn from_store(model: &GptModel, store: ParamStore, precision: WeightPrecision) -> Self {
        match precision {
            WeightPrecision::F32 => ModelWeights::F32(store),
            WeightPrecision::Int8 => {
                ModelWeights::Int8(QuantizedParamStore::quantize(model, &store))
            }
        }
    }

    /// Which precision these weights hold.
    pub fn precision(&self) -> WeightPrecision {
        match self {
            ModelWeights::F32(_) => WeightPrecision::F32,
            ModelWeights::Int8(_) => WeightPrecision::Int8,
        }
    }

    /// Heap bytes the weights occupy.
    pub fn weight_bytes(&self) -> usize {
        match self {
            ModelWeights::F32(s) => s.weight_bytes(),
            ModelWeights::Int8(s) => s.weight_bytes(),
        }
    }

    /// [`GptModel::forward_cached_with`] against whichever precision is
    /// loaded, over any [`crate::infer::KvStorage`] backend.
    pub fn forward_cached<S: crate::infer::KvStorage>(
        &self,
        model: &GptModel,
        tokens: &[u32],
        cache: &mut S,
    ) -> Vec<f32> {
        match self {
            ModelWeights::F32(s) => model.forward_cached_with(s, tokens, cache),
            ModelWeights::Int8(s) => model.forward_cached_with(s, tokens, cache),
        }
    }

    /// One-token decode against whichever precision is loaded.
    pub fn decode_step<S: crate::infer::KvStorage>(
        &self,
        model: &GptModel,
        token: u32,
        cache: &mut S,
    ) -> Vec<f32> {
        self.forward_cached(model, &[token], cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArchKind, GptConfig};
    use matgpt_tensor::init;

    fn build(arch: ArchKind) -> (GptModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(17);
        let cfg = GptConfig {
            vocab_size: 48,
            hidden: 32,
            layers: 2,
            heads: 4,
            max_seq: 32,
            ..GptConfig::tiny(arch, 48)
        };
        let model = GptModel::new(cfg, &mut store, &mut rng);
        (model, store)
    }

    #[test]
    fn quantizes_every_matmul_weight() {
        for (arch, per_layer) in [(ArchKind::NeoX, 6), (ArchKind::Llama, 7)] {
            let (model, store) = build(arch);
            let q = QuantizedParamStore::quantize(&model, &store);
            assert_eq!(q.quantized_matrices(), 2 * per_layer + 1, "{arch}");
            // embeddings and norms stay dense and readable
            assert_eq!(q.dense(model.tok_emb).len(), 48 * 32);
            assert_eq!(q.dense(model.lnf_g).len(), 32);
        }
    }

    #[test]
    fn weight_bytes_shrink_well_past_half() {
        let (model, store) = build(ArchKind::Llama);
        let q = QuantizedParamStore::quantize(&model, &store);
        let f32_bytes = store.weight_bytes();
        assert!(
            q.weight_bytes() * 2 < f32_bytes,
            "{} vs {f32_bytes}",
            q.weight_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "is quantized")]
    fn dense_access_to_quantized_param_panics() {
        let (model, store) = build(ArchKind::NeoX);
        let q = QuantizedParamStore::quantize(&model, &store);
        let _ = q.dense(model.lm_head);
    }

    #[test]
    fn model_weights_enum_round_trips_precision() {
        let (model, store) = build(ArchKind::Llama);
        let f32_bytes = store.weight_bytes();
        let w = ModelWeights::from_store(&model, store, WeightPrecision::Int8);
        assert_eq!(w.precision(), WeightPrecision::Int8);
        assert!(w.weight_bytes() * 2 < f32_bytes);
        assert_eq!(WeightPrecision::default().label(), "f32");
        assert_eq!(format!("{}", WeightPrecision::Int8), "int8");
    }
}
