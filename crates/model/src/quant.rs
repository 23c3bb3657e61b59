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
//! [`GptModel::forward_cached`] runs against either store through the
//! [`ForwardParams`] trait — the one place precision is dispatched — so
//! the serving engine picks a store once from its [`WeightPrecision`]
//! knob and everything downstream — KV cache, scheduler, sampling — is
//! unchanged (DECODING.md has the whole decode-path table).

use crate::gpt::GptModel;
use matgpt_tensor::kernels::matmul::matmul;
use matgpt_tensor::kernels::quant::{matmul_q8, matmul_q8a8, PackedQ8Matrix, QuantizedMatrix};
use matgpt_tensor::{ParamId, ParamStore, Tensor};
use std::collections::HashMap;

/// Which weight datatype the cached decode path runs against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
    /// `y = x @ w (+ b)`, x `[m, k]`, w `[k, n]`, `b` a dense bias row.
    fn linear(
        &self,
        x: &[f32],
        w: ParamId,
        b: Option<ParamId>,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut y = vec![0.0f32; m * n];
        self.matmul(x, w, &mut y, m, k, n);
        if let Some(b) = b {
            let bias = self.dense(b);
            for row in y.chunks_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
        }
        y
    }
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

/// One quantized matrix, in the layout the kernel that streams it reads.
enum Codes {
    /// Row-major `[k, n]` codes for the W8A32 [`matmul_q8`]: the f32
    /// blocked nest over the codes widened in registers, then one scale
    /// per column.
    Rows(QuantizedMatrix),
    /// Blocked codes for the W8A8 integer-dot [`matmul_q8a8`].
    Packed(PackedQ8Matrix),
}

/// A [`ParamStore`] snapshot with every matmul weight quantized to
/// per-channel int8 and everything else kept f32. Self-contained —
/// drop the f32 store after building one.
pub struct QuantizedParamStore {
    dense: HashMap<ParamId, Tensor>,
    /// The one representation each quantized matrix is held in.
    codes: HashMap<ParamId, Codes>,
}

impl QuantizedParamStore {
    /// Quantize `model`'s matmul weights out of `store`, holding each in
    /// the layout `encode` turns it into.
    fn build(
        model: &GptModel,
        store: &ParamStore,
        encode: impl Fn(QuantizedMatrix) -> Codes,
    ) -> Self {
        let layer_matmuls = model.layers.iter().flat_map(|layer| {
            layer
                .iter()
                .filter(|(spec, _)| spec.is_matmul())
                .map(|(_, id)| id)
        });
        let codes: HashMap<_, _> = std::iter::once(model.lm_head)
            .chain(layer_matmuls)
            .map(|id| {
                let t = store.value(id);
                let (k, n) = t.as_2d();
                (id, encode(QuantizedMatrix::quantize(t.data(), k, n)))
            })
            .collect();
        let dense = store
            .ids()
            .filter(|id| !codes.contains_key(id))
            .map(|id| (id, store.value(id).clone()))
            .collect();
        Self { dense, codes }
    }

    /// Quantize `model`'s matmul weights out of `store`.
    pub fn quantize(model: &GptModel, store: &ParamStore) -> Self {
        Self::build(model, store, Codes::Rows)
    }

    /// Quantize for use as a speculative *draft*: each matrix is held
    /// only in its integer-dot packing ([`PackedQ8Matrix`]) and runs
    /// W8A8 — activations are int8-quantized per row and dot products
    /// accumulate exactly in i32. Roughly 1% extra rounding error per
    /// linear versus the serving [`Self::quantize`] path, which for a
    /// draft only shows up as slightly lower acceptance — while the
    /// inner loop drops from a convert-multiply chain to one integer
    /// dot instruction per 64 weights, and [`matmul_q8a8`] streams the
    /// codes once per call, whatever `m`. Traced on the benchmark's
    /// `dram_spec` (`serve:spec-draft` ÷ `serve:spec-verify` per
    /// macro-step), a draft step costs 0.27–0.28 of the f32 verify step
    /// it shadows (0.79–0.81 when the kernel streamed the codes once per
    /// row); the bytes alone would say 1/4. Output correctness is
    /// unaffected either way: the f32 verify pass re-derives every
    /// emitted token.
    pub fn for_draft(model: &GptModel, store: &ParamStore) -> Self {
        Self::build(model, store, |q| Codes::Packed(PackedQ8Matrix::pack(&q)))
    }

    /// Number of quantized matrices.
    pub fn quantized_matrices(&self) -> usize {
        self.codes.len()
    }

    /// Bytes the quantized matrices alone occupy (codes + scales, plus
    /// the packing's column sums on a draft store).
    pub fn quantized_bytes(&self) -> usize {
        self.codes
            .values()
            .map(|c| match c {
                Codes::Rows(q) => q.bytes(),
                Codes::Packed(p) => p.bytes(),
            })
            .sum()
    }

    /// The row-major quantized matrix behind `id`: `None` when `id` was
    /// not quantized, or is held packed ([`Self::for_draft`]).
    pub fn quantized(&self, id: ParamId) -> Option<&QuantizedMatrix> {
        match self.codes.get(&id) {
            Some(Codes::Rows(q)) => Some(q),
            _ => None,
        }
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
        match self.codes.get(&id) {
            Some(Codes::Packed(p)) => matmul_q8a8(x, p, c, m, k, n),
            Some(Codes::Rows(q)) => matmul_q8(x, q, c, m, k, n),
            None => matmul(x, self.dense(id), c, m, k, n),
        }
    }

    fn weight_bytes(&self) -> usize {
        let dense: usize = self
            .dense
            .values()
            .map(|t| t.numel() * std::mem::size_of::<f32>())
            .sum();
        dense + self.quantized_bytes()
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
    fn precision_labels_are_stable() {
        assert_eq!(WeightPrecision::default().label(), "f32");
        assert_eq!(format!("{}", WeightPrecision::Int8), "int8");
    }

    #[test]
    fn draft_store_holds_one_copy_of_each_matrix() {
        // k % 4 == 0 and n % 16 == 0 everywhere, so the packing adds only
        // `colsum` to the codes: a store that also kept the row-major
        // copy would weigh about one `quantized_bytes()` more
        let (model, store) = build(ArchKind::NeoX);
        let served = QuantizedParamStore::quantize(&model, &store);
        let draft = QuantizedParamStore::for_draft(&model, &store);
        assert_eq!(draft.quantized_matrices(), served.quantized_matrices());
        assert!(draft.quantized(model.lm_head).is_none(), "held packed");
        assert!(
            draft.weight_bytes() < served.weight_bytes() + served.quantized_bytes() / 2,
            "draft {} vs served {} (+ codes {})",
            draft.weight_bytes(),
            served.weight_bytes(),
            served.quantized_bytes()
        );
    }
}
