#![warn(missing_docs)]

//! # matgpt-tensor
//!
//! Dense `f32` tensors with tape-based reverse-mode autodiff, built for the
//! MatGPT reproduction workspace. Highlights:
//!
//! * rayon-parallel matmul kernels (`ikj` ordering, transposed variants for
//!   the backward pass without materialised transposes);
//! * fused causal multi-head attention with two interchangeable kernels —
//!   a naive O(T²)-memory reference and a flash-attention-style streaming
//!   kernel with O(T) auxiliary memory (online softmax forward, recompute
//!   backward) — mirroring the contrast the paper measures on MI250X;
//! * LayerNorm / RMSNorm, GELU / SiLU, rotary embeddings, embedding
//!   gather/scatter, segment ops for graph neural networks;
//! * a [`param::ParamStore`] that persists weights across steps and feeds
//!   the optimizers in `matgpt-optim`.
//!
//! ```
//! use matgpt_tensor::{Tape, Tensor, ParamStore, init};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", init::randn(&[4, 2], 0.5, &mut init::rng(0)));
//! let mut tape = Tape::new();
//! let x = tape.input(Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]));
//! let wv = tape.param(&store, w);
//! let y = tape.matmul(x, wv);
//! let loss = tape.sum(y);
//! tape.backward(loss);
//! tape.accumulate_param_grads(&mut store);
//! assert!(store.grad_norm() > 0.0);
//! ```

pub mod checkpoint;
pub mod collective;
pub mod init;
pub mod kernels;
pub mod param;
pub mod precision;
pub mod tape;
pub mod tensor;

pub use collective::{ring_chunks, ring_fold, CommHook, TapeComm};
pub use kernels::attention::AttentionImpl;
pub use kernels::quant::{PackedQ8Matrix, QuantizedMatrix};
pub use kernels::softmax::IGNORE_INDEX;
pub use param::{ParamId, ParamStore};
pub use precision::Precision;
pub use tape::{Tape, TapeBuffers, Var};
pub use tensor::Tensor;
