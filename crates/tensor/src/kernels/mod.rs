//! Raw numeric kernels: matmul, activations, norms, softmax, attention,
//! and the KV-cached inference path.

pub mod activation;
pub mod attention;
pub mod exp;
pub mod infer;
pub mod matmul;
pub mod norm;
pub mod quant;
pub mod softmax;
pub mod tanh;
