//! Raw numeric kernels: matmul, activations, norms, softmax, attention,
//! and the KV-cached inference path.

pub mod activation;
pub mod attention;
pub mod exp;
#[cfg(test)]
pub(crate) mod host_libm;
pub mod infer;
pub mod matmul;
pub mod norm;
pub mod normal;
pub mod quant;
pub mod softmax;
pub mod tanh;
