//! Dense, contiguous, row-major `f32` tensors.
//!
//! The tensor type is deliberately simple: a shape vector plus a flat
//! buffer. All kernels in this crate operate on contiguous data; views
//! and permutations are realised as explicit copies, which is the right
//! trade-off at the model scales this workspace trains for real.

use std::fmt;

/// A dense row-major tensor of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor from a flat buffer and a shape. The buffer length
    /// must equal the product of the shape dimensions.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// A tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// A rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: vec![],
            data: vec![value],
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Rank (number of dimensions). Scalars have rank 0.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Size of dimension `d`.
    pub fn dim(&self, d: usize) -> usize {
        self.shape[d]
    }

    /// Immutable access to the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The single value of a scalar (or one-element) tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with {} elements",
            self.numel()
        );
        self.data[0]
    }

    /// Interpret an N-D tensor as 2-D `[rows, cols]` where `cols` is the
    /// last dimension. Scalars and vectors are `[1, n]`.
    pub fn as_2d(&self) -> (usize, usize) {
        match self.shape.len() {
            0 => (1, 1),
            1 => (1, self.shape[0]),
            _ => {
                let cols = *self.shape.last().unwrap();
                (self.data.len() / cols, cols)
            }
        }
    }

    /// Elementwise in-place addition of another tensor of identical shape.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Elementwise in-place scaling.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Squared L2 norm of the flat buffer.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// L2 norm of the flat buffer.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}] ({} elems)",
                self.data[0],
                self.data[1],
                self.data[self.numel() - 1],
                self.numel()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_query() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.dim(1), 3);
        assert_eq!(t.as_2d(), (2, 3));
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(7.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.item(), 7.5);
        assert_eq!(s.as_2d(), (1, 1));
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![0.5, 0.5, 0.5]);
        a.add_assign(&b);
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(&[2], vec![3.0, 4.0]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
        assert_eq!(t.max_abs(), 4.0);
        assert!(!t.has_non_finite());
        let bad = Tensor::from_vec(&[1], vec![f32::NAN]);
        assert!(bad.has_non_finite());
    }

    #[test]
    fn as_2d_on_3d() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.as_2d(), (6, 4));
    }
}
