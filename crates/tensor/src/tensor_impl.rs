//! The dense tensor type: row-major `f32` storage plus a shape.
//!
//! Deliberately minimal — no views, no broadcasting zoo. The training stack
//! built on top only needs contiguous 1-D/2-D/4-D tensors, and keeping the
//! representation flat keeps every kernel's accumulation order auditable.
//! Storage is taken from the thread's buffer cache ([`crate::cache`]) and
//! goes back to it on drop; the shape is stored inline, so making a tensor
//! in steady state touches the system allocator not at all.

use crate::cache;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Highest rank a tensor can have (`[B, C, H, W]`).
const MAX_RANK: usize = 4;

/// A tensor shape stored inline (it derefs to `[usize]`): keeping one, in a
/// tensor or in a layer between its passes, allocates nothing. Unused
/// dimensions are 0, so derived equality is equality of shapes. Serialized
/// as the sequence of its dimensions, like the `Vec<usize>` it replaces.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    rank: u8,
    dims: [usize; MAX_RANK],
}

impl Shape {
    /// The shape with these dimensions; panics beyond rank 4.
    pub fn new(shape: &[usize]) -> Self {
        assert!(shape.len() <= MAX_RANK, "tensor rank {} exceeds {MAX_RANK}", shape.len());
        let mut dims = [0; MAX_RANK];
        dims[..shape.len()].copy_from_slice(shape);
        Shape { rank: shape.len() as u8, dims }
    }
}

impl std::ops::Deref for Shape {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }
}

impl Serialize for Shape {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Deserialize for Shape {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let shape: Vec<usize> = Deserialize::from_value(v)?;
        if shape.len() > MAX_RANK {
            return Err(DeError::new(format!("tensor rank {} exceeds {MAX_RANK}", shape.len())));
        }
        Ok(Shape::new(&shape))
    }
}

/// A dense, row-major, f32 tensor.
#[derive(PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Drop for Tensor {
    fn drop(&mut self) {
        cache::give(std::mem::take(&mut self.data));
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = cache::take(self.data.len());
        data.copy_from_slice(&self.data);
        Tensor { data, shape: self.shape }
    }
}

impl Tensor {
    /// Tensor of the given shape with unspecified elements (NaN in debug
    /// builds), for a result about to be written whole.
    pub fn uninit(shape: &[usize]) -> Self {
        Tensor { data: cache::take(shape.iter().product()), shape: Shape::new(shape) }
    }

    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let mut t = Self::uninit(shape);
        t.data.fill(value);
        t
    }

    /// Build from existing data; panics if the element count mismatches.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "data length {} != shape product {}", data.len(), n);
        Tensor { data, shape: Shape::new(shape) }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        let mut t = Self::uninit(&[data.len()]);
        t.data.copy_from_slice(data);
        t
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing storage.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing storage (which leaves the cache for good).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Reinterpret with a new shape of equal element count.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(self.data.len(), n, "reshape to incompatible size");
        self.shape = Shape::new(shape);
        self
    }

    /// Set every element to zero without reallocating (hot-loop friendly).
    pub fn zero_(&mut self) {
        self.data.fill(0.0);
    }

    /// Element at a flat index.
    #[inline]
    pub fn at(&self, i: usize) -> f32 {
        self.data[i]
    }

    /// Bitwise equality (exact f32 bit patterns) — the comparison that the
    /// paper's consistency claims are stated in. `PartialEq` on f32 would
    /// treat `-0.0 == 0.0` and `NaN != NaN`; bit equality does not.
    pub fn bitwise_eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(&other.data).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Maximum absolute elementwise difference — used to *quantify* drift in
    /// the loss-difference experiments (Fig 9).
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }

    /// In-place `self += alpha * other` (no allocation). Chunked into
    /// fixed-width lanes so the elementwise update auto-vectorizes without
    /// per-element bounds checks; elementwise means no accumulation order
    /// exists, so the chunking is trivially bitwise-neutral.
    // detlint::allow(oracle-unpaired): elementwise update, no reduction tree to pair against a scalar oracle; bit behavior is pinned by the optimizer grad-step and checkpoint-replay equality tests
    pub fn axpy_(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        const LANES: usize = 8;
        let mut xs = self.data.chunks_exact_mut(LANES);
        let mut ys = other.data.chunks_exact(LANES);
        for (x, y) in xs.by_ref().zip(ys.by_ref()) {
            for l in 0..LANES {
                // Elementwise, not a reduction: each x[l] sees one addend.
                // detlint::allow(no-raw-float-accum): no accumulation order exists
                x[l] += alpha * y[l];
            }
        }
        for (x, y) in xs.into_remainder().iter_mut().zip(ys.remainder()) {
            // detlint::allow(no-raw-float-accum): no accumulation order exists
            *x += alpha * y;
        }
    }

    /// In-place elementwise scale.
    pub fn scale_(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Elementwise addition into a fresh tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise product into a fresh tensor.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// `f(self[i], other[i])` into a fresh tensor of the same shape.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "elementwise shape mismatch");
        let mut out = Tensor { data: cache::take(self.data.len()), shape: self.shape };
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
        out
    }

    /// `f(self[i])` into a fresh tensor of the same shape.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = Tensor { data: cache::take(self.data.len()), shape: self.shape };
        for (o, &a) in out.data.iter_mut().zip(&self.data) {
            *o = f(a);
        }
        out
    }

    /// Memory footprint in bytes (used by the device memory model).
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape())?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.shape(), &[2, 3]);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_checks_size() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn bitwise_eq_distinguishes_signed_zero() {
        let a = Tensor::from_slice(&[0.0]);
        let b = Tensor::from_slice(&[-0.0]);
        assert!(a == b, "PartialEq sees them equal");
        assert!(!a.bitwise_eq(&b), "bitwise comparison must not");
    }

    #[test]
    fn bitwise_eq_handles_nan() {
        let a = Tensor::from_slice(&[f32::NAN]);
        let b = Tensor::from_slice(&[f32::NAN]);
        assert!(a.bitwise_eq(&b));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        a.axpy_(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).reshape(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.at(3), 4.0);
    }

    #[test]
    fn max_abs_diff_is_symmetric_enough() {
        let a = Tensor::from_slice(&[1.0, 5.0]);
        let b = Tensor::from_slice(&[1.5, 4.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
