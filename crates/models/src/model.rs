//! The sequential model container, execution context, and implicit state.

use esrng::EsRng;
use serde::{Deserialize, Serialize};
use tensor::{KernelProfile, Tensor};

/// Execution context for a forward/backward pass: the kernel profile
/// (accumulation-order policy), the training/eval switch, and the dropout
/// generator — which belongs to the *EST*, not the model, because it is part
/// of the per-logical-worker state that must move with the EST.
pub struct ExecCtx<'a> {
    /// Kernel profile every reduction in the pass uses.
    pub profile: KernelProfile,
    /// Training mode (dropout active, BatchNorm uses batch stats).
    pub training: bool,
    /// Dropout mask generator (owned by the calling EST).
    pub dropout: &'a mut EsRng,
}

/// Where a layer's initial parameter values come from: the job's model-init
/// stream (an [`EsRng`] draws them), or nowhere ([`Undrawn`]).
pub trait ParamInit {
    /// A tensor of `shape` holding `draw` called once per element, in order.
    fn tensor(&mut self, shape: &[usize], draw: &mut dyn FnMut(&mut EsRng) -> f32) -> Tensor;
}

impl ParamInit for EsRng {
    fn tensor(&mut self, shape: &[usize], draw: &mut dyn FnMut(&mut EsRng) -> f32) -> Tensor {
        let mut t = Tensor::uninit(shape);
        t.data_mut().iter_mut().for_each(|x| *x = draw(self));
        t
    }
}

/// [`ParamInit`] for a replica about to be loaded whole
/// ([`Model::load_flat_params`]): shaped tensors of unspecified content.
pub struct Undrawn;

impl ParamInit for Undrawn {
    fn tensor(&mut self, shape: &[usize], _: &mut dyn FnMut(&mut EsRng) -> f32) -> Tensor {
        Tensor::uninit(shape)
    }
}

/// A differentiable layer. `forward` caches whatever `backward` needs; the
/// pair must be called in strict alternation (standard tape-free reverse
/// mode for a sequential network). Parameter gradients accumulate inside the
/// layer until [`Layer::drain_grads`].
pub trait Layer: Send {
    /// Forward pass.
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor;
    /// Backward pass: takes dL/d(output), returns dL/d(input), accumulates
    /// parameter gradients.
    fn backward(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor;
    /// [`Layer::backward`] for a caller that reads no dL/d(input): the same
    /// parameter gradients, bit for bit. A layer whose input gradient is
    /// real work overrides this to skip it.
    fn backward_params(&mut self, grad: &Tensor, ctx: &mut ExecCtx) {
        self.backward(grad, ctx);
    }
    /// Learnable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }
    /// Mutable learnable parameters, same order as [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }
    /// Accumulated gradients, same order as [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }
    /// Append the accumulated gradients to `out` ([`Layer::grads`] order)
    /// and reset them to zero, in one pass over each.
    fn drain_grads(&mut self, _out: &mut Vec<f32>) {}
    /// Implicit (non-learnable, per-replica) state — BatchNorm running
    /// stats. Part of the EST context, not of the shared parameters.
    fn implicit_state(&self) -> Vec<Tensor> {
        Vec::new()
    }
    /// Copy this layer's implicit state in from the front of `state` (as
    /// captured by [`Layer::implicit_state`]); returns what is left.
    fn set_implicit_state<'a>(&mut self, state: &'a [Tensor]) -> &'a [Tensor] {
        state
    }
    /// The inverse of [`Layer::set_implicit_state`]: copy this layer's
    /// implicit state out over the front of `state`; returns what is left.
    fn save_implicit_state<'a>(&self, state: &'a mut [Tensor]) -> &'a mut [Tensor] {
        state
    }
    /// Human-readable layer kind.
    fn name(&self) -> &'static str;
    /// Whether the layer's forward relies on convolution kernels (drives the
    /// paper's D2 vendor-kernel analysis).
    fn uses_conv(&self) -> bool {
        false
    }
}

/// Implicit per-replica state of a whole model (the BatchNorm running stats
/// of every layer, in layer order). Saved inside EST contexts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImplicitState {
    /// Per-layer captured tensors (empty vectors for stateless layers).
    pub per_layer: Vec<Vec<Tensor>>,
}

impl ImplicitState {
    /// Whether `other` has this state's layers, tensors and tensor shapes.
    pub fn same_shape(&self, other: &ImplicitState) -> bool {
        let same = |(a, b): (&Vec<Tensor>, &Vec<Tensor>)| {
            a.iter().map(Tensor::shape).eq(b.iter().map(Tensor::shape))
        };
        self.per_layer.len() == other.per_layer.len()
            && self.per_layer.iter().zip(&other.per_layer).all(same)
    }
}

/// A sequential stack of layers.
pub struct Model {
    layers: Vec<Box<dyn Layer>>,
    num_params: usize,
}

impl Model {
    /// Build from layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        let num_params = layers.iter().flat_map(|l| l.params()).map(|p| p.len()).sum();
        Model { layers, num_params }
    }

    /// Forward through all layers.
    pub fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        forward_all(&mut self.layers, x, ctx)
    }

    /// Backward through all layers (reverse order), accumulating gradients.
    pub fn backward(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        backward_all(&mut self.layers, grad, ctx)
    }

    /// [`Model::backward`] for a training step, which has no use for
    /// dL/d(batch): the first layer computes no input gradient, and
    /// [`Model::flat_grads`] reads the same bits afterwards.
    pub fn backward_params(&mut self, grad: &Tensor, ctx: &mut ExecCtx) {
        let Some((first, rest)) = self.layers.split_first_mut() else { return };
        first.backward_params(&backward_all(rest, grad, ctx), ctx);
    }

    /// Zero all parameter gradients.
    pub fn zero_grads(&mut self) {
        self.take_flat_grads();
    }

    /// Total parameter element count.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Flatten all parameters into one vector. Order: **reverse layer order**
    /// (the "reversed topological order of the computation graph" PyTorch
    /// DDP uses to lay out gradient buckets), parameters within a layer in
    /// declaration order.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in self.layers.iter().rev() {
            for p in layer.params() {
                out.extend_from_slice(p.data());
            }
        }
        out
    }

    /// Flatten all gradients, same order as [`Model::flat_params`].
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in self.layers.iter().rev() {
            for g in layer.grads() {
                out.extend_from_slice(g.data());
            }
        }
        out
    }

    /// [`Model::flat_grads`], and the gradients reset to zero, in one pass.
    pub fn take_flat_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in self.layers.iter_mut().rev() {
            layer.drain_grads(&mut out);
        }
        out
    }

    /// Sizes of each parameter tensor in flat order — the unit the gradient
    /// bucketer maps into buckets.
    pub fn param_sizes(&self) -> Vec<usize> {
        self.layers.iter().rev().flat_map(|l| l.params().into_iter().map(|p| p.len())).collect()
    }

    /// Load a flat parameter vector (inverse of [`Model::flat_params`]).
    pub fn load_flat_params(&mut self, flat: &[f32]) {
        let mut off = 0;
        for layer in self.layers.iter_mut().rev() {
            for p in layer.params_mut() {
                let n = p.len();
                p.data_mut().copy_from_slice(&flat[off..off + n]);
                off += n;
            }
        }
        assert_eq!(off, flat.len(), "flat parameter vector has wrong length");
    }

    /// Apply `update[i]` to parameter element `i` (flat order):
    /// `p[i] += update[i]`. Used by optimizers operating on flat vectors.
    pub fn apply_flat_delta(&mut self, delta: &[f32]) {
        let mut off = 0;
        for layer in self.layers.iter_mut().rev() {
            for p in layer.params_mut() {
                let n = p.len();
                for (x, d) in p.data_mut().iter_mut().zip(&delta[off..off + n]) {
                    // Elementwise update, one addend per element.
                    *x += d;
                }
                off += n;
            }
        }
        assert_eq!(off, delta.len(), "flat delta vector has wrong length");
    }

    /// Capture implicit (per-replica) state — BatchNorm running stats.
    pub fn implicit_state(&self) -> ImplicitState {
        ImplicitState { per_layer: self.layers.iter().map(|l| l.implicit_state()).collect() }
    }

    /// Restore implicit state.
    pub fn set_implicit_state(&mut self, state: &ImplicitState) {
        assert_eq!(state.per_layer.len(), self.layers.len(), "implicit state layer count mismatch");
        for (layer, s) in self.layers.iter_mut().zip(&state.per_layer) {
            let rest = layer.set_implicit_state(s);
            assert!(rest.is_empty(), "layer {} left implicit state unread", layer.name());
        }
    }

    /// [`Model::implicit_state`] into a state captured from this model
    /// before: the save half of an EST context switch, allocating nothing.
    pub fn save_implicit_state(&self, state: &mut ImplicitState) {
        assert_eq!(state.per_layer.len(), self.layers.len(), "implicit state layer count mismatch");
        for (layer, s) in self.layers.iter().zip(&mut state.per_layer) {
            let rest = layer.save_implicit_state(s);
            assert!(rest.is_empty(), "layer {} left implicit state unwritten", layer.name());
        }
    }

    /// Whether any layer relies on convolution kernels — the model scan
    /// EasyScale performs to decide if D2 (heterogeneous GPUs) is safe
    /// without vendor-kernel slowdown considerations (§3.3).
    pub fn uses_conv(&self) -> bool {
        self.layers.iter().any(|l| l.uses_conv())
    }
}

/// `x` through `layers` in order, each reading its predecessor's output in
/// place. An empty stack is the identity.
pub(crate) fn forward_all(layers: &mut [Box<dyn Layer>], x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
    let mut cur: Option<Tensor> = None;
    for layer in layers {
        cur = Some(layer.forward(cur.as_ref().unwrap_or(x), ctx));
    }
    cur.unwrap_or_else(|| x.clone())
}

/// `grad` back through `layers` in reverse order; see [`forward_all`].
pub(crate) fn backward_all(
    layers: &mut [Box<dyn Layer>],
    grad: &Tensor,
    ctx: &mut ExecCtx,
) -> Tensor {
    let mut cur: Option<Tensor> = None;
    for layer in layers.iter_mut().rev() {
        cur = Some(layer.backward(cur.as_ref().unwrap_or(grad), ctx));
    }
    cur.unwrap_or_else(|| grad.clone())
}

/// [`Layer::drain_grads`] for a layer whose gradients are `grads`.
pub(crate) fn drain<const N: usize>(grads: [&mut Tensor; N], out: &mut Vec<f32>) {
    for g in grads {
        out.extend_from_slice(g.data());
        g.zero_();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use esrng::{StreamKey, StreamKind};

    fn ctx_rng() -> EsRng {
        EsRng::for_stream(0, StreamKey::ranked(StreamKind::Dropout, 0))
    }

    fn tiny_model() -> Model {
        let mut rng = EsRng::for_stream(1, StreamKey::global(StreamKind::ModelInit));
        Model::new(vec![
            Box::new(Dense::init(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::init(8, 3, &mut rng)),
        ])
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut m = tiny_model();
        let flat = m.flat_params();
        assert_eq!(flat.len(), m.num_params());
        let mut scaled: Vec<f32> = flat.iter().map(|x| x * 2.0).collect();
        m.load_flat_params(&scaled);
        let back = m.flat_params();
        assert_eq!(back, scaled);
        // apply_flat_delta adds elementwise.
        let delta = vec![1.0f32; scaled.len()];
        m.apply_flat_delta(&delta);
        for (a, b) in m.flat_params().iter().zip(scaled.iter_mut()) {
            assert_eq!(*a, *b + 1.0);
        }
    }

    #[test]
    fn flat_order_is_reverse_topological() {
        let m = tiny_model();
        let sizes = m.param_sizes();
        // Reverse order: last Dense (8→3: w=24, b=3) first.
        assert_eq!(sizes, vec![24, 3, 32, 8]);
    }

    #[test]
    fn forward_backward_shapes() {
        let mut m = tiny_model();
        let mut rng = ctx_rng();
        let mut ctx =
            ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut rng };
        let x = Tensor::zeros(&[5, 4]);
        let y = m.forward(&x, &mut ctx);
        assert_eq!(y.shape(), &[5, 3]);
        let gx = m.backward(&Tensor::zeros(&[5, 3]), &mut ctx);
        assert_eq!(gx.shape(), &[5, 4]);
    }

    #[test]
    fn zero_grads_clears() {
        let mut m = tiny_model();
        let mut rng = ctx_rng();
        let mut ctx =
            ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut rng };
        let x = Tensor::full(&[2, 4], 0.5);
        let y = m.forward(&x, &mut ctx);
        m.backward(&Tensor::full(y.shape(), 1.0), &mut ctx);
        assert!(m.flat_grads().iter().any(|&g| g != 0.0));
        m.zero_grads();
        assert!(m.flat_grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mlp_does_not_use_conv() {
        assert!(!tiny_model().uses_conv());
    }
}
