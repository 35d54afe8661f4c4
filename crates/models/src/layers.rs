//! Basic layers: Dense, ReLU, Dropout, Flatten.

use crate::model::{drain, ExecCtx, Layer, ParamInit};
use tensor::ops;
use tensor::{Shape, Tensor};

/// Fully-connected layer `y = x·W + b`, `W: [in, out]`.
pub struct Dense {
    w: Tensor,
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    cached_x: Option<Tensor>,
}

impl Dense {
    /// Kaiming-uniform initialization from the model-init stream.
    pub fn init(inp: usize, out: usize, rng: &mut dyn ParamInit) -> Self {
        let bound = (6.0 / inp as f32).sqrt();
        let w = rng.tensor(&[inp, out], &mut |r| r.uniform_range_f32(-bound, bound));
        let b = Tensor::zeros(&[out]);
        Dense { gw: Tensor::zeros(&[inp, out]), gb: Tensor::zeros(&[out]), w, b, cached_x: None }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.w.shape()[1]
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let mut y = ops::matmul(x, &self.w, &ctx.profile);
        let (n, out) = (y.shape()[0], y.shape()[1]);
        let yd = y.data_mut();
        let bd = self.b.data();
        for i in 0..n {
            for j in 0..out {
                yd[i * out + j] += bd[j];
            }
        }
        self.cached_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let x = self.cached_x.as_ref().expect("backward before forward");
        // dW = xᵀ·g  (accumulate), db = column sums of g, dx = g·Wᵀ.
        let dw = ops::matmul_at_b(x, grad, &ctx.profile);
        self.gw.axpy_(1.0, &dw);
        let (n, out) = (grad.shape()[0], grad.shape()[1]);
        let gd = grad.data();
        let mut col = Tensor::uninit(&[n]);
        for (j, gb) in self.gb.data_mut().iter_mut().enumerate() {
            for (i, c) in col.data_mut().iter_mut().enumerate() {
                *c = gd[i * out + j];
            }
            *gb += ops::blocked_sum(col.data(), &ctx.profile);
        }
        // dx = g · Wᵀ: grad [n, out] against W [in, out] gives [n, in].
        self.cached_x = None;
        ops::matmul_a_bt(grad, &self.w, &ctx.profile)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.gw, &self.gb]
    }

    fn drain_grads(&mut self, out: &mut Vec<f32>) {
        drain([&mut self.gw, &mut self.gb], out);
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

/// ReLU activation.
pub struct Relu {
    cached_pre: Option<Tensor>,
}

impl Relu {
    /// New ReLU.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Relu { cached_pre: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        self.cached_pre = Some(x.clone());
        ops::relu(x)
    }

    fn backward(&mut self, grad: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let pre = self.cached_pre.take().expect("backward before forward");
        ops::relu_backward(grad, &pre)
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

/// Inverted dropout. The mask generator comes from the ExecCtx (i.e. from
/// the EST), making dropout reproducible per virtual rank — one of the D0
/// "implicit framework states".
pub struct Dropout {
    p: f32,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Dropout with drop probability `p`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Dropout { p, mask: None }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        if !ctx.training || self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = Tensor::uninit(x.shape());
        for m in mask.data_mut() {
            *m = if ctx.dropout.bernoulli(keep) { scale } else { 0.0 };
        }
        let y = x.mul(&mask);
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, grad: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        match self.mask.take() {
            Some(mask) => grad.mul(&mask),
            None => grad.clone(),
        }
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

/// Flatten `[B, …]` to `[B, prod(…)]`.
pub struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// New Flatten.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let s = x.shape();
        self.cached_shape = Some(Shape::new(s));
        x.clone().reshape(&[s[0], s[1..].iter().product()])
    }

    fn backward(&mut self, grad: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let s = self.cached_shape.take().expect("backward before forward");
        grad.clone().reshape(&s)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrng::{EsRng, StreamKey, StreamKind};
    use tensor::KernelProfile;

    fn mk_ctx(rng: &mut EsRng, training: bool) -> ExecCtx<'_> {
        ExecCtx { profile: KernelProfile::default(), training, dropout: rng }
    }

    fn init_rng() -> EsRng {
        EsRng::for_stream(5, StreamKey::global(StreamKind::ModelInit))
    }

    /// Finite-difference check of Dense gradients.
    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut rng = init_rng();
        let mut layer = Dense::init(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -0.2, 0.8, 0.1, 0.4, -0.6], &[2, 3]);
        // Loss = sum(y); dL/dy = ones.
        let mut drng = init_rng();
        let mut ctx = mk_ctx(&mut drng, true);
        let y = layer.forward(&x, &mut ctx);
        let ones = Tensor::full(y.shape(), 1.0);
        let gx = layer.backward(&ones, &mut ctx);

        // FD on one weight and one input element.
        let eps = 1e-3f32;
        let loss = |layer: &mut Dense, x: &Tensor| {
            let mut drng = init_rng();
            let mut ctx = mk_ctx(&mut drng, true);
            let y = layer.forward(x, &mut ctx);
            let s: f32 = y.data().iter().sum();
            s
        };
        // Weight (0,1): index 1 in w data.
        let base = loss(&mut layer, &x);
        layer.params_mut()[0].data_mut()[1] += eps;
        let bumped = loss(&mut layer, &x);
        layer.params_mut()[0].data_mut()[1] -= eps;
        let fd = (bumped - base) / eps;
        let analytic = layer.grads()[0].data()[1];
        assert!((fd - analytic).abs() < 1e-2, "dW fd {fd} vs analytic {analytic}");

        // Input (1,2): index 5.
        let mut x2 = x.clone();
        x2.data_mut()[5] += eps;
        let bumped = loss(&mut layer, &x2);
        let fd = (bumped - base) / eps;
        assert!((fd - gx.data()[5]).abs() < 1e-2, "dx fd {fd} vs analytic {}", gx.data()[5]);
    }

    #[test]
    fn dense_bias_gradient_is_batch_sum() {
        let mut rng = init_rng();
        let mut layer = Dense::init(2, 2, &mut rng);
        let x = Tensor::full(&[3, 2], 1.0);
        let mut drng = init_rng();
        let mut ctx = mk_ctx(&mut drng, true);
        layer.forward(&x, &mut ctx);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        layer.backward(&g, &mut ctx);
        assert_eq!(layer.grads()[1].data(), &[9.0, 12.0]);
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut d = Dropout::new(0.5);
        let x = Tensor::full(&[4, 4], 2.0);
        let mut rng = init_rng();
        let mut ctx = mk_ctx(&mut rng, false);
        let y = d.forward(&x, &mut ctx);
        assert!(y.bitwise_eq(&x));
    }

    #[test]
    fn dropout_is_reproducible_from_rng_state() {
        let mut d = Dropout::new(0.5);
        let x = Tensor::full(&[8, 8], 1.0);
        let mut rng1 = init_rng();
        let mut ctx = mk_ctx(&mut rng1, true);
        let y1 = d.forward(&x, &mut ctx);
        let mut rng2 = init_rng();
        let mut ctx = mk_ctx(&mut rng2, true);
        let y2 = d.forward(&x, &mut ctx);
        assert!(y1.bitwise_eq(&y2));
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut d = Dropout::new(0.3);
        let x = Tensor::full(&[100, 100], 1.0);
        let mut rng = init_rng();
        let mut ctx = mk_ctx(&mut rng, true);
        let y = d.forward(&x, &mut ctx);
        let mean: f32 = y.data().iter().sum::<f32>() / y.len() as f32;
        assert!((mean - 1.0).abs() < 0.02, "inverted dropout keeps E[x]: {mean}");
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5);
        let x = Tensor::full(&[4, 4], 1.0);
        let mut rng = init_rng();
        let mut ctx = mk_ctx(&mut rng, true);
        let y = d.forward(&x, &mut ctx);
        let g = d.backward(&Tensor::full(&[4, 4], 1.0), &mut ctx);
        // Gradient passes exactly where activations passed.
        for (yv, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(yv.to_bits(), gv.to_bits());
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let mut rng = init_rng();
        let mut ctx = mk_ctx(&mut rng, true);
        let y = f.forward(&x, &mut ctx);
        assert_eq!(y.shape(), &[2, 48]);
        let gx = f.backward(&y, &mut ctx);
        assert_eq!(gx.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn dropout_rejects_p_one() {
        Dropout::new(1.0);
    }
}
